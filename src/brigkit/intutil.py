"""Integer helpers: surd signs, valuations, and factoring.

The only factorization ever performed is of gcd(A, B) when extracting the
largest d with d | A and d^2 | B; A and B themselves are never factored.
"""

from __future__ import annotations

from math import gcd


def surd_sign(x: int, y: int, d: int) -> int:
    """Exact sign (-1, 0 or 1) of x + y*sqrt(d) for integers x, y and d >= 0;
    every sign of a quadratic surd in brigkit is decided here.

    Only opposite signs need work: then the larger square wins.
    """
    if d < 0:
        raise ValueError("radicand must be non-negative")
    if x > 0:
        if y >= 0 or not d:
            return 1
        big, small = x * x, y * y * d
    elif x < 0:
        if y <= 0 or not d:
            return -1
        big, small = y * y * d, x * x
    else:
        return (y > 0) - (y < 0) if d else 0
    return (big > small) - (big < small)


def valuation(n: int, p: int) -> int:
    """Exponent of the prime p in n.  Requires n != 0."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


# Trial divisors, and the Miller-Rabin bases: deterministic below 3.3 * 10^24;
# above that the same bases give a strong probable-prime test, which is ample
# for the gcd-support sizes this module sees.
_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of composite odd n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    seed = 1
    while True:
        y, c, m = seed % n or 1, seed % n or 1, 128
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
        seed += 1


def prime_factors(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {p: exponent}."""
    if n < 1:
        raise ValueError("n must be positive")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 41
    while f * f <= n and f < 10_000:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 2
    if n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if is_probable_prime(m):
                out[m] = out.get(m, 0) + 1
                continue
            d = _pollard_brent(m)
            stack.append(d)
            stack.append(m // d)
    return out


def square_cofactor(a: int, b: int) -> int:
    """Largest d >= 1 with d | a and d*d | b (a, b not both zero).

    Per prime p the exponent is min(v_p(a), floor(v_p(b) / 2)); only primes
    dividing gcd(a, b) can contribute, so only that gcd is ever factored.
    A zero argument imposes no constraint on its side.
    """
    if a == 0 and b == 0:
        raise ValueError("square_cofactor(0, 0) is undefined")
    g = gcd(a, b)
    if g <= 1:
        return 1
    d = 1
    for p in prime_factors(g):
        va = None if a == 0 else valuation(a, p)
        vb = None if b == 0 else valuation(b, p) // 2
        if va is None:
            e = vb
        elif vb is None:
            e = va
        else:
            e = min(va, vb)
        d *= p ** e
    return d

