"""The integer kernels under brigkit: Lucas pairs, terms, zero and growth scans.

Everything here is plain integer arithmetic: comparisons against powers of
roots use Lucas-pair representations, and a bound with a surd in it is
violated exactly when one intutil.surd_sign of (bound - |u_n|), with
denominators cleared, is positive; so no rationals and no floating point
appear in any loop.  The zero scan first screens residues modulo a prime:
a baby-step giant-step search finds the last index whose residue is 0 in
O(sqrt(hi)) giant steps, with one baby table per (A, B) mod the prime.  A
nonzero residue proves u_n != 0, so the screen only rules indices out, and
the exact recurrence, unchanged, decides every index it leaves.  The real
and Lucas growth scans first compare bit lengths: alpha^m and phi^m
depend only on (A, B) and m, so a cached per-pair table holds
e_m = bit_length(floor(alpha^m)), and 2^(e_m - 1) <= alpha^m < 2^e_m makes
a longer k*|u_n| prove a bound k*|u_n| >= alpha^m and a shorter one refute
it.  Only equal lengths go to surd_sign, on a Lucas pair built for that
index.  The non-real scan builds |u_n|^3 only where its bit length and that
of B^n leave |u_n|^3 < B^n open.  The kernels call lucas_u_pair through
this module's globals, so a wrapper set on brigkit.kernels.lucas_u_pair
sees every call.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

from .intutil import surd_sign

# Largest prime below 2^30: every residue is a single CPython digit.
_SCREEN_PRIME = 1_073_741_789


def lucas_u_pair(A: int, B: int, n: int) -> tuple[int, int]:
    """(U_n, U_{n+1}) by top-down fast doubling.

    U_{2k} = U_k * (2*U_{k+1} - A*U_k) and U_{2k+1} = U_{k+1}^2 - B*U_k^2;
    three big multiplications per bit of n.
    """
    if n < 0:
        raise ValueError("index must be non-negative")
    u, u1 = 0, 1
    for bit in bin(n)[2:]:
        d = u * (2 * u1 - A * u)
        e = u1 * u1 - B * u * u
        if bit == "1":
            u, u1 = e, A * e - B * d
        else:
            u, u1 = d, e
    return u, u1


def lucas_uv(A: int, B: int, n: int) -> tuple[int, int]:
    """(U_n, V_n) for the Lucas sequences of first and second kind."""
    u, u1 = lucas_u_pair(A, B, n)
    return u, 2 * u1 - A * u


def term_at(A: int, B: int, P: int, Q: int, n: int) -> int:
    """u_n in O(log n) big multiplications via u_n = U_n*Q + (U_{n+1} - A*U_n)*P."""
    if n < 0:
        raise ValueError("index must be non-negative")
    if n == 0:
        return P
    u, u1 = lucas_u_pair(A, B, n)
    return u * Q + (u1 - A * u) * P


def term_window(A: int, B: int, P: int, Q: int, n: int) -> tuple[int, int]:
    """(u_n, u_{n+1}) from one Lucas pair: u_n = U_n*Q + (U_{n+1} - A*U_n)*P
    and u_{n+1} = U_{n+1}*Q - B*U_n*P (n = 0 gives (P, Q)).

    Q - A*P and B*P do not grow with n, so grouping them first builds four
    products and no other temporary the size of U_n.
    """
    u, u1 = lucas_u_pair(A, B, n)
    return u * (Q - A * P) + u1 * P, u1 * Q - u * (B * P)


def term_iter(A: int, B: int, P: int, Q: int, n: int) -> int:
    """u_n by n-1 recurrence steps; the linear-time reference path."""
    if n < 0:
        raise ValueError("index must be non-negative")
    if n == 0:
        return P
    prev, cur = P, Q
    for _ in range(n - 1):
        prev, cur = cur, A * cur - B * prev
    return cur


def zero_scan(A: int, B: int, P: int, Q: int, lo: int, hi: int) -> list[int]:
    """All k in [lo, hi] with u_k = 0.

    Two passes.  The screen finds, modulo p = _SCREEN_PRIME, the last index
    in [1, hi] whose residue is 0 (see _last_residue_zero: a baby-step
    giant-step search in O(sqrt(hi)) giant steps); u_k is not 0 mod p
    implies u_k != 0, so no zero lies past that index.  The exact pass then
    iterates the integer recurrence up to it and returns its hits: a residue
    never decides a verdict, and a false residue hit only makes the exact
    pass longer.
    """
    p = _SCREEN_PRIME
    last = _last_residue_zero(A % p, B % p, P % p, Q % p, hi, p)

    hits = []
    prev, cur = P, Q
    if lo == 0 and hi >= 0 and P == 0:
        hits.append(0)
    n = 1
    while n <= last:
        if n >= lo and cur == 0:
            hits.append(n)
        prev, cur = cur, A * cur - B * prev
        n += 1
    return hits


def _last_residue_zero(a: int, b: int, x: int, z: int, hi: int, p: int) -> int:
    """The last n in [1, hi] with u_n = 0 mod p, or 0 if there is none, for
    the residues a, b of A, B and x, z of P, Q.

    s_n = (u_n, u_{n+1}) = N^n (x, z) with N = [[0, 1], [-b, a]].  For b != 0
    and s_0 != 0, N is invertible, so s_n never vanishes and u_n = 0 exactly
    when s_n is the projective point (0 : 1).  Writing n = i*m - j with
    1 <= i <= ceil(hi/m) and 0 <= j < m covers [1, ceil(hi/m)*m] once, and
    u_n = 0 exactly when G^i s_0 is the point N^j (0 : 1), G = N^m: the baby
    table of _baby_steps maps each point's key to its j, and the giant steps
    look G^i s_0 up in it.  A point's key is x/z mod p, or p for z = 0.
    m is a power of two near sqrt(hi), so a call takes about sqrt(hi) giant
    steps and the table is shared by every (P, Q) of a pair.  The cases
    outside that argument have closed forms: s_0 = 0 makes every residue 0;
    b = 0 gives u_n = a^(n-1)*z for n >= 1; and when (0 : 1) returns to
    itself after T < m steps, the zeros are the n = -j (mod T).
    """
    if hi < 1:
        return 0
    if not x and not z:
        return hi
    if not b:
        if not z:
            return hi
        return hi if not a and hi >= 2 else 0
    m = 1 << (hi.bit_length() + 1) // 2
    table, period, giant = _baby_steps(a, b, p, m)
    if period:
        j = table.get(x * pow(z, -1, p) % p if z else p)
        if j is None:
            return 0
        return max(hi - (hi + j) % period, 0)
    g11, g12, g21, g22 = giant
    last = 0
    for i in range(1, -(-hi // m) + 1):
        x, z = (g11 * x + g12 * z) % p, (g21 * x + g22 * z) % p
        j = table.get(x * pow(z, -1, p) % p if z else p)
        if j is not None and i * m - j <= hi:
            last = i * m - j
    return last


@lru_cache(maxsize=16)
def _baby_steps(a: int, b: int, p: int, m: int):
    """(table, period, G) for the giant-step screen modulo the prime p, with
    b != 0 mod p.

    N^j (0, 1) = (U_j, U_{j+1}), the Lucas sequence mod p.  table maps the
    key of each point N^j (0 : 1) to j.  N permutes the projective line, so
    the orbit of (0 : 1) is a cycle, and the first repeated key is that of
    (0 : 1) itself, at j = T, the cycle length: period is T when T < m and
    then the table holds j < T and G is None; otherwise period is 0, the
    table holds j < m, and G = N^m = [[U_{m+1} - a*U_m, U_m],
    [-b*U_m, U_{m+1}]] mod p.
    """
    table = {}
    x, z = 0, 1
    for j in range(m):
        key = x * pow(z, -1, p) % p if z else p
        if key in table:
            return table, j, None
        table[key] = j
        x, z = z, (a * z - b * x) % p
    return table, 0, ((z - a * x) % p, x, -b * x % p, z)


@lru_cache(maxsize=8)
def _power_bits(A: int, B: int, hi: int) -> tuple[int, ...]:
    """e_m = bit_length(floor(alpha^m)) for m = 0..hi, where
    alpha = (A + sqrt(delta))/2, A > 0 and delta = A^2 - 4B > 0.

    floor(alpha^m) = (V_m + isqrt(U_m^2*delta)) >> 1 exactly, since U_m >= 0
    and floor(x/2) = floor(floor(x)/2).  Only the bit lengths are kept, so a
    table costs O(hi) words; the Fibonacci table is the one for (1, -1).
    """
    delta = A * A - 4 * B
    bits = []
    u, u1 = 0, 1
    for _ in range(hi + 1):
        bits.append(((2 * u1 - A * u + isqrt(u * u * delta)) >> 1).bit_length())
        u, u1 = u1, A * u1 - B * u
    return tuple(bits)


def _power_exceeds(A: int, B: int, m: int, x: int, w: int = 1) -> bool:
    """Exactly whether w*alpha^m > x, for the alpha of _power_bits: the
    sign of w*V_m - 2x + w*U_m*sqrt(delta).  The scans call it only where
    the bit lengths leave the comparison open."""
    u, v = lucas_uv(A, B, m)
    return surd_sign(w * v - 2 * x, w * u, A * A - 4 * B) > 0


def real_growth_scan(A: int, B: int, P: int, Q: int,
                     lo: int, hi: int, far: bool) -> int:
    """First n in [lo, hi] violating the applicable real-case lower bounds,
    or -1 if none.

    Requires A > 0, A^2 > 4B, P != 0, Q != 0, lo >= 2.  For the far branch
    the two checks are |u_n| >= |Q|*(alpha/2)^(n-2) and |u_n| >= |Q|*(sqrt5/2)^n;
    for the near branch |u_n| >= alpha^(n-2)/max(5|P|, 22|Q|) and
    |u_n| >= phi^n/max(14|P|, 36|Q|).

    Only u_n is rolled.  A bound k*|u_n| >= alpha^m is screened against
    e = e_m from _power_bits: 2^(e-1) <= floor(alpha^m) <= alpha^m < 2^e, so
    bit_length(k*|u_n|) > e proves it and < e refutes it.  On the far branch
    |Q|*alpha^(n-2) is only known to lie in [2^(e+b-2), 2^(e+b)), b the bit
    length of Q, so |u_n|*2^(n-2) is undecided at two lengths.  Every
    undecided comparison goes to _power_exceeds, the exact surd_sign test.
    """
    if lo < 2:
        raise ValueError("scan start must be >= 2")
    if hi < lo:
        return -1
    absq = abs(Q)
    ea = _power_bits(A, B, hi)

    prev, cur = P, Q
    for _ in range(lo - 1):
        prev, cur = cur, A * cur - B * prev
    if far:
        q2 = Q * Q
        bq = absq.bit_length()
        pw2 = 1 << lo          # 2^n
        pw5 = 5 ** lo          # 5^n
        for n in range(lo, hi + 1):
            absu = -cur if cur < 0 else cur
            x = absu << (n - 2)             # |u_n|*2^(n-2) >= |Q|*alpha^(n-2)
            gap = x.bit_length() - ea[n - 2] - bq
            if gap < -1 or (gap <= 0 and _power_exceeds(A, B, n - 2, x, absq)):
                return n
            if absu * absu * pw2 * pw2 < q2 * pw5:
                return n
            prev, cur = cur, A * cur - B * prev
            pw2 <<= 1
            pw5 *= 5
        return -1

    k1 = max(5 * abs(P), 22 * absq)
    k2 = max(14 * abs(P), 36 * absq)
    ef = _power_bits(1, -1, hi)
    for n in range(lo, hi + 1):
        absu = -cur if cur < 0 else cur
        x = k1 * absu                       # k1*|u_n| >= alpha^(n-2)
        bits, e = x.bit_length(), ea[n - 2]
        if bits < e or (bits == e and _power_exceeds(A, B, n - 2, x)):
            return n
        x = k2 * absu                       # k2*|u_n| >= phi^n
        bits, e = x.bit_length(), ef[n]
        if bits < e or (bits == e and _power_exceeds(1, -1, n, x)):
            return n
        prev, cur = cur, A * cur - B * prev
    return -1


def nonreal_growth_scan(A: int, B: int, P: int, Q: int,
                        lo: int, hi: int) -> int:
    """Last n in [lo, hi] with |u_n|^3 < B^n, or -1 if the cube bound holds
    throughout.  Requires A^2 < 4B (so B >= 1).

    Screened by bit lengths: for L = bit_length(|u_n|) and e =
    bit_length(B^n), |u_n|^3 lies in [2^(3L-3), 2^(3L)) and B^n in
    [2^(e-1), 2^e), so 3L < e proves |u_n|^3 < B^n and 3L - 2 > e refutes
    it; only 3L - 2 <= e <= 3L builds the cube."""
    if lo < 0 or hi < lo:
        return -1
    prev, cur = P, Q
    for _ in range(lo - 1):
        prev, cur = cur, A * cur - B * prev
    un = P if lo == 0 else cur
    bp = B ** lo
    last = -1
    n = lo
    while n <= hi:
        a = -un if un < 0 else un
        t, e = 3 * a.bit_length(), bp.bit_length()
        if t < e or (e >= t - 2 and a * a * a < bp):
            last = n
        if n == 0:
            un = Q
        else:
            prev, cur = cur, A * cur - B * prev
            un = cur
        bp *= B
        n += 1
    return last


def lucas_growth_scan(A: int, B: int, lo: int, hi: int) -> int:
    """First n in [lo, hi] violating the Lucas growth bound, or -1.

    Requires A > 0, A^2 > 4B, lo >= 2.  For B < 0 the bound is
    2|U_n| >= alpha^(n-2); for 0 < 4B < A^2 it is |U_n| >= alpha^(n-1).
    Screened by bit lengths against _power_bits as in real_growth_scan;
    equal lengths go to the exact _power_exceeds.
    """
    if lo < 2:
        raise ValueError("scan start must be >= 2")
    if hi < lo:
        return -1
    off, shift = (2, 1) if B < 0 else (1, 0)
    ea = _power_bits(A, B, hi)
    un, un1 = 0, 1
    for _ in range(lo):
        un, un1 = un1, A * un1 - B * un
    for n in range(lo, hi + 1):
        x = (-un if un < 0 else un) << shift
        bits, e = x.bit_length(), ea[n - off]
        if bits < e or (bits == e and _power_exceeds(A, B, n - off, x)):
            return n
        un, un1 = un1, A * un1 - B * un
    return -1


def backend_name() -> str:
    """Always "pure": this module is the only kernel implementation.  Kept
    because perfbench records the name in its reports."""
    return "pure"
