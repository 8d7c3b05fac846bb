"""The integer kernels under brigkit: Lucas pairs, terms, zero and growth scans.

Everything here is plain integer arithmetic: comparisons against powers of
roots use Lucas-pair representations, and a bound with a surd in it is
decided by one intutil.surd_sign on integers with denominators cleared, so
no rationals and no floating point appear in any loop.

lucas_u_pair doubles (x, y) = (U_k, U_{k+1}) with three squarings per bit
of n: U_{2k} = (x + y)^2 - y^2 - (A + 1)*x^2 and U_{2k+1} = y^2 - B*x^2.
term_at stops that ladder at k = n//2 and writes u_n as one quadratic form
a*x^2 + b*x*y + c*y^2, with c = P for even n and c = Q for odd n, which two
squarings and one exact division evaluate: 4c*u_n = (2c*y + b*x)^2 +
(4ac - b^2)*x^2.  Both refuse an n whose bound on the bits of U_n passes
_MAX_BITS before they compute anything.

The zero scan first screens residues modulo a prime: a baby-step giant-step
search finds the last index whose residue is 0 in O(sqrt(hi)) giant steps,
with one baby table per (A, B) mod the prime, and one modular inverse per
table and per scan (_keys batch-inverts each list of points).  A nonzero
residue proves u_n != 0, so the screen only rules indices out, and the
exact recurrence, unchanged, decides every index it leaves.  The real and
Lucas growth scans share one loop, _first_violation, over the bounds that
real_bounds and lucas_bound declare as rows k*2^(e*m)*|u_n| >= c*gamma^m
(the per-index checkers of brigkit.growth evaluate the same rows).  The
loop is built on the closed form sqrt(delta)*u_n = (Q - P*beta)*alpha^n -
(Q - P*alpha)*beta^n: its lower envelope l_n, with l_n/alpha^n never
decreasing, turns one exact test at one index into a proof of a bound at
every later index, so a scan usually ends at its first index; where the
envelope does not yet suffice, the bounds are decided exactly on |u_n| and
the scan steps once.  A scan takes its rows' gamma^m and its first window
from the Lucas pairs that _start_pair caches, since the scans of one (A, B)
pair start at few distinct indices.  The non-real scan builds |u_n|^3 only
where its bit length and that of B^n leave |u_n|^3 < B^n open.  The
kernels call lucas_u_pair through this module's globals, so a wrapper set
on brigkit.kernels.lucas_u_pair sees every call (a warm _start_pair makes
none).
"""

from __future__ import annotations

from functools import lru_cache

from .intutil import surd_sign

# Largest prime below 2^30: every residue is a single CPython digit.
_SCREEN_PRIME = 1_073_741_789

# The largest hi zero_scan accepts; a larger one raises before the screen
# allocates its table.
_MAX_SCAN = (1 << 32) - 1

# lucas_u_pair, term_at and the linear walks refuse an index whose bound on
# the bits of U_n passes this (2^36 bits is 8 GiB).
_MAX_BITS = 1 << 36


def lucas_u_pair(A: int, B: int, n: int) -> tuple[int, int]:
    """(U_n, U_{n+1}) by top-down fast doubling, three squarings per bit of n.

    With x = U_k and y = U_{k+1}, U_{2k} = 2xy - A*x^2 and U_{2k+1} = y^2 -
    B*x^2 are taken from the squares x^2, y^2 and (x + y)^2 alone:

        U_{2k}   = (x + y)^2 - y^2 - (A + 1)*x^2
        U_{2k+1} = y^2 - B*x^2

    and a set bit steps once more, U_{2k+2} = A*U_{2k+1} - B*U_{2k}.  CPython
    squares a big integer faster than it multiplies two.  |U_n| <= (|A| +
    |B|)^(n-1), so n*bit_length(|A| + |B|) bounds the bits of U_n; past
    _MAX_BITS the call raises ValueError before its first step.
    """
    if n < 0:
        raise ValueError("index must be non-negative")
    _refuse_huge(A, B, n)
    if not n:
        return 0, 1
    a1 = A + 1
    u, u1 = 1, A             # (U_1, U_2): the leading bit of n is 1
    for bit in bin(n)[3:]:
        # rebind u and u1 to their squares: no U_k is kept beside its square
        s = u + u1
        u = u * u
        u1 = u1 * u1
        d = s * s - u1 - a1 * u
        e = u1 - B * u
        if bit == "1":
            u, u1 = e, A * e - B * d
        else:
            u, u1 = d, e
    return u, u1


def _refuse_huge(A: int, B: int, n: int) -> None:
    """Raise ValueError when n*bit_length(|A| + |B|), a bound on the bits of
    U_n, passes _MAX_BITS: such a term would not fit in memory."""
    if n * (abs(A) + abs(B)).bit_length() > _MAX_BITS:
        raise ValueError(f"index {n} is too large: U_n may need more than "
                         f"2^{_MAX_BITS.bit_length() - 1} bits")


def lucas_uv(A: int, B: int, n: int) -> tuple[int, int]:
    """(U_n, V_n) for the Lucas sequences of first and second kind."""
    u, u1 = lucas_u_pair(A, B, n)
    return u, 2 * u1 - A * u


def term_at(A: int, B: int, P: int, Q: int, n: int) -> int:
    """u_n from the Lucas pair at k = n//2 and one fused last step.

    With x = U_k and y = U_{k+1}, u_n = U_n*(Q - A*P) + U_{n+1}*P is the
    quadratic form a*x^2 + b*x*y + c*y^2, where, for w = A*P - Q,

        n = 2k:      a = A*w - B*P,  b = -2*w,    c = P
        n = 2k + 1:  a = B*w,        b = -2*B*P,  c = Q

    Completing the square, 4c*u_n = (2c*y + b*x)^2 + (4ac - b^2)*x^2: two
    squarings and one exact division.  For c = 0, u_n = x*(a*x + b*y): one
    product.  n itself passes lucas_u_pair's size guard.
    """
    if n < 0:
        raise ValueError("index must be non-negative")
    _refuse_huge(A, B, n)
    x, y = lucas_u_pair(A, B, n >> 1)
    w = A * P - Q
    if n & 1:
        a, b, c = B * w, -2 * B * P, Q
    else:
        a, b, c = A * w - B * P, -2 * w, P
    if not c:
        return x * (a * x + b * y)
    z = 2 * c * y + b * x
    return (z * z + (4 * a * c - b * b) * (x * x)) // (4 * c)


def term_window(A: int, B: int, P: int, Q: int, n: int) -> tuple[int, int]:
    """(u_n, u_{n+1}) from one Lucas pair (n = 0 gives (P, Q))."""
    return _window(A, B, P, Q, *lucas_u_pair(A, B, n))


def _window(A: int, B: int, P: int, Q: int, u: int, u1: int) -> tuple[int, int]:
    """(u_n, u_{n+1}) from (u, u1) = (U_n, U_{n+1}): u_n = U_n*Q + (U_{n+1} -
    A*U_n)*P and u_{n+1} = U_{n+1}*Q - B*U_n*P.

    Q - A*P and B*P do not grow with n, so grouping them first builds four
    products and no other temporary the size of U_n.
    """
    return u * (Q - A * P) + u1 * P, u1 * Q - u * (B * P)


@lru_cache(maxsize=256)
def _start_pair(a: int, b: int, m: int) -> tuple[int, int]:
    """lucas_u_pair(a, b, m) for _first_violation's rows and start windows.

    A growth scan needs the pairs at its first index only, and the scans of
    one (A, B) pair start at few distinct indices, so a small cache serves
    most of them while the sweep works pair by pair.  It holds at most 256
    pairs, each as large as its U_m.
    """
    return lucas_u_pair(a, b, m)


def term_iter(A: int, B: int, P: int, Q: int, n: int) -> int:
    """u_n by n-1 recurrence steps; the linear-time reference path.  n
    passes lucas_u_pair's size guard before the first step."""
    if n < 0:
        raise ValueError("index must be non-negative")
    _refuse_huge(A, B, n)
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
    if hi > _MAX_SCAN:
        raise ValueError(f"zero scan bound {hi} exceeds 2^32 - 1")
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
    look G^i s_0 up in it.  A point's key is x/z mod p, or p for z = 0; the
    giant steps' keys come from one _keys call and the table's from another,
    so the screen makes one modular inverse per table and per scan.  m is a
    power of two near sqrt(hi), so a call takes about sqrt(hi) giant steps
    and the table is shared by every (P, Q) of a pair.  The cases outside
    that argument have closed forms: s_0 = 0 makes every residue 0; b = 0
    gives u_n = a^(n-1)*z for n >= 1; and when (0 : 1) returns to itself
    after T < m steps, the zeros are the n = -j (mod T).
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
    xs, zs = [], []
    for _ in range(-(-hi // m)):
        x, z = (g11 * x + g12 * z) % p, (g21 * x + g22 * z) % p
        xs.append(x)
        zs.append(z)
    last = 0
    for i, key in enumerate(_keys(xs, zs, p), 1):
        j = table.get(key)
        if j is not None and i * m - j <= hi:
            last = i * m - j
    return last


@lru_cache(maxsize=16)
def _baby_steps(a: int, b: int, p: int, m: int):
    """(table, period, G) for the giant-step screen modulo the prime p, with
    b != 0 mod p.

    N^j (0, 1) = (U_j, U_{j+1}), the Lucas sequence mod p.  table maps the
    key of each point N^j (0 : 1) to j.  N permutes the projective line, so
    the orbit of (0 : 1) is a cycle, and it first returns to (0 : 1), whose
    key is 0, at j = T, the cycle length: the first j >= 1 with U_j = 0.
    period is T when T < m and then the table holds j < T and G is None;
    otherwise period is 0, the table holds j < m, and G = N^m =
    [[U_{m+1} - a*U_m, U_m], [-b*U_m, U_{m+1}]] mod p.  The keys come from
    one _keys call, so the screen makes one modular inverse per table and
    per scan.
    """
    xs, zs = [], []
    x, z = 0, 1
    for j in range(m):
        if j and not x:
            return dict(zip(_keys(xs, zs, p), range(j))), j, None
        xs.append(x)
        zs.append(z)
        x, z = z, (a * z - b * x) % p
    return (dict(zip(_keys(xs, zs, p), range(m))), 0,
            ((z - a * x) % p, x, -b * x % p, z))


def _keys(xs: list[int], zs: list[int], p: int) -> list[int]:
    """The key of each point (xs[i] : zs[i]), for residues mod the prime p:
    xs[i]/zs[i] mod p, or p where zs[i] = 0.

    One modular inverse for the whole list (Montgomery's batch inversion):
    prods[i] is the product of the nonzero zs before i, and a backward pass
    walks inv through the inverses of those products, so inv * prods[i] is
    the inverse of zs[i].
    """
    prods = []
    acc = 1
    for z in zs:
        prods.append(acc)
        if z:
            acc = acc * z % p
    inv = pow(acc, -1, p)
    keys = [p] * len(zs)
    for i in range(len(zs) - 1, -1, -1):
        z = zs[i]
        if z:
            keys[i] = xs[i] * inv * prods[i] % p
            inv = inv * z % p
    return keys


def _envelope(A: int, B: int, P: int, Q: int, n: int,
              un: int, un1: int) -> tuple[int, int]:
    """(y, r) with y/sqrt(r) = l_n, the lower envelope of |u_n|, from
    (un, un1) = (u_n, u_{n+1}).  Requires A > 0 and delta = A^2 - 4B > 0.

    sqrt(delta)*u_n = (Q - P*beta)*alpha^n - (Q - P*alpha)*beta^n, so
    sqrt(delta)*l_n = |Q - P*beta|*alpha^n - |Q - P*alpha|*|beta|^n is at
    most sqrt(delta)*|u_n|.  With s1 the sign of Q - P*beta and t that of
    (Q - P*alpha)*beta^n, t = sign(Q - P*alpha)*sign(B)^n: if s1 = t, or
    s1 = 0 (the alpha^n term vanishes), then sqrt(delta)*l_n is
    t*sqrt(delta)*u_n, so l_n = t*u_n (r = 1); otherwise it is s1*w_n with
    w_n = 2u_{n+1} - A*u_n = (Q - P*beta)*alpha^n + (Q - P*alpha)*beta^n
    (r = delta).  |beta| < alpha, so l_n/alpha^n never decreases.
    """
    delta = A * A - 4 * B
    h = 2 * Q - A * P
    s1 = surd_sign(h, P, delta)          # 2(Q - P*beta) = h + P*sqrt(delta)
    t = surd_sign(h, -P, delta) * ((B > 0) - (B < 0)) ** n
    if s1 == t or not s1:
        return t * un, 1
    return s1 * (2 * un1 - A * un), delta


def _at_least(x: int, c: int, v: int, u: int, d: int, r: int) -> bool:
    """Exactly whether x >= c*sqrt(r)*(v + u*sqrt(d))/2, for c, r > 0 and a
    right-hand side >= 0: the sign of 4x^2 - c^2*r*(v + u*sqrt(d))^2."""
    return x >= 0 and surd_sign(4 * x * x - c * c * r * (v * v + d * u * u),
                                -2 * c * c * r * u * v, d) >= 0


def _first_violation(A: int, B: int, P: int, Q: int, lo: int, hi: int,
                     bounds) -> int:
    """First n in [lo, hi] where some bound k_n*|u_n| >= c*gamma^m fails, or
    -1 if none.  Requires A > 0, A^2 > 4B, lo >= 2.

    Each bound is a row (label, k, e, c, off, a, b) of real_bounds' form:
    m = n - off, k_n = k*2^(e*m) and gamma^m = (V_m + U_m*sqrt(d))/2 from
    the Lucas pair of (a, b), with U_m >= 0.  The label is not read here.

    At each n the envelope is tried first: for B != 0, alpha >= phi, and
    every bound has gamma <= 2^e*alpha, so k_n*l_n >= c*gamma^m at one n
    (see _envelope) proves that bound at every later index, and when all
    bounds are proved the scan returns -1.  Otherwise the bounds are
    decided exactly at n, on |u_n|, and the scan steps once.  B = 0 (where
    alpha = A may be below phi) never takes the envelope.
    """
    if lo < 2:
        raise ValueError("scan start must be >= 2")
    if A < 1 or A * A <= 4 * B:
        raise ValueError("growth scans require A > 0 and A^2 > 4B")
    if hi < lo:
        return -1
    state = []
    for _, k, e, c, off, a, b in bounds:
        m = lo - off
        u, u1 = _start_pair(a, b, m)
        state.append((k << e * m, e, c, 2 * u1 - a * u, u, a, a * a - 4 * b))
    un, un1 = _window(A, B, P, Q, *_start_pair(A, B, lo))
    for n in range(lo, hi + 1):
        if B:
            y, r = _envelope(A, B, P, Q, n, un, un1)
            if all(_at_least(k * y, c, v, u, d, r)
                   for k, e, c, v, u, a, d in state):
                return -1
        absu = abs(un)
        if not all(_at_least(k * absu, c, v, u, d, 1)
                   for k, e, c, v, u, a, d in state):
            return n
        un, un1 = un1, A * un1 - B * un
        state = [(k << e, e, c, (a * v + d * u) >> 1, (a * u + v) >> 1, a, d)
                 for k, e, c, v, u, a, d in state]
    return -1


def real_bounds(A: int, B: int, P: int, Q: int, far: bool) -> tuple:
    """The far or the near real branch's two bounds as rows (label, k, e, c,
    off, a, b), each k*2^(e*m)*|u_n| >= c*gamma^m with m = n - off and
    gamma = (a + sqrt(a^2 - 4b))/2: alpha for (A, B), sqrt5 for (0, -5) and
    phi for (1, -1).  See growth.check_real_growth for the bounds.
    """
    p, q = abs(P), abs(Q)
    if far:
        return (("alpha-halves", 1, 1, q, 2, A, B),
                ("sqrt5-halves", 1, 1, q, 0, 0, -5))
    return (("alpha-power", max(5 * p, 22 * q), 0, 1, 2, A, B),
            ("golden-power", max(14 * p, 36 * q), 0, 1, 0, 1, -1))


def lucas_bound(A: int, B: int) -> tuple:
    """The Lucas growth bound as one real_bounds row: 2|U_n| >= alpha^(n-2)
    for B < 0 and |U_n| >= alpha^(n-1) for 0 < 4B < A^2."""
    if B < 0:
        return ("double-u", 2, 0, 1, 2, A, B)
    return ("u-alpha", 1, 0, 1, 1, A, B)


def real_growth_scan(A: int, B: int, P: int, Q: int,
                     lo: int, hi: int, far: bool) -> int:
    """First n in [lo, hi] violating the far or near real_bounds, or -1 if
    none.  Requires A > 0, A^2 > 4B, P != 0, Q != 0, lo >= 2."""
    return _first_violation(A, B, P, Q, lo, hi, real_bounds(A, B, P, Q, far))


def nonreal_growth_scan(A: int, B: int, P: int, Q: int, hi: int) -> int:
    """Last n in [0, hi] with |u_n|^3 < B^n, or -1 if the cube bound holds
    throughout.  Requires A^2 < 4B (so B >= 1).

    Screened by bit lengths: for L = bit_length(|u_n|) and e =
    bit_length(B^n), |u_n|^3 lies in [2^(3L-3), 2^(3L)) and B^n in
    [2^(e-1), 2^e), so 3L < e proves |u_n|^3 < B^n and 3L - 2 > e refutes
    it; only 3L - 2 <= e <= 3L builds the cube.  hi passes lucas_u_pair's
    size guard before the first step."""
    _refuse_huge(A, B, hi)
    un, cur = P, Q                     # u_n, u_{n+1}
    bp = 1                             # B^n
    last = -1
    for n in range(hi + 1):
        a = -un if un < 0 else un
        t, e = 3 * a.bit_length(), bp.bit_length()
        if t < e or (e >= t - 2 and a * a * a < bp):
            last = n
        un, cur = cur, A * cur - B * un
        bp *= B
    return last


def lucas_growth_scan(A: int, B: int, lo: int, hi: int) -> int:
    """First n in [lo, hi] violating lucas_bound(A, B), or -1.

    Requires A > 0, A^2 > 4B, lo >= 2.  U_n is u_n at (P, Q) = (0, 1),
    decided by _first_violation.
    """
    return _first_violation(A, B, 0, 1, lo, hi, (lucas_bound(A, B),))


def backend_name() -> str:
    """Always "pure": this module is the only kernel implementation.  Kept
    because perfbench records the name in its reports."""
    return "pure"
