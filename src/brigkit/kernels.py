"""The integer kernels under brigkit: Lucas pairs, terms, zero and growth scans.

Everything here is plain integer arithmetic: comparisons against
sqrt(delta) are pre-squared, comparisons against powers of roots use
Lucas-pair representations, so no rationals and no floating point appear in
any loop.  The kernels call lucas_u_pair through this module's globals, so a
wrapper set on brigkit.kernels.lucas_u_pair sees every call.
"""

from __future__ import annotations

from math import isqrt


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
    """All k in [lo, hi] with u_k = 0, by plain iteration."""
    hits = []
    prev, cur = P, Q
    if lo == 0 and hi >= 0 and P == 0:
        hits.append(0)
    n = 1
    while n <= hi:
        if n >= lo and cur == 0:
            hits.append(n)
        prev, cur = cur, A * cur - B * prev
        n += 1
    return hits


def _ge_sqrt(x: int, y: int, delta: int, root: int) -> bool:
    """Exact x >= y*sqrt(delta) for y >= 0; root = isqrt(delta) if delta is
    a perfect square, else 0."""
    if root:
        return x >= y * root
    if x < 0:
        return False
    return x * x >= y * y * delta


def real_growth_scan(A: int, B: int, P: int, Q: int,
                     lo: int, hi: int, far: bool) -> int:
    """First n in [lo, hi] violating the applicable real-case lower bounds,
    or -1 if none.

    Requires A > 0, A^2 > 4B, P != 0, Q != 0, lo >= 2.  For the far branch
    the two checks are |u_n| >= |Q|*(alpha/2)^(n-2) and |u_n| >= |Q|*(sqrt5/2)^n;
    for the near branch |u_n| >= alpha^(n-2)/max(5|P|, 22|Q|) and
    |u_n| >= phi^n/max(14|P|, 36|Q|).
    """
    if lo < 2:
        raise ValueError("scan start must be >= 2")
    if hi < lo:
        return -1
    delta = A * A - 4 * B
    root = isqrt(delta) if isqrt(delta) ** 2 == delta else 0
    absq = abs(Q)
    q2 = Q * Q

    # roll state up to n = lo
    prev, cur = P, Q
    for _ in range(lo - 1):
        prev, cur = cur, A * cur - B * prev
    # cur = u_{lo}; keep (ua, ub) = (U_{n-2}, U_{n-1}) for (A, B)
    ua, ub = lucas_u_pair(A, B, lo - 2)
    pw2 = 1 << lo          # 2^n
    pw5 = 5 ** lo          # 5^n
    if far:
        for n in range(lo, hi + 1):
            absu = -cur if cur < 0 else cur
            v = 2 * ub - A * ua  # V_{n-2}
            t = (pw2 >> 1) * absu - absq * v
            if not _ge_sqrt(t, absq * ua, delta, root):
                return n
            if absu * absu * pw2 * pw2 < q2 * pw5:
                return n
            prev, cur = cur, A * cur - B * prev
            ua, ub = ub, A * ub - B * ua
            pw2 <<= 1
            pw5 *= 5
        return -1

    k1 = max(5 * abs(P), 22 * absq)
    k2 = max(14 * abs(P), 36 * absq)
    fa, fb = lucas_u_pair(1, -1, lo)  # (F_n, F_{n+1})
    for n in range(lo, hi + 1):
        absu = -cur if cur < 0 else cur
        v = 2 * ub - A * ua
        if not _ge_sqrt(2 * k1 * absu - v, ua, delta, root):
            return n
        ln = 2 * fb - fa  # L_n
        t = 2 * k2 * absu - ln
        if t < 0 or t * t < 5 * fa * fa:
            return n
        prev, cur = cur, A * cur - B * prev
        ua, ub = ub, A * ub - B * ua
        fa, fb = fb, fa + fb
    return -1


def nonreal_growth_scan(A: int, B: int, P: int, Q: int,
                        lo: int, hi: int) -> int:
    """Last n in [lo, hi] with |u_n|^3 < B^n, or -1 if the cube bound holds
    throughout.  Requires A^2 < 4B (so B >= 1)."""
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
        if a * a * a < bp:
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
    """
    if lo < 2:
        raise ValueError("scan start must be >= 2")
    if hi < lo:
        return -1
    delta = A * A - 4 * B
    root = isqrt(delta) if isqrt(delta) ** 2 == delta else 0
    off = 2 if B < 0 else 1
    ua, ub = lucas_u_pair(A, B, lo - off)   # (U_{n-off}, U_{n-off+1})
    un, un1 = lucas_u_pair(A, B, lo)        # (U_n, U_{n+1})
    mult = 4 if B < 0 else 2
    for n in range(lo, hi + 1):
        absu = -un if un < 0 else un
        v = 2 * ub - A * ua
        if not _ge_sqrt(mult * absu - v, ua, delta, root):
            return n
        ua, ub = ub, A * ub - B * ua
        un, un1 = un1, A * un1 - B * un
    return -1


def backend_name() -> str:
    """Always "pure": this module is the only kernel implementation.  Kept
    because perfbench records the name in its reports."""
    return "pure"
