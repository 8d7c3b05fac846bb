"""The sweep's zero referee: every k <= horizon with u_k = 0, by plain
iteration.

It imports nothing from brigkit and reads only the A, B, P and Q of the
params it is given, so it shares no code and no modulus with the kernels
whose zero verdicts it checks.  One residue table per (A, B) pair modulo
its own prime (_ZeroTable), shared by all the pair's (P, Q), rules out
every index where u_k != 0 mod the prime; the exact recurrence, run up to
the last index left, decides every hit.
"""

from __future__ import annotations

from functools import lru_cache

# The second-largest prime below 2^30 (the zero-scan kernel screens with the
# largest), so every residue is a single CPython digit.  Read at call time,
# and part of the tables' cache key.
_ORACLE_PRIME = 1_073_741_783

# The largest horizon the oracle accepts; a larger one raises before its
# table allocates anything.  At most 128 bytes per stride keeps a table at
# this horizon near 0.5 GB.
_MAX_HORIZON = (1 << 26) - 1

# The tables file every _STRIDE-th index of a pair's orbit, and a query
# walks the recurrence at most _STRIDE steps to reach the rest.
_STRIDE = 16


def _keys(xs: list[int], ys: list[int], m: int) -> list[int]:
    """The key of each point (xs[t] : ys[t]) mod the prime m: xs[t]/ys[t]
    mod m, m for a point (x : 0) with x != 0, and m + 1 for (0 : 0).

    One modular inverse for the whole list (Montgomery's batch inversion):
    keys[t] first holds the product of the nonzero ys before t, and a
    backward pass walks inv through the inverses of those products, so
    inv * keys[t] is the inverse of ys[t].
    """
    keys = []
    acc = 1
    for y in ys:
        keys.append(acc)
        if y:
            acc = acc * y % m
    inv = pow(acc, -1, m)
    for t in range(len(ys) - 1, -1, -1):
        y = ys[t]
        if y:
            keys[t] = xs[t] * inv * keys[t] % m
            inv = inv * y % m
        else:
            keys[t] = m if xs[t] else m + 1
    return keys


class _ZeroTable:
    """Where u_n = 0 (mod m) may hold, for every (P, Q) of one
    (A mod m, B mod m) at once, from every S-th index, S = _STRIDE.

    For n >= 1, u_n = Q*U_n - P*B*U_{n-1}, where U is the Lucas sequence of
    (A, B) (u_0 = P, u_1 = Q).  So u_n = 0 (mod m) exactly when (P : Q) is
    the projective point (U_n : B*U_{n-1}) mod m.  The index maps the key
    of the point of n = i*S to its first stride i >= 1.  No query looks up
    the key of (0 : 0): that point needs A = B = 0 (mod m), and then every
    walk meets u_2 = u_3 = 0 first.

    A query walks the recurrence instead of filing the indices between
    strides.  The sequence that starts at (u_j, u_{j+1}) has u_{i*S+j} as
    its term i*S, so looking up the point (u_j : u_{j+1}) for j = 0..S-1
    finds every zero i*S + j with i >= 1; together with the walk's own
    u_1..u_{S-1} these indices cover [1, horizon] once.

    Each stride's point is a 2x2 matrix times the last one, so its key is a
    function of the last key, (0 : 0) included.  The first time a key
    repeats, at stride f + L after its first stride f, the keys from f on
    repeat with period L: the table records cycle = (f, L) and never grows
    again.  A key first filed at i >= f then sits at i + t*L for every
    t >= 0, and one filed below f nowhere else.  The orbit of (0 : 1)
    modulo a 30-bit prime is long, so short cycles come from degenerate
    pairs, B = 0 mod m and small moduli.
    """

    __slots__ = ("a", "b", "m", "top", "x", "y", "step", "index", "cycle")

    def __init__(self, a: int, b: int, m: int):
        self.a, self.b, self.m = a, b, m
        s = _STRIDE
        u = [0, 1]                          # U_0..U_{S+1} mod m
        for _ in range(s):
            u.append((a * u[-1] - b * u[-2]) % m)
        # (U_n, B*U_{n-1}) -> (U_{n+S}, B*U_{n+S-1}) is the matrix
        # ((U_{S+1}, -U_S), (B*U_S, -B*U_{S-1})), since
        # U_{n+k} = U_{k+1}*U_n - B*U_k*U_{n-1}
        self.step = (u[s + 1], u[s], b * u[s] % m, b * u[s - 1] % m)
        self.top = 0
        self.x, self.y = 0, m - 1          # U_0 and B*U_{-1} = -1, mod m
        self.index: dict[int, int] = {}
        self.cycle: tuple[int, int] | None = None

    def _grow(self, top: int) -> None:
        """Extend the table to the strides up to top, or until a key
        repeats."""
        m = self.m
        c11, c12, c21, c22 = self.step
        x, y = self.x, self.y
        xs, ys = [], []
        for _ in range(top - self.top):
            x, y = (c11 * x - c12 * y) % m, (c21 * x - c22 * y) % m
            xs.append(x)
            ys.append(y)
        keys = _keys(xs, ys, m)
        del xs, ys                         # freed before the index grows
        index = self.index
        i = self.top
        for key in keys:
            i += 1
            first = index.setdefault(key, i)
            if first != i:
                self.cycle = (first, i - first)
                break
        self.top, self.x, self.y = top, x, y

    def last_zero(self, P: int, Q: int, horizon: int) -> int:
        """The largest n in [1, horizon] with u_n = 0 (mod m), or 0."""
        if horizon < 1:
            return 0
        if horizon > _MAX_HORIZON:
            raise ValueError(f"oracle horizon {horizon} exceeds 2^26 - 1")
        s = _STRIDE
        if self.cycle is None and horizon // s > self.top:
            self._grow(min(max(horizon // s, 2 * self.top), _MAX_HORIZON // s))
        a, b, m = self.a, self.b, self.m
        xs, ys = [], []                    # u_j and u_{j+1} mod m
        last = 0
        u, v = P % m, Q % m
        for j in range(min(s, horizon + 1)):
            if not (u or v):               # u_n = 0 (mod m) for every n >= j
                return horizon
            if not u:
                last = j
            xs.append(u)
            ys.append(v)
            u, v = v, (a * v - b * u) % m
        if horizon < s:                    # no stride in range
            return last
        index, cycle = self.index, self.cycle
        keys = _keys(xs, ys, m)
        if index.keys().isdisjoint(keys):  # the usual case, decided in C
            return last
        for j, key in enumerate(keys):
            i = index.get(key)
            top = (horizon - j) // s         # the largest stride in range
            if i is None or i > top:
                continue
            if cycle and i >= cycle[0]:
                i += (top - i) // cycle[1] * cycle[1]
            if i * s + j > last:
                last = i * s + j
        return last


@lru_cache(maxsize=1)
def _zero_table(a: int, b: int, m: int) -> _ZeroTable:
    """The pair's table, kept while the sweep works through its (P, Q).  The
    sweep goes pair by pair, so one table is enough, and a stride of 16
    indices costs about 80 to 110 bytes."""
    return _ZeroTable(a, b, m)


def brute_force_zero_oracle(params, horizon: int) -> list[int]:
    """All k <= horizon with u_k = 0, by plain iteration, for params with
    integer attributes A, B, P and Q.

    Deliberately independent of the kernels: no normalization, no bounds,
    no fast doubling, and its own table and prime; this is the referee for
    every ZeroResult.  The pair's _ZeroTable modulo _ORACLE_PRIME gives the
    last index whose residue is 0 (a nonzero residue proves u_k != 0); the
    exact recurrence then runs up to that index and decides every hit.
    """
    m = _ORACLE_PRIME
    A, B = params.A, params.B
    last = _zero_table(A % m, B % m, m).last_zero(params.P, params.Q, horizon)

    hits = []
    prev, cur = params.P, params.Q
    if prev == 0:
        hits.append(0)
    for n in range(1, last + 1):
        if cur == 0:
            hits.append(n)
        prev, cur = cur, A * cur - B * prev
    return hits
