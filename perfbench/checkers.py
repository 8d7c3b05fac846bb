"""Independent correctness checkers for the benchmark's outputs.

Nothing here imports brigkit.  Every verdict is re-derived from the
definitions with different machinery from the library's:

- plain recurrence loops for zero sets and growth thresholds;
- 2x2 matrix powers modulo primes near 2**61 for huge terms;
- sympy's minimal_polynomial for the height of the root-coefficient ratio;
- mpmath at a working precision above the operand size for the sandwich
  1/(H+1) < |b/a| < H+1, the growth floors and the log-loglog threshold.

Every check returns a list of problem strings; an empty list means the
output passed.  The checkers take plain data (ints, strings, dicts), so the
benchmark converts library objects before handing them over.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, isqrt

# 2**61 - 1 and the next two primes below it.
PRIMES = (2305843009213693951, 2305843009213693921, 2305843009213693907)


# -- plain recurrence --------------------------------------------------------

def plain_terms(A: int, B: int, P: int, Q: int, count: int) -> list[int]:
    """[u_0, ..., u_count] by u_n = A*u_{n-1} - B*u_{n-2}."""
    seq = [P, Q]
    while len(seq) <= count:
        seq.append(A * seq[-1] - B * seq[-2])
    return seq[:count + 1]


def plain_zeros(A: int, B: int, P: int, Q: int, horizon: int) -> list[int]:
    return [n for n, u in enumerate(plain_terms(A, B, P, Q, horizon)) if u == 0]


def claimed_zeros(zero: dict, horizon: int) -> list[int]:
    """The indices in [0, horizon] where a reported zero set says u_n = 0.

    A "no-zero" verdict claims no zero at all: in the sweep it is either
    conclusive or conclusive under the configured c4, and both claims cover
    every index up to the search bound, which exceeds the checked horizon.
    """
    kind = zero["kind"]
    if kind == "zero-at":
        k = int(zero["k"])
        return [k] if k <= horizon else []
    if kind == "no-zero":
        return []
    if kind == "all-zero":
        return list(range(horizon + 1))
    if kind == "periodic":
        m = int(zero["modulus"])
        residues = {int(r) for r in zero["residues"]}
        return [n for n in range(horizon + 1) if n % m in residues]
    if kind == "tail":
        start = int(zero["start"])
        prefix = {int(r) for r in zero["prefix"]}
        return [n for n in range(horizon + 1) if n in prefix or n >= start]
    raise ValueError(f"unknown zero kind {kind!r}")


def check_zero_records(records: list[dict], horizon: int) -> list[str]:
    """Each record's reported zero set against the plain recurrence."""
    problems = []
    for rec in records:
        p = rec["params"]
        A, B, P, Q = int(p["a"]), int(p["b"]), int(p["p"]), int(p["q"])
        actual = plain_zeros(A, B, P, Q, horizon)
        if actual != claimed_zeros(rec["zero"], horizon):
            problems.append(f"zero set of {(A, B, P, Q)}: reported "
                            f"{rec['zero']}, recurrence gives {actual}")
        if not rec["class"].startswith("degenerate") and len(actual) > 1:
            problems.append(f"non-degenerate {(A, B, P, Q)} has zeros {actual}")
    return problems


def check_family(family: list[dict], horizon: int) -> list[str]:
    """Each zero-at-k instance vanishes at k and nowhere else up to horizon."""
    problems = []
    for f in family:
        A, B, k = int(f["a"]), int(f["b"]), int(f["k"])
        P, Q = int(f["p"]), int(f["q"])
        actual = plain_zeros(A, B, P, Q, max(horizon, k))
        if actual != [k]:
            problems.append(f"family ({A}, {B}, k={k}) P={P} Q={Q}: "
                            f"zeros {actual}")
        if f["found_ok"] is not True or f["unique_ok"] is not True:
            problems.append(f"family ({A}, {B}, k={k}) flags {f}")
    return problems


def zero_at_problems(A: int, B: int, P: int, Q: int, k: int,
                     horizon: int) -> list[str]:
    """u_k = 0 and no other zero in [0, horizon]."""
    actual = plain_zeros(A, B, P, Q, max(horizon, k))
    if actual != [k]:
        return [f"({A}, {B}) k={k}: recurrence zeros {actual[:5]}"]
    return []


# -- huge terms modulo primes ------------------------------------------------

def _mat_mul(x, y, p):
    return ((x[0] * y[0] + x[1] * y[2]) % p, (x[0] * y[1] + x[1] * y[3]) % p,
            (x[2] * y[0] + x[3] * y[2]) % p, (x[2] * y[1] + x[3] * y[3]) % p)


def terms_mod(A: int, B: int, P: int, Q: int, n: int, p: int) -> tuple[int, int]:
    """(u_n, u_{n+1}) mod p from [[A, -B], [1, 0]]^n applied to (Q, P)."""
    result = (1, 0, 0, 1)
    base = (A % p, -B % p, 1, 0)
    while n:
        if n & 1:
            result = _mat_mul(result, base, p)
        base = _mat_mul(base, base, p)
        n >>= 1
    u_next = (result[0] * Q + result[1] * P) % p
    u_n = (result[2] * Q + result[3] * P) % p
    return u_n, u_next


def check_term(A: int, B: int, P: int, Q: int, n: int, value: int) -> list[str]:
    for p in PRIMES:
        if terms_mod(A, B, P, Q, n, p)[0] != value % p:
            return [f"u_{n} of {(A, B, P, Q)} wrong mod {p}"]
    return []


def check_window(A: int, B: int, P: int, Q: int, n: int,
                 u_n: int, u_next: int) -> list[str]:
    for p in PRIMES:
        if terms_mod(A, B, P, Q, n, p) != (u_n % p, u_next % p):
            return [f"(u_{n}, u_{n + 1}) of {(A, B, P, Q)} wrong mod {p}"]
    return []


def check_lucas_uv(A: int, B: int, n: int, U: int, V: int) -> list[str]:
    """U_n and V_n against the matrix powers, plus V^2 - delta*U^2 = 4B^n."""
    delta = A * A - 4 * B
    for p in PRIMES:
        if terms_mod(A, B, 0, 1, n, p)[0] != U % p:
            return [f"U_{n}({A}, {B}) wrong mod {p}"]
        if terms_mod(A, B, 2, A, n, p)[0] != V % p:
            return [f"V_{n}({A}, {B}) wrong mod {p}"]
        if (V * V - delta * U * U - 4 * pow(B, n, p)) % p:
            return [f"V^2 - delta*U^2 != 4B^n for ({A}, {B}, {n}) mod {p}"]
    return []


# -- height of the root-coefficient ratio (sympy) ----------------------------

def _flip(A: int, P: int, Q: int) -> tuple[int, int, int]:
    # (A, B, P, Q) -> (-A, B, P, -Q) maps u_n to (-1)^n u_n
    return (-A, P, -Q) if A < 0 else (A, P, Q)


def ratio_height(A: int, B: int, P: int, Q: int) -> int:
    """Naive height of the minimal polynomial of b/a = (Q - P*alpha)/(Q - P*beta)."""
    import sympy

    A, P, Q = _flip(A, P, Q)
    x = sympy.Symbol("x")
    D = sympy.sqrt(sympy.Integer(A * A - 4 * B))
    alpha, beta = (A + D) / 2, (A - D) / 2
    # rationalized to r + s*sqrt(delta) first: on the quotient itself sympy
    # cannot choose among the factors when the operands have ~1000 digits
    ratio = sympy.radsimp((Q - P * alpha) / (Q - P * beta))
    poly = sympy.Poly(sympy.minimal_polynomial(ratio, x), x)
    return max(abs(int(c)) for c in poly.all_coeffs())


def check_height(A: int, B: int, P: int, Q: int, H: int) -> list[str]:
    expected = ratio_height(A, B, P, Q)
    if expected != H:
        return [f"height of {(A, B, P, Q)}: reported {H}, sympy gives {expected}"]
    return []


# -- real-number checks (mpmath) ---------------------------------------------

def _dps(*values: int) -> int:
    """Decimal digits above the largest operand, plus guard digits."""
    return max(abs(v).bit_length() for v in values) * 30103 // 100000 + 30


def check_sandwich(A: int, B: int, P: int, Q: int, H: int,
                   reported: bool) -> list[str]:
    """1/(H+1) < |b/a| < H+1 in the real case, and the report agrees."""
    import mpmath

    A, P, Q = _flip(A, P, Q)
    with mpmath.workdps(_dps(A, B, P, Q, H * H + 1)):
        D = mpmath.sqrt(A * A - 4 * B)
        ratio = abs((Q - P * (A + D) / 2) / (Q - P * (A - D) / 2))
        holds = 1 / mpmath.mpf(H + 1) < ratio < H + 1
    if not holds or reported is not True:
        return [f"sandwich of {(A, B, P, Q)} with H={H}: mpmath {holds}, "
                f"reported {reported}"]
    return []


def nonreal_formula_problems(x: int, threshold: int, c: int = 50) -> list[str]:
    """threshold is c*ln(x)*(ln ln x)^2 rounded up by at most 1."""
    import mpmath

    if x <= 2:
        return [] if threshold == 1 else [f"formula threshold at x={x} is {threshold}"]
    with mpmath.workdps(_dps(x) + 20):
        value = c * mpmath.log(x) * mpmath.log(mpmath.log(x)) ** 2
        ok = value <= threshold <= value + 1
    if not ok:
        return [f"formula threshold at x={x}: {threshold}, c*ln*lnln^2 = "
                f"{mpmath.nstr(value, 20)}"]
    return []


def empirical_threshold(A: int, B: int, P: int, Q: int, horizon: int) -> int:
    """Smallest n* with |u_n|^3 >= B^n for all n in [n*, horizon]."""
    last = -1
    for n, u in enumerate(plain_terms(A, B, P, Q, horizon)):
        if abs(u) ** 3 < B ** n:
            last = n
    return last + 1


def nonreal_growth_holds(A: int, B: int, P: int, Q: int, n: int) -> bool:
    """|u_n|^3 >= B^n and |u_n| >= (5/4)^n, exactly."""
    u = abs(plain_terms(A, B, P, Q, n)[n])
    return u ** 3 >= B ** n and u * 4 ** n >= 5 ** n


def _nonneg(x: Fraction, s: int, delta: int) -> bool:
    """x + s*sqrt(delta) >= 0 for rational x and s = +-1.

    A perfect-square delta is decided in rationals, where ties occur;
    otherwise the value is irrational and mpmath, at twice the digits of
    the operands, separates it from 0.
    """
    import mpmath

    root = isqrt(delta)
    if root * root == delta:
        return x + s * root >= 0
    digits = 2 * _dps(x.numerator, x.denominator, delta)
    with mpmath.workdps(digits):
        return mpmath.mpf(x.numerator) / x.denominator + s * mpmath.sqrt(delta) >= 0


def _real_branch(A: int, B: int, P: int, Q: int) -> tuple[str, str, int]:
    """(branch, case, n_min) of the real-case growth bounds, for A, P, Q > 0.

    Far when |A - D| >= 6Q/P, far-positive when A - D >= 6Q/P; near splits
    on A + D >= 9Q/P.  The threshold is ceil(6Q/P + 6) on the far branch
    and ceil((18 + 7 ln Q) * max(1, Q/P)) on the near one.
    """
    import mpmath

    delta = A * A - 4 * B
    q = Fraction(Q, P)
    if _nonneg(A - 6 * q, -1, delta):
        return "far", "far-positive", ceil(6 * q + 6)
    if _nonneg(-(A + 6 * q), 1, delta):
        return "far", "far-negative", ceil(6 * q + 6)
    scale = max(Fraction(1), q)
    if Q == 1:
        n_min = ceil(18 * scale)
    else:
        with mpmath.workdps(2 * _dps(P, Q)):
            n_min = int(mpmath.ceil((18 + 7 * mpmath.log(Q)) * scale.numerator
                                    / scale.denominator))
    wide = _nonneg(A - 9 * q, 1, delta)
    return "near", "near-wide" if wide else "near-tight", n_min


def _floors(A: int, B: int, P: int, Q: int, n: int, kind: str):
    """The two lower bounds on |u_n| that a regime claims, as mpf values."""
    import mpmath

    delta = A * A - 4 * B
    D = mpmath.sqrt(delta)
    alpha = (A + D) / 2
    phi = (1 + mpmath.sqrt(5)) / 2
    if kind == "real-far":
        return Q * (alpha / 2) ** (n - 2), Q * (mpmath.sqrt(5) / 2) ** n
    if kind == "real-near":
        return alpha ** (n - 2) / max(5 * P, 22 * Q), phi ** n / max(14 * P, 36 * Q)
    if kind == "sharp-far-positive":
        return 11 * Q * (mpmath.mpf(A) / 2) ** (n - 1), 7 * Q * mpmath.mpf(1.5) ** n
    if kind == "sharp-far-negative-even":
        return Q * alpha ** (n - 1), mpmath.mpf(3) / 5 * Q * phi ** n
    if kind == "sharp-far-negative-odd":
        return (n * A * mpmath.mpf(Q) / 2 * (D / 2) ** (n - 2),
                mpmath.mpf(14) / 5 * Q * (mpmath.sqrt(5) / 2) ** n)
    if kind == "sharp-near-wide":
        return alpha ** (n - 2) / (5 * P), phi ** n / (14 * P)
    if kind == "sharp-near-tight":
        return alpha ** (n - 1) / (22 * Q), phi ** n / (36 * Q)
    raise ValueError(f"unknown growth regime {kind!r}")


def real_growth_problems(A: int, B: int, P: int, Q: int, n: int, u_n: int,
                         regime: str, applicable: bool, holds,
                         threshold: int | None) -> list[str]:
    """Re-derive the branch, the threshold and both floors at index n.

    regime is "real-far"/"real-near" for check_real_growth and
    "sharp-<case>[-even|-odd]" for check_sharp_growth.  u_n is the exact
    term, taken from the plain recurrence by the caller.
    """
    import mpmath

    A, P, Q = _flip(A, P, Q)
    P, Q = abs(P), abs(Q)
    branch, case, n_min = _real_branch(A, B, P, Q)
    if regime.startswith("real-"):
        want_regime, want_threshold = f"real-{branch}", n_min
    else:
        want_regime = f"sharp-{case}"
        if case == "far-positive":
            want_threshold = 7
        elif case == "far-negative":
            want_regime += "-even" if n % 2 == 0 else "-odd"
            want_threshold = 2 if n % 2 == 0 else ceil(6 * Fraction(Q, P) + 3)
        elif case == "near-wide":
            want_threshold = None  # strict n > 12 + 5 ln Q, checked below
        else:
            want_threshold = n_min
    problems = []
    if regime != want_regime:
        problems.append(f"{(A, B, P, Q)}: regime {regime}, expected {want_regime}")
        return problems
    if want_threshold is None:
        with mpmath.workdps(_dps(A, B, P, Q) + 20):
            want_applicable = n > 12 + 5 * mpmath.log(Q)
    else:
        if threshold != want_threshold:
            problems.append(f"{(A, B, P, Q)}: threshold {threshold}, "
                            f"expected {want_threshold}")
        want_applicable = n >= want_threshold
    if applicable != want_applicable:
        problems.append(f"{(A, B, P, Q)} n={n}: applicable {applicable}")
    if not applicable:
        return problems
    with mpmath.workdps(_dps(u_n, A, B, P, Q) + n // 3):
        f1, f2 = _floors(A, B, P, Q, n, regime)
        floors_hold = abs(u_n) >= f1 and abs(u_n) >= f2
    if holds is not True or not floors_hold:
        problems.append(f"{(A, B, P, Q)} n={n} {regime}: reported {holds}, "
                        f"mpmath floors hold {floors_hold}")
    return problems
