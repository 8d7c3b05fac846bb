"""Exact verification of growth lower bounds on |u_n|.

Real case (A^2 > 4B): the branch on how far the minor root sits from zero
relative to |Q/P| decides which pair of lower bounds applies.  Every
real-branch, sharp and Lucas bound is a row k*2^(e*m)*|u_n| >= c*gamma^m
(kernels.real_bounds), gamma being A, 3, sqrt(delta), sqrt5, phi or alpha;
the scans share the rows of kernels.real_bounds and kernels.lucas_bound,
and check_sharp_growth declares the ten sharp rows.  _bound_margins
verifies each row as one integer margin: gamma^m comes from alpha_power as
(V_m + U_m*sqrt(d))/2, every denominator is cleared, and the sign of the
resulting integer surd x + y*sqrt(d) decides the bound.  Non-real case
(A^2 < 4B): |alpha| = sqrt(B), so the claimed |u_n| >= |alpha|^(2n/3) is
the pure integer test |u_n|^3 >= B^n.

Every sign of a surd here, in the margins and in the branch, height-bound
and sandwich decisions, is one intutil.surd_sign on integers.  Every report
carries the exact margin whose sign was tested.  Applicability thresholds
that involve ln|Q| are rounded up with certified enclosures, so "applicable"
is never claimed before the bound's hypothesis truly holds.
A < 0 inputs are flipped internally (u_n -> (-1)^n u_n leaves every |u_n|
unchanged).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from . import kernels, terms
from .core import (DegenerateInputError, Kind, Reason, SequenceClass,
                   SequenceParams, classify)
from .exactnum import QuadElem, alpha_power
from .intutil import surd_sign
from .logbounds import ceil_log_affine, floor_log_squared, upper_log_loglog


class HeightBoundError(RuntimeError):
    """A ratio height broke H <= 2(|Q| + |P|(A + |D|)/2)^2 - 1."""


DEFAULT_C_NONREAL_THRESHOLD = Fraction(50)   # factor in the structural threshold
DEFAULT_C_LUCAS_NONREAL = Fraction(100)      # exponent slack in the non-real Lucas check


class BranchKind(enum.Enum):
    FAR = "far"    # |A - D| >= 6|Q/P|: the minor root is bounded away
    NEAR = "near"  # |A - D| < 6|Q/P|: both closed-form terms can compete


class GrowthCase(enum.Enum):
    FAR_POS = "far-positive"     # A - D >= 6|Q/P| (minor root positive, B > 0)
    FAR_NEG = "far-negative"     # D - A >= 6|Q/P| (minor root negative, B < 0)
    NEAR_WIDE = "near-wide"      # |A - D| < 6|Q/P| and A + D >= 9|Q/P|
    NEAR_TIGHT = "near-tight"    # |A - D| < 6|Q/P| and A + D < 9|Q/P|


@dataclass(frozen=True)
class GrowthBranch:
    kind: BranchKind
    case: GrowthCase
    n_min: int


@dataclass(frozen=True)
class Margin:
    """An exact difference whose sign decided one inequality."""

    label: str
    value: QuadElem | int
    sign: int

    @property
    def holds(self) -> bool:
        return self.sign >= 0


@dataclass(frozen=True)
class GrowthReport:
    n: int
    regime: str
    applicable: bool
    bound_holds: bool | None
    margins: tuple[Margin, ...]
    threshold: int | None = None


def _margin(label: str, value) -> Margin:
    sign = value.sign() if isinstance(value, QuadElem) else (value > 0) - (value < 0)
    return Margin(label, value, sign)


def _bound_margins(un: int, n: int, rows) -> tuple[Margin, ...]:
    """The margin |u_n| - c*gamma^m/K, K = k*2^(e*m), of each row (label, k,
    e, c, off, a, b), with gamma^m = alpha_power(a, b, m) = (v + u*sqrt(d))/2:
    the integer surd (2K*|u_n| - c*v - c*u*sqrt(d))/(2K)."""
    margins = []
    for label, k, e, c, off, a, b in rows:
        m = n - off
        power = alpha_power(a, b, m)
        den = (k << e * m) * power.den
        margins.append(_margin(label, QuadElem(den * un - c * power.x,
                                               -c * power.y, power.d, den)))
    return tuple(margins)


def _report(n, regime, applicable, margins=(), threshold=None) -> GrowthReport:
    holds = all(m.sign >= 0 for m in margins) if applicable else None
    return GrowthReport(n, regime, applicable, holds, tuple(margins), threshold)


def _real_report(params: SequenceParams, n: int, regime: str, threshold: int,
                 rows) -> GrowthReport:
    """Not applicable below threshold; from it on, the margins of rows."""
    if n < threshold:
        return _report(n, regime, False, threshold=threshold)
    un = abs(terms.term_fast(params, n))
    return _report(n, regime, True, _bound_margins(un, n, rows), threshold)


def _real_setup(params: SequenceParams):
    cls = classify(params)
    if cls.kind is not Kind.REAL:
        raise DegenerateInputError(f"real-case growth check got {cls.label()}")
    if params.P == 0 or params.Q == 0:
        raise DegenerateInputError("real-case growth bounds need P*Q != 0")
    return abs(params.A), params.B, abs(params.P), abs(params.Q)


def real_case_branch(params: SequenceParams) -> GrowthBranch:
    """Exact branch and sub-case decision with its applicability threshold.

    Each comparison of A -+ k|Q/P| against D = sqrt(A^2-4B) is multiplied
    through by |P| and decided by one surd_sign on (A|P| -+ k|Q|, +-|P|,
    delta).  The threshold is ceil(6|Q/P|) + 6 on the far branch and the
    certified ceiling of (18 + 7*ln|Q|)*max(1, |Q/P|) on the near branch.
    """
    return _branch(*_real_setup(params))


def _branch(a: int, b: int, abs_p: int, abs_q: int) -> GrowthBranch:
    """real_case_branch on A = a >= 0, B = b, |P| and |Q|."""
    delta = a * a - 4 * b
    far_min = 6 - (-6 * abs_q // abs_p)
    if surd_sign(a * abs_p - 6 * abs_q, -abs_p, delta) >= 0:    # A - D >= 6|Q/P|
        return GrowthBranch(BranchKind.FAR, GrowthCase.FAR_POS, far_min)
    if surd_sign(-(a * abs_p + 6 * abs_q), abs_p, delta) >= 0:  # D - A >= 6|Q/P|
        return GrowthBranch(BranchKind.FAR, GrowthCase.FAR_NEG, far_min)
    n_min = _near_threshold(abs_p, abs_q)
    if surd_sign(a * abs_p - 9 * abs_q, abs_p, delta) >= 0:     # A + D >= 9|Q/P|
        return GrowthBranch(BranchKind.NEAR, GrowthCase.NEAR_WIDE, n_min)
    return GrowthBranch(BranchKind.NEAR, GrowthCase.NEAR_TIGHT, n_min)


@lru_cache(maxsize=65536)
def _near_threshold(abs_p: int, abs_q: int) -> int:
    """ceil((18 + 7*ln|Q|) * max(1, |Q/P|)), cached on the two integers: a
    sweep asks for the same few (|P|, |Q|) at every (A, B), and a key of
    ints hashes far faster than one of Fractions.  The factor stays the
    reduced s = max(1, |Q/P|): the integer form
    ceil(ceil(7m*ln|Q| + 18m)/|P|), m = max(|P|, |Q|), is exact too, but it
    encloses a value |P| times larger, so it needs log2|P| more bits of
    ln|Q| and cannot decide at all once that passes MAX_PREC."""
    s = Fraction(max(abs_q, abs_p), abs_p)
    return ceil_log_affine(7 * s, abs_q, 18 * s)


def check_real_growth(params: SequenceParams, n: int) -> GrowthReport:
    """Both lower bounds of the applicable real-case branch at index n.

    Far branch (n >= 6|Q/P| + 6):
        |u_n| >= |Q|*(alpha/2)^(n-2)   and   |u_n| >= |Q|*(sqrt5/2)^n.
    Near branch (n >= (18 + 7 ln|Q|)*max(1, |Q/P|)):
        |u_n| >= alpha^(n-2)/max(5|P|, 22|Q|)
        and |u_n| >= phi^n/max(14|P|, 36|Q|).
    """
    a, b, abs_p, abs_q = _real_setup(params)
    branch = _branch(a, b, abs_p, abs_q)
    rows = kernels.real_bounds(a, b, abs_p, abs_q, branch.kind is BranchKind.FAR)
    return _real_report(params, n, f"real-{branch.kind.value}", branch.n_min, rows)


def check_sharp_growth(params: SequenceParams, n: int) -> GrowthReport:
    """The sharper per-case bounds, under each sub-case's own hypotheses.

    far-positive  (n >= 7):       |u_n| >= 11|Q|(A/2)^(n-1), |u_n| >= 7|Q|(3/2)^n
    far-negative, n even (n >= 2): |u_n| >= |Q|*alpha^(n-1), |u_n| >= (3/5)|Q|*phi^n
    far-negative, n odd
      (n >= 6|Q/P| + 3):          |u_n| >= (n*A*|Q|/2)(D/2)^(n-2),
                                  |u_n| >= (14/5)|Q|(sqrt5/2)^n
    near-wide (n > 12 + 5 ln|Q|): |u_n| >= alpha^(n-2)/(5|P|), phi^n/(14|P|)
    near-tight (near threshold):  |u_n| >= alpha^(n-1)/(22|Q|), phi^n/(36|Q|)
    """
    a, b, abs_p, abs_q = _real_setup(params)
    branch = _branch(a, b, abs_p, abs_q)
    case = branch.case
    if case is GrowthCase.FAR_POS:
        regime, t = "sharp-far-positive", 7
        rows = (("eleven-a-halves", 1, 1, 11 * abs_q, 1, a, 0),
                ("seven-three-halves", 1, 1, 7 * abs_q, 0, 3, 0))
    elif case is GrowthCase.FAR_NEG and n % 2 == 0:
        regime, t = "sharp-far-negative-even", 2
        rows = (("alpha-linear", 1, 0, abs_q, 1, a, b),
                ("golden-three-fifths", 5, 0, 3 * abs_q, 0, 1, -1))
    elif case is GrowthCase.FAR_NEG:
        regime = "sharp-far-negative-odd"
        t = 3 - (-6 * abs_q // abs_p)      # ceil(6|Q/P| + 3)
        rows = (("half-n-a-d-halves", 2, 1, n * a * abs_q, 2, 0, 4 * b - a * a),
                ("sqrt5-fourteen-fifths", 5, 1, 14 * abs_q, 0, 0, -5))
    elif case is GrowthCase.NEAR_WIDE:
        regime = "sharp-near-wide"
        # smallest n with n > 12 + 5*ln|Q| (the bound is strict)
        t = ceil_log_affine(5, abs_q, 12) + (1 if abs_q == 1 else 0)
        rows = (("alpha-over-5p", 5 * abs_p, 0, 1, 2, a, b),
                ("golden-over-14p", 14 * abs_p, 0, 1, 0, 1, -1))
    else:
        regime, t = "sharp-near-tight", branch.n_min
        rows = (("alpha-over-22q", 22 * abs_q, 0, 1, 1, a, b),
                ("golden-over-36q", 36 * abs_q, 0, 1, 0, 1, -1))
    return _real_report(params, n, regime, t, rows)


def check_nonreal_growth(params: SequenceParams, n: int) -> GrowthReport:
    """Non-real case: |u_n|^3 >= B^n (i.e. |u_n| >= |alpha|^(2n/3)), plus the
    weaker |u_n| >= 1.25^n as a second integer margin.  A negative n is
    refused by kernels.lucas_u_pair, through term_fast."""
    cls = classify(params)
    if cls.kind is not Kind.NONREAL:
        raise DegenerateInputError(f"non-real growth check got {cls.label()}")
    b = params.B
    if b < 2:
        raise DegenerateInputError("non-real non-degenerate sequences have B >= 2")
    un = abs(terms.term_fast(params, n))
    m1 = _margin("cube-vs-b-power", un ** 3 - b ** n)
    m2 = _margin("five-fourths", un * 4 ** n - 5 ** n)
    return _report(n, "nonreal", True, (m1, m2))


def nonreal_threshold_formula(params: SequenceParams,
                              c_factor=DEFAULT_C_NONREAL_THRESHOLD) -> int:
    """Structural threshold c * ln(B|P|+|Q|) * (ln ln(B|P|+|Q|))^2, rounded up.

    The constant is configuration, not ground truth: the result is reported
    next to the empirical threshold, never asserted against it.
    """
    cls = classify(params)
    if cls.kind is not Kind.NONREAL:
        raise DegenerateInputError(f"threshold formula got {cls.label()}")
    x = params.B * abs(params.P) + abs(params.Q)
    return upper_log_loglog(Fraction(c_factor), x)


def empirical_nonreal_threshold(params: SequenceParams, horizon: int) -> int:
    """Smallest n* with |u_n|^3 >= B^n for every n in [n*, horizon].

    Returns horizon + 1 when the final index itself fails.
    """
    cls = classify(params)
    if cls.kind is not Kind.NONREAL:
        raise DegenerateInputError(f"threshold scan got {cls.label()}")
    last_fail = kernels.nonreal_growth_scan(params.A, params.B, params.P,
                                            params.Q, horizon)
    return last_fail + 1


def check_lucas_growth(A: int, B: int, n: int,
                       c_nonreal=None) -> GrowthReport:
    """Growth floor of the first-kind Lucas sequence U_n at index n >= 2.

    B < 0:        2|U_n| >= alpha^(n-2)
    0 < 4B < A^2: |U_n| >= alpha^(n-1)
    A^2 < 4B:     |U_n| >= |alpha|^(n - c*(ln n)^2), which carries an
                  inexplicit constant; it is checked only against the
                  caller-supplied c (conservatively: the claimed exponent is
                  rounded up, so a holding verdict is certain, a failing one
                  is merely "not confirmed at this c").
    """
    if n < 2:
        raise ValueError("Lucas growth bounds start at n = 2")
    cls = classify(SequenceParams(A, B, 0, 1))
    if cls.is_degenerate:
        raise DegenerateInputError(f"Lucas growth check got {cls.label()}")
    a = abs(A)
    un = abs(terms.lucas_U(a, B, n))
    if cls.kind is Kind.REAL:
        regime = "lucas-negative-b" if B < 0 else "lucas-positive-b"
        rows = (kernels.lucas_bound(a, B),)
        return _report(n, regime, True, _bound_margins(un, n, rows), 2)
    if c_nonreal is None:
        raise DegenerateInputError(
            "non-real Lucas bound needs an explicit constant (c_nonreal)")
    slack = floor_log_squared(c_nonreal, n)
    exponent = max(0, n - slack)
    value = un * un - B ** exponent
    return _report(n, "lucas-nonreal", True, (_margin("u-squared", value),))


# -- naive height of the root-coefficient ratio ------------------------------

@dataclass(frozen=True)
class RatioHeight:
    """Primitive integer polynomial with root b/a, and its height.

    coeffs are ascending with positive leading coefficient.  In the
    quadratic (irrational-D) case the polynomial is self-reciprocal: its
    roots b/a and a/b multiply to 1.
    """

    coeffs: tuple[int, ...]
    height: int
    linear: bool


# the degenerate classes whose closed form has a zero coefficient or none
_NO_RATIO = (Reason.BOTH_INITIAL_ZERO, Reason.B_ZERO, Reason.EQUAL_ROOTS,
             Reason.LEADING_COEFF_ZERO, Reason.SECONDARY_COEFF_ZERO)


def ratio_height(params: SequenceParams) -> RatioHeight:
    """Defining polynomial and naive height of b/a, where u_n = a*alpha^n - b*beta^n.

    A is sign-normalized to |A| first (the flipped sequence has the same
    term magnitudes).  Integer roots give the linear polynomial
    (PA - PD - 2Q)x - (PA + PD - 2Q); irrational D gives the self-reciprocal
    quadratic N*x^2 + M*x + N with N = Q^2 - PQA + BP^2 and
    M = -(2Q^2 - 2PQA + P^2(A^2 - 2B)); a rational ratio with irrational D
    (only P = 0, ratio 1, or 2Q = PA, ratio -1) degenerates to x -+ 1.
    The height always satisfies H <= 2(|Q| + |P|(A + |D|)/2)^2 - 1; a
    height past it raises HeightBoundError (an explicit check, so it holds
    under python -O too).
    """
    return _ratio_height(params, classify(params))


def _ratio_height(params: SequenceParams, cls: SequenceClass) -> RatioHeight:
    """ratio_height, given classify(params)."""
    if cls.reason in _NO_RATIO:
        raise DegenerateInputError(
            f"ratio b/a undefined or zero for {cls.label()}")
    a1 = abs(params.A)
    B, P, Q = params.B, params.P, params.Q
    if params.A < 0:
        Q = -Q  # (A,B,P,Q) -> (-A,B,P,-Q) maps u_n to (-1)^n u_n
    delta = a1 * a1 - 4 * B
    d = isqrt(delta) if delta > 0 else 0
    if P == 0:
        rh = RatioHeight((-1, 1), 1, True)
    elif d * d == delta:
        c1 = P * a1 - P * d - 2 * Q
        c0 = -(P * a1 + P * d - 2 * Q)
        g = -gcd(c0, c1) if c1 < 0 else gcd(c0, c1)
        c0, c1 = c0 // g, c1 // g
        rh = RatioHeight((c0, c1), max(abs(c0), c1), True)
    elif 2 * Q == P * a1:
        rh = RatioHeight((1, 1), 1, True)
    else:
        n_coef = Q * Q - P * Q * a1 + B * P * P
        m_coef = -(2 * Q * Q - 2 * P * Q * a1 + P * P * (a1 * a1 - 2 * B))
        g = -gcd(n_coef, m_coef) if n_coef < 0 else gcd(n_coef, m_coef)
        n_coef, m_coef = n_coef // g, m_coef // g
        rh = RatioHeight((n_coef, m_coef, n_coef), max(n_coef, abs(m_coef)), False)
    if not _height_bound_ok(a1, B, P, Q, rh.height):
        raise HeightBoundError(f"height {rh.height} of {params} exceeds its bound")
    return rh


def _height_bound_ok(a1: int, B: int, P: int, Q: int, h: int) -> bool:
    # 2(H + 1) <= (2|Q| + |P|(A+|D|))^2 = (x + y*sqrt|delta|)^2, expanded
    abs_delta = abs(a1 * a1 - 4 * B)
    x = 2 * abs(Q) + abs(P) * a1
    y = abs(P)
    return surd_sign(x * x + y * y * abs_delta - 2 - 2 * h, 2 * x * y, abs_delta) >= 0


def _quadratic_sandwich(x: int, y: int, delta: int, h1: int) -> bool:
    """1/h1 < |N/D| < h1 for N = x - y*sqrt(delta), D = x + y*sqrt(delta),
    both nonzero: with sn, sd their signs, h1*sn*N - sd*D > 0 and
    h1*sd*D - sn*N > 0."""
    sn = surd_sign(x, -y, delta)
    sd = surd_sign(x, y, delta)
    return (surd_sign((h1 * sn - sd) * x, -(h1 * sn + sd) * y, delta) > 0
            and surd_sign((h1 * sd - sn) * x, (h1 * sd + sn) * y, delta) > 0)


def height_sandwich_check(params: SequenceParams) -> bool:
    """Exact check of 1/(H+1) < |b/a| < H+1 (real case, a*b != 0).  With A
    sign-normalized, b/a = (Q - P*alpha)/(Q - P*beta) = (x - P*sqrt(delta))/
    (x + P*sqrt(delta)) for x = 2Q - P*A."""
    cls = classify(params)
    if cls.kind is Kind.NONREAL:
        raise DegenerateInputError(
            "non-real case: |b/a| = 1, the sandwich is trivial")
    rh = _ratio_height(params, cls)
    h1 = rh.height + 1
    if rh.linear:
        c0, c1 = abs(rh.coeffs[0]), abs(rh.coeffs[1])   # |b/a| = c0/c1
        return c1 < h1 * c0 and c0 < h1 * c1
    a1 = abs(params.A)
    P, Q = params.P, (-params.Q if params.A < 0 else params.Q)
    return _quadratic_sandwich(2 * Q - P * a1, P, a1 * a1 - 4 * params.B, h1)
