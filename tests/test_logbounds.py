import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st

from brigkit import logbounds
from brigkit.logbounds import (ceil_log_affine, floor_log_squared, ln_bounds,
                               upper_log_loglog)

_DPS = 400   # ~1330 bits: past 2^512 * ln(2^4096) by hundreds of bits


def _ln_scaled(num, den, prec):
    with mpmath.workdps(_DPS):
        return mpmath.log(mpmath.mpf(num) / den) * mpmath.mpf(2) ** prec


def _assert_brackets(num, den, prec):
    lo, hi = ln_bounds(num, den, prec)
    v = _ln_scaled(num, den, prec)
    assert lo <= v <= hi
    assert 0 <= hi - lo <= 2


@given(st.integers(1, 10 ** 12))
def test_ln_bounds_brackets(x):
    _assert_brackets(x, 1, 64)    # width <= 2^-63, far tighter than 1e-9


@given(st.integers(1, 2 ** 4096), st.integers(0, 512))
def test_ln_bounds_big_integers(x, prec):
    _assert_brackets(x, 1, prec)


@given(st.integers(0, 2 ** 4096), st.integers(0, 4096), st.integers(0, 512))
def test_ln_bounds_dyadic_rationals(extra, shift, prec):
    den = 1 << shift
    _assert_brackets(den + extra, den, prec)


def test_ln_bounds_exact_at_one():
    for prec in (0, 64, 1000):
        assert ln_bounds(1, 1, prec) == (0, 0)
        assert ln_bounds(7, 7, prec) == (0, 0)


def test_ln_bounds_exact_powers_of_two_stay_tight():
    # m = 1: only the ln 2 series contributes
    _assert_brackets(1 << 4000, 1, 200)


def test_ln_bounds_rejects_bad_arguments():
    for num, den, prec in [(1, 2, 10), (0, 1, 10), (1, 0, 10), (1, -1, 10), (3, 1, -1)]:
        with pytest.raises(ValueError):
            ln_bounds(num, den, prec)


def test_pinned_search_bound_ceilings():
    # ceil(9*ln 6 + 12) = ceil(28.125...) = 29
    assert ceil_log_affine(9, 6, 12) == 29
    # |Q| = 1: exact ln = 0
    assert ceil_log_affine(9, 1, 12) == 12
    # ceil(10*ln 6) = ceil(17.917...) = 18
    assert ceil_log_affine(10, 6, 0) == 18
    # ceil(9*ln 2 + 12) = ceil(18.238...) = 19
    assert ceil_log_affine(9, 2, 12) == 19


@given(st.integers(2, 10 ** 9), st.integers(1, 40), st.integers(0, 40))
def test_ceil_matches_float_far_from_ties(x, c, d):
    v = c * math.log(x) + d
    if abs(v - round(v)) > 1e-6:
        assert ceil_log_affine(c, x, d) == math.ceil(v)


@given(st.integers(0, 200), st.integers(1, 10 ** 6))
def test_strict_tests_against_float(n, x):
    """Strict tests of an integer n against v = 5 ln x + 12 come from
    ceilings: n < v iff n < ceil(v), and n > v iff n > floor(v) = -ceil(-v)."""
    v = 5 * math.log(x) + 12
    if abs(n - v) > 1e-6:
        assert (n > -ceil_log_affine(-5, x, -12)) == (n > v)
        assert (n < ceil_log_affine(5, x, 12)) == (n < v)


@given(st.integers(1, 2 ** 4096), st.integers(-10 ** 6, 10 ** 6), st.integers(1, 1000))
def test_affine_decisions_against_mpmath(x, c_num, c_den):
    c = Fraction(c_num, c_den)
    with mpmath.workdps(_DPS):
        v = c_num * mpmath.log(x) / c_den + 7
        n = int(mpmath.nint(v))
        assert ceil_log_affine(c, x, 7) == int(mpmath.ceil(v))
        assert (n > -ceil_log_affine(-c, x, -7)) == (n > v)
        assert (n < ceil_log_affine(c, x, 7)) == (n < v)
        assert floor_log_squared(c, x) == int(mpmath.floor(c_num * mpmath.log(x) ** 2 / c_den))


def test_floor_log_squared_examples():
    assert floor_log_squared(100, 10) == 530     # 100 * 2.3026^2 = 530.18...
    assert floor_log_squared(100, 1) == 0
    assert floor_log_squared(0, 1000) == 0
    assert floor_log_squared(-1, 3) == -2        # -(ln 3)^2 = -1.2069...


def test_threshold_formula_guard_and_growth():
    assert upper_log_loglog(50, 1) == 1
    assert upper_log_loglog(50, 2) == 1
    assert upper_log_loglog(0, 1000) == 1
    assert upper_log_loglog(-3, 1000) == 1
    v = upper_log_loglog(50, 1000)
    # 50 * ln(1000) * (ln ln 1000)^2 = 50 * 6.90776 * 3.73512 = 1290.06...
    assert v == 1291
    # 100 * ... = 2580.13...: the exact ceiling, not twice the rounded one
    assert upper_log_loglog(100, 1000) == 2 * v - 1


# upper_log_loglog(50, x) for x = 3..104, as the 40-term Fraction enclosure
# this module used before the fixed-point rewrite computed it.  It covers
# every x = B|P| + |Q| of the growth sweeps over |P|, |Q| <= 8.
_LOGLOG_50 = [
    1, 8, 19, 31, 44, 56, 69, 81, 92, 103, 114, 125, 135, 145, 154, 163, 172,
    181, 189, 197, 205, 213, 220, 228, 235, 242, 249, 255, 262, 268, 274, 281,
    287, 292, 298, 304, 309, 315, 320, 325, 331, 336, 341, 346, 350, 355, 360,
    364, 369, 373, 378, 382, 387, 391, 395, 399, 403, 407, 411, 415, 419, 423,
    427, 430, 434, 438, 441, 445, 449, 452, 456, 459, 462, 466, 469, 472, 476,
    479, 482, 485, 488, 491, 494, 498, 501, 504, 507, 509, 512, 515, 518, 521,
    524, 527, 529, 532, 535, 538, 540, 543, 546, 548,
]


def test_upper_log_loglog_pinned_table():
    assert [upper_log_loglog(50, x) for x in range(3, 105)] == _LOGLOG_50


@pytest.mark.parametrize("x", [3 ** 2584, (1 << 4095) + 12345, (1 << 4096) - 1])
def test_upper_log_loglog_is_the_exact_ceiling_at_4096_bits(x):
    v = upper_log_loglog(50, x)
    with mpmath.workdps(_DPS):
        exact = 50 * mpmath.log(x) * mpmath.log(mpmath.log(x)) ** 2
    assert v - 1 < exact <= v


# -- loops that cannot decide raise instead of returning a verdict ------------

_DECISIONS = [
    lambda: ceil_log_affine.__wrapped__(9, 6, 12),
    lambda: ceil_log_affine.__wrapped__(21, 3, 54),       # 3*(7 ln 3 + 18), as n_min
    lambda: ceil_log_affine.__wrapped__(-5, 7, -12),      # -floor(5 ln 7 + 12)
    lambda: floor_log_squared(100, 10),
    lambda: upper_log_loglog.__wrapped__(50, 1000),
]


@pytest.mark.parametrize("decision", _DECISIONS)
def test_never_separating_bounds_raise(monkeypatch, decision):
    # bounds of width 2^20 at every precision never decide anything
    monkeypatch.setattr(logbounds, "ln_bounds",
                        lambda num, den, prec: (0, 1 << (prec + 20)))
    with pytest.raises(ArithmeticError):
        decision()


@pytest.mark.parametrize("decision", _DECISIONS)
def test_cap_below_start_raises(monkeypatch, decision):
    monkeypatch.setattr(logbounds, "MAX_PREC", logbounds.START_PREC // 2)
    with pytest.raises(ArithmeticError):
        decision()


def test_scaled_ceiling():
    # real_case_branch's n_min is ceil(s*(7 ln|Q| + 18)) for s = max(1, |Q/P|),
    # passed as the coefficients 7s and 18s.
    # (18 + 7*ln 3) * 3 = 77.07... -> 78
    assert ceil_log_affine(21, 3, 54) == 78
    # |Q| = 1 with s = 5/2: exact integer value
    assert ceil_log_affine(Fraction(35, 2), 1, 45) == 45
