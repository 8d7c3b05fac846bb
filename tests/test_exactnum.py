from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from brigkit.exactnum import (MismatchedRadicandError, QuadElem, alpha_power,
                              beta_power)

from conftest import interval_sign, iter_lucas_u, iter_lucas_v

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)
radicands = st.integers(0, 10 ** 6)


def q(r, s, delta):
    return QuadElem(Fraction(r), Fraction(s), delta)


def test_arithmetic_examples():
    # conjugate product (1 + sqrt5)(1 - sqrt5) = -4
    assert q(1, 1, 5) * q(1, -1, 5) == q(-4, 0, 5)
    # sqrt(8)^2 = 8
    assert q(0, 1, 8) * q(0, 1, 8) == q(8, 0, 8)
    # ((3 + sqrt5)/2) * ((3 - sqrt5)/2) = 1  (root product for A=3, B=1)
    half = Fraction(1, 2)
    assert q(3 * half, half, 5) * q(3 * half, -half, 5) == q(1, 0, 5)


def test_sign_examples():
    assert q(1, -1, 5).sign() == -1
    assert q(-7, 3, 5).sign() == -1      # 49 > 45
    assert q(0, 0, 2).sign() == 0
    assert q(-3, 2, 3).sign() == 1       # 2*sqrt3 = 3.46 > 3
    assert q(5, -2, 6).sign() == 1       # 2*sqrt6 = 4.89 < 5


def test_perfect_square_radicand_folds():
    x = q(1, 3, 49)   # 1 + 3*7
    assert x.r == 22 and x.s == 0
    assert x.sign() == 1


def test_mismatched_radicand_raises():
    with pytest.raises(MismatchedRadicandError):
        q(1, 1, 5) + q(1, 1, 7)
    # rational payloads mix freely
    assert q(2, 0, 5) + q(1, 1, 7) == q(3, 1, 7)


def test_division_and_powers():
    x = q(3, 1, 7)
    assert (x / x) == q(1, 0, 7)
    assert x ** 3 == x * x * x
    assert (x ** -2) * x ** 2 == q(1, 0, 7)
    with pytest.raises(ZeroDivisionError):
        x / q(0, 0, 7)


@settings(max_examples=300)
@given(rationals, rationals, radicands)
def test_sign_against_interval_oracle(r, s, delta):
    got = QuadElem(r, s, delta).sign()
    want = interval_sign(r, s, delta)
    if want is not None:
        assert got == want


@given(rationals, rationals, rationals, rationals, radicands)
def test_norm_is_multiplicative(r1, s1, r2, s2, delta):
    x, y = QuadElem(r1, s1, delta), QuadElem(r2, s2, delta)
    assert (x * y).norm() == x.norm() * y.norm()


@given(rationals, rationals, radicands)
def test_abs_and_order(r, s, delta):
    x = QuadElem(r, s, delta)
    assert abs(x).sign() >= 0
    assert (x <= x) and not (x < x)


def test_alpha_power_examples():
    # (A, B) = (1, -1): alpha = golden ratio, alpha^2 = (3 + sqrt5)/2
    assert alpha_power(1, -1, 2) == q(Fraction(3, 2), Fraction(1, 2), 5)
    assert alpha_power(1, -1, 0) == q(1, 0, 5)
    # (A, B) = (3, 2): alpha = 2, folds to the rational 16 at m = 4
    p = alpha_power(3, 2, 4)
    assert p.is_rational() and p.r == 16


def test_alpha_power_rejects_nonreal():
    with pytest.raises(ValueError):
        alpha_power(1, 2, 3)


@given(st.integers(-8, 8), st.integers(-8, -1), st.integers(0, 60))
def test_alpha_power_multiplicative_step(a, b, m):
    # delta > 0 guaranteed for b < 0
    assert alpha_power(a, b, m) * alpha_power(a, b, 1) == alpha_power(a, b, m + 1)


@given(st.integers(-7, 7), st.integers(-7, 7), st.integers(0, 100))
def test_alpha_beta_product_is_b_power(a, b, m):
    if a * a - 4 * b < 0:
        return
    assert alpha_power(a, b, m) * beta_power(a, b, m) == QuadElem.rational(
        b ** m, a * a - 4 * b)


@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(0, 40))
def test_alpha_power_matches_lucas_oracle(a, b, m):
    if a * a - 4 * b < 0:
        return
    u = iter_lucas_u(a, b, m)[m]
    v = iter_lucas_v(a, b, m)[m]
    assert alpha_power(a, b, m) == QuadElem(
        Fraction(v, 2), Fraction(u, 2), a * a - 4 * b)


def test_alpha_beta_product_deterministic_ladder():
    for a, b in [(1, -1), (3, 2), (5, -3), (7, 6), (-4, -9)]:
        delta = a * a - 4 * b
        for m in range(201):
            prod = alpha_power(a, b, m) * beta_power(a, b, m)
            assert prod == QuadElem.rational(b ** m, delta)
