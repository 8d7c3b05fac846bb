from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from brigkit.exactnum import QuadElem, alpha_power

from conftest import interval_sign, iter_lucas_u, iter_lucas_v

integers = st.integers(-10 ** 6, 10 ** 6)
radicands = st.integers(0, 10 ** 6)


def test_sign_examples():
    assert QuadElem(1, -1, 5).sign() == -1
    assert QuadElem(-7, 3, 5).sign() == -1      # 49 > 45
    assert QuadElem(0, 0, 2).sign() == 0
    assert QuadElem(-3, 2, 3).sign() == 1       # 2*sqrt3 = 3.46 > 3
    assert QuadElem(5, -2, 6, 7).sign() == 1    # 2*sqrt6 = 4.89 < 5; den > 0


def test_perfect_square_radicand_folds():
    # a perfect-square radicand: 1 + 3*7, and exact ties at 21 = 3*7
    assert QuadElem(1, 3, 49).sign() == 1
    assert QuadElem(-21, 3, 49, 4).sign() == 0
    assert QuadElem(-22, 3, 49).sign() == -1


def test_record_rejects_negative_radicand_and_denominator():
    for args in [(1, 1, -5, 1), (1, 1, 5, 0), (1, 1, 5, -2)]:
        with pytest.raises(ValueError):
            QuadElem(*args)


@settings(max_examples=300)
@given(integers, integers, radicands, st.integers(1, 40))
def test_sign_against_interval_oracle(x, y, delta, den):
    got = QuadElem(x, y, delta, den).sign()
    want = interval_sign(Fraction(x, den), Fraction(y, den), delta)
    if want is not None:
        assert got == want


def test_alpha_power_examples():
    # (A, B) = (1, -1): alpha = golden ratio, alpha^2 = (3 + sqrt5)/2
    assert alpha_power(1, -1, 2) == QuadElem(3, 1, 5, 2)
    assert alpha_power(1, -1, 0) == QuadElem(2, 0, 5, 2)
    # (A, B) = (3, 2): alpha = 2, so alpha^4 = (V_4 + U_4)/2 = (17 + 15)/2 = 16
    assert alpha_power(3, 2, 4) == QuadElem(17, 15, 1, 2)


def test_alpha_power_rejects_nonreal():
    with pytest.raises(ValueError):
        alpha_power(1, 2, 3)
    with pytest.raises(ValueError):
        alpha_power(1, -1, -1)


def _times_alpha(p, a):
    """p*alpha for p = (x + y*sqrt(d))/den and alpha = (a + sqrt(d))/2,
    as (x, y, den)."""
    return a * p.x + p.d * p.y, p.x + a * p.y, 2 * p.den


@given(st.integers(-8, 8), st.integers(-8, -1), st.integers(0, 60))
def test_alpha_power_multiplicative_step(a, b, m):
    # delta > 0 guaranteed for b < 0; cross-multiply the denominators
    x, y, den = _times_alpha(alpha_power(a, b, m), a)
    nxt = alpha_power(a, b, m + 1)
    assert (x * nxt.den, y * nxt.den) == (nxt.x * den, nxt.y * den)


def _norm(p):
    """The norm of (x + y*sqrt(d))/den times den^2: x^2 - d*y^2."""
    return p.x * p.x - p.d * p.y * p.y


def _alpha_beta_product(a, b, m):
    """alpha^m * beta^m with beta^m = (V_m - U_m*sqrt(delta))/2 the conjugate:
    (V_m^2 - delta*U_m^2)/4, checked to be an integer."""
    p = alpha_power(a, b, m)
    num = _norm(p)
    assert p.den == 2 and num % 4 == 0
    return num // 4


@given(st.integers(-7, 7), st.integers(-7, 7), st.integers(0, 50), st.integers(0, 50))
def test_norm_is_multiplicative(a, b, m, k):
    # N(alpha^(m+k)) = N(alpha^m)*N(alpha^k), every alpha_power over den 2
    if a * a - 4 * b < 0:
        return
    assert 4 * _norm(alpha_power(a, b, m + k)) == (
        _norm(alpha_power(a, b, m)) * _norm(alpha_power(a, b, k)))


@given(st.integers(-7, 7), st.integers(-7, 7), st.integers(0, 100))
def test_alpha_beta_product_is_b_power(a, b, m):
    if a * a - 4 * b < 0:
        return
    assert _alpha_beta_product(a, b, m) == b ** m


@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(0, 40))
def test_alpha_power_matches_lucas_oracle(a, b, m):
    if a * a - 4 * b < 0:
        return
    u = iter_lucas_u(a, b, m)[m]
    v = iter_lucas_v(a, b, m)[m]
    assert alpha_power(a, b, m) == QuadElem(v, u, a * a - 4 * b, 2)


def test_alpha_beta_product_deterministic_ladder():
    for a, b in [(1, -1), (3, 2), (5, -3), (7, 6), (-4, -9)]:
        for m in range(201):
            assert _alpha_beta_product(a, b, m) == b ** m
