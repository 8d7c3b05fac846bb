from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from brigkit import SequenceParams
from brigkit.terms import (coeffs, gcd_consecutive_U, lucas_U, lucas_uv,
                           term_fast, term_iter, term_window)

from conftest import iter_lucas_u, iter_lucas_v

small = st.integers(-10, 10)


def test_term_iter_examples():
    # 2^k - 2^n family at k = 3: hits zero at n = 3
    assert term_iter(SequenceParams(3, 2, 7, 6), 3) == 0
    assert term_iter(SequenceParams(5, 3, 11, 2), 0) == 11
    # ten steps of the Fibonacci recurrence
    assert term_iter(SequenceParams(1, -1, 0, 1), 10) == 55


def test_term_fast_examples():
    p = SequenceParams(3, 6, -45, -54)
    expected = [-45, -54, 108, 648, 1296, 0]
    assert [term_fast(p, n) for n in range(6)] == expected
    assert [term_iter(p, n) for n in range(6)] == expected
    assert term_fast(SequenceParams(9, 4, 5, 8), 1) == 8
    # Pell numbers
    assert term_fast(SequenceParams(2, -1, 0, 1), 20) == 15994428
    # Fibonacci at 100
    assert term_fast(SequenceParams(1, -1, 0, 1), 100) == 354224848179261915075


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        term_iter(SequenceParams(1, 1, 1, 1), -1)
    with pytest.raises(ValueError):
        term_fast(SequenceParams(1, 1, 1, 1), -1)


def test_lucas_examples():
    assert [lucas_U(3, 6, n) for n in range(6)] == [0, 1, 3, 3, -9, -45]
    assert lucas_U(15, 10, 6) == 628875
    assert lucas_uv(7, 2, 0) == (0, 2)
    assert lucas_uv(1, -1, 1)[1] == 1
    # Mersenne numbers: U_n(3, 2) = 2^n - 1
    assert lucas_U(3, 2, 64) == 2 ** 64 - 1


def test_term_window():
    w = term_window(SequenceParams(3, 6, 5, 6), 4)
    assert (w.n, w.u_n, w.u_next) == (4, -144, 0)
    # advancing the window reproduces the recurrence
    assert 3 * w.u_next - 6 * w.u_n == term_fast(SequenceParams(3, 6, 5, 6), 6)


def test_coeffs_examples():
    assert coeffs(3, 6, 5) == (54, -45)      # (-B*U_4, U_5)
    assert coeffs(9, -3, 1) == (0, 1)        # u_1 = Q
    assert coeffs(3, 2, 4) == (-14, 15)      # (-2*U_3, U_4) = (-2*7, 15)
    with pytest.raises(ValueError):
        coeffs(3, 2, 0)


def test_coeffs_zero_instance():
    # 54*(-45) + (-45)*(-54) = 0: the k=5 zero sequence
    cp, cq = coeffs(3, 6, 5)
    assert cp * (-45) + cq * (-54) == 0


@settings(max_examples=200)
@given(small, small, small, small, st.integers(0, 300))
def test_fast_equals_iter(a, b, p, q, n):
    params = SequenceParams(a, b, p, q)
    assert term_fast(params, n) == term_iter(params, n)


@settings(max_examples=150)
@given(small, small, st.integers(0, 200))
def test_lucas_against_oracle(a, b, n):
    assert lucas_U(a, b, n) == iter_lucas_u(a, b, n)[n]
    assert lucas_uv(a, b, n)[1] == iter_lucas_v(a, b, n)[n]


@settings(max_examples=150)
@given(small, small, st.integers(0, 200))
def test_lucas_pair_identity(a, b, n):
    u, v = lucas_uv(a, b, n)
    assert v * v - (a * a - 4 * b) * u * u == 4 * b ** n


@settings(max_examples=150)
@given(small, small, small, small, st.integers(1, 200))
def test_coefficient_identity(a, b, p, q, n):
    cp, cq = coeffs(a, b, n)
    assert cp * p + cq * q == term_iter(SequenceParams(a, b, p, q), n)


def test_gcd_consecutive_examples():
    # gcd(U_n, U_{n+1}) pattern 1, 1, 5, 5, 25, 25 for (15, 10)
    us = iter_lucas_u(15, 10, 6)
    assert [gcd(us[n], us[n + 1]) for n in range(6)] == [1, 1, 5, 5, 25, 25]
    assert [gcd_consecutive_U(15, 10, n) for n in range(3)] == [1, 5, 25]
    assert all(gcd_consecutive_U(1, -1, n) == 1 for n in range(8))
    assert gcd_consecutive_U(3, 6, 2) == 9


def test_gcd_consecutive_power_identity():
    for a, b in [(15, 10), (3, 6), (6, 10), (5, -5)]:
        g = gcd(a, b)
        for n in range(12):
            assert gcd_consecutive_U(a, b, n) == g ** n


def test_gcd_consecutive_requires_reduced():
    with pytest.raises(ValueError):
        gcd_consecutive_U(4, 8, 3)   # d = 2


def test_lucas_pair_named():
    # Fibonacci and Lucas numbers at 10, as the (U, V) pair
    assert lucas_uv(1, -1, 10) == (55, 123)
