from math import isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from brigkit.intutil import (is_probable_prime, prime_factors, square_cofactor,
                             surd_sign, valuation)

from conftest import interval_sign


def brute_square_cofactor(a, b):
    # largest d with d | a and d*d | b, by direct search
    best = 1
    limit = max(abs(a), abs(b), 1)
    for d in range(1, limit + 1):
        if (a == 0 or a % d == 0) and (b == 0 or b % (d * d) == 0):
            best = d
    return best


def test_square_cofactor_examples():
    assert square_cofactor(4, 8) == 2
    assert square_cofactor(3, 6) == 1
    assert square_cofactor(15, 10) == 1
    assert square_cofactor(12, 72) == 6
    assert square_cofactor(0, 18) == 3   # square part of 18
    assert square_cofactor(18, 0) == 18


def test_square_cofactor_rejects_double_zero():
    with pytest.raises(ValueError):
        square_cofactor(0, 0)


@given(st.integers(-60, 60), st.integers(-60, 60))
def test_square_cofactor_matches_brute_force(a, b):
    if a == 0 and b == 0:
        return
    assert square_cofactor(a, b) == brute_square_cofactor(a, b)


@given(st.integers(2, 10 ** 6))
def test_prime_factors_reassemble(n):
    fac = prime_factors(n)
    prod = 1
    for p, e in fac.items():
        assert is_probable_prime(p)
        prod *= p ** e
    assert prod == n


def test_prime_factors_large_semiprime():
    n = 1_000_003 * 999_983
    fac = prime_factors(n)
    assert fac == {999_983: 1, 1_000_003: 1}


def test_valuation():
    assert valuation(48, 2) == 4
    assert valuation(-45, 3) == 2
    assert valuation(7, 5) == 0
    with pytest.raises(ValueError):
        valuation(0, 2)


def test_primality_spot_checks():
    assert is_probable_prime(2) and is_probable_prime(3)
    assert not is_probable_prime(1) and not is_probable_prime(0)
    assert is_probable_prime(2 ** 61 - 1)          # Mersenne prime
    assert not is_probable_prime(3215031751)       # strong pseudoprime to 2,3,5,7
    assert not is_probable_prime(25326001)


# -- surd_sign ----------------------------------------------------------------

BIG = 2 ** 300
radicands = st.one_of(st.just(0), st.integers(0, 1000).map(lambda k: k * k),
                      st.integers(0, 10 ** 6))


@st.composite
def surds(draw):
    """(x, y, d) with |x|, |y| <= 2^300; half the x sit next to -y*sqrt(d),
    where the sign is hardest (and exactly 0 for square d)."""
    y = draw(st.integers(-BIG, BIG))
    d = draw(radicands)
    if draw(st.booleans()):
        x = draw(st.integers(-BIG, BIG))
    else:
        r = isqrt(y * y * d)
        x = (-1 if y > 0 else 1) * r + draw(st.integers(-2, 2))
    return x, y, d


@settings(max_examples=500)
@given(surds())
@example((3, -1, 9))       # exact zero with square d
@example((-3, 1, 9))
@example((5, 0, 7))        # y = 0
@example((-5, 0, 7))
@example((0, -4, 3))       # x = 0
@example((0, 4, 3))
@example((-2, 5, 0))       # d = 0 with y != 0
@example((0, 5, 0))
@example((0, 0, 0))
def test_surd_sign_against_interval_oracle(xyd):
    x, y, d = xyd
    # 200 digits is well past |x| + |y|*sqrt(d) < 10^94, so a nonzero
    # x^2 - y^2*d always separates the interval from 0
    want = interval_sign(x, y, d, prec=200)
    assert want is not None
    assert surd_sign(x, y, d) == want


def test_surd_sign_rejects_negative_radicand():
    with pytest.raises(ValueError):
        surd_sign(1, 1, -1)
