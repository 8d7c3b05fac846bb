"""Shared test oracles and helpers.

The oracles here are deliberately independent of the library paths they
referee: plain recurrence loops written from the definitions, and a decimal
interval evaluator (directed rounding at >100 digits, i.e. well past 256
bits) for signs of r + s*sqrt(delta).
"""

import decimal
from decimal import Decimal
from fractions import Fraction

import pytest


def iter_terms(A, B, P, Q, count):
    """[u_0, ..., u_{count}] by the recurrence, nothing shared with brigkit."""
    seq = [P, Q]
    while len(seq) <= count:
        seq.append(A * seq[-1] - B * seq[-2])
    return seq[:count + 1]


def iter_lucas_u(A, B, count):
    return iter_terms(A, B, 0, 1, count)


def iter_lucas_v(A, B, count):
    return iter_terms(A, B, 2, A, count)


def interval_sign(r: Fraction, s: Fraction, delta: int, prec: int = 120):
    """Sign of r + s*sqrt(delta) by directed-rounding decimal intervals.

    Returns +1/-1/0, or None if the interval straddles zero at this
    precision (then the caller should widen or skip).
    """
    fl = decimal.Context(prec=prec, rounding=decimal.ROUND_FLOOR)
    ce = decimal.Context(prec=prec, rounding=decimal.ROUND_CEILING)

    def rng(frac):
        frac = Fraction(frac)
        return (fl.divide(Decimal(frac.numerator), Decimal(frac.denominator)),
                ce.divide(Decimal(frac.numerator), Decimal(frac.denominator)))

    r_lo, r_hi = rng(r)
    s_lo, s_hi = rng(s)
    q_lo, q_hi = fl.sqrt(Decimal(delta)), ce.sqrt(Decimal(delta))
    lo_prods = [fl.multiply(a, b) for a in (s_lo, s_hi) for b in (q_lo, q_hi)]
    hi_prods = [ce.multiply(a, b) for a in (s_lo, s_hi) for b in (q_lo, q_hi)]
    lo = fl.add(r_lo, min(lo_prods))
    hi = ce.add(r_hi, max(hi_prods))
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    if lo == 0 and hi == 0:
        return 0
    return None


def decimal_sign(x, y, d):
    """Sign of x + y*sqrt(d) by interval_sign, widening the decimal
    precision until the interval decides.  Past the digits of x and y*y*d
    every operation but the square root is exact, so a tie (possible only
    for square d or y = 0) comes out as 0."""
    prec = len(str(abs(x) + y * y * d)) + 30
    while True:
        sign = interval_sign(x, y, d, prec)
        if sign is not None:
            return sign
        assert prec < 20_000, (x, y, d)
        prec *= 2


@pytest.fixture(scope="session")
def small_nondegenerate_pairs():
    """Non-degenerate (A, B) with |A|, |B| <= 6."""
    from brigkit import SequenceParams, classify
    out = []
    for a in range(-6, 7):
        for b in range(-6, 7):
            if b == 0:
                continue
            if not classify(SequenceParams(a, b, 0, 1)).is_degenerate:
                out.append((a, b))
    return out
