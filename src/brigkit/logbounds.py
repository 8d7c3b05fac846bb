"""Certified integer bounds of natural logarithms, and exact decisions on them.

Search bounds and applicability thresholds have the shape ceil(c*ln(x) + d)
or c*ln(x)*(ln ln x)^2 rounded up; a strict test n < v of an integer n
against such a v is n < ceil(v), so callers decide it from the ceiling.
Rounding these with floating point could miss a bound near a tie, so
everything here rests on one integer primitive, ln_bounds(num, den, prec),
which returns integers lo <= 2^prec * ln(num/den) <= hi.

ln_bounds reduces num/den = 2^e * m with m in [1, 2) and sums
ln(m) = 2*atanh(y) = 2*sum y^(2j+1)/(2j+1), y = (m-1)/(m+1) < 1/3, and
ln(2) = 2*atanh(1/3) in fixed point at prec plus a few guard bits.  The
lower sums floor every rounding; the upper sums take ceilings and add the
geometric tail bound y^(2N+1)/((2N+1)(1-y^2)) <= 9/8 * y^(2N+1)/(2N+1).
Every integer stays about prec + log2(e) bits wide and about prec/3 terms
are summed, so the cost hardly depends on the size of num and den.

Each decision refines: it evaluates its value's bounds at prec bits,
returns the verdict once both ends agree, and otherwise doubles prec.  For
integer x >= 2 and rational c != 0, d the value c*ln(x) + d is irrational,
so the loop ends.  A loop still undecided at MAX_PREC bits raises
ArithmeticError instead of returning a verdict it has not proved.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import ceil, floor

START_PREC = 64
MAX_PREC = 1 << 14


def _ceil_shift(v: int, s: int) -> int:
    """ceil(v / 2^s)."""
    return -(-v >> s)


def _atanh_bounds(a: int, b: int, w: int) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^w * atanh(a/b) <= hi, for 0 <= a/b <= 1/3."""
    if a == 0:
        return 0, 0
    p_lo = (a << w) // b              # 2^w * y^(2j+1), rounded down ...
    p_hi = -(-(a << w) // b)          # ... and up
    y2_lo = p_lo * p_lo >> w
    y2_hi = _ceil_shift(p_hi * p_hi, w)
    s_lo = s_hi = 0
    k = 1                             # 2j + 1
    while p_hi > 1:
        s_lo += p_lo // k
        s_hi += -(-p_hi // k)
        p_lo = p_lo * y2_lo >> w
        p_hi = _ceil_shift(p_hi * y2_hi, w)
        k += 2
    return s_lo, s_hi + -(-9 * p_hi // (8 * k))    # the tail, y <= 1/3


def ln_bounds(num: int, den: int, prec: int) -> tuple[int, int]:
    """Integers (lo, hi) with lo <= 2^prec * ln(num/den) <= hi.

    Requires num >= den > 0; num == den gives the exact (0, 0).  The width
    hi - lo is a few units, so doubling prec halves the enclosure's
    absolute width.
    """
    if den <= 0 or num < den:
        raise ValueError("ln_bounds requires num >= den > 0")
    if prec < 0:
        raise ValueError("ln_bounds requires prec >= 0")
    if num == den:
        return 0, 0
    e = num.bit_length() - den.bit_length()
    if num < den << e:
        e -= 1
    scaled = den << e                 # num / scaled = m in [1, 2)
    guard = e.bit_length() + prec.bit_length() + 4
    w = prec + guard
    m_lo, m_hi = _atanh_bounds(num - scaled, num + scaled, w)
    if e:
        l2_lo, l2_hi = _atanh_bounds(1, 3, w)
        m_lo += e * l2_lo
        m_hi += e * l2_hi
    return 2 * m_lo >> guard, _ceil_shift(2 * m_hi, guard)


def _refine(enclose, decide):
    """decide(lo, hi) on enclose(prec) for prec doubling from START_PREC.

    enclose returns rational bounds of one real value; decide returns the
    verdict they prove, or None when they straddle it.
    """
    prec = START_PREC
    while prec <= MAX_PREC:
        verdict = decide(*enclose(prec))
        if verdict is not None:
            return verdict
        prec *= 2
    raise ArithmeticError(f"logarithm bounds undecided at {MAX_PREC} bits")


def _affine_enclosure(coeff: Fraction, x: int, offset: Fraction):
    """enclose(prec) for coeff*ln(x) + offset."""
    def enclose(prec):
        lo, hi = ln_bounds(x, 1, prec)
        ends = (coeff * Fraction(lo, 1 << prec) + offset,
                coeff * Fraction(hi, 1 << prec) + offset)
        return min(ends), max(ends)
    return enclose


def _same(f):
    """decide() that returns f(lo) when f(lo) == f(hi)."""
    def decide(lo, hi):
        v = f(lo)
        return v if v == f(hi) else None
    return decide


@lru_cache(maxsize=65536)
def ceil_log_affine(coeff, x: int, offset) -> int:
    """Exact ceil(coeff*ln(x) + offset) for integer x >= 1 and rationals
    coeff, offset."""
    enclose = _affine_enclosure(Fraction(coeff), x, Fraction(offset))
    return _refine(enclose, _same(ceil))


def floor_log_squared(coeff, x: int) -> int:
    """Exact floor(coeff * ln(x)^2) for integer x >= 1."""
    coeff = Fraction(coeff)

    def enclose(prec):
        lo, hi = ln_bounds(x, 1, prec)
        ends = (coeff * Fraction(lo * lo, 1 << 2 * prec),
                coeff * Fraction(hi * hi, 1 << 2 * prec))
        return min(ends), max(ends)
    return _refine(enclose, _same(floor))


@lru_cache(maxsize=65536)
def upper_log_loglog(c, x: int) -> int:
    """Exact ceil(c * ln(x) * (ln(ln(x)))^2), and at least 1.

    Returns 1 when x <= 2 (the inner logarithm would be <= 0 there) or
    c <= 0.  The inner logarithm is taken of the dyadic bounds of ln(x):
    the lower bound's lower bound and the upper bound's upper bound.
    """
    c = Fraction(c)
    if x <= 2 or c <= 0:
        return 1

    def enclose(prec):
        one = 1 << prec
        lo, hi = ln_bounds(x, 1, prec)    # x >= 3, so lo >= one at prec >= 5
        ll_lo, _ = ln_bounds(lo, one, prec)
        _, ll_hi = ln_bounds(hi, one, prec)
        den = 1 << 3 * prec
        return c * Fraction(lo * ll_lo * ll_lo, den), c * Fraction(hi * ll_hi * ll_hi, den)
    return max(1, _refine(enclose, _same(ceil)))
