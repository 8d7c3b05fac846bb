"""Exact arithmetic in real quadratic extensions Q(sqrt(delta)).

QuadElem represents r + s*sqrt(delta) with exact rational r, s and an
integer radicand delta >= 0.  Rationals are fractions.Fraction, which keeps
them in lowest terms with a positive denominator, so equality and
cross-multiplied comparison are canonical for free.

Order rests on one exact sign: sign(r + s*sqrt(delta)) is
intutil.surd_sign of the integers r.num*s.den and s.num*r.den, which is the
same primitive the kernels and the growth layer's branch, height and
sandwich decisions call directly.  No floating point anywhere.

Radicands are not reduced to square-free form (callers fix delta = A^2-4B,
or 5 for the golden ratio); a perfect-square radicand is folded into the
rational part at construction, so s != 0 implies sqrt(delta) is irrational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .intutil import is_square, surd_sign


class MismatchedRadicandError(ValueError):
    """Arithmetic combined two elements with different irrational radicands."""


@dataclass(frozen=True)
class QuadElem:
    """r + s*sqrt(delta) in canonical form."""

    r: Fraction
    s: Fraction
    delta: int

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError("radicand must be non-negative")
        r, s = Fraction(self.r), Fraction(self.s)
        if s and is_square(self.delta):
            r += s * isqrt(self.delta)
            s = Fraction(0)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def rational(cls, value, delta: int = 0) -> "QuadElem":
        return cls(Fraction(value), Fraction(0), delta)

    @classmethod
    def sqrt(cls, delta: int) -> "QuadElem":
        return cls(Fraction(0), Fraction(1), delta)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "QuadElem | None":
        if isinstance(other, QuadElem):
            if other.delta == self.delta or other.s == 0:
                return QuadElem(other.r, other.s, self.delta)
            if self.s == 0:
                return None  # caller re-dispatches with other's radicand
            raise MismatchedRadicandError(
                f"cannot combine radicands {self.delta} and {other.delta}")
        if isinstance(other, (int, Fraction)):
            return QuadElem(Fraction(other), Fraction(0), self.delta)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return QuadElem(self.r, Fraction(0), other.delta) + other
        if o is NotImplemented:
            return NotImplemented
        return QuadElem(self.r + o.r, self.s + o.s, self.delta)

    __radd__ = __add__

    def __neg__(self):
        return QuadElem(-self.r, -self.s, self.delta)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return QuadElem(self.r, Fraction(0), other.delta) - other
        if o is NotImplemented:
            return NotImplemented
        return QuadElem(self.r - o.r, self.s - o.s, self.delta)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return QuadElem(self.r, Fraction(0), other.delta) * other
        if o is NotImplemented:
            return NotImplemented
        return QuadElem(self.r * o.r + self.s * o.s * self.delta,
                        self.r * o.s + self.s * o.r, self.delta)

    __rmul__ = __mul__

    def conjugate(self) -> "QuadElem":
        return QuadElem(self.r, -self.s, self.delta)

    def norm(self) -> Fraction:
        """Field norm r^2 - s^2*delta (product with the conjugate)."""
        return self.r * self.r - self.s * self.s * self.delta

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return QuadElem(self.r, Fraction(0), other.delta) / other
        if o is NotImplemented:
            return NotImplemented
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero quadratic element")
        num = self * o.conjugate()
        return QuadElem(num.r / n, num.s / n, self.delta)

    def __pow__(self, k: int):
        if k < 0:
            return QuadElem.rational(1, self.delta) / self ** (-k)
        result = QuadElem.rational(1, self.delta)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- order ---------------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of r + s*sqrt(delta): both denominators are positive,
        so clearing them leaves the sign of an integer surd."""
        r, s = self.r, self.s
        return surd_sign(r.numerator * s.denominator,
                         s.numerator * r.denominator, self.delta)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def _cmp(self, other) -> int:
        return (self - other).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def is_rational(self) -> bool:
        return self.s == 0

    def __repr__(self):
        if self.s == 0:
            return f"QuadElem({self.r})"
        return f"QuadElem({self.r} + {self.s}*sqrt({self.delta}))"


def alpha_power(A: int, B: int, m: int) -> QuadElem:
    """alpha^m for the dominant root alpha = (A + sqrt(A^2-4B))/2, delta >= 0.

    Computed as (V_m + U_m*sqrt(delta))/2 from the Lucas pair of (A, B),
    which costs O(log m) big multiplications instead of m QuadElem products.
    """
    from . import terms  # local import: terms has no dependency on this module

    delta = A * A - 4 * B
    if delta < 0:
        raise ValueError("alpha_power requires a real case (A^2 >= 4B)")
    if m < 0:
        raise ValueError("m must be non-negative")
    u, v = terms.lucas_uv(A, B, m)
    return QuadElem(Fraction(v, 2), Fraction(u, 2), delta)

