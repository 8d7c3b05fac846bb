"""Integer quadratic surds for the growth checkers' margins.

QuadElem is (x + y*sqrt(d))/den with integers x, y, d >= 0 and den >= 1:
a margin with its denominator cleared.  The denominator is positive, so the
sign is that of x + y*sqrt(d), decided by intutil.surd_sign, the one exact
sign primitive of the kernels and the growth layer.  No rationals and no
floating point.  alpha_power gives alpha^m in this form.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .intutil import surd_sign


@dataclass(frozen=True)
class QuadElem:
    """(x + y*sqrt(d))/den."""

    x: int
    y: int
    d: int
    den: int = 1

    def __post_init__(self):
        if self.d < 0 or self.den < 1:
            raise ValueError("QuadElem needs d >= 0 and den >= 1")

    def sign(self) -> int:
        return surd_sign(self.x, self.y, self.d)


def alpha_power(A: int, B: int, m: int) -> QuadElem:
    """alpha^m = (V_m + U_m*sqrt(delta))/2 for alpha = (A + sqrt(delta))/2,
    delta = A^2 - 4B >= 0, from the Lucas pair of (A, B) in O(log m) big
    multiplications."""
    delta = A * A - 4 * B
    if delta < 0:
        raise ValueError("alpha_power requires a real case (A^2 >= 4B)")
    if m < 0:
        raise ValueError("m must be non-negative")
    u, v = kernels.lucas_uv(A, B, m)
    return QuadElem(v, u, delta, 2)
