"""Exact term computation for u_n = A*u_{n-1} - B*u_{n-2}.

Two paths: term_iter walks the recurrence (linear time, the reference), and
term_fast uses fast doubling of the Lucas pair (U_n, U_{n+1}), O(log n) big
squarings (see kernels.term_at), for the coefficient identity

    u_n = c_P(n)*P + c_Q(n)*Q,   c_P(n) = -B*U_{n-1},  c_Q(n) = U_n.

Both are exact and bit-identical; negative indices are unsupported
throughout (backward extension leaves the integers unless B = +-1).
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from . import kernels
from .intutil import square_cofactor


class TermWindow(NamedTuple):
    """Adjacent terms (u_n, u_{n+1}); advancing via the recurrence
    reproduces the sequence.  The return type of the public term_window."""

    n: int
    u_n: int
    u_next: int


def term_iter(params, n: int) -> int:
    """u_n by iteration from u_0 = P, u_1 = Q."""
    return kernels.term_iter(params.A, params.B, params.P, params.Q, n)


def term_fast(params, n: int) -> int:
    """u_n by Lucas-pair fast doubling; bit-identical to term_iter."""
    return kernels.term_at(params.A, params.B, params.P, params.Q, n)


def term_window(params, n: int) -> TermWindow:
    u, u1 = kernels.term_window(params.A, params.B, params.P, params.Q, n)
    return TermWindow(n, u, u1)


def lucas_U(A: int, B: int, n: int) -> int:
    """Lucas sequence of the first kind: U_0 = 0, U_1 = 1."""
    return kernels.lucas_u_pair(A, B, n)[0]


def lucas_uv(A: int, B: int, n: int) -> tuple[int, int]:
    """(U_n, V_n) in one doubling pass; V is the Lucas sequence of the second
    kind (V_0 = 2, V_1 = A), and V^2 - (A^2-4B)U^2 = 4B^n."""
    return kernels.lucas_uv(A, B, n)


def coeffs(A: int, B: int, n: int) -> tuple[int, int]:
    """(c_P(n), c_Q(n)) with u_n = c_P(n)*P + c_Q(n)*Q, for n >= 1.

    c_P(n) = -B*U_{n-1} and c_Q(n) = U_n; both are nonzero for n >= 2
    whenever the (A, B) Lucas sequence is non-degenerate.
    """
    if n < 1:
        raise ValueError("coefficient decomposition needs n >= 1")
    u, u1 = kernels.lucas_u_pair(A, B, n - 1)
    return -B * u, u1


def gcd_consecutive_U(A: int, B: int, n: int) -> int:
    """gcd(U_{2n}, U_{2n+1}) for square-factor-reduced (A, B).

    Equals gcd(A, B)^n; the identity is a property of the reduced
    parameters, which is why d > 1 inputs are rejected rather than fixed up.
    """
    if n < 0:
        raise ValueError("index must be non-negative")
    if A == 0 and B == 0:
        raise ValueError("A and B must not both be zero")
    if square_cofactor(A, B) != 1:
        raise ValueError("gcd_consecutive_U requires reduced parameters (d = 1)")
    u, u1 = kernels.lucas_u_pair(A, B, 2 * n)
    return gcd(u, u1)
