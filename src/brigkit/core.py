"""Sequence parameters, classification, and normalizations.

A sequence is the integer quadruple (A, B, P, Q) with u_0 = P, u_1 = Q and
u_n = A*u_{n-1} - B*u_{n-2}.  Construction imposes no invariants: degenerate
inputs must be representable so that classify can name what is wrong with
them.  Classification is pure integer arithmetic (perfect-square tests and
divisibility); no roots are ever approximated.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import gcd, isqrt

from .intutil import square_cofactor


class DegenerateInputError(ValueError):
    """An operation that needs a non-degenerate sequence got a degenerate one."""


@dataclass(frozen=True)
class SequenceParams:
    A: int
    B: int
    P: int
    Q: int


class Kind(enum.Enum):
    REAL = "real"
    NONREAL = "non-real"
    DEGENERATE = "degenerate"


class Reason(enum.Enum):
    """Why a sequence is degenerate; ordered coarsest-first."""

    BOTH_INITIAL_ZERO = "both-initial-zero"
    B_ZERO = "b-zero"
    A_ZERO = "a-zero"
    EQUAL_ROOTS = "equal-roots"
    ROOT_OF_UNITY_RATIO = "root-of-unity-ratio"
    LEADING_COEFF_ZERO = "leading-coeff-zero"      # Q = P*(minor root)
    SECONDARY_COEFF_ZERO = "secondary-coeff-zero"  # Q = P*(dominant root)


@dataclass(frozen=True)
class SequenceClass:
    kind: Kind
    reason: Reason | None = None
    ratio_period: int | None = None

    @property
    def is_degenerate(self) -> bool:
        return self.kind is Kind.DEGENERATE

    def label(self) -> str:
        if self.kind is not Kind.DEGENERATE:
            return self.kind.value
        if self.reason is Reason.ROOT_OF_UNITY_RATIO:
            return f"degenerate: root-of-unity ratio, order {self.ratio_period}"
        text = {
            Reason.BOTH_INITIAL_ZERO: "both initial values zero",
            Reason.B_ZERO: "B is zero",
            Reason.A_ZERO: "A is zero (root ratio -1)",
            Reason.EQUAL_ROOTS: "equal roots (A^2 = 4B)",
            Reason.LEADING_COEFF_ZERO: "closed-form coefficient on the dominant root is zero",
            Reason.SECONDARY_COEFF_ZERO: "closed-form coefficient on the minor root is zero",
        }[self.reason]
        return f"degenerate: {text}"


REAL = SequenceClass(Kind.REAL)
NONREAL = SequenceClass(Kind.NONREAL)


def classify(params: SequenceParams) -> SequenceClass:
    """Total classification with deterministic sub-reason priority.

    Priority: BothInitialZero > BZero > AZero > EqualRoots >
    RootOfUnityRatio > coefficient-zero.  The root-of-unity period m is the
    least even multiple of the ratio order, which makes alpha^m = +-B^(m/2)
    a rational integer, so u_{n+m} = alpha^m * u_n holds over the integers:
    A^2 = B and A^2 = 3B give m = 6, A^2 = 2B gives m = 4.
    """
    A, B, P, Q = params.A, params.B, params.P, params.Q
    if P == 0 and Q == 0:
        return SequenceClass(Kind.DEGENERATE, Reason.BOTH_INITIAL_ZERO)
    if B == 0:
        return SequenceClass(Kind.DEGENERATE, Reason.B_ZERO)
    if A == 0:
        return SequenceClass(Kind.DEGENERATE, Reason.A_ZERO, ratio_period=2)
    a2 = A * A
    if a2 == 4 * B:
        return SequenceClass(Kind.DEGENERATE, Reason.EQUAL_ROOTS, ratio_period=1)
    if a2 == B or a2 == 3 * B:
        return SequenceClass(Kind.DEGENERATE, Reason.ROOT_OF_UNITY_RATIO, ratio_period=6)
    if a2 == 2 * B:
        return SequenceClass(Kind.DEGENERATE, Reason.ROOT_OF_UNITY_RATIO, ratio_period=4)
    delta = a2 - 4 * B
    if delta < 0:
        return NONREAL
    d = isqrt(delta)
    if d * d == delta:
        # integer roots: a coefficient in u_n = a*alpha^n - b*beta^n can vanish
        r1, r2 = (A + d) // 2, (A - d) // 2
        dominant, minor = (r1, r2) if abs(r1) >= abs(r2) else (r2, r1)
        if Q == P * dominant:
            return SequenceClass(Kind.DEGENERATE, Reason.SECONDARY_COEFF_ZERO)
        if Q == P * minor:
            return SequenceClass(Kind.DEGENERATE, Reason.LEADING_COEFF_ZERO)
    return REAL


def reduce_d(params: SequenceParams) -> tuple[SequenceParams, int]:
    """Divide out the largest d with d | A and d^2 | B.

    Returns ((A/d, B/d^2, d*P, Q), d); the reduced sequence u'_n equals
    u_n / d^(n-1), so zero indices are unchanged.  Only gcd(A, B) is ever
    factored.
    """
    A, B, P, Q = params.A, params.B, params.P, params.Q
    if A == 0 and B == 0:
        raise ValueError("A and B must not both be zero")
    d = square_cofactor(A, B)
    if d == 1:
        return params, 1
    return SequenceParams(A // d, B // (d * d), d * P, Q), d


def normalize_gcd(params: SequenceParams) -> tuple[SequenceParams, int]:
    """Divide P and Q by their positive gcd."""
    P, Q = params.P, params.Q
    if P == 0 and Q == 0:
        raise ValueError("P and Q must not both be zero")
    s = gcd(P, Q)
    if s == 1:
        return params, 1
    return SequenceParams(params.A, params.B, P // s, Q // s), s

