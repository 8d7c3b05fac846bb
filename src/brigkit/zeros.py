"""Zero-index decision: does u_k = 0 for some k, and for which k?

Non-degenerate sequences have at most one zero, and its index is bounded by
an explicit logarithm of the normalized |Q| (the bound is evaluated with
certified upward rounding, so the scan range is never too short).  The scan
runs on the original parameters: dividing out d or gcd(P, Q) rescales terms
but never moves a zero.  Each degenerate class gets its own exact analysis
instead: periodic zero patterns, an explicit linear equation in the
equal-roots case, or a geometric tail that cannot vanish.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Union

from . import kernels
from .core import (DegenerateInputError, Kind, Reason, SequenceClass,
                   SequenceParams, classify, normalize_gcd, reduce_d)
from .logbounds import ceil_log_affine

DEFAULT_C4 = 10_000


class InvariantViolationError(RuntimeError):
    """A second zero index turned up in a non-degenerate sequence."""


class ConstructionError(ValueError):
    """Zero-at-k construction hit a vanishing Lucas term."""


@dataclass(frozen=True)
class ZeroAt:
    k: int


@dataclass(frozen=True)
class NoZero:
    """No zero at any index.  conclusive is always true; it stays because
    the sweep report has a key for it."""

    searched_up_to: int
    conclusive: bool
    assumes_c4: int | None = None  # non-real case: conclusive if c4 <= this


@dataclass(frozen=True)
class PeriodicZeros:
    modulus: int
    residues: frozenset[int]


@dataclass(frozen=True)
class AllZero:
    pass


@dataclass(frozen=True)
class ZeroTail:
    """Zeros at every n >= start plus the listed earlier indices.

    Only reachable for B = 0 sequences whose geometric tail collapses
    (Q = 0, or A = 0 so u_n = 0 from n = 2 on).
    """

    start: int
    prefix: frozenset[int] = field(default_factory=frozenset)


ZeroResult = Union[ZeroAt, NoZero, PeriodicZeros, AllZero, ZeroTail]


@dataclass(frozen=True)
class SearchBound:
    n_max: int
    c4: int | None = None  # None for a real sequence


def normalized_for_bound(params: SequenceParams) -> tuple[SequenceParams, int, int]:
    """(reduced-and-gcd-normalized params, d, s); the search bound is
    evaluated on these."""
    reduced, d = reduce_d(params)
    normalized, s = normalize_gcd(reduced)
    return normalized, d, s


def zero_search_bound(params: SequenceParams,
                      c4_config: int = DEFAULT_C4) -> SearchBound:
    """Scan bound SearchBound(n_max, c4) for the single possible zero index.

    Real case: n_max = ceil(9*ln|Q| + 12) and c4 = None; non-real: n_max =
    max(ceil(10*ln(max(|Q|, 2))), c4_config) and c4 = c4_config, both on the
    normalized Q.  Ceilings are exact via certified rational log enclosures;
    no floating point enters the decision.  A non-real c4_config below 1
    raises ValueError.
    """
    cls = classify(params)
    if cls.is_degenerate:
        raise DegenerateInputError(f"no search bound for {cls.label()}")
    _check_c4(cls, c4_config)
    return _search_bound(params, cls, c4_config)


def _search_bound(params: SequenceParams, cls: SequenceClass,
                  c4_config: int) -> SearchBound:
    """zero_search_bound once cls has passed its degenerate and c4 checks."""
    _, formula = _formula_bound(params, cls.kind is Kind.REAL)
    if cls.kind is Kind.REAL:
        return SearchBound(formula)
    return SearchBound(max(formula, c4_config), c4_config)


def _check_c4(cls: SequenceClass, c4_config: int) -> None:
    """Raise ValueError if cls is non-real and c4_config is not a positive
    index; a real sequence never reads c4."""
    if cls.kind is Kind.NONREAL and c4_config < 1:
        raise ValueError(f"c4 must be >= 1, got {c4_config}")


def _formula_bound(params: SequenceParams, real: bool) -> tuple[int, int]:
    """(qn, ceil(9*ln(qn) + 12)) for real, else (qn, ceil(10*ln(max(qn, 2)))),
    with qn = max(|Q|, 1) of the normalized params."""
    normalized, _, _ = normalized_for_bound(params)
    qn = max(abs(normalized.Q), 1)
    if real:
        return qn, ceil_log_affine(9, qn, 12)
    return qn, ceil_log_affine(10, max(qn, 2), 0)


def find_zero(params: SequenceParams, c4_config: int = DEFAULT_C4) -> ZeroResult:
    """Decide the zero set of the sequence.

    Non-degenerate: scans k = 0..n_max and keeps scanning after a hit; a
    second hit would contradict at-most-one-zero uniqueness and raises
    InvariantViolationError.  The trivial P = 0 / Q = 0 cases are answered
    directly (u_0 resp. u_1 vanish, and the rest of the sequence is a
    nonzero multiple of U_n, which has no zero at n >= 1 when
    non-degenerate).  With no hit up to SearchBound(n_max, c4), the answer
    is NoZero(n_max, conclusive=True, assumes_c4=c4).  Degenerate inputs get
    their class's exact zero set.  A non-real c4_config below 1 raises
    ValueError, also where P = 0 or Q = 0 leaves it unread; so does a search
    bound past the scan's limit, before the scan allocates anything.
    """
    return _find_zero(params, c4_config)[0]


def _find_zero(params: SequenceParams,
               c4_config: int) -> tuple[ZeroResult, SearchBound | None]:
    """find_zero's result and the bound its scan searched up to, or None
    where it answered without a scan."""
    cls = classify(params)
    if cls.is_degenerate:
        return _degenerate_zeros(params, cls), None
    _check_c4(cls, c4_config)
    if params.P == 0:
        return ZeroAt(0), None
    if params.Q == 0:
        return ZeroAt(1), None
    bound = _search_bound(params, cls, c4_config)
    hits = kernels.zero_scan(params.A, params.B, params.P, params.Q, 0, bound.n_max)
    if len(hits) > 1:
        raise InvariantViolationError(
            f"multiple zeros {hits} for non-degenerate {params}")
    if hits:
        return ZeroAt(hits[0]), bound
    return NoZero(bound.n_max, conclusive=True, assumes_c4=bound.c4), bound


def _degenerate_zeros(params: SequenceParams, cls: SequenceClass) -> ZeroResult:
    """Exact zero set of a sequence classified as the degenerate class cls."""
    if not cls.is_degenerate:
        raise DegenerateInputError(f"no degenerate zero set for {cls.label()}")
    A, B, P, Q = params.A, params.B, params.P, params.Q

    if cls.reason is Reason.BOTH_INITIAL_ZERO:
        return AllZero()

    if cls.reason is Reason.B_ZERO:
        # u_0 = P and u_n = A^(n-1)*Q for n >= 1
        if Q == 0:
            return ZeroTail(1)
        if A == 0:
            return ZeroTail(2, frozenset({0}) if P == 0 else frozenset())
        if P == 0:
            return ZeroAt(0)
        return NoZero(0, conclusive=True)

    if cls.reason is Reason.EQUAL_ROOTS:
        # u_k = (A/2)^(k-1) * (k*Q - (k-1)*P*(A/2)): zero iff 2kQ = (k-1)PA
        num = -P * A
        den = 2 * Q - P * A
        if den != 0 and num % den == 0 and num // den >= 0:
            return ZeroAt(num // den)
        return NoZero(0, conclusive=True)

    if cls.reason in (Reason.A_ZERO, Reason.ROOT_OF_UNITY_RATIO):
        # u_{n+m} = alpha^m * u_n with alpha^m a nonzero rational integer,
        # so the zero set is the first period repeated forever
        m = cls.ratio_period
        window = [P]
        prev, cur = P, Q
        for _ in range(m - 1):
            window.append(cur)
            prev, cur = cur, A * cur - B * prev
        residues = frozenset(r for r, u in enumerate(window) if u == 0)
        if residues:
            return PeriodicZeros(m, residues)
        return NoZero(m - 1, conclusive=True)

    # coefficient-zero: u_n is a single nonzero geometric term
    return NoZero(0, conclusive=True)


def construct_zero_at(A: int, B: int, k: int) -> tuple[int, int]:
    """Initial values (P, Q), gcd-normalized, whose sequence vanishes at k.

    (P, Q) is proportional to (U_k, B*U_{k-1}): running the recurrence
    backwards from a zero at index k is the sequence B^n * U_{k-n}, whose
    first two terms these are.
    """
    if A == 0 or B == 0:
        raise ValueError("construction requires A*B != 0")
    if k < 2:
        raise ValueError("construction requires k >= 2")
    u, u1 = kernels.lucas_u_pair(A, B, k - 1)  # (U_{k-1}, U_k)
    if u == 0 or u1 == 0:
        raise ConstructionError(f"degenerate construction: U_{k-1} or U_{k} vanishes")
    P0, Q0 = u1, B * u
    s = gcd(P0, Q0)
    return P0 // s, Q0 // s


def zero_family(A: int, B: int, k_max: int) -> list[tuple[int, int, int]]:
    """(k, P_k, Q_k) for k = 2..k_max via P_{m+1} = A*P_m - Q_m, Q_{m+1} = B*P_m.

    Starting pair (P_2, Q_2) = (A, B); each entry's sequence vanishes at
    exactly index k (proportional to construct_zero_at's output).  k_max
    passes lucas_u_pair's size guard before the first step.
    """
    if A == 0 or B == 0:
        raise ValueError("family requires A*B != 0")
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    kernels._refuse_huge(A, B, k_max)
    out = []
    p, q = A, B
    for k in range(2, k_max + 1):
        out.append((k, p, q))
        p, q = A * p - q, B * p
    return out
