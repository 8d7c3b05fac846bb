from types import ModuleType

import pytest
from hypothesis import given, settings, strategies as st

import brigkit
from brigkit import SequenceParams
from brigkit.core import Kind, Reason, classify, normalize_gcd, reduce_d

from conftest import iter_terms

small = st.integers(-10, 10)


def cls_of(a, b, p, q):
    return classify(SequenceParams(a, b, p, q))


def test_classify_examples():
    c = cls_of(1, 1, 1, 1)
    assert c.reason is Reason.ROOT_OF_UNITY_RATIO and c.ratio_period == 6
    assert cls_of(3, 6, 5, 6).kind is Kind.NONREAL
    assert cls_of(3, 2, 7, 6).kind is Kind.REAL
    assert cls_of(0, 0, 0, 0).reason is Reason.BOTH_INITIAL_ZERO
    assert cls_of(5, 0, 1, 3).reason is Reason.B_ZERO
    assert cls_of(0, 7, 2, 3).reason is Reason.A_ZERO
    assert cls_of(2, 1, 3, 2).reason is Reason.EQUAL_ROOTS
    assert cls_of(2, 2, 1, 1).ratio_period == 4    # A^2 = 2B
    assert cls_of(3, 3, 1, 1).ratio_period == 6    # A^2 = 3B
    # integer roots 2 and 1: Q = P*alpha kills the minor-root coefficient
    assert cls_of(3, 2, 7, 14).reason is Reason.SECONDARY_COEFF_ZERO
    assert cls_of(3, 2, 7, 7).reason is Reason.LEADING_COEFF_ZERO


def test_classify_priority_order():
    # B = 0 wins over A = 0; both-zero initials win over everything
    assert cls_of(0, 0, 1, 1).reason is Reason.B_ZERO
    assert cls_of(0, 5, 0, 0).reason is Reason.BOTH_INITIAL_ZERO
    # equal roots wins over coefficient-zero (A=2, B=1: root 1, Q=P)
    assert cls_of(2, 1, 3, 3).reason is Reason.EQUAL_ROOTS


def test_ratio_period_is_a_true_multiplier():
    """classify's m satisfies u_{n+m} * u_r = u_{r+m} * u_n (constant ratio)."""
    for a, b in [(1, 1), (-1, 1), (2, 2), (-2, 2), (3, 3), (2, 4), (3, 9), (-3, 9), (0, 5), (0, -3)]:
        for p, q in [(1, 1), (2, -3), (0, 1), (5, 2)]:
            c = cls_of(a, b, p, q)
            if c.reason not in (Reason.ROOT_OF_UNITY_RATIO, Reason.A_ZERO):
                continue
            m = c.ratio_period
            seq = iter_terms(a, b, p, q, 20 + m)
            for n in range(12):
                for r in range(12):
                    assert seq[n + m] * seq[r] == seq[r + m] * seq[n]


def test_spec_period_mapping_counterexample():
    """m = 3 for A^2 = 3B would be wrong: the term ratio is not 3-periodic."""
    seq = iter_terms(3, 3, 1, 1, 10)
    assert seq[3] * seq[1] != seq[4] * seq[0]
    # but m = 6 gives a constant ratio
    for n in range(4):
        for r in range(4):
            assert seq[n + 6] * seq[r] == seq[r + 6] * seq[n]
    assert cls_of(3, 3, 1, 1).ratio_period == 6


def test_reduce_d_examples():
    params, d = reduce_d(SequenceParams(4, 8, 1, 1))
    assert (params, d) == (SequenceParams(2, 2, 2, 1), 2)
    params, d = reduce_d(SequenceParams(3, 6, 5, 6))
    assert (params, d) == (SequenceParams(3, 6, 5, 6), 1)
    params, d = reduce_d(SequenceParams(15, 10, 1, 1))
    assert d == 1
    with pytest.raises(ValueError):
        reduce_d(SequenceParams(0, 0, 1, 1))


def test_reduce_d_idempotent():
    for a in range(-10, 11):
        for b in range(-10, 11):
            if a == 0 and b == 0:
                continue
            reduced, _ = reduce_d(SequenceParams(a, b, 1, 1))
            again, d2 = reduce_d(reduced)
            assert d2 == 1 and again == reduced


@settings(max_examples=150)
@given(small, small, small, small)
def test_reduce_d_term_relation(a, b, p, q):
    """u_n(original) = d^(n-1) * u_n(reduced) for n >= 1."""
    if a == 0 and b == 0:
        return
    params = SequenceParams(a, b, p, q)
    reduced, d = reduce_d(params)
    orig = iter_terms(a, b, p, q, 12)
    red = iter_terms(reduced.A, reduced.B, reduced.P, reduced.Q, 12)
    for n in range(1, 13):
        assert orig[n] == d ** (n - 1) * red[n]


def test_normalize_gcd_examples():
    params, s = normalize_gcd(SequenceParams(3, 6, -45, -54))
    assert (params.P, params.Q, s) == (-5, -6, 9)
    params, s = normalize_gcd(SequenceParams(1, 1, 1, 1))
    assert s == 1
    params, s = normalize_gcd(SequenceParams(1, 1, 0, 7))
    assert (params.P, params.Q, s) == (0, 1, 7)
    with pytest.raises(ValueError):
        normalize_gcd(SequenceParams(1, 1, 0, 0))


@settings(max_examples=200)
@given(small, small, small, small)
def test_flip_transform_preserves_class(a, b, p, q):
    """(A,B,P,Q) -> (-A,B,P,-Q) maps u_n to (-1)^n u_n: same class."""
    c1 = classify(SequenceParams(a, b, p, q))
    c2 = classify(SequenceParams(-a, b, p, -q))
    assert (c1.kind, c1.reason, c1.ratio_period) == (c2.kind, c2.reason, c2.ratio_period)


@settings(max_examples=200)
@given(small, small, small, small)
def test_literal_a_flip_preserves_kind_off_coeff_zero(a, b, p, q):
    c1 = classify(SequenceParams(a, b, p, q))
    c2 = classify(SequenceParams(-a, b, p, q))
    coeff = (Reason.LEADING_COEFF_ZERO, Reason.SECONDARY_COEFF_ZERO)
    if c1.reason in coeff or c2.reason in coeff:
        return
    assert c1.kind is c2.kind


@settings(max_examples=200)
@given(small, small, small, small)
def test_classification_matches_behavior(a, b, p, q):
    """Non-degenerate sequences never admit a constant m-step term ratio."""
    c = cls_of(a, b, p, q)
    if c.is_degenerate:
        return
    seq = iter_terms(a, b, p, q, 32)
    for m in (1, 2, 3, 4, 6):
        ratio_constant = all(
            seq[n + m] * seq[r] == seq[r + m] * seq[n]
            for n in range(12) for r in range(12))
        assert not ratio_constant


PUBLIC_NAMES = {
    "AllZero", "BranchKind", "ConstructionError", "DegenerateInputError",
    "GrowthBranch", "GrowthCase", "GrowthReport", "HeightBoundError",
    "InvariantViolationError", "Kind", "Margin", "NoZero", "PeriodicZeros",
    "RatioHeight", "Reason", "SearchBound", "SequenceClass", "SequenceParams",
    "TermWindow", "ZeroAt", "ZeroResult", "ZeroTail", "check_lucas_growth",
    "check_nonreal_growth", "check_real_growth", "check_sharp_growth",
    "classify", "coeffs", "construct_zero_at", "empirical_nonreal_threshold",
    "find_zero", "gcd_consecutive_U", "height_sandwich_check", "lucas_U",
    "lucas_uv", "nonreal_threshold_formula", "normalize_gcd", "ratio_height",
    "real_case_branch", "reduce_d", "term_fast", "term_iter", "term_window",
    "zero_family", "zero_search_bound",
}


def test_public_surface_is_pinned():
    """Every root export is a deliberate edit of PUBLIC_NAMES."""
    names = {name for name, value in vars(brigkit).items()
             if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert names == PUBLIC_NAMES


def test_params_repr_names_each_field():
    """Error messages print params; the dataclass repr names every field."""
    assert (repr(SequenceParams(1, -2, 3, -4))
            == "SequenceParams(A=1, B=-2, P=3, Q=-4)")
