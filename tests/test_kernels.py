"""Kernel checks: terms against the recurrence, and scan-vs-checker
cross-validation.

The integer-only scan kernels must agree with the QuadElem-based per-index
checkers (two independent routes to the same verdicts).
"""

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from brigkit import SequenceParams, classify, kernels
from brigkit.core import Kind
from brigkit.growth import (BranchKind, check_lucas_growth,
                            check_nonreal_growth, check_real_growth,
                            real_case_branch)
from conftest import iter_terms

small = st.integers(-10, 10)
coeff_a = st.integers(1, 60)
coeff_b = st.integers(-60, 60)
initial = st.integers(-10 ** 6, 10 ** 6).filter(bool)

# Real points whose growth bounds start past this index are skipped, as the
# sweep skips points whose threshold lies beyond its horizon: n_min reaches
# ~1.1e8 at (1, -60, 1, 10^6).
REAL_START_CAP = 300


@settings(max_examples=200)
@given(small, small, small, small, st.integers(0, 300))
def test_term_window_matches_recurrence(a, b, p, q, n):
    assert kernels.term_window(a, b, p, q, n) == tuple(iter_terms(a, b, p, q, n + 1)[n:])


def test_term_window_rejects_negative_index():
    with pytest.raises(ValueError):
        kernels.term_window(1, -1, 0, 1, -1)


def test_zero_scan_matches_window_iteration():
    hits = kernels.zero_scan(3, 6, 5, 6, 0, 100)
    assert hits == [5]
    assert kernels.zero_scan(1, -1, 0, 1, 0, 50) == [0]
    assert kernels.zero_scan(1, -1, 1, 2, 0, 50) == []
    assert kernels.zero_scan(3, 6, 5, 6, 6, 100) == []   # window below lo excluded


@settings(max_examples=150, deadline=None)
@given(coeff_a, coeff_b, initial, initial)
@example(7, 12, 1, 1)
@example(3, -100, 1, 1)
@example(10, 1, 1, 1)
@example(1, -1, 2, 3)
@example(5, 2, 3, -4)
def test_scan_agrees_with_per_index_checker_real(a, b, p, q):
    """Dual route: integer scan kernel vs QuadElem margin checker."""
    params = SequenceParams(a, b, p, q)
    assume(classify(params).kind is Kind.REAL)
    br = real_case_branch(params)
    lo = max(br.n_min, 2)
    assume(lo <= REAL_START_CAP)
    bad = kernels.real_growth_scan(a, b, p, q, lo, lo + 40,
                                   br.kind is BranchKind.FAR)
    per_index = [n for n in range(lo, lo + 41)
                 if not check_real_growth(params, n).bound_holds]
    assert bad == (per_index[0] if per_index else -1)


@settings(max_examples=150, deadline=None)
@given(coeff_a, st.integers(1, 900), initial, initial)
@example(1, 2, 1, 1)
@example(3, 6, 5, 6)
@example(-2, 5, 7, -1)
def test_scan_agrees_with_per_index_checker_nonreal(a, b, p, q):
    params = SequenceParams(a, b, p, q)
    assume(classify(params).kind is Kind.NONREAL)
    last = kernels.nonreal_growth_scan(a, b, p, q, 0, 120)
    per_index = [n for n in range(121)
                 if not check_nonreal_growth(params, n).margins[0].holds]
    assert last == (per_index[-1] if per_index else -1)


@settings(max_examples=150, deadline=None)
@given(coeff_a, coeff_b)
@example(1, -1)
@example(2, -1)
@example(3, 2)
@example(7, 5)
@example(5, -6)
def test_scan_agrees_with_per_index_checker_lucas(a, b):
    assume(classify(SequenceParams(a, b, 0, 1)).kind is Kind.REAL)
    bad = kernels.lucas_growth_scan(a, b, 2, 120)
    per_index = [n for n in range(2, 121)
                 if not check_lucas_growth(a, b, n).bound_holds]
    assert bad == (per_index[0] if per_index else -1)
