"""Backend parity and scan-vs-checker cross-validation.

The compiled extension and the pure-Python twin must be bit-for-bit
interchangeable, and the integer-only scan kernels must agree with the
QuadElem-based per-index checkers (two independent routes to the same
verdicts).
"""

import pytest
from hypothesis import given, settings, strategies as st

from brigkit import SequenceParams, classify
from brigkit import _kernels_py as pure
from brigkit.core import Kind
from brigkit.growth import (BranchKind, check_lucas_growth,
                            check_nonreal_growth, check_real_growth,
                            real_case_branch)
from conftest import iter_terms

try:
    from brigkit import _kernels_c as compiled
except ImportError:
    compiled = None

needs_compiled = pytest.mark.skipif(compiled is None,
                                    reason="compiled kernels not built")

small = st.integers(-10, 10)


@needs_compiled
@settings(max_examples=200)
@given(small, small, small, small, st.integers(0, 400))
def test_backend_term_parity(a, b, p, q, n):
    assert compiled.term_at(a, b, p, q, n) == pure.term_at(a, b, p, q, n)
    assert compiled.term_iter(a, b, p, q, n) == pure.term_iter(a, b, p, q, n)


@needs_compiled
@settings(max_examples=200)
@given(small, small, st.integers(0, 500))
def test_backend_lucas_parity(a, b, n):
    assert compiled.lucas_u_pair(a, b, n) == pure.lucas_u_pair(a, b, n)
    assert compiled.lucas_uv(a, b, n) == pure.lucas_uv(a, b, n)


@needs_compiled
@settings(max_examples=100)
@given(small, small, small, small)
def test_backend_zero_scan_parity(a, b, p, q):
    assert compiled.zero_scan(a, b, p, q, 0, 250) == pure.zero_scan(a, b, p, q, 0, 250)


@needs_compiled
def test_backend_growth_scan_parity():
    for a in range(1, 9):
        for b in range(-8, 9):
            for p, q in [(1, 1), (2, -3), (-1, 4)]:
                params = SequenceParams(a, b, p, q)
                cls = classify(params)
                if cls.kind is Kind.REAL and p and q:
                    br = real_case_branch(params)
                    lo = max(br.n_min, 2)
                    if lo <= 150:
                        far = br.kind is BranchKind.FAR
                        assert (compiled.real_growth_scan(a, b, p, q, lo, 150, far)
                                == pure.real_growth_scan(a, b, p, q, lo, 150, far))
                if cls.kind is Kind.NONREAL:
                    assert (compiled.nonreal_growth_scan(a, b, p, q, 0, 150)
                            == pure.nonreal_growth_scan(a, b, p, q, 0, 150))
            if b and not classify(SequenceParams(a, b, 0, 1)).is_degenerate \
                    and a * a > 4 * b:
                assert (compiled.lucas_growth_scan(a, b, 2, 150)
                        == pure.lucas_growth_scan(a, b, 2, 150))


@settings(max_examples=200)
@given(small, small, small, small, st.integers(0, 300))
def test_term_window_matches_recurrence(a, b, p, q, n):
    assert pure.term_window(a, b, p, q, n) == tuple(iter_terms(a, b, p, q, n + 1)[n:])


def test_term_window_rejects_negative_index():
    with pytest.raises(ValueError):
        pure.term_window(1, -1, 0, 1, -1)


def test_zero_scan_matches_window_iteration():
    hits = pure.zero_scan(3, 6, 5, 6, 0, 100)
    assert hits == [5]
    assert pure.zero_scan(1, -1, 0, 1, 0, 50) == [0]
    assert pure.zero_scan(1, -1, 1, 2, 0, 50) == []
    assert pure.zero_scan(3, 6, 5, 6, 6, 100) == []   # window below lo excluded


def test_scan_agrees_with_per_index_checker_real():
    """Dual route: integer scan kernel vs QuadElem margin checker."""
    for params in [SequenceParams(7, 12, 1, 1), SequenceParams(3, -100, 1, 1),
                   SequenceParams(10, 1, 1, 1), SequenceParams(1, -1, 2, 3),
                   SequenceParams(5, 2, 3, -4)]:
        br = real_case_branch(params)
        lo = max(br.n_min, 2)
        bad = pure.real_growth_scan(params.A, params.B, params.P, params.Q,
                                    lo, lo + 40, br.kind is BranchKind.FAR)
        per_index = [n for n in range(lo, lo + 41)
                     if not check_real_growth(params, n).bound_holds]
        assert bad == (per_index[0] if per_index else -1)


def test_scan_agrees_with_per_index_checker_nonreal():
    for params in [SequenceParams(1, 2, 1, 1), SequenceParams(3, 6, 5, 6),
                   SequenceParams(-2, 5, 7, -1)]:
        last = pure.nonreal_growth_scan(params.A, params.B, params.P,
                                        params.Q, 0, 120)
        per_index = [n for n in range(121)
                     if not check_nonreal_growth(params, n).margins[0].holds]
        assert last == (per_index[-1] if per_index else -1)


def test_scan_agrees_with_per_index_checker_lucas():
    for a, b in [(1, -1), (2, -1), (3, 2), (7, 5), (5, -6)]:
        bad = pure.lucas_growth_scan(a, b, 2, 120)
        per_index = [n for n in range(2, 121)
                     if not check_lucas_growth(a, b, n).bound_holds]
        assert bad == (per_index[0] if per_index else -1)


def test_selector_exposes_backend():
    from brigkit import kernels
    assert kernels.backend_name() in ("compiled", "pure")
    assert kernels.term_at(1, -1, 0, 1, 10) == 55
