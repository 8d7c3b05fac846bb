"""Kernel checks: terms against the recurrence, the residue-screened zero
scan against plain iteration, and scan-vs-checker cross-validation.

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
from conftest import iter_lucas_u, iter_terms

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


def _plain_zeros(a, b, p, q, lo, hi):
    terms = iter_terms(a, b, p, q, hi)
    return [k for k in range(lo, hi + 1) if terms[k] == 0]


PRIME = kernels._SCREEN_PRIME
coeff_ab = st.integers(-60, 60)
big_initial = st.one_of(st.integers(-2 ** 200, 2 ** 200),
                        st.integers(-2 ** 169, 2 ** 169).map(lambda c: c * PRIME))


@st.composite
def scan_inputs(draw):
    """(A, B, P, Q, lo, hi); half the draws vanish at a chosen index k."""
    a, b = draw(coeff_ab), draw(coeff_ab)
    if draw(st.booleans()):
        # running the recurrence backwards from a zero at k gives B^n*U_{k-n}
        k = draw(st.integers(1, 400))
        u = iter_lucas_u(a, b, k)
        scale = draw(big_initial.filter(bool))
        p, q = scale * u[k], scale * b * u[k - 1]
    else:
        p, q = draw(big_initial), draw(big_initial)
    hi = draw(st.integers(0, 400))
    lo = draw(st.integers(0, hi))
    return a, b, p, q, lo, hi


@settings(max_examples=300, deadline=None)
@given(scan_inputs())
@example((3, 6, 5, 6, 0, 100))
@example((3, 2, 2 ** 17 - 1, 2 ** 17 - 2, 0, 400))
@example((3, 6, 5 * PRIME, 6 * PRIME, 0, 400))    # every residue is 0
@example((PRIME, PRIME, 1, 1, 0, 400))            # residues 0 from n = 2 on
@example((0, 5, 0, 7, 0, 400))                    # A = 0: periodic zeros
@example((4, 0, 3, 0, 2, 400))                    # B = 0, Q = 0: zero tail
@example((0, 0, 0, 0, 0, 400))
def test_screened_zero_scan_matches_plain_iteration(case):
    a, b, p, q, lo, hi = case
    assert kernels.zero_scan(a, b, p, q, lo, hi) == _plain_zeros(a, b, p, q, lo, hi)


@pytest.mark.parametrize("prime", [2, 3, 7])
def test_zero_scan_with_small_screening_prime(monkeypatch, prime):
    """With a tiny modulus residue hits are frequent, so the exact pass
    decides most indices."""
    monkeypatch.setattr(kernels, "_SCREEN_PRIME", prime)
    cases = [(a, b, p, q) for a in range(-5, 6) for b in range(-5, 6)
             for p in range(-3, 4) for q in range(-3, 4)]
    # constructed zeros, scaled by 7 so that under the prime 7 every
    # residue is 0 and the exact pass runs the whole window
    for a in (-5, -2, 1, 3, 4):
        for b in (-3, 2, 6):
            u = iter_lucas_u(a, b, 12)
            cases += [(a, b, 7 * u[k], 7 * b * u[k - 1]) for k in range(2, 13)]
    for a, b, p, q in cases:
        for lo in (0, 3):
            assert (kernels.zero_scan(a, b, p, q, lo, 40)
                    == _plain_zeros(a, b, p, q, lo, 40)), (prime, a, b, p, q, lo)


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
