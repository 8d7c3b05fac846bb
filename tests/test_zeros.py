from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from brigkit import SequenceParams, classify, kernels
from brigkit.zeros import (AllZero, ConstructionError, InvariantViolationError,
                           NoZero, PeriodicZeros, ZeroAt, ZeroTail,
                           construct_zero_at, find_zero, normalized_for_bound,
                           zero_family, zero_search_bound)

from conftest import iter_terms


def oracle_zeros(a, b, p, q, horizon):
    seq = iter_terms(a, b, p, q, horizon)
    return [n for n, u in enumerate(seq) if u == 0]


# -- search bounds ------------------------------------------------------------

def test_bound_real_example():
    sb = zero_search_bound(SequenceParams(3, 2, 7, 6))
    assert sb == zero_search_bound(SequenceParams(3, 2, 7, 6), 999)
    assert (sb.n_max, sb.c4) == (29, None)


def test_bound_real_unit_q():
    # |Q| = 1 after normalization: ceil(9*0 + 12) = 12
    sb = zero_search_bound(SequenceParams(3, 2, 5, 1))
    assert sb.n_max == 12
    # gcd normalization brings (14, 7) down to (2, 1)
    sb = zero_search_bound(SequenceParams(3, 2, 14, 7))
    assert sb.n_max == 12


def test_bound_nonreal_example():
    sb = zero_search_bound(SequenceParams(3, 6, 5, 6), 1000)
    assert (sb.n_max, sb.c4) == (1000, 1000)
    # with a tiny c4 the formula term takes over: ceil(10*ln 6) = 18
    sb = zero_search_bound(SequenceParams(3, 6, 5, 6), 5)
    assert sb.n_max == 18


@pytest.mark.parametrize("c4", [0, -5])
def test_nonreal_c4_below_one_is_refused(c4):
    nonreal = SequenceParams(1, 2, 1, 1)
    with pytest.raises(ValueError, match="c4"):
        zero_search_bound(nonreal, c4)
    with pytest.raises(ValueError, match="c4"):
        find_zero(nonreal, c4)
    # also where P = 0 or Q = 0 answers without reading c4
    for params in (SequenceParams(1, 2, 0, 1), SequenceParams(1, 2, 1, 0)):
        with pytest.raises(ValueError, match="c4"):
            find_zero(params, c4)
    # a real sequence never reads c4
    assert find_zero(SequenceParams(1, -1, 1, 2), c4) == NoZero(19, conclusive=True)
    assert zero_search_bound(SequenceParams(1, -1, 1, 2), c4).n_max == 19


def test_nonreal_c4_past_the_scan_limit_is_refused_before_the_screen(monkeypatch):
    def no_screen(*args):
        raise AssertionError("the screen ran")

    monkeypatch.setattr(kernels, "_last_residue_zero", no_screen)
    with pytest.raises(ValueError, match="exceeds"):
        find_zero(SequenceParams(1, 2, 1, 1), kernels._MAX_SCAN + 1)


def test_bound_uses_normalized_q():
    # d = 2 for (4, 8): (A', B', P', Q') = (2, 2, 2P, Q); then gcd
    normalized, d, s = normalized_for_bound(SequenceParams(4, 8, 1, 6))
    assert d == 2 and normalized == SequenceParams(2, 2, 1, 3) and s == 2


def test_bound_rejects_degenerate():
    with pytest.raises(Exception):
        zero_search_bound(SequenceParams(1, 1, 1, 1))


# -- find_zero ----------------------------------------------------------------

def test_find_zero_paper_instances():
    assert find_zero(SequenceParams(3, 2, 31, 30)) == ZeroAt(5)
    assert find_zero(SequenceParams(3, 6, 5, 6)) == ZeroAt(5)


def test_find_zero_fibonacci_shifted():
    res = find_zero(SequenceParams(1, -1, 1, 2))
    assert res == NoZero(19, conclusive=True)   # ceil(9 ln2 + 12) = 19


def test_find_zero_trivial_initial_zeros():
    assert find_zero(SequenceParams(1, -1, 0, 1)) == ZeroAt(0)
    assert find_zero(SequenceParams(1, -1, 5, 0)) == ZeroAt(1)


def test_find_zero_nonreal_conclusiveness_tag():
    res = find_zero(SequenceParams(3, 6, 5, 7), 777)
    assert isinstance(res, NoZero) and res.assumes_c4 == 777
    assert res.searched_up_to == 777 and res.conclusive


def test_find_zero_double_zero_raises(monkeypatch):
    from brigkit import zeros as zmod
    monkeypatch.setattr(zmod.kernels, "zero_scan",
                        lambda *args: [3, 9])
    with pytest.raises(InvariantViolationError):
        find_zero(SequenceParams(1, -1, 1, 2))


@settings(max_examples=200, deadline=None)
@given(st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8))
def test_find_zero_agrees_with_oracle(a, b, p, q):
    params = SequenceParams(a, b, p, q)
    if classify(params).is_degenerate:
        return
    res = find_zero(params, 300)
    horizon = 400
    hits = oracle_zeros(a, b, p, q, horizon)
    if isinstance(res, ZeroAt):
        assert hits == [res.k]
    else:
        assert hits == []


# -- degenerate zero sets -----------------------------------------------------

def test_periodic_example():
    # u_0..u_5 = 1,1,0,-1,-1,0: zeros at n = 2 (mod 3), i.e. {2,5} mod 6
    assert find_zero(SequenceParams(1, 1, 1, 1)) == PeriodicZeros(6, frozenset({2, 5}))


def test_periodic_residues_match_iteration():
    for a, b in [(1, 1), (2, 2), (3, 3), (2, 4), (0, 5), (0, -2)]:
        for p, q in [(1, 1), (1, -1), (0, 3), (2, 1)]:
            cls = classify(SequenceParams(a, b, p, q))
            if not cls.is_degenerate or cls.ratio_period is None:
                continue
            res = find_zero(SequenceParams(a, b, p, q))
            hits = set(oracle_zeros(a, b, p, q, 48))
            if isinstance(res, PeriodicZeros):
                want = {n for n in range(49) if n % res.modulus in res.residues}
            else:
                assert isinstance(res, NoZero) and res.conclusive
                want = set()
            assert hits == want


def test_equal_roots_cases():
    assert find_zero(SequenceParams(2, 1, 3, 2)) == ZeroAt(3)
    # no integer solution: u_n = (n+1) * 2^n for (4, 4, 1, 4)
    assert isinstance(find_zero(SequenceParams(4, 4, 1, 4)), NoZero)
    # P = 0: zero at index 0
    assert find_zero(SequenceParams(2, 1, 0, 5)) == ZeroAt(0)
    # Q = 0: zero at index 1
    assert find_zero(SequenceParams(2, 1, 5, 0)) == ZeroAt(1)
    # 2Q = PA: the linear equation degenerates, no zero anywhere
    assert isinstance(find_zero(SequenceParams(2, 1, 3, 3)), NoZero)


def test_equal_roots_match_oracle():
    for p in range(-6, 7):
        for q in range(-6, 7):
            if p == 0 and q == 0:
                continue
            res = find_zero(SequenceParams(2, 1, p, q))
            hits = oracle_zeros(2, 1, p, q, 200)
            if isinstance(res, ZeroAt) and res.k <= 200:
                assert hits == [res.k]
            elif isinstance(res, ZeroAt):
                assert hits == []
            else:
                assert hits == []


def test_b_zero_cases():
    assert isinstance(find_zero(SequenceParams(5, 0, 1, 3)), NoZero)
    assert find_zero(SequenceParams(5, 0, 0, 3)) == ZeroAt(0)
    assert find_zero(SequenceParams(5, 0, 2, 0)) == ZeroTail(1)
    assert find_zero(SequenceParams(0, 0, 2, 3)) == ZeroTail(2)
    assert find_zero(SequenceParams(0, 0, 0, 3)) == ZeroTail(2, frozenset({0}))
    assert find_zero(SequenceParams(0, 0, 0, 0)) == AllZero()


def test_b_zero_tail_matches_oracle():
    for a, b, p, q in [(5, 0, 2, 0), (0, 0, 2, 3), (0, 0, 0, 3)]:
        res = find_zero(SequenceParams(a, b, p, q))
        hits = set(oracle_zeros(a, b, p, q, 40))
        want = {n for n in range(41)
                if n in res.prefix or n >= res.start}
        assert hits == want


def test_coefficient_zero_no_zeros():
    # (3,2,7,14): u_n = 7*2^n; (3,2,7,7): u_n = 7 for all n
    for q in (14, 7):
        res = find_zero(SequenceParams(3, 2, 7, q))
        assert isinstance(res, NoZero) and res.conclusive
        assert oracle_zeros(3, 2, 7, q, 100) == []


# -- constructors -------------------------------------------------------------

def test_construct_examples():
    assert construct_zero_at(3, 6, 5) == (-5, -6)
    assert Fraction(-5, -6) == Fraction(5, 6)
    assert construct_zero_at(3, 2, 2) == (3, 2)
    assert construct_zero_at(1, -1, 4) == (3, -2)
    # and the constructed sequences do vanish there
    assert iter_terms(1, -1, 3, -2, 4) == [3, -2, 1, -1, 0]


def test_construct_validation():
    with pytest.raises(ValueError):
        construct_zero_at(0, 5, 4)
    with pytest.raises(ValueError):
        construct_zero_at(3, 6, 1)
    # U_2(2, 2) = 2, U_3 = 0: k = 4 needs U_3 != 0
    with pytest.raises(ConstructionError):
        construct_zero_at(2, 2, 4)


def test_zero_family_examples():
    fam = zero_family(3, 6, 5)
    assert fam[0] == (2, 3, 6)
    assert fam[1] == (3, 3, 18)      # (A^2 - B, A*B)
    assert fam[2] == (4, -9, 18)
    # every member vanishes at its k
    for k, p, q in fam:
        assert iter_terms(3, 6, p, q, k)[k] == 0


def test_zero_family_matches_general_form():
    for a, b in [(3, 6), (1, -1), (5, 2), (-4, 3)]:
        fam = zero_family(a, b, 6)
        assert fam[1][1:] == (a * a - b, a * b)


def test_family_proportional_to_construction():
    for a, b in [(3, 6), (2, -5), (7, 3)]:
        for k, p, q in zero_family(a, b, 8):
            try:
                cp, cq = construct_zero_at(a, b, k)
            except ConstructionError:
                continue
            if (p, q) == (0, 0):
                continue
            assert p * cq == q * cp   # proportional initial pairs


@settings(max_examples=120, deadline=None)
@given(st.integers(-7, 7), st.integers(-7, 7), st.integers(2, 25))
def test_construct_round_trip(a, b, k):
    if a == 0 or b == 0:
        return
    params = SequenceParams(a, b, 0, 1)
    if classify(params).is_degenerate:
        return
    p, q = construct_zero_at(a, b, k)
    assert find_zero(SequenceParams(a, b, p, q), 300) == ZeroAt(k)


def test_scaling_transform_preserves_zero_index():
    """(A,B,P,Q) -> (AP, BP^2, 1, Q) scales terms by P^(n-1), keeping zeros."""
    for a, b, k in [(3, 6, 5), (1, -1, 7), (5, 2, 9)]:
        p, q = construct_zero_at(a, b, k)
        if p == 0:
            continue
        v = SequenceParams(a * p, b * p * p, 1, q)
        if classify(v).is_degenerate:
            continue
        assert find_zero(v, 400) == ZeroAt(k)
        base = iter_terms(a, b, p, q, k + 3)
        scaled = iter_terms(v.A, v.B, v.P, v.Q, k + 3)
        for n in range(1, k + 4):
            assert scaled[n] == p ** (n - 1) * base[n]


def test_tightness_family_short():
    for k in range(3, 16):
        params = SequenceParams(3, 2, 2 ** k - 1, 2 ** k - 2)
        assert find_zero(params) == ZeroAt(k)


def test_equal_roots_large_index_solution():
    # 2kQ = (k-1)PA solved exactly without iteration: k may be huge
    res = find_zero(SequenceParams(2, 1, 1000001, 1000000))
    assert res == ZeroAt(1000001)
    # verify algebraically: u_k = k*Q - (k-1)*P for A = 2, B = 1 (h = 1)
    k = 1000001
    assert k * 1000000 - (k - 1) * 1000001 == 0


def test_conditional_no_zero_semantics():
    """A tiny c4 can leave a non-real zero beyond the search bound; the
    verdict then carries the assumption that excuses it."""
    a, b, k = 1, 2, 14
    p, q = construct_zero_at(a, b, k)
    params = SequenceParams(a, b, p, q)
    res_small = find_zero(params, 5)
    if isinstance(res_small, NoZero):
        assert res_small.assumes_c4 == 5
        assert res_small.searched_up_to < k
    # the default cutoff finds it
    assert find_zero(params) == ZeroAt(k)


# (A, B) with d > 1, where d is the largest integer with d | A and d^2 | B.
SQUARE_COFACTOR_PAIRS = [(6, -9, 3), (10, -50, 5), (12, -144, 12), (6, 27, 3)]


def test_a_smaller_square_cofactor_only_widens_the_search(monkeypatch):
    """If square_cofactor returned a proper divisor d' of the true d (as a
    strong pseudoprime taken for a prime could make it do), the bound would
    be computed on (A/d', B/d'^2, d'P, Q).  gcd(d'P, Q) divides gcd(dP, Q),
    so the normalized |Q| can only grow, the search bound with it, and a
    conclusive NoZero stays sound.  Checked with d' = 1 and with every
    proper divisor of 12."""
    from brigkit import core
    cases = [(a, b, *construct_zero_at(a, b, k))
             for a, b, _ in SQUARE_COFACTOR_PAIRS for k in range(2, 11)]
    cases.append((6, -9, 1, 3))                   # no zero: n_max 12 -> 22
    want = {}
    for case in cases:
        params = SequenceParams(*case)
        want[case] = zero_search_bound(params).n_max, find_zero(params)
    assert want[(6, -9, 1, 3)] == (12, NoZero(12, conclusive=True))
    widened = 0
    for a, b, d in SQUARE_COFACTOR_PAIRS:
        for fake in [f for f in range(1, d) if d % f == 0]:
            monkeypatch.setattr(core, "square_cofactor", lambda x, y, f=fake: f)
            for case in [c for c in cases if c[:2] == (a, b)]:
                params = SequenceParams(*case)
                n_max, result = want[case]
                got = zero_search_bound(params).n_max
                assert got >= n_max, (case, fake)
                widened += got > n_max
                found = find_zero(params)
                assert type(found) is type(result), (case, fake)
                if isinstance(result, ZeroAt):
                    assert found.k == result.k
                else:
                    assert found.conclusive == result.conclusive
            monkeypatch.undo()
    assert widened > 0
    monkeypatch.setattr(core, "square_cofactor", lambda x, y: 1)
    assert zero_search_bound(SequenceParams(6, -9, 1, 3)).n_max == 22
