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
from brigkit.intutil import surd_sign
from conftest import iter_lucas_u, iter_lucas_v, iter_terms

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


def _plain_last_residue_zero(a, b, x, z, hi, p):
    """The last n in [1, hi] with u_n = 0 mod p, or 0, by a plain residue
    loop: the reference for the kernel's baby-step giant-step screen."""
    last, prev, cur = 0, x % p, z % p
    for n in range(1, hi + 1):
        if not cur:
            last = n
        prev, cur = cur, (a * cur - b * prev) % p
    return last


# The screen's giant blocks have a power-of-two length m near sqrt(hi), so
# hi next to a power of two is next to a block boundary for every m; the
# squares and 10^4 +- 1 (10^4 is the non-real cutoff c4) end inside a block.
SCREEN_HIS = sorted({0, 1, 2, 3, 4, 5, 9, 25, 49, 81, 100, 2500, 9801,
                     9_999, 10_000, 10_001}
                    | {2 ** e + d for e in range(1, 14) for d in (-1, 0, 1)})


@st.composite
def residue_screen_inputs(draw):
    """(p, a, b, x, z) mod a prime where residue zeros recur below 10^4:
    the orbit of (0 : 1) has at most p + 1 points, so at p = 101 every
    orbit is shorter than the blocks of hi >= 4096 and at 10007 most are
    longer.  Draws cover b = 0, s_0 = (0, 0) and constructed zeros."""
    p = draw(st.sampled_from([101, 1009, 10007]))
    a = draw(st.integers(0, p - 1))
    b = draw(st.one_of(st.just(0), st.integers(1, p - 1)))
    shape = draw(st.sampled_from(["free", "zero", "built"]))
    if shape == "zero":
        x = z = 0
    elif shape == "built":
        # u_k = z*U_k - x*b*U_{k-1} vanishes for (x, z) = s*(U_k, b*U_{k-1})
        k = draw(st.integers(1, 10_001))
        prev, cur = 0, 1
        for _ in range(k - 1):
            prev, cur = cur, (a * cur - b * prev) % p
        s = draw(st.integers(1, p - 1))
        x, z = s * cur % p, s * b * prev % p
    else:
        x, z = draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))
    return p, a, b, x, z


@settings(max_examples=150, deadline=None)
@given(residue_screen_inputs())
@example((101, 0, 5, 3, 7))       # A = 0: (0 : 1) has period 2
@example((101, 0, 5, 0, 7))
@example((101, 7, 0, 3, 7))       # B = 0: N is singular, no zero
@example((101, 0, 0, 3, 7))       # B = A = 0: zeros from n = 2 on
@example((1009, 5, 0, 3, 0))      # B = 0, Q = 0: every n >= 1
@example((10007, 3, 2, 0, 0))     # P = Q = 0
@example((10007, 2, 1, 1, 0))     # z = 0 at n = 0; alpha = beta = 1
@example((10007, 1, 10006, 1, 0))  # Fibonacci: u_n = F_(n-1), n = 1, ...
def test_residue_screen_matches_plain_loop(case):
    p, a, b, x, z = case
    for hi in SCREEN_HIS:
        assert (kernels._last_residue_zero(a, b, x, z, hi, p)
                == _plain_last_residue_zero(a, b, x, z, hi, p)), hi


@pytest.mark.parametrize("a, b", [(1, 2), (3, 5), (-2, 7)])
def test_zero_scan_finds_a_constructed_zero_at_the_nonreal_cutoff(a, b):
    """A zero at k = 9,500 with hi = 10^4, the scale of the sweep's
    non-real c4: the screen's last residue zero is k, and the exact pass
    confirms it."""
    k = 9_500
    u = iter_lucas_u(a, b, k)
    p, q = u[k], b * u[k - 1]
    prime = kernels._SCREEN_PRIME
    assert kernels._last_residue_zero(a % prime, b % prime, p % prime,
                                      q % prime, 10_000, prime) == k
    assert kernels.zero_scan(a, b, p, q, 0, 10_000) == [k]
    assert kernels.zero_scan(a, b, p, q, 0, k - 1) == []
    assert kernels.zero_scan(a, b, p, q, k + 1, 10_000) == []


def test_screen_tables_are_keyed_on_the_prime(monkeypatch):
    """The same (A, B) and hi under different screening primes: a table
    built for one prime must not answer for another."""
    kernels._baby_steps.cache_clear()
    u = iter_lucas_u(3, 5, 40)
    p, q = u[37], 5 * u[36]
    for prime in (101, 1009, PRIME, 101, PRIME):
        monkeypatch.setattr(kernels, "_SCREEN_PRIME", prime)
        assert kernels.zero_scan(3, 5, p, q, 0, 100) == [37], prime
        assert kernels.zero_scan(3, 5, p, q + 1, 0, 100) == [], prime


# hi=None scans lo..lo+40; the examples with hi=200 run to the sweep's
# horizon, where the terms are hundreds of bits long and the bit-length
# screen decides nearly every comparison.
@settings(max_examples=150, deadline=None)
@given(coeff_a, coeff_b, initial, initial, st.none())
@example(7, 12, 1, 1, None)
@example(3, -100, 1, 1, None)
@example(10, 1, 1, 1, None)
@example(1, -1, 2, 3, None)
@example(5, 2, 3, -4, None)
@example(1, -1, 987, -610, 200)          # near branch, Q/P near beta
@example(3, 2, 5, -7, 200)               # square delta: alpha = 2
@example(7, 12, -8, 3, 200)              # square delta: alpha = 4
@example(12, 3, 100, -1, 200)            # far branch, A - D < 1
@example(60, 1, 999_999, -1, 200)        # far branch, alpha ~ 60
def test_scan_agrees_with_per_index_checker_real(a, b, p, q, hi):
    """Dual route: integer scan kernel vs QuadElem margin checker."""
    params = SequenceParams(a, b, p, q)
    assume(classify(params).kind is Kind.REAL)
    br = real_case_branch(params)
    lo = max(br.n_min, 2)
    assume(lo <= REAL_START_CAP)
    hi = lo + 40 if hi is None else hi
    assume(lo <= hi)
    bad = kernels.real_growth_scan(a, b, p, q, lo, hi,
                                   br.kind is BranchKind.FAR)
    per_index = [n for n in range(lo, hi + 1)
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
@given(st.integers(-40, 40), st.integers(1, 900), initial, initial,
       st.integers(0, 40))
@example(2, 8, 1, 2, 0)     # |u_n|^3 = 8^n exactly at n = 0, 1, 2
@example(2, 8, 1, 2, 3)
@example(0, 8, 1, 2, 0)     # ties at n = 0, 1
@example(1, 1, 1, 1, 0)     # |u_n| <= 1 = B^n: every n ties or fails
@example(0, 9, 1, 2, 0)     # n = 1: 3L - 2 = e and 8 < 9
@example(0, 300, 1, 7, 0)   # n = 1: 3L = e and 343 >= 300
def test_nonreal_scan_matches_plain_cube_comparison(a, b, p, q, lo):
    """The bit-length screen against |u_n|^3 < B^n computed in full, index
    by index to lo + 20 and over the whole window to 200."""
    assume(a * a < 4 * b)
    terms = iter_terms(a, b, p, q, 200)
    below = [n for n in range(201) if abs(terms[n]) ** 3 < b ** n]
    for n in range(lo, lo + 21):
        assert kernels.nonreal_growth_scan(a, b, p, q, n, n) == (
            n if n in below else -1), n
    tail = [n for n in below if n >= lo]
    assert kernels.nonreal_growth_scan(a, b, p, q, lo, 200) == (
        tail[-1] if tail else -1)


@settings(max_examples=150, deadline=None)
@given(coeff_a, coeff_b, st.just(120))
@example(1, -1, 120)
@example(2, -1, 120)
@example(3, 2, 120)
@example(7, 5, 120)
@example(5, -6, 120)
@example(3, 2, 200)      # alpha = 2: every step is a bit-length tie
@example(7, 12, 200)     # alpha = 4
@example(1, -1, 200)
@example(60, -60, 200)
@example(60, 899, 200)   # 0 < 4B < A^2, alpha - beta = 2
def test_scan_agrees_with_per_index_checker_lucas(a, b, hi):
    assume(classify(SequenceParams(a, b, 0, 1)).kind is Kind.REAL)
    bad = kernels.lucas_growth_scan(a, b, 2, hi)
    per_index = [n for n in range(2, hi + 1)
                 if not check_lucas_growth(a, b, n).bound_holds]
    assert bad == (per_index[0] if per_index else -1)


def test_lucas_bound_margin_for_negative_b_is_exactly_two():
    """For B < 0 the scan checks 2|U_n| >= alpha^(n-2).  Over the growth
    box's negative B (A in [1, 12], B in [-3, -1], 2 <= n <= 200) the
    smallest 2|U_n| / alpha^(n-2) is exactly 2, and only at n = 2 with
    A = 1, where U_2 = A = 1 = alpha^0.  So halving the constant (checking
    |U_n| >= alpha^(n-2)) turns no verdict in the box: the weakest point
    only ties, and no witness here can catch that mutation.  The same exact
    scan over A <= 40, B >= -60, n <= 200 finds the same minimum, again
    only at A = 1, n = 2.

    |U_n| vs alpha^m is the sign of 2|U_n| - V_m - U_m*sqrt(delta), decided
    on exact integers."""
    ties = []
    for a in range(1, 13):
        for b in range(-3, 0):
            delta = a * a - 4 * b
            lu, lv = iter_lucas_u(a, b, 200), iter_lucas_v(a, b, 200)
            for n in range(2, 201):
                sign = surd_sign(2 * abs(lu[n]) - lv[n - 2], -lu[n - 2], delta)
                assert sign >= 0, (a, b, n)
                if sign == 0:
                    ties.append((a, b, n))
    assert ties == [(1, -3, 2), (1, -2, 2), (1, -1, 2)]


def _first_violation(a, b, p, q, lo, hi, far):
    """First n in [lo, hi] where a real-case bound of the scan fails, or -1,
    at any lo >= 2 (check_real_growth only answers from the branch's n_min
    on).  Each bound c*X >= w*alpha^m is decided as
    2*c*X - w*V_m >= w*U_m*sqrt(delta) on exact squares; nothing is shared
    with brigkit."""
    delta = a * a - 4 * b
    u = iter_terms(a, b, p, q, hi)
    lu, lv = iter_lucas_u(a, b, hi), iter_lucas_v(a, b, hi)
    fu, fv = iter_lucas_u(1, -1, hi), iter_lucas_v(1, -1, hi)

    def ge(x, w, um, vm, d):
        lhs = 2 * x - w * vm
        return lhs >= 0 and lhs * lhs >= w * w * um * um * d

    k1 = max(5 * abs(p), 22 * abs(q))
    k2 = max(14 * abs(p), 36 * abs(q))
    for n in range(lo, hi + 1):
        x = abs(u[n])
        if far:
            holds = (ge(x * 2 ** (n - 2), abs(q), lu[n - 2], lv[n - 2], delta)
                     and x * x * 4 ** n >= q * q * 5 ** n)
        else:
            holds = (ge(k1 * x, 1, lu[n - 2], lv[n - 2], delta)
                     and ge(k2 * x, 1, fu[n], fv[n], 5))
        if not holds:
            return n
    return -1


# (A, B) with a square discriminant, so alpha is an integer.  For (3, 2) and
# (7, 12) every alpha^m is a power of two and a bit-length tie always holds;
# alpha = 3 for (1, -6) and (5, 6), where Q = beta*P leaves only the beta^n
# term and ties go both ways; (1, 0) has alpha = 1 and u_n = Q from n = 1 on,
# so the golden-ratio bound is the one that fails, at a tie.
SQUARE_DELTA_PAIRS = [(3, 2), (7, 12), (1, -6), (5, 6), (1, 0)]


def test_real_scan_fallback_is_reached_and_exact(monkeypatch):
    """Scans from lo = 2 pass indices where the bounds are close, so equal
    bit lengths reach the exact surd_sign fallback.  Its verdicts, both ways,
    must give the first violation of the independent reference, and from the
    branch threshold on, that of check_real_growth."""
    verdicts = []

    def counted(x, y, d):
        sign = real_sign(x, y, d)
        verdicts.append(sign)
        return sign

    real_sign = kernels.surd_sign
    monkeypatch.setattr(kernels, "surd_sign", counted)
    for a, b in SQUARE_DELTA_PAIRS:
        for p in range(-6, 7):
            for q in range(-6, 7):
                if not p or not q:
                    continue
                for far in (False, True):
                    for lo in (2, 3, 7):
                        assert (kernels.real_growth_scan(a, b, p, q, lo, 60, far)
                                == _first_violation(a, b, p, q, lo, 60, far)), \
                            (a, b, p, q, lo, far)
                params = SequenceParams(a, b, p, q)
                if classify(params).kind is not Kind.REAL:
                    continue
                br = real_case_branch(params)
                lo = max(br.n_min, 2)
                per_index = [n for n in range(lo, 61)
                             if not check_real_growth(params, n).bound_holds]
                assert (kernels.real_growth_scan(a, b, p, q, lo, 60,
                                                 br.kind is BranchKind.FAR)
                        == (per_index[0] if per_index else -1)), (a, b, p, q)
    assert verdicts.count(1) > 0 and verdicts.count(-1) > 0


def test_power_bits_table_is_small_exact_and_cached():
    """One small int per index (O(hi) memory, never the Lucas terms), each
    the bit length of floor(alpha^m), behind a bounded cache."""
    assert kernels._power_bits.cache_info().maxsize is not None
    for a, b in [(1, -1), (3, 2), (60, -60), (60, 899)]:
        table = kernels._power_bits(a, b, 2000)
        assert len(table) == 2001
        assert all(type(e) is int and 0 <= e < 2 ** 32 for e in table)
        # 2^(e-1) <= alpha^m < 2^e, decided on exact squares
        delta = a * a - 4 * b
        lu, lv = iter_lucas_u(a, b, 300), iter_lucas_v(a, b, 300)
        for m in range(301):
            e = table[m]
            # alpha^m >= 2^k  <=>  V_m - 2^(k+1) + U_m*sqrt(delta) >= 0
            for k, at_least in ((e - 1, True), (e, False)):
                x = lv[m] - 2 ** (k + 1)
                ge = x >= 0 or x * x <= lu[m] ** 2 * delta
                assert ge is at_least, (a, b, m)
    assert kernels._power_bits(3, 2, 10) == tuple(range(1, 12))
    assert kernels._power_bits(7, 12, 10) == tuple(range(1, 23, 2))
