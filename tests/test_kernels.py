"""Kernel checks: terms against the recurrence, the residue-screened zero
scan against plain iteration, scan-vs-checker cross-validation, and the
growth scans' lower envelope against an exact reference.

The integer-only scan kernels must agree with the per-index checkers of
brigkit.growth, which build each margin as its own integer surd, and with
test-local referees that share no code with brigkit: exact squares in
_first_violation, and decimal intervals in the forced-branch scans.
"""

import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from brigkit import SequenceParams, classify, kernels, zeros
from brigkit.core import Kind
from brigkit.growth import (BranchKind, _bound_margins, check_lucas_growth,
                            check_nonreal_growth, check_real_growth,
                            empirical_nonreal_threshold, real_case_branch)
from brigkit.intutil import surd_sign
from conftest import decimal_sign, iter_lucas_u, iter_lucas_v, iter_terms

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


# The Lucas layer at sizes the small-integer tests miss: P and Q of up to
# 256 bits or 0 (term_at's one-product branch), n up to 700.
wide_initial = st.one_of(st.just(0), st.integers(-2 ** 256, 2 ** 256))


@settings(max_examples=200, deadline=None)
@given(st.integers(-30, 30), st.integers(-30, 30), wide_initial, wide_initial,
       st.integers(0, 700))
@example(3, -7, 0, 5, 10)                # P = 0 at even n: c = 0, one product
@example(3, -7, 5, 0, 11)                # Q = 0 at odd n: c = 0, one product
@example(3, -7, -2 ** 255, 5, 10)        # c = P < 0: negative divisor 4c
@example(3, -7, 5, -2 ** 255, 11)        # c = Q < 0: negative divisor 4c
@example(0, -7, 2, 5, 301)               # A = 0
@example(4, 0, 2, 5, 300)                # B = 0
@example(3, -7, 2, 5, 0)
@example(3, -7, 2, 5, 1)
@example(3, -7, 2, 5, 2)
@example(-30, 30, 2 ** 256, -2 ** 256, 2 ** 9 - 1)
@example(-30, 30, 2 ** 256, -2 ** 256, 2 ** 9 + 1)
@example(29, -30, 7, 11, 2 ** 6 - 1)
@example(29, -30, 7, 11, 2 ** 6 + 1)
def test_lucas_layer_matches_recurrence(a, b, p, q, n):
    u = iter_lucas_u(a, b, n + 1)
    terms = iter_terms(a, b, p, q, n + 1)
    assert kernels.lucas_u_pair(a, b, n) == (u[n], u[n + 1])
    assert kernels.lucas_uv(a, b, n) == (u[n], iter_lucas_v(a, b, n)[n])
    assert kernels.term_at(a, b, p, q, n) == terms[n]
    assert kernels.term_window(a, b, p, q, n) == (terms[n], terms[n + 1])


def test_huge_index_is_refused_before_the_ladder_starts(monkeypatch):
    """lucas_u_pair reads bin(n) before its first step, so a bin that fails
    proves no ladder starts."""
    def started(*args):
        raise AssertionError("the doubling ladder started")

    monkeypatch.setattr(kernels, "bin", started, raising=False)
    n = 2 ** 63 + 5
    for call in (lambda: kernels.lucas_u_pair(10, -10, n),
                 lambda: kernels.lucas_uv(10, -10, n),
                 lambda: kernels.term_at(10, -10, 3, 7, n),
                 lambda: kernels.term_window(10, -10, 3, 7, n)):
        with pytest.raises(ValueError, match="too large"):
            call()


def test_huge_linear_walks_are_refused_before_the_first_step(monkeypatch):
    """Each walk loops over a range, so a range that fails proves no walk
    starts."""
    def started(*args):
        raise AssertionError("the walk started")

    monkeypatch.setattr(kernels, "range", started, raising=False)
    monkeypatch.setattr(zeros, "range", started, raising=False)
    for call in (lambda: kernels.term_iter(3, 2, 1, 1, 2 ** 63 + 5),
                 lambda: kernels.nonreal_growth_scan(1, 2, 1, 1, 2 ** 40),
                 lambda: empirical_nonreal_threshold(SequenceParams(1, 2, 1, 1),
                                                     2 ** 40),
                 lambda: zeros.zero_family(3, 2, 2 ** 40)):
        with pytest.raises(ValueError, match="too large"):
            call()


def test_zero_family_guard_bounds_the_whole_list(monkeypatch):
    """k_max^2*bit_length(|A| + |B|) bounds the family's bits; for (3, 2)
    the largest k_max it accepts is isqrt(2^36 // 3).  The walk's range
    fails, so passing the guard is seen without a walk."""
    class Started(Exception):
        pass

    def started(*args):
        raise Started

    monkeypatch.setattr(zeros, "range", started, raising=False)
    limit = math.isqrt(kernels._MAX_BITS // 3)
    with pytest.raises(Started):
        zeros.zero_family(3, 2, limit)
    with pytest.raises(ValueError, match=f"k_max {limit + 1} is too large"):
        zeros.zero_family(3, 2, limit + 1)


def test_size_guard_is_exact_at_its_limit():
    """(A, B) = (1, 0) bounds U_n by n bits, and U_n = 1, u_n = Q for
    n >= 1 cost a few small steps, so the limit itself is cheap to run.
    term_at's own guard reads n, not the n//2 its ladder stops at."""
    limit = kernels._MAX_BITS
    assert kernels.lucas_u_pair(1, 0, limit) == (1, 1)
    assert kernels.term_at(1, 0, 2, 3, limit) == 3
    with pytest.raises(ValueError, match="too large"):
        kernels.lucas_u_pair(1, 0, limit + 1)
    with pytest.raises(ValueError, match="too large"):
        kernels.term_at(1, 0, 2, 3, limit + 1)
    # |A| + |B| = 0: U_n = 0 for n >= 2, never refused
    assert kernels.lucas_u_pair(0, 0, 2 ** 63 + 5) == (0, 0)


def test_term_at_a_million_still_runs():
    """The README's n = 10^6 example, checked modulo a prime by the plain
    recurrence: 3,448,383 bits, under the guard's bound of 5*10^6."""
    p = 1_000_003
    prev, cur = 3, 7
    for _ in range(10 ** 6 - 1):
        prev, cur = cur, (10 * cur + 10 * prev) % p
    value = kernels.term_at(10, -10, 3, 7, 10 ** 6)
    assert value % p == cur
    assert value.bit_length() == 3_448_383


def _counting(monkeypatch):
    """Wrap brigkit.kernels.lucas_u_pair, as perfbench's tracer does, and
    return the list its calls are appended to."""
    calls = []
    original = kernels.lucas_u_pair

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(kernels, "lucas_u_pair", counted)
    return calls


def test_every_lucas_caller_reaches_the_module_global(monkeypatch):
    """perfbench traces the doubling by replacing kernels.lucas_u_pair, so
    every kernel must look it up there; a cold growth scan must too."""
    calls = _counting(monkeypatch)
    for call, want in ((lambda: kernels.term_at(3, -7, 2, 5, 41), (3, -7, 20)),
                       (lambda: kernels.term_window(3, -7, 2, 5, 41), (3, -7, 41)),
                       (lambda: kernels.lucas_uv(3, -7, 41), (3, -7, 41))):
        calls.clear()
        call()
        assert calls == [want]
    for scan in (lambda: kernels.real_growth_scan(5, 2, 3, -4, 2, 200, True),
                 lambda: kernels.lucas_growth_scan(5, 2, 2, 200)):
        kernels._start_pair.cache_clear()
        calls.clear()
        scan()
        assert calls


def _growth_box_scans(a, b):
    """Every growth scan the growth-sweep box makes for the pair (a, b),
    |P|, |Q| <= 8, up to the horizon 200: the Lucas scan and each point's
    branch scan from its threshold.  Then both branches' scans from index
    2, below the thresholds, where some bounds fail."""
    out = [kernels.lucas_growth_scan(a, b, 2, 200)]
    points = [(p, q) for p, q in product(range(-8, 9), repeat=2) if p and q]
    for p, q in points:
        branch = real_case_branch(SequenceParams(a, b, p, q))
        start = max(branch.n_min, 2)
        if start <= 200:
            out.append(kernels.real_growth_scan(
                a, b, p, q, start, 200, branch.kind is BranchKind.FAR))
    out += [kernels.real_growth_scan(a, b, p, q, 2, 200, far)
            for p, q in points for far in (True, False)]
    return out


@pytest.mark.parametrize("a, b", [(5, 2), (3, -3), (1, -1)])
def test_start_pair_cache_changes_no_scan(monkeypatch, a, b):
    """The growth scans answer the same with _start_pair cold before every
    scan and warm, and a repeated pass makes no Lucas-pair call at all."""
    original = kernels._start_pair

    def cold(*args):
        original.cache_clear()
        return original(*args)

    monkeypatch.setattr(kernels, "_start_pair", cold)
    with_cold = _growth_box_scans(a, b)
    assert set(with_cold) - {-1}
    monkeypatch.setattr(kernels, "_start_pair", original)
    original.cache_clear()
    assert _growth_box_scans(a, b) == with_cold
    calls = _counting(monkeypatch)
    assert _growth_box_scans(a, b) == with_cold
    assert calls == []


def test_start_pair_cache_stays_small():
    assert kernels._start_pair.cache_info().maxsize <= 512


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


def _per_point_keys(xs, zs, p):
    return [x * pow(z, -1, p) % p if z else p for x, z in zip(xs, zs)]


@pytest.mark.parametrize("p", [2, 7, 101, PRIME])
@pytest.mark.parametrize("xs, zs", [
    ([3, 5, 6, 1], [0, 4, 2, 3]),           # zero z first
    ([3, 5, 6, 1], [1, 4, 0, 3]),           # in the middle
    ([3, 5, 6, 1], [1, 4, 2, 0]),           # last
    ([3, 0, 6, 1], [0, 0, 0, 0]),           # everywhere
    ([0, 5, 6, 0, 4], [6, 0, 5, 0, 3]),     # two, and x = 0 beside them
    ([5], [3]),                              # a single point
    ([5], [0]),
    ([], []),
])
def test_keys_match_per_point_inverses(xs, zs, p):
    xs, zs = [x % p for x in xs], [z % p for z in zs]
    assert kernels._keys(xs, zs, p) == _per_point_keys(xs, zs, p)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 7, 13, 101, PRIME]).flatmap(
    lambda p: st.tuples(st.just(p), st.lists(st.tuples(
        st.integers(0, p - 1), st.one_of(st.just(0), st.integers(0, p - 1))),
        max_size=40))))
def test_keys_match_per_point_inverses_on_random_lists(case):
    p, points = case
    xs, zs = [x for x, _ in points], [z for _, z in points]
    assert kernels._keys(xs, zs, p) == _per_point_keys(xs, zs, p)


def test_screen_makes_one_inverse_per_table_and_per_scan(monkeypatch):
    """The baby table and each scan's giant steps batch-invert their points:
    a cold screen to hi = 10^4 makes two modular inverses, and a second point
    of the same (A, B), whose table is cached, makes one."""
    calls = []

    def counting_pow(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(kernels, "pow", counting_pow, raising=False)
    kernels._baby_steps.cache_clear()
    first = kernels._last_residue_zero(3, 5, 7, 11, 10_000, PRIME)
    assert len(calls) <= 2
    calls.clear()
    second = kernels._last_residue_zero(3, 5, 8, 13, 10_000, PRIME)
    assert len(calls) == 1
    monkeypatch.undo()
    assert (first, second) == (
        _plain_last_residue_zero(3, 5, 7, 11, 10_000, PRIME),
        _plain_last_residue_zero(3, 5, 8, 13, 10_000, PRIME))


def test_zero_scan_refuses_a_bound_past_its_limit(monkeypatch):
    """hi above _MAX_SCAN raises before the screen builds a table; hi at the
    limit reaches the screen (stubbed here, so no big scan starts)."""
    def no_screen(*args):
        raise AssertionError("the screen ran")

    monkeypatch.setattr(kernels, "_last_residue_zero", no_screen)
    with pytest.raises(ValueError, match="exceeds"):
        kernels.zero_scan(1, 2, 1, 1, 0, kernels._MAX_SCAN + 1)
    monkeypatch.setattr(kernels, "_last_residue_zero", lambda *args: 0)
    assert kernels.zero_scan(1, 2, 1, 1, 0, kernels._MAX_SCAN) == []


# hi=None scans lo..lo+40; the examples with hi=200 run to the sweep's
# horizon, where the terms are hundreds of bits long.
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
    """Dual route: the scan and the per-index checker share their rows,
    kernels.real_bounds, but not their evaluators.  The scan decides the
    rows through _first_violation's envelope and _at_least; the checker
    builds one integer surd per row and index in growth._bound_margins."""
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
    last = kernels.nonreal_growth_scan(a, b, p, q, 120)
    per_index = [n for n in range(121)
                 if not check_nonreal_growth(params, n).margins[0].holds]
    assert last == (per_index[-1] if per_index else -1)


@settings(max_examples=150, deadline=None)
@given(st.integers(-40, 40), st.integers(1, 900), initial, initial)
@example(2, 8, 1, 2)     # |u_n|^3 = 8^n exactly at n = 0, 1, 2
@example(0, 8, 1, 2)     # ties at n = 0, 1
@example(1, 1, 1, 1)     # |u_n| <= 1 = B^n: every n ties or fails
@example(0, 9, 1, 2)     # n = 1: 3L - 2 = e and 8 < 9
@example(0, 300, 1, 7)   # n = 1: 3L = e and 343 >= 300
def test_nonreal_scan_matches_plain_cube_comparison(a, b, p, q):
    """The bit-length screen against |u_n|^3 < B^n computed in full: the
    scan to hi = n returns the last failure <= n for every n <= 40, so it
    decides each of those indices as the cube does, and for n = 200."""
    assume(a * a < 4 * b)
    terms = iter_terms(a, b, p, q, 200)
    below = [n for n in range(201) if abs(terms[n]) ** 3 < b ** n]
    for n in [*range(41), 200]:
        fails = [k for k in below if k <= n]
        assert kernels.nonreal_growth_scan(a, b, p, q, n) == (
            fails[-1] if fails else -1), n


@settings(max_examples=150, deadline=None)
@given(coeff_a, coeff_b, st.just(120))
@example(1, -1, 120)
@example(2, -1, 120)
@example(3, 2, 120)
@example(7, 5, 120)
@example(5, -6, 120)
@example(3, 2, 200)      # alpha = 2, an integer
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
    only ties, and no point here is a witness where c doubled flips a
    verdict; test_scan_rows_are_pinned_at_their_smallest_ratio pins the
    constant by that tie instead.  The same exact scan over A <= 40,
    B >= -60, n <= 200 finds the same minimum, again only at A = 1, n = 2.

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


# The smallest ratio k*2^(e*m)*|u_n| / (c*gamma^m) of each of the scans' six
# rows over the growth box (A in [1, 12], B in [-3, 3], 0 < |P|, |Q| <= 8,
# n from the branch threshold to 200; Lucas rows from n = 2), found by a
# float search over every point and index, the eight smallest points of
# each row then re-evaluated at every index with 600 digits:
#   alpha-halves  (1, -1, -6, 1), n = 7:  2^5*35/phi^5 = 2800*sqrt5 - 6160 = 100.990...
#   sqrt5-halves  (1, -1, -6, 1), n = 7:  2^7*35/sqrt5^7 = 896*sqrt5/125 = 16.028...
#   alpha-power   (5, -1, -5, 1), n = 18: 25*51872282415/alpha^16 = 4.6423...
#   golden-power  (1, -1, -2, 1), n = 19: 36*987/phi^19 = 3.8006...
#   double-u      (1, -3), n = 2:         2*1/alpha^0 = 2 exactly (also B = -2, -1)
#   u-alpha       (12, 1), n = 2:         12/alpha = 72 - 12*sqrt35 = 1.0070...
# Only u-alpha has a point where the row with c doubled flips a verdict.
# The other five never fall below 2 in the box (double-u only ties), so no
# point there can catch c doubled; each is pinned instead by a bracket
# lo <= ratio < hi around its minimum, which catches c doubled or halved.
SCAN_ROW_MINIMA = [
    # (label, A, B, P, Q, n, lo, hi); P = 0, Q = 1 for the Lucas rows
    ("alpha-halves", 1, -1, -6, 1, 7, Fraction(100), Fraction(101)),
    ("sqrt5-halves", 1, -1, -6, 1, 7, Fraction(16), Fraction(161, 10)),
    ("alpha-power", 5, -1, -5, 1, 18, Fraction(46, 10), Fraction(47, 10)),
    ("golden-power", 1, -1, -2, 1, 19, Fraction(38, 10), Fraction(381, 100)),
    ("double-u", 1, -3, 0, 1, 2, Fraction(2), Fraction(201, 100)),
    ("u-alpha", 12, 1, 0, 1, 2, Fraction(1), Fraction(2)),
]


@pytest.mark.parametrize("label, a, b, p, q, n, lo, hi", SCAN_ROW_MINIMA,
                         ids=[row[0] for row in SCAN_ROW_MINIMA])
def test_scan_rows_are_pinned_at_their_smallest_ratio(label, a, b, p, q, n, lo, hi):
    """The row with c scaled by lo holds at its point and with c scaled by
    hi fails, in the scan's evaluator, in the checker's and in a decimal
    interval referee that shares no code with brigkit."""
    if p == 0:
        rows = (kernels.lucas_bound(a, b),)
    else:
        br = real_case_branch(SequenceParams(a, b, p, q))
        assert br.n_min <= n
        rows = kernels.real_bounds(a, b, p, q, br.kind is BranchKind.FAR)
    (row,) = [r for r in rows if r[0] == label]
    _, k, e, c, off, ga, gb = row
    m = n - off
    x = abs(iter_terms(a, b, p, q, n)[n])
    um, vm = iter_lucas_u(ga, gb, m)[m], iter_lucas_v(ga, gb, m)[m]
    for scale, holds in ((lo, True), (hi, False)):
        kk, cc = k * scale.denominator, c * scale.numerator
        scaled = ((label, kk, e, cc, off, ga, gb),)
        assert kernels._first_violation(a, b, p, q, n, n, scaled) == (-1 if holds else n)
        assert _bound_margins(x, n, scaled)[0].holds == holds
        sign = decimal_sign(2 * (kk << e * m) * x - cc * vm, -cc * um, ga * ga - 4 * gb)
        assert (sign >= 0) == holds, (scale, sign)


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
# (7, 12) every alpha^m is a power of two; alpha = 3 for (1, -6) and (5, 6),
# where Q = beta*P leaves only the beta^n term, so the envelope never
# applies, the scan steps to hi and ties go both ways; (1, 0) has alpha = 1
# and u_n = Q from n = 1 on, so the golden-ratio bound is the one that
# fails, at a tie, and B = 0 keeps the scan stepping.
SQUARE_DELTA_PAIRS = [(3, 2), (7, 12), (1, -6), (5, 6), (1, 0)]


def test_real_scan_fallback_is_reached_and_exact(monkeypatch):
    """Scans from lo = 2 start where the envelope cannot yet prove the
    bounds, so the exact per-index decision runs.  Its surd_sign verdicts,
    both ways, must give the first violation of the independent reference,
    and from the branch threshold on, that of check_real_growth."""
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


def _first_violation_by_intervals(a, b, p, q, hi, far):
    """First n in [2, hi] where a bound of the real scan's branch fails, or
    -1: each bound evaluated at its own index by decimal intervals on the
    plain recurrence and Lucas sequences.  With alpha^m = (V_m +
    U_m*sqrt(delta))/2 and phi^n = (L_n + F_n*sqrt5)/2:
      far:  2^(n-2)|u_n| >= |Q|*alpha^(n-2),  2^n|u_n| >= |Q|*sqrt5^n
      near: k1*|u_n| >= alpha^(n-2),           k2*|u_n| >= phi^n
    with k1 = max(5|P|, 22|Q|) and k2 = max(14|P|, 36|Q|)."""
    delta = a * a - 4 * b
    u = iter_terms(a, b, p, q, hi)
    lu, lv = iter_lucas_u(a, b, hi), iter_lucas_v(a, b, hi)
    fu, fv = iter_lucas_u(1, -1, hi), iter_lucas_v(1, -1, hi)
    absq = abs(q)
    k1 = max(5 * abs(p), 22 * absq)
    k2 = max(14 * abs(p), 36 * absq)
    for n in range(2, hi + 1):
        x = abs(u[n])
        if far:
            signs = (decimal_sign(2 ** (n - 1) * x - absq * lv[n - 2],
                                  -absq * lu[n - 2], delta),
                     decimal_sign(2 ** n * x, -absq * 5 ** (n // 2), 5) if n % 2
                     else decimal_sign(2 ** n * x - absq * 5 ** (n // 2), 0, 5))
        else:
            signs = (decimal_sign(2 * k1 * x - lv[n - 2], -lu[n - 2], delta),
                     decimal_sign(2 * k2 * x - fv[n], -fu[n], 5))
        if min(signs) < 0:
            return n
    return -1


@st.composite
def forced_branch_scans(draw):
    # small A with B << 0 and small P, Q are where an over-claiming
    # envelope is most often caught
    a = draw(st.one_of(st.integers(1, 4), st.integers(1, 40)))
    b = draw(st.integers(-60, (a * a - 1) // 4))
    pq = st.one_of(st.integers(-12, 12).filter(bool), initial)
    return a, b, draw(pq), draw(pq), draw(st.integers(2, 60))


@settings(max_examples=200, deadline=None)
@given(forced_branch_scans())
@example((1, -12, -6, 5, 40))    # square delta, alpha = 4, beta = -3: the far
                                 # bound fails at n = 3 (|u_3| = 7 < 10)
@example((1, -6, 1, 1, 40))      # square delta, alpha = 3, beta = -2
@example((3, -4, 2, -5, 40))     # square delta, alpha = 4, beta = -1
@example((1, 0, 1, 1, 30))       # B = 0: alpha = 1, u_n = Q from n = 1
@example((2, 0, 3, -5, 30))      # B = 0: u_n = 2^(n-1)*Q
@example((5, 0, -1, 4, 30))
# One witness per envelope mutation, each found by a grid search of forced
# scans (1 <= A <= 12, -12 <= B < A^2/4, 0 < |P|, |Q| <= 6, hi = 40):
@example((2, -1, -1, 1, 40))     # the certificate's right side halved claims
                                 # the far bounds, which fail at n = 2
@example((1, -1, -2, 1, 40))     # s1*w_n replaced by |w_n| (and l_n taken as
                                 # s1*u_n) claims the near bounds, which fail
                                 # at n = 3
@example((1, -3, -1, 1, 40))     # l_n always taken as s1*u_n claims the far
                                 # bounds, which fail at n = 3
def test_forced_branch_scan_from_two_matches_interval_referee(case):
    """Both branches' bounds scanned from lo = 2, where most of them still
    fail and an envelope that claims too much returns -1 too early.  The
    referee shares no code with brigkit."""
    a, b, p, q, hi = case
    for far in (False, True):
        assert (kernels.real_growth_scan(a, b, p, q, 2, hi, far)
                == _first_violation_by_intervals(a, b, p, q, hi, far)), far


def _sign(x, y, d):
    """Sign of x + y*sqrt(d), d >= 0: that of x|x| + y|y|d."""
    t = x * abs(x) + y * abs(y) * d
    return (t > 0) - (t < 0)


def _mul(x1, y1, x2, y2, d):
    """(x1 + y1*sqrt(d))*(x2 + y2*sqrt(d)) as (x, y)."""
    return x1 * x2 + y1 * y2 * d, x1 * y2 + x2 * y1


def _envelope_times_four_root_delta(a, b, p, q, n, lu, lv):
    """4*sqrt(delta)*l_n = 4(|Q - P*beta|*alpha^n - |Q - P*alpha|*|beta|^n)
    as (x, y) meaning x + y*sqrt(delta), from 2(Q - P*beta) = h + P*sqrt(delta),
    2(Q - P*alpha) = h - P*sqrt(delta), 2*alpha^n = V_n + U_n*sqrt(delta) and
    |beta|^n = sign(B)^n * beta^n."""
    delta, h = a * a - 4 * b, 2 * q - a * p
    x1, y1 = _mul(h, p, lv[n], lu[n], delta)
    x2, y2 = _mul(h, -p, lv[n], -lu[n], delta)
    w = _sign(h, -p, delta) * ((b > 0) - (b < 0)) ** n
    s = _sign(h, p, delta)
    return s * x1 - w * x2, s * y1 - w * y2


def _check_envelope(a, b, p, q, hi):
    """For n < hi: l_n <= |u_n|, l_(n+1) >= alpha*l_n, and the kernel's
    (y, r) with l_n = y/sqrt(r) is this l_n."""
    delta = a * a - 4 * b
    u = iter_terms(a, b, p, q, hi + 1)
    lu, lv = iter_lucas_u(a, b, hi), iter_lucas_v(a, b, hi)
    env = [_envelope_times_four_root_delta(a, b, p, q, n, lu, lv)
           for n in range(hi + 1)]
    for n in range(hi):
        x, y = env[n]
        assert _sign(-x, 4 * abs(u[n]) - y, delta) >= 0, (a, b, p, q, n)
        # 2*(x1 + y1*sqrt(delta)) >= (A + sqrt(delta))*(x + y*sqrt(delta))
        x1, y1 = env[n + 1]
        assert _sign(2 * x1 - a * x - y * delta, 2 * y1 - x - a * y, delta) >= 0, \
            (a, b, p, q, n)
        ly, r = kernels._envelope(a, b, p, q, n, u[n], u[n + 1])
        kx, ky = (0, 4 * ly) if r == 1 else (4 * ly, 0)
        assert _sign(x - kx, y - ky, delta) == 0, (a, b, p, q, n)


@settings(max_examples=200, deadline=None)
@given(coeff_a, coeff_b, st.integers(-10 ** 6, 10 ** 6),
       st.integers(-10 ** 6, 10 ** 6))
@example(1, -1, 0, 1)        # Fibonacci: Lucas with B < 0, both parities
@example(3, 2, 0, 1)         # Lucas with B > 0
@example(5, -6, 0, 1)        # square delta, beta = -1
@example(3, 2, 1, 1)         # Q = beta*P: l_n = -|Q - P*alpha|*|beta|^n < 0
@example(3, 2, 1, 2)         # Q = alpha*P: l_n = |u_n|
@example(2, 0, 3, -5)        # B = 0
def test_lower_envelope_bounds_u_and_grows_by_alpha(a, b, p, q):
    """The inequalities behind the growth scans' envelope test: l_n <= |u_n|,
    where sqrt(delta)*l_n = |Q - P*beta|*alpha^n - |Q - P*alpha|*|beta|^n,
    and l_(n+1) >= alpha*l_n, on an l_n built here from the closed form and
    decided exactly on integers, sharing nothing with brigkit; the kernel's
    _envelope must equal it.  The Lucas bound never fails on its domain, so
    no scan verdict can catch a wrong Lucas envelope; this does."""
    assume(a * a > 4 * b)
    _check_envelope(a, b, p, q, 40)


def test_lower_envelope_on_the_growth_box_pairs():
    """Every real (A, B) pair and (P, Q) of the growth box; the sweep scans
    A < 0 at |A| with Q negated, so A >= 1 covers it."""
    for a in range(1, 13):
        for b in range(-3, 4):
            if a * a <= 4 * b:
                continue
            for p in range(-8, 9):
                for q in range(-8, 9):
                    _check_envelope(a, b, p, q, 12)
            _check_envelope(a, b, 0, 1, 40)


def test_envelope_ends_growth_box_scans_at_their_first_index(monkeypatch):
    """On growth-box points the envelope proves every bound at the scan's
    first index, so a scan to 10^6 makes the same surd_sign calls as one to
    lo + 10."""
    calls = []

    def counted(x, y, d):
        calls.append(1)
        return real_sign(x, y, d)

    def count(scan, *args):
        calls.clear()
        assert scan(*args) == -1, args
        return len(calls)

    real_sign = kernels.surd_sign
    monkeypatch.setattr(kernels, "surd_sign", counted)
    for a in range(1, 13):
        for b in (-3, -2, -1, 1, 2, 3):
            if a * a <= 4 * b:
                continue
            assert (count(kernels.lucas_growth_scan, a, b, 2, 12)
                    == count(kernels.lucas_growth_scan, a, b, 2, 10 ** 6))
            for p, q in product((-8, -5, -2, 1, 4, 7), repeat=2):
                params = SequenceParams(a, b, p, q)
                if classify(params).is_degenerate:
                    continue
                br = real_case_branch(params)
                lo, far = max(br.n_min, 2), br.kind is BranchKind.FAR
                assert (count(kernels.real_growth_scan, a, b, p, q, lo, lo + 10, far)
                        == count(kernels.real_growth_scan, a, b, p, q, lo, 10 ** 6, far))
