"""Acceptance gate: one test per criterion, each with its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Budgets are wall-clock on commodity hardware; the sweeps run on
two worker processes.
"""

import time
from fractions import Fraction
from math import gcd

import pytest

from brigkit import (SequenceParams, ZeroAt, classify, construct_zero_at,
                     find_zero, lucas_U, term_fast)
from brigkit import kernels
from brigkit.core import Kind
from brigkit.growth import (DEFAULT_C_NONREAL_THRESHOLD,
                            empirical_nonreal_threshold,
                            nonreal_threshold_formula)
from brigkit.logbounds import ceil_log_affine
from brigkit.sweep import SweepConfig, run_sweep
from brigkit.terms import gcd_consecutive_U
from brigkit.zeros import DEFAULT_C4, normalized_for_bound

from conftest import iter_lucas_u


def _announce(num, detail):
    print(f"\nACCEPTANCE {num}: PASS - {detail}")


def test_criterion_01_zero_at_five_reproduction():
    t0 = time.perf_counter()
    assert [lucas_U(3, 6, n) for n in range(6)] == [0, 1, 3, 3, -9, -45]
    p, q = construct_zero_at(3, 6, 5)
    assert (p, q) == (-5, -6) and Fraction(p, q) == Fraction(5, 6)
    assert find_zero(SequenceParams(3, 6, 5, 6)) == ZeroAt(5)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _announce(1, f"(3,6) zero-at-5 instance reproduced exactly in {elapsed:.3f}s")


def test_criterion_02_gcd_ladder_reproduction():
    t0 = time.perf_counter()
    us = iter_lucas_u(15, 10, 7)
    assert us[:7] == [0, 1, 15, 215, 3075, 43975, 628875]
    assert [lucas_U(15, 10, n) for n in range(7)] == us[:7]
    assert [gcd(us[n], us[n + 1]) for n in range(6)] == [1, 1, 5, 5, 25, 25]
    for n in range(31):
        assert gcd_consecutive_U(15, 10, n) == 5 ** n
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _announce(2, f"(15,10) gcd ladder g^n verified for n <= 30 in {elapsed:.3f}s")


def test_criterion_03_tightness_family():
    t0 = time.perf_counter()
    for k in range(3, 61):
        params = SequenceParams(3, 2, 2 ** k - 1, 2 ** k - 2)
        assert find_zero(params) == ZeroAt(k)
        normalized, d, s = normalized_for_bound(params)
        assert (d, s) == (1, 1)
        qn = abs(normalized.Q)
        # qn = 2^k - 2 >= 6, so 1.44 ln|Q| is irrational and k > it iff
        # k >= its ceiling
        assert k < ceil_log_affine(9, qn, 12)                    # k < 9 ln|Q| + 12
        assert k >= ceil_log_affine(Fraction(36, 25), qn, 0)     # k > 1.44 ln|Q|
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _announce(3, f"k in 3..60: zero at k, 9ln|Q|+12 bound holds, k > 1.44 ln Q "
                 f"(log bound tight up to a constant) in {elapsed:.2f}s")


def test_criterion_04_zero_bound_sweep():
    t0 = time.perf_counter()
    cfg = SweepConfig(a_range=(-10, 10), b_range=(-10, 10),
                      p_range=(0, 0), q_range=(0, 0),
                      checks=("zero-family",), zero_k_max=25,
                      uniqueness_horizon=5000, parallelism=2)
    report, violations = run_sweep(cfg)
    elapsed = time.perf_counter() - t0
    assert violations == 0
    fam = report["zero_family"]
    assert len(fam) > 8000
    assert all(f["found_ok"] and f["unique_ok"] for f in fam)
    info = [d for d in report["discrepancies"] if d["grade"] == "informational"]
    assert all(int(d["k"]) < 50 for d in info)
    assert elapsed < 120
    _announce(4, f"{len(fam)} constructed zero instances: real bound exact, "
                 f"oracle-to-5000 uniqueness, {len(info)} small-k non-real "
                 f"excursions logged, in {elapsed:.1f}s")


def test_criterion_05_real_growth_sweep():
    t0 = time.perf_counter()
    cfg = SweepConfig(a_range=(-12, 12), b_range=(-12, 12),
                      p_range=(-8, 8), q_range=(-8, 8),
                      n_horizon=200, checks=("growth", "lucas"), parallelism=2)
    report, violations = run_sweep(cfg)
    elapsed = time.perf_counter() - t0
    assert violations == 0
    assert report["discrepancies"] == []
    assert int(report["summary"]["real"]) > 100_000
    assert elapsed < 300
    _announce(5, f"{report['summary']['real']} real-case instances, both branch "
                 f"inequalities exact for n in [threshold, 200], zero "
                 f"exceptions, in {elapsed:.1f}s")


def test_criterion_06_nonreal_threshold_sweep():
    t0 = time.perf_counter()
    checked = 0
    worst = 0
    samples = []
    for a in range(-12, 13):
        for b in range(2, 13):
            if a * a >= 4 * b:
                continue
            for p in range(-8, 9):
                for q in range(-8, 9):
                    params = SequenceParams(a, b, p, q)
                    if classify(params).kind is not Kind.NONREAL:
                        continue
                    checked += 1
                    n_star = empirical_nonreal_threshold(params, 300)
                    assert n_star <= 300, params
                    worst = max(worst, n_star)
                    if checked % 5000 == 0:
                        samples.append(
                            (params, n_star,
                             nonreal_threshold_formula(params, Fraction(50))))
    elapsed = time.perf_counter() - t0
    assert checked > 20_000
    assert elapsed < 120
    lines = "; ".join(f"{p.A},{p.B},{p.P},{p.Q}: n*={e} formula={f}"
                      for p, e, f in samples)
    _announce(6, f"{checked} non-real instances, max empirical threshold "
                 f"{worst} <= 300 (cube bound exact beyond it); sampled "
                 f"n* vs formula(c=50): {lines}; {elapsed:.1f}s")


def _pair_worker(ab):
    A, B = ab
    u = [0, 1]
    for _ in range(1001):
        u.append(A * u[-1] - B * u[-2])
    for n in range(1001):
        if kernels.lucas_u_pair(A, B, n) != (u[n], u[n + 1]):
            return ("doubling", A, B, n)
    cp = [0] * 201
    for n in range(1, 201):
        cp[n] = u[n + 1] - A * u[n]       # equals -B*U_{n-1}
    for p in range(-10, 11):
        for q in range(-10, 11):
            prev, cur = p, q
            for n in range(1, 201):
                if n > 1:
                    prev, cur = cur, A * cur - B * prev
                if cur != u[n] * q + cp[n] * p:
                    return ("coeff", A, B, p, q, n)
    spots = (1, 2, 3, 63, 64, 65, 127, 128, 255, 256, 511, 512, 767, 999, 1000)
    for p in range(-2, 3):
        for q in range(-2, 3):
            prev, cur = p, q
            for n in range(1, 1001):
                if n > 1:
                    prev, cur = cur, A * cur - B * prev
                if n in spots and kernels.term_at(A, B, p, q, n) != cur:
                    return ("fast", A, B, p, q, n)
    return None


def test_criterion_07_oracle_equivalence():
    """term_fast vs term_iter over |A|,|B|,|P|,|Q| <= 10.

    Decomposition: (a) doubling pair equals iterated (U_n, U_{n+1}) at every
    n <= 1000 for all 441 (A, B); (b) the combination
    u_n = U_n*Q + (U_{n+1} - A*U_n)*P equals the iterated term at every
    n <= 200 for the full (P, Q) grid (the coefficient identity, bit-exact);
    (c) direct term_fast == iterated term at bit-boundary indices up to 1000
    on the |P|,|Q| <= 2 subgrid.  All exact integer comparisons.
    """
    import multiprocessing
    t0 = time.perf_counter()
    pairs = [(a, b) for a in range(-10, 11) for b in range(-10, 11)]
    with multiprocessing.Pool(2) as pool:
        failures = [r for r in pool.map(_pair_worker, pairs, chunksize=8) if r]
    elapsed = time.perf_counter() - t0
    assert failures == []
    _announce(7, f"441 (A,B) pairs: doubling==iteration for all n<=1000, "
                 f"coefficient identity bit-exact for full grid n<=200, "
                 f"spot-equal to n=1000, zero exceptions, in {elapsed:.1f}s")


def test_criterion_08_height_machinery():
    t0 = time.perf_counter()
    cfg = SweepConfig(a_range=(-12, 12), b_range=(-12, 12),
                      p_range=(-8, 8), q_range=(-8, 8),
                      checks=("height",), parallelism=2)
    report, violations = run_sweep(cfg)
    elapsed = time.perf_counter() - t0
    assert violations == 0
    checked = sum(1 for r in report["records"] if r["height"])
    sandwiched = sum(1 for r in report["records"]
                     if r["height"].get("sandwich_ok") is True)
    assert checked > 140_000 and sandwiched > 100_000
    assert not any("height-reciprocity" in r["flags"] or
                   "height-bound" in r["flags"] or
                   "height-sandwich" in r["flags"] for r in report["records"])
    assert elapsed < 60
    _announce(8, f"{checked} ratio polynomials: self-reciprocal, height bound "
                 f"2(|Q|+|P|(A+|D|)/2)^2-1 exact, sandwich strict on "
                 f"{sandwiched} real instances, in {elapsed:.1f}s")


def test_criterion_09_performance(monkeypatch):
    params = SequenceParams(10, -10, 3, 7)
    t0 = time.perf_counter()
    value = term_fast(params, 10 ** 6)
    elapsed = time.perf_counter() - t0
    digits = int(value.bit_length() * 0.30103) + 1
    assert 10 ** 5 <= digits <= 4 * 10 ** 6
    assert elapsed < 5.0

    # sweeps advance one recurrence step per index and never call the
    # linear-time single-term path; prove it by booby-trapping term_iter
    def trap(*args, **kwargs):
        raise AssertionError("term_iter used inside a sweep")

    from brigkit import sweep as sweep_mod
    monkeypatch.setattr(sweep_mod.kernels, "term_iter", trap)
    import brigkit.terms as terms_mod
    monkeypatch.setattr(terms_mod.kernels, "term_iter", trap)
    cfg = SweepConfig(a_range=(-2, 2), b_range=(-2, 2), p_range=(-1, 1),
                      q_range=(-1, 1), n_horizon=50, c4=60, zero_k_max=5,
                      uniqueness_horizon=100, oracle_floor=100)
    _, violations = run_sweep(cfg)
    assert violations == 0
    assert SweepConfig(a_range=(0, 0), b_range=(1, 1), p_range=(0, 0),
                       q_range=(1, 1)).n_horizon <= 10_000
    _announce(9, f"u_n at n=10^6 ({digits} digits) in {elapsed:.2f}s; sweeps "
                 "never touch the linear-time path")


def test_criterion_10_inexplicit_constants_are_config_only():
    # the two knobs exist, carry the documented defaults, and are reported
    # rather than asserted: a sweep with an absurd c5 still passes
    assert DEFAULT_C4 == 10_000
    assert DEFAULT_C_NONREAL_THRESHOLD == Fraction(50)
    from brigkit.growth import check_lucas_growth
    from brigkit.core import DegenerateInputError
    with pytest.raises(DegenerateInputError):
        check_lucas_growth(1, 2, 10)       # non-real clause demands explicit c
    cfg = SweepConfig(a_range=(1, 2), b_range=(2, 3), p_range=(-1, 1),
                      q_range=(-1, 1), n_horizon=60, c5=Fraction(1, 1000),
                      checks=("growth",))
    _, violations = run_sweep(cfg)
    assert violations == 0
    params = SequenceParams(1, 2, 1, 1)
    assert nonreal_threshold_formula(params, Fraction(1, 1000)) >= 1
    assert nonreal_threshold_formula(params, Fraction(10 ** 6)) >= 1
    _announce(10, "inexplicit constants exposed as configuration "
                  "(c4=10000, threshold factor=50, Lucas non-real constant "
                  "explicit-only); never part of any pass/fail verdict")
