"""Each checker accepts brigkit's real output and rejects a corrupted copy.

    python3 -m pytest perfbench -q
"""

import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import brigkit  # noqa: E402
import brigkit.sweep  # noqa: E402
import checkers  # noqa: E402
from brigkit import SequenceParams  # noqa: E402


def _sweep(**box):
    cfg = brigkit.sweep.SweepConfig(**box)
    report, violations = brigkit.sweep.run_sweep(cfg)
    assert violations == 0
    return report


def test_zero_checker_rejects_moved_zero_index():
    report = _sweep(a_range=(3, 3), b_range=(6, 6), p_range=(-6, 6),
                    q_range=(-6, 6), checks=("zeros", "zero-family"))
    records, family = report["records"], report["zero_family"]
    assert checkers.check_zero_records(records, 300) == []
    assert checkers.check_family(family, 300) == []
    hit = next(r for r in records if r["zero"]["kind"] == "zero-at")
    hit["zero"]["k"] = str(int(hit["zero"]["k"]) + 1)
    assert checkers.check_zero_records(records, 300)
    family[3]["k"] = str(int(family[3]["k"]) + 1)
    assert checkers.check_family(family, 300)


def test_zero_checker_rejects_missed_periodic_zero():
    report = _sweep(a_range=(1, 1), b_range=(1, 1), p_range=(0, 2),
                    q_range=(0, 2), checks=("zeros",))
    records = report["records"]
    assert checkers.check_zero_records(records, 300) == []
    periodic = next(r for r in records if r["zero"]["kind"] == "periodic")
    periodic["zero"]["residues"] = periodic["zero"]["residues"][1:] or ["5"]
    assert checkers.check_zero_records(records, 300)


def test_term_checkers_reject_off_by_one():
    p = SequenceParams(10, -10, 3, 7)
    n = 20_000
    u = brigkit.term_fast(p, n)
    assert checkers.check_term(10, -10, 3, 7, n, u) == []
    assert checkers.check_term(10, -10, 3, 7, n, u + 1)
    w = brigkit.term_window(p, n)
    assert checkers.check_window(10, -10, 3, 7, n, w.u_n, w.u_next) == []
    assert checkers.check_window(10, -10, 3, 7, n, w.u_n, w.u_next - 1)
    U, V = brigkit.lucas_uv(5, 7, n)
    assert checkers.check_lucas_uv(5, 7, n, U, V) == []
    assert checkers.check_lucas_uv(5, 7, n, U + 1, V)
    assert checkers.check_lucas_uv(5, 7, n, U, V + 1)


def test_height_checkers_reject_perturbed_h():
    for args in [(5, -3, 2, -7), (-7, 3, 8, -5), (3, 2, 1, 5), (2, 7, 3, 4)]:
        p = SequenceParams(*args)
        H = brigkit.ratio_height(p).height
        assert checkers.check_height(*args, H) == []
        assert checkers.check_height(*args, H + 1)
        if args[0] ** 2 > 4 * args[1]:
            ok = brigkit.height_sandwich_check(p)
            assert checkers.check_sandwich(*args, H, ok) == []
            assert checkers.check_sandwich(*args, H, not ok)


def test_big_instance_height_and_sandwich():
    P, Q = brigkit.construct_zero_at(5, -3, 300)
    p = SequenceParams(5, -3, P, Q)
    H = brigkit.ratio_height(p).height
    assert checkers.check_height(5, -3, P, Q, H) == []
    assert checkers.check_height(5, -3, P, Q, H - 1)
    assert checkers.check_sandwich(5, -3, P, Q, H, brigkit.height_sandwich_check(p)) == []


def test_formula_checker_rejects_shifted_threshold():
    for args in [(1, 2, 1000, 1), (3, 7, 123456789, -98765), (1, 3, 1, 0)]:
        p = SequenceParams(*args)
        t = brigkit.nonreal_threshold_formula(p, Fraction(50))
        x = args[1] * abs(args[2]) + abs(args[3])
        assert checkers.nonreal_formula_problems(x, t) == []
        assert checkers.nonreal_formula_problems(x, t + 2)
        assert checkers.nonreal_formula_problems(x, t - 1)


def test_nonreal_checks_reject_wrong_verdicts():
    args = (1, 3, 5, -2)
    p = SequenceParams(*args)
    emp = brigkit.empirical_nonreal_threshold(p, 300)
    assert checkers.empirical_threshold(*args, 300) == emp
    assert checkers.empirical_threshold(*args, 300) != emp + 1
    for n in (3, 50, 200):
        report = brigkit.check_nonreal_growth(p, n)
        assert checkers.nonreal_growth_holds(*args, n) is report.bound_holds


def test_growth_floor_checker_rejects_corrupted_reports():
    near = [(5, 3, 2, 1), (3, -4, 1, 1), (6, 1, 4, -3), (-7, 5, 2, 9), (4, -1, 1, 7)]
    far = [(10, 8, 5, 1), (10, 9, 3, 1), (3, -10, 4, 1), (-3, -9, 5, 1)]
    checks = (brigkit.check_real_growth, brigkit.check_sharp_growth)
    regimes = set()
    for args in near + far:
        p = SequenceParams(*args)
        base = max(brigkit.real_case_branch(p).n_min, 12) + 3
        # both parities of n, for the far-negative sharp bounds
        for check, n in [(c, n) for c in checks for n in (base, base + 1)]:
            r = check(p, n)
            u_n = checkers.plain_terms(*args, n)[n]
            fields = (r.regime, r.applicable, r.bound_holds, r.threshold)
            regimes.add(r.regime)
            assert checkers.real_growth_problems(*args, n, u_n, *fields) == [], (args, fields)
            # a term far below both floors
            assert checkers.real_growth_problems(*args, n, 1, *fields)
            # a moved threshold, where the regime states one
            if r.threshold is not None and not r.regime.startswith("sharp-near-wide"):
                moved = (r.regime, r.applicable, r.bound_holds, r.threshold + 1)
                assert checkers.real_growth_problems(*args, n, u_n, *moved)
    assert len(regimes) == 7, regimes
