import json
from fractions import Fraction

import pytest

from brigkit import SequenceParams
from brigkit.cli import main
from brigkit.sweep import (SweepConfig, SweepConfigError, brute_force_zero_oracle,
                           config_from_dict, parse_csv, render_csv, render_json,
                           reserialize_csv, run_sweep)

SMALL = dict(a_range=(-3, 3), b_range=(-3, 3), p_range=(-2, 2), q_range=(-2, 2),
             n_horizon=60, c4=120, zero_k_max=8, uniqueness_horizon=400,
             oracle_floor=200)


@pytest.fixture(scope="module")
def small_report():
    cfg = SweepConfig(**SMALL)
    return run_sweep(cfg)


def test_oracle_examples():
    assert brute_force_zero_oracle(SequenceParams(3, 6, 5, 6), 100) == [5]
    assert brute_force_zero_oracle(SequenceParams(1, -1, 0, 1), 60) == [0]
    p, q = 2 ** 17 - 1, 2 ** 17 - 2
    assert brute_force_zero_oracle(SequenceParams(3, 2, p, q), 5000) == [17]


def test_config_validation():
    with pytest.raises(SweepConfigError):
        SweepConfig(a_range=(3, 1), b_range=(1, 1), p_range=(1, 1),
                    q_range=(1, 1)).validate()
    with pytest.raises(SweepConfigError):
        SweepConfig(a_range=(1, 1), b_range=(1, 1), p_range=(1, 1),
                    q_range=(1, 1), n_horizon=1).validate()
    with pytest.raises(SweepConfigError):
        config_from_dict({"a_range": [1, 2]})
    cfg = config_from_dict({"a_range": [1, 2], "b_range": [1, 2],
                            "p_range": [0, 1], "q_range": [0, 1],
                            "c5": "50", "checks": ["growth"]})
    assert cfg.c5 == Fraction(50) and cfg.checks == ("growth",)


def test_small_sweep_clean(small_report):
    report, violations = small_report
    assert violations == 0
    assert report["summary"]["records"] == str(7 * 7 * 5 * 5)
    total = (int(report["summary"]["real"]) + int(report["summary"]["non_real"])
             + int(report["summary"]["degenerate"]))
    assert total == int(report["summary"]["records"])


def test_sweep_determinism_across_parallelism(small_report):
    report1, _ = small_report
    cfg2 = SweepConfig(**SMALL, parallelism=2)
    report2, _ = run_sweep(cfg2)
    assert render_json(report1) == render_json(report2)


def test_json_round_trip(small_report):
    report, _ = small_report
    text = render_json(report)
    assert render_json(json.loads(text)) == text


def test_csv_round_trip(small_report):
    report, _ = small_report
    text = render_csv(report)
    assert reserialize_csv(parse_csv(text)) == text


def test_all_ints_are_strings(small_report):
    report, _ = small_report

    def walk(node):
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)
        else:
            assert node is None or isinstance(node, (str, bool)), node

    walk(report)


# -- CLI ----------------------------------------------------------------------

def test_cli_classify(capsys):
    assert main(["classify", "--a", "1", "--b", "1", "--p", "1", "--q", "1"]) == 0
    assert "root-of-unity ratio, order 6" in capsys.readouterr().out
    assert main(["classify", "--a", "3", "--b", "6", "--p", "5", "--q", "6"]) == 0
    assert capsys.readouterr().out.strip() == "non-real"
    assert main(["classify", "--a", "0", "--b", "0", "--p", "0", "--q", "0"]) == 0
    assert "both initial values zero" in capsys.readouterr().out


def test_cli_term(capsys):
    assert main(["term", "--a", "3", "--b", "2", "--p", "31", "--q", "30",
                 "--n", "5"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert main(["term", "--a", "1", "--b", "-1", "--p", "0", "--q", "1",
                 "--n", "100", "--fast"]) == 0
    assert capsys.readouterr().out.strip() == "354224848179261915075"
    assert main(["term", "--a", "1", "--b", "-1", "--p", "0", "--q", "1",
                 "--n", "100", "--iter"]) == 0
    assert capsys.readouterr().out.strip() == "354224848179261915075"
    assert main(["term", "--a", "1", "--b", "1", "--p", "1", "--q", "1",
                 "--n", "-2"]) == 1


def test_cli_malformed_integer_exits_1(capsys):
    assert main(["classify", "--a", "x", "--b", "1", "--p", "1", "--q", "1"]) == 1
    capsys.readouterr()


def test_cli_zeros(capsys):
    assert main(["zeros", "--a", "3", "--b", "6", "--p", "5", "--q", "6",
                 "--c4", "1000"]) == 0
    out = capsys.readouterr().out
    assert "zero at k=5" in out and "1000" in out
    assert main(["zeros", "--a", "1", "--b", "-1", "--p", "1", "--q", "2"]) == 0
    assert "no zero up to 19, conclusive" in capsys.readouterr().out
    assert main(["zeros", "--a", "1", "--b", "1", "--p", "1", "--q", "1"]) == 0
    assert "(mod 6)" in capsys.readouterr().out


def test_cli_make_zero(capsys):
    assert main(["make-zero", "--a", "3", "--b", "6", "--k", "5"]) == 0
    assert capsys.readouterr().out.strip() == "P=-5 Q=-6"
    # gcd-normalized; for coprime (A, B) this is (A, B) itself
    assert main(["make-zero", "--a", "3", "--b", "6", "--k", "2"]) == 0
    assert capsys.readouterr().out.strip() == "P=1 Q=2"
    assert main(["make-zero", "--a", "3", "--b", "2", "--k", "2"]) == 0
    assert capsys.readouterr().out.strip() == "P=3 Q=2"
    assert main(["make-zero", "--a", "3", "--b", "6", "--family",
                 "--kmax", "4"]) == 0
    out = capsys.readouterr().out
    assert "k=3 P=3 Q=18" in out and "k=4 P=-9 Q=18" in out


def test_cli_growth(capsys):
    assert main(["growth", "--a", "1", "--b", "2", "--p", "1", "--q", "1",
                 "--n", "7", "--check", "nonreal"]) == 0
    assert "holds=False" in capsys.readouterr().out
    assert main(["growth", "--a", "3", "--b", "2", "--p", "1", "--q", "3",
                 "--n", "50", "--check", "real"]) == 0
    assert "not applicable" in capsys.readouterr().out
    assert main(["growth", "--a", "1", "--b", "-1", "--p", "1", "--q", "1",
                 "--n", "10", "--check", "height"]) == 0
    out = capsys.readouterr().out
    assert "H=3" in out and "sandwich holds" in out
    assert main(["growth", "--a", "1", "--b", "-1", "--p", "0", "--q", "1",
                 "--n", "10", "--check", "lucas", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["bound_holds"] is True


def test_cli_degenerate_growth_errors(capsys):
    assert main(["growth", "--a", "3", "--b", "2", "--p", "1", "--q", "1",
                 "--n", "30", "--check", "real"]) == 1
    capsys.readouterr()


def test_cli_sweep_roundtrip(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["sweep", "--a-range=-2:2", "--b-range=-2:2",
               "--p-range=-1:1", "--q-range=-1:1", "--horizon", "40",
               "--c4", "60", "--kmax", "5", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["summary"]["violations"] == "0"
    assert report["meta"]["config"]["n_horizon"] == "40"

    # same thing through a config file, CSV output
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "a_range": [-2, 2], "b_range": [-2, 2], "p_range": [-1, 1],
        "q_range": [-1, 1], "n_horizon": 40, "c4": 60, "zero_k_max": 5,
        "format": "csv", "output_path": str(tmp_path / "report.csv")}))
    assert main(["sweep", "--config", str(cfgfile)]) == 0
    capsys.readouterr()
    text = (tmp_path / "report.csv").read_text()
    assert reserialize_csv(parse_csv(text)) == text


def test_cli_sweep_bad_config(tmp_path, capsys):
    assert main(["sweep", "--a-range=5:1", "--b-range=1:1",
                 "--p-range=1:1", "--q-range=1:1"]) == 1
    capsys.readouterr()
    assert main(["sweep"]) == 1
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["sweep", "--config", str(bad)]) == 1
    capsys.readouterr()


def test_cli_json_outputs(capsys):
    assert main(["classify", "--a", "3", "--b", "6", "--p", "5", "--q", "6",
                 "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"class": "non-real"}
    assert main(["zeros", "--a", "3", "--b", "6", "--p", "5", "--q", "6",
                 "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kind"] == "zero-at" and data["k"] == "5"


def test_zeros_suite_oracle_agreement_moderate_grid():
    """find_zero matches the brute-force oracle over [0, max(bound, 2000)]."""
    cfg = SweepConfig(a_range=(-4, 4), b_range=(-4, 4), p_range=(-3, 3),
                      q_range=(-3, 3), n_horizon=60, c4=2000,
                      checks=("zeros",), oracle_floor=2000, parallelism=2)
    report, violations = run_sweep(cfg)
    assert violations == 0
    records = report["records"]
    assert len(records) == 9 * 9 * 7 * 7
    assert all(r["zero"]["oracle_agree"] for r in records)


def test_sweep_exit_3_on_assertion_violation(tmp_path, monkeypatch, capsys):
    # force a fake growth violation to exercise the grading/exit plumbing
    from brigkit import sweep as sweep_mod
    monkeypatch.setattr(sweep_mod.kernels, "real_growth_scan",
                        lambda *args: 42)
    out = tmp_path / "r.json"
    rc = main(["sweep", "--a-range=7:7", "--b-range=12:12", "--p-range=1:1",
               "--q-range=1:1", "--horizon", "60", "--checks", "growth",
               "--out", str(out)])
    capsys.readouterr()
    assert rc == 3
    report = json.loads(out.read_text())
    assert report["summary"]["violations"] != "0"
    assert any(d["grade"] == "assertion" and d["check"] == "real-growth"
               for d in report["discrepancies"])


def test_conditional_zero_misses_grade_informational():
    """Non-real zeros beyond a deliberately tiny c4 bound are assumption
    failures, not library violations."""
    cfg = SweepConfig(a_range=(1, 1), b_range=(2, 2), p_range=(-1, -1),
                      q_range=(-1, -1), n_horizon=40, c4=5,
                      checks=("zeros",), oracle_floor=100)
    report, violations = run_sweep(cfg)
    # (1,2,-1,-1) has u_7 = 3 != 0 ... no zero at all: stays clean
    assert violations == 0
    from brigkit.zeros import construct_zero_at
    cp, cq = construct_zero_at(1, 2, 14)   # (1,2) zero at k = 14
    cfg = SweepConfig(a_range=(1, 1), b_range=(2, 2), p_range=(cp, cp),
                      q_range=(cq, cq), n_horizon=40, c4=5,
                      checks=("zeros",), oracle_floor=100)
    report, violations = run_sweep(cfg)
    assert violations == 0
    disc = report["discrepancies"]
    assert len(disc) == 1 and disc[0]["grade"] == "informational"
    assert report["records"][0]["zero"]["oracle_agree"] is False
