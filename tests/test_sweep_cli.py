import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from brigkit import SequenceParams, classify, kernels, referee
from brigkit import sweep as sweep_mod
from brigkit.cli import main
from brigkit.core import DegenerateInputError, Reason
from brigkit.referee import brute_force_zero_oracle
from brigkit.sweep import (CSV_HEADER, SweepConfig, SweepConfigError,
                           config_from_dict, render_csv, render_json, run_sweep)
from brigkit.zeros import ConstructionError
from conftest import iter_terms

SMALL = dict(a_range=(-3, 3), b_range=(-3, 3), p_range=(-2, 2), q_range=(-2, 2),
             n_horizon=60, c4=120, zero_k_max=8, uniqueness_horizon=400,
             oracle_floor=200)


def assertion_count(report) -> int:
    """The summary's violation count, checked against the discrepancies it
    counts."""
    count = sum(1 for d in report["discrepancies"] if d["grade"] == "assertion")
    assert report["summary"]["violations"] == str(count)
    return count


def assert_csv_table(text):
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == CSV_HEADER
    assert all(len(row) == len(CSV_HEADER) for row in rows[1:])
    return rows[1:]


@pytest.fixture(scope="module")
def small_report():
    cfg = SweepConfig(**SMALL)
    return run_sweep(cfg)


def test_oracle_examples():
    assert brute_force_zero_oracle(SequenceParams(3, 6, 5, 6), 100) == [5]
    assert brute_force_zero_oracle(SequenceParams(1, -1, 0, 1), 60) == [0]
    p, q = 2 ** 17 - 1, 2 ** 17 - 2
    assert brute_force_zero_oracle(SequenceParams(3, 2, p, q), 5000) == [17]


@pytest.mark.parametrize("prime", [None, 2, 3, 7])
def test_oracle_matches_plain_recurrence_on_degenerate_grid(monkeypatch, prime):
    """The screened oracle against conftest's recurrence, degenerate classes
    included; small primes make residue hits frequent, so the exact pass
    decides most indices."""
    if prime is not None:
        monkeypatch.setattr(referee, "_ORACLE_PRIME", prime)
    reasons = set()
    for a in range(-4, 5):
        for b in range(-4, 5):
            for p in range(-2, 3):
                for q in range(-2, 3):
                    params = SequenceParams(a, b, p, q)
                    reasons.add(classify(params).reason)
                    terms = iter_terms(a, b, p, q, 80)
                    expected = [k for k, u in enumerate(terms) if u == 0]
                    assert brute_force_zero_oracle(params, 80) == expected, params
    assert {Reason.A_ZERO, Reason.B_ZERO, Reason.EQUAL_ROOTS,
            Reason.BOTH_INITIAL_ZERO} <= reasons


ORACLE_PRIME = referee._ORACLE_PRIME
STRIDE = referee._STRIDE


def zero_at(a, b, k):
    """(U_k, B*U_{k-1}): initial values whose sequence vanishes at k."""
    u = iter_terms(a, b, 0, 1, k)
    return u[k], b * u[k - 1]


@pytest.mark.parametrize("prime", [None, 2, 3, 7, 13, 101])
def test_oracle_matches_plain_recurrence_around_stride_boundaries(monkeypatch,
                                                                  prime):
    """The oracle against conftest's recurrence at every horizon next to the
    first two stride boundaries, asked in an order that grows each pair's
    table by one stride, then by two, then from the state those growths
    left.  The small primes have orbits shorter than a stride, so keys
    repeat; A or B = 0 mod p gives points at infinity and (0 : 0);
    (P, Q) = (0, 0) mod p vanishes at every index; and constructed zeros sit
    at indices = 0 and = S - 1 mod S."""
    if prime is not None:
        monkeypatch.setattr(referee, "_ORACLE_PRIME", prime)
    m, s = referee._ORACLE_PRIME, STRIDE
    horizons = [s + 1, 0, 2 * s + 1, s - 1, 3 * s, 1, 2 * s, 7 * s + 3, s,
                2 * s - 1]
    for a in (-2, -1, 0, 1, 3, m):
        for b in (-3, -1, 0, 1, 2, m):
            points = [(p, q) for p in range(-1, 3) for q in range(-1, 3)]
            points += [(m, -m), (2 * m, m), (m, 1), (1, m)]
            if b:
                points += [zero_at(a, b, k) for k in (s - 1, s, 2 * s - 1, 2 * s)]
            referee._zero_table.cache_clear()
            for p, q in points:
                terms = iter_terms(a, b, p, q, max(horizons))
                params = SequenceParams(a, b, p, q)
                for horizon in horizons:
                    expected = [k for k, u in enumerate(terms[:horizon + 1])
                                if u == 0]
                    assert brute_force_zero_oracle(params, horizon) == expected, \
                        (params, horizon)


oracle_coeff = st.one_of(st.integers(-60, 60),
                         st.integers(-2, 2).map(lambda c: c * ORACLE_PRIME))
oracle_initial = st.one_of(st.integers(-2 ** 80, 2 ** 80),
                           st.integers(-2 ** 50, 2 ** 50).map(lambda c: c * ORACLE_PRIME))


@st.composite
def oracle_queries(draw):
    """(A, B, [(P, Q, horizon), ...]): several queries on one pair, in the
    order drawn, so that its table is reused for smaller horizons and
    regrown for larger ones."""
    a, b = draw(oracle_coeff), draw(oracle_coeff)
    points = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["any", "zero-mod-p", "constructed"]))
        if kind == "constructed":
            # s*(U_k, B*U_{k-1}) vanishes at k
            k = draw(st.integers(1, 400))
            u = iter_terms(a, b, 0, 1, k)
            s = draw(oracle_initial.filter(bool))
            points.append((s * u[k], s * b * u[k - 1]))
        elif kind == "zero-mod-p":
            mult = st.integers(-2 ** 40, 2 ** 40).map(lambda c: c * ORACLE_PRIME)
            points.append((draw(mult), draw(mult)))
        else:
            points.append((draw(oracle_initial), draw(oracle_initial)))
    horizons = draw(st.lists(st.integers(0, 400), min_size=1, max_size=4))
    queries = [(p, q, h) for p, q in points for h in horizons]
    return a, b, draw(st.permutations(queries))


@settings(max_examples=200, deadline=None)
@given(oracle_queries())
@example((3, 2, [(1, 1, 100), (1, 1, 150), (2 ** 17 - 1, 2 ** 17 - 2, 30),
                 (2 ** 17 - 1, 2 ** 17 - 2, 16)]))   # a zero past 16, in the table
@example((3, 2, [(5, ORACLE_PRIME, 40), (0, 0, 30), (ORACLE_PRIME, 0, 20)]))
@example((ORACLE_PRIME, 0, [(1, 2, 50), (0, 3, 10), (4, 0, 60)]))
@example((0, ORACLE_PRIME, [(1, 0, 120), (1, 1, 60), (0, 1, 121)]))
@example((0, 0, [(5, 7, 80), (0, 0, 3)]))
# zeros at S and 2S - 1 (= 0 and S - 1 mod S), asked at and beside the
# boundaries, the last asked past the table's last stride
@example((3, 2, [(*zero_at(3, 2, STRIDE), STRIDE), (*zero_at(3, 2, STRIDE), STRIDE - 1),
                 (*zero_at(3, 2, 2 * STRIDE - 1), 2 * STRIDE - 1),
                 (*zero_at(3, 2, 2 * STRIDE - 1), 2 * STRIDE + 1)]))
@example((1, 2, [(*zero_at(1, 2, 2 * STRIDE), 2 * STRIDE + 1),
                 (*zero_at(1, 2, 2 * STRIDE), 2 * STRIDE), (0, ORACLE_PRIME, STRIDE),
                 (*zero_at(1, 2, STRIDE - 1), 3 * STRIDE)]))
@example((ORACLE_PRIME, -ORACLE_PRIME, [(1, 1, 200), (0, 1, 400), (2, 0, 399)]))
# U of (1, 1) and of (-1, 1) repeats every 6 and every 3 terms, so every key
# repeats: the first growth closes the table's cycle, and each later horizon
# falls strictly between two of a key's strides
@example((1, 1, [(1, 1, 2), (1, 1, 100), (1, 1, 40), (1, 0, 60), (0, 1, 250)]))
@example((-1, 1, [(1, 0, 1), (0, 1, 90), (1, 0, 50), (-1, 1, 21), (2, -2, 9)]))
def test_oracle_table_matches_plain_recurrence(case):
    """The oracle's per-pair table against conftest's recurrence, on the
    cases the table treats apart: P or Q a multiple of the prime (the
    infinity key and (P, Q) = (0, 0) mod p), A or B = 0 mod p (the bucket
    every (P, Q) matches), keys that repeat, and zeros at a chosen index."""
    a, b, queries = case
    referee._zero_table.cache_clear()
    for p, q, horizon in queries:
        terms = iter_terms(a, b, p, q, horizon)
        expected = [k for k, u in enumerate(terms) if u == 0]
        assert brute_force_zero_oracle(SequenceParams(a, b, p, q), horizon) == expected


def test_oracle_table_is_small_and_cached():
    """A bounded cache keyed on the residues of (A, B) and on the prime; the
    table files one entry per stride of S indices, a horizon past its last
    stride grows it to at least twice its size, and every stride is filed
    once.  A pair whose keys repeat at once files one cycle and never grows
    again.  The table keeps its index and never the terms: at most 128
    bytes per stride on a 10,000-index table.  A horizon past the limit
    raises before the table allocates anything."""
    assert referee._zero_table.cache_info().maxsize is not None
    m, s = ORACLE_PRIME, STRIDE

    def state(table):
        return table.top, len(table.index), table.cycle

    for a, b in [(3, 2), (1, -1), (0, 5), (5, 0), (0, 0)]:
        # every stride of (0, 5), (5, 0) and (0, 0) has one key (0, m or
        # m + 1), so stride 2 closes a cycle of length 1 and the table never
        # grows again
        short = 0 in (a, b)

        def filed(top):
            return (2000 // s, 1, (1, 1)) if short else (top, top, None)

        referee._zero_table.cache_clear()
        brute_force_zero_oracle(SequenceParams(a, b, 1, 1), 2000)
        table = referee._zero_table(a % m, b % m, m)
        assert referee._zero_table.cache_info().hits == 1
        assert state(table) == filed(2000 // s)
        # up to the last index before the next stride, the table suffices
        brute_force_zero_oracle(SequenceParams(a + m, b - m, 2, 3),
                                2000 // s * s + s - 1)
        assert referee._zero_table(a % m, b % m, m) is table
        assert state(table) == filed(2000 // s)
        brute_force_zero_oracle(SequenceParams(a, b, 2, 3), 2000 // s * s + s)
        assert state(table) == filed(2 * (2000 // s))
        brute_force_zero_oracle(SequenceParams(a, b, 1, 1), 9000)
        assert state(table) == filed(9000 // s)

    referee._zero_table.cache_clear()
    tracemalloc.start()
    try:
        brute_force_zero_oracle(SequenceParams(3, 2, 1, 1), 10_000)
        retained, _ = tracemalloc.get_traced_memory()
        referee._zero_table.cache_clear()
        tracemalloc.reset_peak()
        with pytest.raises(ValueError, match="exceeds 2\\^26 - 1"):
            brute_force_zero_oracle(SequenceParams(3, 2, 1, 1),
                                    referee._MAX_HORIZON + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained <= 128 * -(-10_000 // s)
    assert peak < 64 * 1024
    table = referee._zero_table(3, 2, m)
    assert (table.top, table.index) == (0, {})
    referee._zero_table.cache_clear()


def test_expected_zero_sets_match_the_plain_comprehension():
    """The range-built zero sets the oracle is compared with, against the
    index-by-index definition of each result kind."""
    from itertools import combinations
    from brigkit.zeros import AllZero, NoZero, PeriodicZeros, ZeroAt, ZeroTail

    def subsets(items):
        return [frozenset(c) for k in range(len(items) + 1)
                for c in combinations(items, k)]

    def plain(result, horizon):
        if isinstance(result, ZeroAt):
            return [n for n in range(horizon + 1) if n == result.k]
        if isinstance(result, NoZero):
            return []
        if isinstance(result, AllZero):
            return list(range(horizon + 1))
        if isinstance(result, PeriodicZeros):
            return [n for n in range(horizon + 1)
                    if n % result.modulus in result.residues]
        return [n for n in range(horizon + 1)
                if n in result.prefix or n >= result.start]

    results = [AllZero(), NoZero(0, conclusive=True),
               *(ZeroAt(k) for k in (0, 1, 7, 2000, 10_001))]
    results += [PeriodicZeros(m, r) for m in range(1, 7)
                for r in subsets(range(m)) if r]
    results += [ZeroTail(start, prefix) for start in (0, 1, 2, 3, 2001)
                for prefix in subsets((0, 1, 2))]
    for result in results:
        for horizon in (0, 1, 2000, 10_000):
            assert (sweep_mod._expected_zero_set(result, horizon)
                    == plain(result, horizon)), (result, horizon)


def test_config_validation():
    with pytest.raises(SweepConfigError):
        SweepConfig(a_range=(3, 1), b_range=(1, 1), p_range=(1, 1),
                    q_range=(1, 1)).validate()
    with pytest.raises(SweepConfigError):
        SweepConfig(a_range=(1, 1), b_range=(1, 1), p_range=(1, 1),
                    q_range=(1, 1), n_horizon=1).validate()
    with pytest.raises(SweepConfigError, match="missing b_range, p_range, q_range"):
        config_from_dict({"a_range": [1, 2]})
    cfg = config_from_dict({"a_range": [1, 2], "b_range": [1, 2],
                            "p_range": [0, 1], "q_range": [0, 1],
                            "c5": "50", "checks": ["growth"]})
    assert cfg.c5 == Fraction(50) and cfg.checks == ("growth",)


@pytest.mark.parametrize("c4", [0, -5, kernels._MAX_SCAN + 1])
def test_config_rejects_a_c4_outside_the_scan_range(c4):
    with pytest.raises(SweepConfigError, match="c4"):
        SweepConfig(a_range=(1, 1), b_range=(1, 1), p_range=(1, 1),
                    q_range=(1, 1), c4=c4).validate()


def test_config_refuses_a_horizon_past_the_size_guard():
    """(1, 0) bounds U_n by n bits, so the horizon's limit is _MAX_BITS; a
    box with |A| + |B| up to 7 takes a third of it."""
    limit = kernels._MAX_BITS
    box = dict(p_range=(1, 1), q_range=(1, 1))
    SweepConfig(a_range=(-1, 1), b_range=(0, 0), n_horizon=limit, **box).validate()
    SweepConfig(a_range=(-3, 1), b_range=(0, 4), n_horizon=limit // 3,
                **box).validate()
    for a_range, b_range, horizon in [((-1, 1), (0, 0), limit + 1),
                                      ((-3, 1), (0, 4), limit // 3 + 1)]:
        with pytest.raises(SweepConfigError, match="n_horizon: index"):
            SweepConfig(a_range=a_range, b_range=b_range, n_horizon=horizon,
                        **box).validate()


def test_config_accepts_c4_at_the_scan_limit():
    """Without the zeros check c4 reaches the scan limit; with it, the
    oracle's limit."""
    box = dict(a_range=(1, 1), b_range=(1, 1), p_range=(1, 1), q_range=(1, 1))
    SweepConfig(**box, c4=1).validate()
    SweepConfig(**box, c4=referee._MAX_HORIZON).validate()
    SweepConfig(**box, c4=kernels._MAX_SCAN, checks=("growth",)).validate()


@pytest.mark.parametrize("field, value", [
    # run over this box, each value fakes assertion-grade discrepancies: 7
    # zero-oracle (-5), 24 or 1 zero-family (-3, 24), and an internal error
    # per pair (2^33); c4 = 2^32 - 1 would make the oracle ask for a table
    # of tens of GB
    ("oracle_floor", -5), ("oracle_floor", 2 ** 33),
    ("uniqueness_horizon", -3), ("uniqueness_horizon", 24),
    ("uniqueness_horizon", 2 ** 33), ("c4", 2 ** 32 - 1),
])
def test_config_rejects_oracle_horizons_that_fake_discrepancies(
        monkeypatch, tmp_path, capsys, field, value):
    box = {"a_range": [1, 1], "b_range": [3, 3], "p_range": [-3, 3],
           "q_range": [-3, 3]}
    message = f"{field} must be in"
    with pytest.raises(SweepConfigError, match=message):
        config_from_dict({**box, field: value})

    def no_sweep(cfg):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr("brigkit.cli.run_sweep", no_sweep)
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({**box, field: value}))
    assert main(["sweep", "--config", str(cfgfile)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_config_accepts_oracle_horizons_at_their_limits():
    box = dict(a_range=(1, 1), b_range=(1, 1), p_range=(1, 1), q_range=(1, 1))
    top = referee._MAX_HORIZON
    for floor, unique in [(0, 25), (top, top)]:
        SweepConfig(**box, oracle_floor=floor, uniqueness_horizon=unique).validate()
    SweepConfig(**box, zero_k_max=1, uniqueness_horizon=1).validate()


def test_small_sweep_clean(small_report):
    report, violations = small_report
    assert violations == 0 == assertion_count(report)
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


# strings that exercise every escape: quotes, backslashes, control and
# non-ASCII characters, astral ones and lone surrogates included
json_text = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028'),
                              st.characters(blacklist_categories=())), max_size=8)
json_trees = st.recursive(
    st.one_of(json_text, st.booleans(), st.none()),
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.dictionaries(json_text, kids, max_size=4)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(json_trees)
@example({})
@example([])
@example({"": [], "a": {}, "b": [{}, [], [[]]], "c": [True, False, None]})
@example(["\"\\\x00\ud800\U0001f600"])
def test_render_json_equals_json_dumps(tree):
    assert render_json(tree) == json.dumps(tree, indent=1) + "\n"


@pytest.mark.parametrize("tree", [1, 0, 1.0, ("a",), {"a": 1}, {"a": 0},
                                  [True, 1], {"a": {"b": ("c",)}}, {1: "a"},
                                  {None: "a"}])
def test_render_json_rejects_numbers_and_tuples(tree):
    """json.dumps would write these; a report holds none, so the writer
    refuses them, and 1 and 0 are not written as true and false."""
    with pytest.raises(TypeError):
        render_json(tree)


def test_csv_round_trip(small_report):
    report, _ = small_report
    rows = assert_csv_table(render_csv(report))
    assert len(rows) == len(report["records"])


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


@pytest.mark.parametrize("argv, text, payload", [
    # P = 0 and Q = 0 are answered without a scan: no search is claimed
    (["--a", "3", "--b", "2", "--p", "0", "--q", "5"],
     "zero at k=0", {"kind": "zero-at", "k": "0"}),
    (["--a", "3", "--b", "2", "--p", "5", "--q", "0"],
     "zero at k=1", {"kind": "zero-at", "k": "1"}),
    # (31, 30) is construct_zero_at(3, 2, 5): a scanned zero keeps its suffix
    (["--a", "3", "--b", "2", "--p", "31", "--q", "30"],
     "zero at k=5 (searched up to 43, conclusive)",
     {"kind": "zero-at", "k": "5", "searched": "43"}),
    (["--a", "3", "--b", "6", "--p", "5", "--q", "6", "--c4", "1000"],
     "zero at k=5 (searched up to 1000, conclusive assuming c4 <= 1000)",
     {"kind": "zero-at", "k": "5", "searched": "1000"}),
    (["--a", "1", "--b", "-1", "--p", "1", "--q", "2"],
     "no zero up to 19, conclusive",
     {"kind": "no-zero", "searched": "19", "conclusive": True}),
])
def test_cli_zeros_claims_a_search_only_where_it_scanned(monkeypatch, capsys,
                                                        argv, text, payload):
    """The CLI prints what find_zero decided, and normalizes the sequence
    for its search bound once per run, only where it scanned."""
    import brigkit.zeros as zeros_mod
    real, calls = zeros_mod.normalized_for_bound, []

    def counting(params):
        calls.append(params)
        return real(params)

    monkeypatch.setattr(zeros_mod, "normalized_for_bound", counting)
    scanned = "searched" in payload
    assert main(["zeros", *argv]) == 0
    assert capsys.readouterr().out.strip() == text
    assert len(calls) == scanned
    assert main(["zeros", *argv, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == payload
    assert len(calls) == 2 * scanned


def test_cli_rejects_a_bad_c4(monkeypatch, capsys):
    """Both commands exit 1 on a c4 below 1 or past the scan limit, and no
    screen starts."""
    def no_screen(*args):
        raise AssertionError("the screen ran")

    monkeypatch.setattr(kernels, "_last_residue_zero", no_screen)
    box = ["--a-range", "1:1", "--b-range", "2:2", "--p-range", "1:1",
           "--q-range", "1:1"]
    for c4 in ("-5", "0", str(kernels._MAX_SCAN + 1)):
        assert main(["zeros", "--a", "1", "--b", "2", "--p", "1", "--q", "1",
                     "--c4", c4]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert main(["sweep", *box, "--c4", c4]) == 1
        assert capsys.readouterr().err.startswith("error: c4 must be in")


def test_cli_term_refuses_a_huge_index(monkeypatch, capsys):
    """A term past the size guard exits 1 with an error, and no doubling
    ladder starts."""
    def started(*args):
        raise AssertionError("the doubling ladder started")

    monkeypatch.setattr(kernels, "lucas_u_pair", started)
    assert main(["term", "--a", "10", "--b", "-10", "--p", "3", "--q", "7",
                 "--n", "9223372036854775813"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: index 9223372036854775813 is too large")


def test_cli_refuses_huge_linear_walks(monkeypatch, capsys):
    """term --iter, make-zero --family and sweep exit 1 on an index past the
    size guard, and no walk or sweep starts."""
    def started(*args):
        raise AssertionError("the walk started")

    monkeypatch.setattr(kernels, "range", started, raising=False)
    monkeypatch.setattr("brigkit.zeros.range", started, raising=False)
    monkeypatch.setattr("brigkit.cli.run_sweep", started)
    for argv in (["term", "--a", "3", "--b", "2", "--p", "1", "--q", "1",
                  "--n", "9223372036854775813", "--iter"],
                 ["make-zero", "--a", "3", "--b", "2", "--family",
                  "--kmax", "1099511627776"],
                 ["sweep", "--a-range", "1:1", "--b-range", "2:2", "--p-range",
                  "1:1", "--q-range", "1:1", "--horizon", "1099511627776"]):
        assert main(argv) == 1
        assert "is too large" in capsys.readouterr().err


def test_cli_zeros_c4_help_names_the_default(monkeypatch, capsys):
    monkeypatch.setattr("brigkit.cli.DEFAULT_C4", 4321)
    assert main(["zeros", "--help"]) == 0
    assert "(default 4321)" in capsys.readouterr().out


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


def test_cli_growth_lucas_default_constant(capsys):
    """Without --c1 the non-real Lucas check uses the default constant."""
    base = ["growth", "--a", "1", "--b", "2", "--p", "0", "--q", "1",
            "--n", "10", "--check", "lucas", "--json"]
    assert main(base) == 0
    default = capsys.readouterr().out
    assert main(base + ["--c1", "100"]) == 0
    assert capsys.readouterr().out == default
    assert json.loads(default)["regime"] == "lucas-nonreal"
    # equal roots: degenerate, a usage error with or without a constant
    assert main(["growth", "--a", "2", "--b", "1", "--p", "0", "--q", "1",
                 "--n", "10", "--check", "lucas"]) == 1
    assert "degenerate" in capsys.readouterr().err


# `brigkit growth --json` output for one point of every regime, recorded
# before the margins moved from rational field arithmetic to integer surds:
# the verdicts, thresholds, labels and signs are fixed by the mathematics,
# not by how the margins are computed.
GROWTH_CLI_PINS = [
    # real-far
    (('real', 3, -100, 1, 1, 14),
     '{"n": "14", "regime": "real-far", "applicable": true, "bound_holds": true, '
     '"threshold": "12", "margins": [{"label": "alpha-halves", "sign": "1"}, '
     '{"label": "sqrt5-halves", "sign": "1"}]}'),
    # real-near
    (('real', 3, 2, 1, 3, 90),
     '{"n": "90", "regime": "real-near", "applicable": true, "bound_holds": true, '
     '"threshold": "78", "margins": [{"label": "alpha-power", "sign": "1"}, '
     '{"label": "golden-power", "sign": "1"}]}'),
    # real-near, below its threshold
    (('real', 3, 2, 1, 3, 50),
     '{"n": "50", "regime": "real-near", "applicable": false, "bound_holds": null, '
     '"threshold": "78", "margins": []}'),
    # real-far, A < 0
    (('real', -9, -9, -5, -1, 8),
     '{"n": "8", "regime": "real-far", "applicable": true, "bound_holds": true, '
     '"threshold": "8", "margins": [{"label": "alpha-halves", "sign": "1"}, '
     '{"label": "sqrt5-halves", "sign": "1"}]}'),
    # sharp-far-positive
    (('sharp', 7, 12, 1, 1, 15),
     '{"n": "15", "regime": "sharp-far-positive", "applicable": true, "bound_holds": true, '
     '"threshold": "7", "margins": [{"label": "eleven-a-halves", "sign": "1"}, '
     '{"label": "seven-three-halves", "sign": "1"}]}'),
    # sharp-far-positive, below its threshold
    (('sharp', 7, 12, 1, 1, 5),
     '{"n": "5", "regime": "sharp-far-positive", "applicable": false, "bound_holds": null, '
     '"threshold": "7", "margins": []}'),
    # sharp-far-negative-even
    (('sharp', 3, -100, 1, 1, 14),
     '{"n": "14", "regime": "sharp-far-negative-even", "applicable": true, '
     '"bound_holds": true, "threshold": "2", "margins": [{"label": "alpha-linear", '
     '"sign": "1"}, {"label": "golden-three-fifths", "sign": "1"}]}'),
    # sharp-far-negative-odd
    (('sharp', 3, -100, 1, 1, 15),
     '{"n": "15", "regime": "sharp-far-negative-odd", "applicable": true, '
     '"bound_holds": true, "threshold": "9", "margins": [{"label": "half-n-a-d-halves", '
     '"sign": "1"}, {"label": "sqrt5-fourteen-fifths", "sign": "1"}]}'),
    # sharp-far-negative-odd, square delta
    (('sharp', 3, -4, 3, 1, 15),
     '{"n": "15", "regime": "sharp-far-negative-odd", "applicable": true, '
     '"bound_holds": true, "threshold": "5", "margins": [{"label": "half-n-a-d-halves", '
     '"sign": "1"}, {"label": "sqrt5-fourteen-fifths", "sign": "1"}]}'),
    # sharp-near-wide
    (('sharp', 10, 1, 1, 1, 20),
     '{"n": "20", "regime": "sharp-near-wide", "applicable": true, "bound_holds": true, '
     '"threshold": "13", "margins": [{"label": "alpha-over-5p", "sign": "1"}, '
     '{"label": "golden-over-14p", "sign": "1"}]}'),
    # sharp-near-tight, A < 0
    (('sharp', -8, 9, -2, -3, 40),
     '{"n": "40", "regime": "sharp-near-tight", "applicable": true, "bound_holds": true, '
     '"threshold": "39", "margins": [{"label": "alpha-over-22q", "sign": "1"}, '
     '{"label": "golden-over-36q", "sign": "1"}]}'),
    # lucas-negative-b
    (('lucas', 1, -1, 0, 1, 10),
     '{"n": "10", "regime": "lucas-negative-b", "applicable": true, "bound_holds": true, '
     '"threshold": "2", "margins": [{"label": "double-u", "sign": "1"}]}'),
    # lucas-positive-b, alpha = 2
    (('lucas', 3, 2, 0, 1, 12),
     '{"n": "12", "regime": "lucas-positive-b", "applicable": true, "bound_holds": true, '
     '"threshold": "2", "margins": [{"label": "u-alpha", "sign": "1"}]}'),
    # lucas-positive-b, A < 0
    (('lucas', -5, 3, 0, 1, 9),
     '{"n": "9", "regime": "lucas-positive-b", "applicable": true, "bound_holds": true, '
     '"threshold": "2", "margins": [{"label": "u-alpha", "sign": "1"}]}'),
    # lucas-nonreal
    (('lucas', 1, 2, 0, 1, 10),
     '{"n": "10", "regime": "lucas-nonreal", "applicable": true, "bound_holds": true, '
     '"threshold": null, "margins": [{"label": "u-squared", "sign": "1"}]}'),
    # nonreal, failing margins
    (('nonreal', 1, 2, 1, 1, 7),
     '{"n": "7", "regime": "nonreal", "applicable": true, "bound_holds": false, '
     '"threshold": null, "margins": [{"label": "cube-vs-b-power", "sign": "-1"}, '
     '{"label": "five-fourths", "sign": "-1"}], "empirical_threshold": "26", '
     '"formula_threshold": "1"}'),
]


def _growth_argv(check, a, b, p, q, n):
    return ["growth", "--a", str(a), "--b", str(b), "--p", str(p), "--q", str(q),
            "--n", str(n), "--check", check, "--json"]


@pytest.mark.parametrize("row, want", GROWTH_CLI_PINS,
                         ids=[",".join(map(str, row)) for row, _ in GROWTH_CLI_PINS])
def test_cli_growth_output_is_pinned(capsys, row, want):
    assert main(_growth_argv(*row)) == 0
    assert capsys.readouterr().out == want + "\n"


def test_cli_growth_output_is_pinned_under_optimized_mode():
    """A margin built from integer surds decides the same under python -O."""
    row, want = next(pin for pin in GROWTH_CLI_PINS
                     if pin[0] == ("sharp", 3, -4, 3, 1, 15))
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-O", "-m", "brigkit.cli", *_growth_argv(*row)],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout == want + "\n"


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
    rows = assert_csv_table((tmp_path / "report.csv").read_text())
    assert len(rows) == 5 * 5 * 3 * 3


def test_cli_sweep_missing_output_directory_fails_before_the_sweep(
        tmp_path, monkeypatch, capsys):
    def no_sweep(cfg):
        raise AssertionError("the sweep ran")
    monkeypatch.setattr("brigkit.cli.run_sweep", no_sweep)
    out = tmp_path / "missing_dir" / "r.json"
    assert main(["sweep", "--a-range=1:1", "--b-range=-1:-1", "--p-range=1:1",
                 "--q-range=1:1", "--checks", "growth", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: output directory ") and "missing_dir" in err
    assert not (tmp_path / "missing_dir").exists()


def test_cli_sweep_write_error_exits_1_and_leaves_no_tmp_file(tmp_path, capsys):
    out = tmp_path / "taken"
    out.mkdir()                  # renaming the report onto a directory fails
    assert main(["sweep", "--a-range=1:1", "--b-range=-1:-1", "--p-range=1:1",
                 "--q-range=1:1", "--checks", "growth", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert list(out.iterdir()) == []


def test_cli_sweep_flags_override_the_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "a_range": [1, 2], "b_range": [-1, 1], "p_range": [-1, 1],
        "q_range": [-1, 1], "n_horizon": 40, "checks": ["growth"],
        "format": "json", "output_path": str(tmp_path / "unused.json")}))
    out = tmp_path / "report.csv"
    assert main(["sweep", "--config", str(cfgfile), "--format", "csv",
                 "--out", str(out), "--horizon", "30"]) == 0
    capsys.readouterr()
    assert len(assert_csv_table(out.read_text())) == 2 * 3 * 3 * 3
    assert not (tmp_path / "unused.json").exists()


def test_cli_sweep_rejects_unknown_config_keys(tmp_path, capsys):
    """A misspelt key is refused by name instead of running on the default:
    "horizon" is the flag's name, the field is n_horizon."""
    data = {"a_range": [1, 2], "b_range": [-1, 1], "p_range": [-1, 1],
            "q_range": [-1, 1], "horizon": 40, "check": ["growth"]}
    with pytest.raises(SweepConfigError, match="unknown config keys: check, horizon"):
        config_from_dict(data)
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(data))
    out = tmp_path / "report.json"
    assert main(["sweep", "--config", str(cfgfile), "--out", str(out)]) == 1
    assert "horizon" in capsys.readouterr().err
    assert not out.exists()


def test_cli_sweep_accepts_a_reports_own_config(tmp_path, capsys):
    """meta.config of a report, fed back as --config, reruns the same sweep."""
    cfg = SweepConfig(a_range=(1, 2), b_range=(-1, 1), p_range=(-1, 1),
                      q_range=(-1, 1), n_horizon=40, checks=("growth", "height"))
    first = render_json(run_sweep(cfg)[0])
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(json.loads(first)["meta"]["config"]))
    out = tmp_path / "again.json"
    assert main(["sweep", "--config", str(cfgfile), "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text() == first


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


def test_failed_height_sandwich_is_an_assertion_finding(tmp_path, monkeypatch,
                                                        capsys):
    monkeypatch.setattr(sweep_mod, "height_sandwich_check", lambda params: False)
    out = tmp_path / "r.json"
    rc = main(["sweep", "--a-range=1:1", "--b-range=-1:-1", "--p-range=1:1",
               "--q-range=1:1", "--checks", "height", "--out", str(out)])
    capsys.readouterr()
    assert rc == 3
    report = json.loads(out.read_text())
    assert report["discrepancies"] == [{
        "grade": "assertion", "check": "height-sandwich",
        "a": "1", "b": "-1", "p": "1", "q": "1"}]
    assert assertion_count(report) == 1
    assert report["records"][0]["flags"] == ["height-sandwich"]


def test_pool_has_at_most_one_worker_per_pair(monkeypatch):
    sizes = []

    class InProcessPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return [fn(job) for job in jobs]

    monkeypatch.setattr(sweep_mod, "multiprocessing",
                        SimpleNamespace(Pool=InProcessPool))
    box = dict(a_range=(1, 1), b_range=(-1, 0), p_range=(-1, 1),
               q_range=(-1, 1), n_horizon=40, checks=("growth", "height"))
    report, _ = run_sweep(SweepConfig(**box, parallelism=8))
    assert sizes == [2]
    assert render_json(report) == render_json(run_sweep(SweepConfig(**box))[0])


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


def test_faulty_zero_scan_is_caught_by_the_oracle(monkeypatch):
    """A scan that drops a real hit must surface as an assertion-grade
    zero-oracle mismatch: the oracle does not go through the kernels."""
    real_scan = kernels.zero_scan
    monkeypatch.setattr(kernels, "zero_scan",
                        lambda *args: [k for k in real_scan(*args) if k != 5])
    # (3, 6, 5, 6) vanishes at k = 5 and nowhere else
    cfg = SweepConfig(a_range=(3, 3), b_range=(6, 6), p_range=(4, 5),
                      q_range=(6, 6), n_horizon=40, c4=120, checks=("zeros",),
                      oracle_floor=200, parallelism=1)
    report, violations = run_sweep(cfg)
    assert violations == 1
    bad = [r for r in report["records"] if "zero-oracle-mismatch" in r["flags"]]
    assert [r["params"]["p"] for r in bad] == ["5"]
    assert report["discrepancies"] == [{
        "grade": "assertion", "check": "zero-oracle",
        "a": "3", "b": "6", "p": "5", "q": "6"}]


def test_crashing_pair_is_reported_and_the_sweep_goes_on(monkeypatch, capsys):
    real_find_zero = sweep_mod.find_zero

    def find_zero(params, *args):
        if (params.A, params.B) == (1, 2):
            raise RuntimeError("boom")
        return real_find_zero(params, *args)

    monkeypatch.setattr(sweep_mod, "find_zero", find_zero)
    cfg = SweepConfig(a_range=(0, 1), b_range=(1, 2), p_range=(-1, 1),
                      q_range=(-1, 1), n_horizon=40, c4=60, zero_k_max=5,
                      uniqueness_horizon=100, oracle_floor=100, parallelism=1)
    report, violations = run_sweep(cfg)
    assert violations == 1
    assert report["discrepancies"] == [{
        "grade": "assertion", "check": "internal-error", "a": "1", "b": "2",
        "error": "RuntimeError: boom"}]
    pairs = {(r["params"]["a"], r["params"]["b"]) for r in report["records"]}
    assert pairs == {("0", "1"), ("0", "2"), ("1", "1")}
    assert report["summary"]["records"] == str(3 * 3 * 3)
    assert "internal error in pair (1, 2)" in capsys.readouterr().err


@pytest.mark.parametrize("target, error, checks, injected", [
    ("height_sandwich_check", DegenerateInputError, "height",
     lambda args: args[0].P == 2),
    ("construct_zero_at", ConstructionError, "zero-family",
     lambda args: args[2] == 3),
])
def test_unreachable_check_errors_are_internal_errors(
        monkeypatch, tmp_path, capsys, target, error, checks, injected):
    """An error that a check cannot raise on the points the sweep gives it
    is a bug, so it is reported as the pair's internal-error, never
    skipped: the sandwich gets only real points, and a non-degenerate
    (A, B) has U_n != 0 for every n >= 1."""
    real = getattr(sweep_mod, target)

    def faulty(*args):
        if injected(args):
            raise error("injected")
        return real(*args)

    monkeypatch.setattr(sweep_mod, target, faulty)
    want = [{"grade": "assertion", "check": "internal-error", "a": "1",
             "b": "-1", "error": f"{error.__name__}: injected"}]
    cfg = SweepConfig(a_range=(1, 1), b_range=(-1, -1), p_range=(1, 2),
                      q_range=(1, 1), checks=(checks,), zero_k_max=5)
    report, violations = run_sweep(cfg)
    assert violations == 1 == assertion_count(report)
    assert report["discrepancies"] == want
    out = tmp_path / "r.json"
    assert main(["sweep", "--a-range=1:1", "--b-range=-1:-1", "--p-range=1:2",
                 "--q-range=1:1", "--checks", checks, "--kmax", "5",
                 "--out", str(out)]) == 3
    assert json.loads(out.read_text())["discrepancies"] == want
    assert "internal error in pair (1, -1)" in capsys.readouterr().err


# sha256 of the zeros-sweep box's JSON report (the benchmark's zeros-sweep
# workload as one run).  The report embeds __version__, so a version bump
# changes this hash; so does any deliberate change to the report's content.
ZEROS_SWEEP_SHA256 = "c475e4108aaa2f87bf840978cd9b83fad2f0fcd39c5c87e48dd66862531630e7"


@pytest.mark.parametrize("jobs", [1, 2])
def test_zeros_sweep_report_bytes_are_pinned(jobs):
    cfg = SweepConfig(a_range=(-5, 5), b_range=(-5, 5), p_range=(-3, 3),
                      q_range=(-3, 3), n_horizon=200,
                      checks=("zeros", "zero-family"), parallelism=jobs)
    report, violations = run_sweep(cfg)
    assert violations == 0 == assertion_count(report)
    text = render_json(report)
    assert text == json.dumps(report, indent=1) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == ZEROS_SWEEP_SHA256


_PINNED_SWEEP_DIGESTS = """
import hashlib
from brigkit.sweep import SweepConfig, render_json, run_sweep
for cfg in (SweepConfig(a_range=(-5, 5), b_range=(-5, 5), p_range=(-3, 3),
                        q_range=(-3, 3), n_horizon=200,
                        checks=("zeros", "zero-family"), parallelism=1),
            SweepConfig(a_range=(-12, 12), b_range=(-3, 3), p_range=(-8, 8),
                        q_range=(-8, 8), n_horizon=200,
                        checks=("growth", "lucas", "height"), parallelism=1)):
    report, violations = run_sweep(cfg)
    print(violations, hashlib.sha256(render_json(report).encode()).hexdigest())
"""


def test_zeros_sweep_report_bytes_are_pinned_under_optimized_mode():
    """The zero and growth checks decide nothing by `assert`: under
    python -O the zeros-sweep and growth-sweep boxes report the same bytes
    and no violation."""
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-O", "-c", _PINNED_SWEEP_DIGESTS],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", ZEROS_SWEEP_SHA256, "0", GROWTH_SWEEP_SHA256]


# sha256 of the growth-sweep box's JSON report (the benchmark's growth-sweep
# workload as one run).  The full |P|, |Q| <= 8 box is needed: smaller boxes
# never reach growth-threshold-beyond-horizon.  Same __version__ caveat as
# above.
GROWTH_SWEEP_SHA256 = "cc58b812ddb13aa463642c1388dafaa73d944f792f476aac66fdb84bea7fec4a"


def test_growth_sweep_report_bytes_are_pinned():
    cfg = SweepConfig(a_range=(-12, 12), b_range=(-3, 3), p_range=(-8, 8),
                      q_range=(-8, 8), n_horizon=200,
                      checks=("growth", "lucas", "height"), parallelism=2)
    report, violations = run_sweep(cfg)
    assert violations == 0 == assertion_count(report)
    text = render_json(report)
    assert text == json.dumps(report, indent=1) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == GROWTH_SWEEP_SHA256


_TRACED_SWEEP = """
import sys
sys.path.insert(0, sys.argv[1])
import brigkit, brigkit.sweep as sw
import tracing
tracer = tracing.Tracer()
tracer.install(brigkit)
cfg = sw.SweepConfig(a_range=(1, 3), b_range=(-1, int(sys.argv[3])),
                     p_range=(-2, 2), q_range=(-2, 2), n_horizon=60,
                     checks=tuple(sys.argv[2].split(",")), zero_k_max=8,
                     uniqueness_horizon=400, oracle_floor=200)
report, violations = sw.run_sweep(cfg)
summary = tracer.summary()
print(violations, tracer.counters["sweep.brute_force_zero_oracle.steps"])
print(" ".join(sorted(k for k, v in summary.items() if v["calls"])))
"""


def _traced_sweep(checks, b_hi):
    """(violations, oracle steps, traced names called) of a small sweep over
    A in [1, 3], B in [-1, b_hi] with perfbench's tracer installed."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _TRACED_SWEEP, str(root / "perfbench"),
                          ",".join(checks), str(b_hi)],
                         env=env, capture_output=True, text=True, check=True)
    counts, names = out.stdout.split("\n")[:2]
    violations, steps = counts.split()
    return int(violations), int(steps), names.split()


def test_perfbench_tracer_installs_and_traces_a_growth_sweep():
    """perfbench's tracer looks brigkit functions up by name and refuses to
    install if one is missing, so a refactor that drops a traced name fails
    here and not only in the traced benchmark."""
    violations, _, names = _traced_sweep(("growth", "lucas", "height"), 1)
    assert violations == 0
    for name in ("growth.real_case_branch", "growth.ratio_height",
                 "growth.height_sandwich_check", "kernels.real_growth_scan",
                 "kernels.lucas_growth_scan", "core.classify"):
        assert name in names


def test_perfbench_tracer_traces_the_zero_path():
    """The oracle lives in brigkit.referee, but the sweep calls it by its
    name in brigkit.sweep, where the tracer wraps it: a zeros sweep records
    oracle calls and oracle steps, as well as the zero decision's own
    layers."""
    violations, steps, names = _traced_sweep(("zeros", "zero-family"), 3)
    assert violations == 0
    assert steps > 0
    for name in ("sweep.brute_force_zero_oracle", "zeros.find_zero",
                 "kernels.zero_scan", "zeros.construct_zero_at"):
        assert name in names
