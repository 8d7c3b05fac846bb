"""Grid sweep harness: runs every checker over parameter boxes and emits a
deterministic machine-readable report.

Work is split by (A, B) pair; results are merged in grid order, so the
report is byte-identical for any parallelism setting.  Reports carry no
timestamps and serialize every integer as a decimal string (terms grow
exponentially and would overflow 64-bit JSON consumers).

Violations are graded: an "assertion" violation (a proved bound failing, an
oracle mismatch) flips the exit status; "informational" findings (small-k
zero-bound excursions in the non-real case, thresholds beyond the horizon
for configured constants) are listed under discrepancies only.
"""

from __future__ import annotations

import csv
import io
import json
import multiprocessing
import os
from dataclasses import dataclass
from fractions import Fraction

from . import __version__, kernels
from .core import Kind, SequenceParams, classify
from .growth import (empirical_nonreal_threshold, height_sandwich_check,
                     nonreal_threshold_formula, ratio_height, real_case_branch,
                     BranchKind, DegenerateInputError, HeightBoundError)
from .logbounds import below_log_affine
from .zeros import (AllZero, NoZero, PeriodicZeros, ZeroAt, ZeroTail,
                    construct_zero_at, find_zero, normalized_for_bound,
                    ConstructionError, DEFAULT_C4)

ALL_CHECKS = ("zeros", "growth", "height", "lucas", "zero-family")

CSV_HEADER = [
    "a", "b", "p", "q", "class",
    "zero_kind", "zero_k", "zero_searched", "zero_conclusive",
    "zero_assumes_c4", "zero_modulus", "zero_residues", "zero_tail_start",
    "zero_oracle_agree",
    "growth_branch", "growth_case", "growth_n_min", "growth_first_violation",
    "nonreal_empirical_threshold", "nonreal_formula_threshold",
    "lucas_ok", "height_h", "height_reciprocal_ok", "height_sandwich_ok",
    "flags",
]


class SweepConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SweepConfig:
    a_range: tuple[int, int]
    b_range: tuple[int, int]
    p_range: tuple[int, int]
    q_range: tuple[int, int]
    n_horizon: int = 200
    c4: int = DEFAULT_C4
    c5: Fraction = Fraction(50)
    parallelism: int = 1
    output_path: str | None = None
    format: str = "json"
    checks: tuple[str, ...] = ALL_CHECKS
    zero_k_max: int = 25
    uniqueness_horizon: int = 5000
    oracle_floor: int = 2000

    def validate(self) -> None:
        for name in ("a_range", "b_range", "p_range", "q_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise SweepConfigError(f"empty {name}: [{lo}, {hi}]")
        if self.n_horizon < 2:
            raise SweepConfigError("n_horizon must be >= 2")
        if self.parallelism < 1:
            raise SweepConfigError("parallelism must be >= 1")
        if self.format not in ("json", "csv"):
            raise SweepConfigError(f"unknown format {self.format!r}")
        unknown = set(self.checks) - set(ALL_CHECKS)
        if unknown:
            raise SweepConfigError(f"unknown checks: {sorted(unknown)}")

    def meta(self) -> dict:
        return {
            "a_range": [str(self.a_range[0]), str(self.a_range[1])],
            "b_range": [str(self.b_range[0]), str(self.b_range[1])],
            "p_range": [str(self.p_range[0]), str(self.p_range[1])],
            "q_range": [str(self.q_range[0]), str(self.q_range[1])],
            "n_horizon": str(self.n_horizon),
            "c4": str(self.c4),
            "c5": str(self.c5),
            "checks": list(self.checks),
            "zero_k_max": str(self.zero_k_max),
            "uniqueness_horizon": str(self.uniqueness_horizon),
            "oracle_floor": str(self.oracle_floor),
        }


def config_from_dict(data: dict) -> SweepConfig:
    def pair(key):
        v = data[key]
        return int(v[0]), int(v[1])

    try:
        cfg = SweepConfig(
            a_range=pair("a_range"), b_range=pair("b_range"),
            p_range=pair("p_range"), q_range=pair("q_range"),
            n_horizon=int(data.get("n_horizon", 200)),
            c4=int(data.get("c4", DEFAULT_C4)),
            c5=Fraction(str(data.get("c5", 50))),
            parallelism=int(data.get("parallelism", 1)),
            output_path=data.get("output_path"),
            format=data.get("format", "json"),
            checks=tuple(data.get("checks", ALL_CHECKS)),
            zero_k_max=int(data.get("zero_k_max", 25)),
            uniqueness_horizon=int(data.get("uniqueness_horizon", 5000)),
            oracle_floor=int(data.get("oracle_floor", 2000)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SweepConfigError(f"bad sweep config: {exc}") from exc
    cfg.validate()
    return cfg


def brute_force_zero_oracle(params: SequenceParams, horizon: int) -> list[int]:
    """All k <= horizon with u_k = 0, by plain iteration.

    Deliberately independent of the kernel backends: no normalization, no
    bounds, no doubling; this is the referee for every ZeroResult.
    """
    hits = []
    prev, cur = params.P, params.Q
    if prev == 0:
        hits.append(0)
    for n in range(1, horizon + 1):
        if cur == 0:
            hits.append(n)
        prev, cur = cur, params.A * cur - params.B * prev
    return hits


def _expected_zero_set(result, horizon: int) -> list[int]:
    if isinstance(result, ZeroAt):
        return [result.k] if result.k <= horizon else []
    if isinstance(result, NoZero):
        return []
    if isinstance(result, AllZero):
        return list(range(horizon + 1))
    if isinstance(result, PeriodicZeros):
        return [n for n in range(horizon + 1) if n % result.modulus in result.residues]
    if isinstance(result, ZeroTail):
        return [n for n in range(horizon + 1) if n in result.prefix or n >= result.start]
    raise TypeError(f"unknown zero result {result!r}")


def zero_result_dict(result) -> dict:
    if isinstance(result, ZeroAt):
        return {"kind": "zero-at", "k": str(result.k)}
    if isinstance(result, NoZero):
        out = {"kind": "no-zero", "searched": str(result.searched_up_to),
               "conclusive": result.conclusive}
        if result.assumes_c4 is not None:
            out["assumes_c4"] = str(result.assumes_c4)
        return out
    if isinstance(result, AllZero):
        return {"kind": "all-zero"}
    if isinstance(result, PeriodicZeros):
        return {"kind": "periodic", "modulus": str(result.modulus),
                "residues": [str(r) for r in sorted(result.residues)]}
    if isinstance(result, ZeroTail):
        return {"kind": "tail", "start": str(result.start),
                "prefix": [str(r) for r in sorted(result.prefix)]}
    raise TypeError(f"unknown zero result {result!r}")


def _process_pair(job) -> dict:
    """All records and findings for one (A, B) pair (runs in a worker)."""
    a, b, cfg = job
    records = []
    discrepancies = []
    violations = 0
    pair_cls = classify(SequenceParams(a, b, 0, 1))
    pair_real = pair_cls.kind is Kind.REAL
    pair_nonreal = pair_cls.kind is Kind.NONREAL

    lucas_ok = None
    if "lucas" in cfg.checks and pair_real and a != 0:
        first_bad = kernels.lucas_growth_scan(abs(a), b, 2, cfg.n_horizon)
        lucas_ok = first_bad == -1
        if not lucas_ok:
            violations += 1
            discrepancies.append({
                "grade": "assertion", "check": "lucas-growth",
                "a": str(a), "b": str(b), "n": str(first_bad)})

    for p in range(cfg.p_range[0], cfg.p_range[1] + 1):
        for q in range(cfg.q_range[0], cfg.q_range[1] + 1):
            params = SequenceParams(a, b, p, q)
            cls = classify(params)
            rec = {"params": {"a": str(a), "b": str(b), "p": str(p), "q": str(q)},
                   "class": cls.label()}
            flags = []

            if "zeros" in cfg.checks:
                result = find_zero(params, cfg.c4)
                horizon = cfg.oracle_floor
                if isinstance(result, NoZero):
                    horizon = max(horizon, result.searched_up_to)
                oracle = brute_force_zero_oracle(params, horizon)
                agree = oracle == _expected_zero_set(result, horizon)
                zd = zero_result_dict(result)
                zd["oracle_agree"] = agree
                rec["zero"] = zd
                if not agree:
                    # a zero strictly beyond a conditional (c4-assuming) search
                    # bound falsifies the assumption, not the procedure
                    conditional = (isinstance(result, NoZero)
                                   and result.assumes_c4 is not None
                                   and all(k > result.searched_up_to for k in oracle))
                    grade = "informational" if conditional else "assertion"
                    if not conditional:
                        violations += 1
                    flags.append("zero-oracle-mismatch")
                    discrepancies.append({
                        "grade": grade, "check": "zero-oracle",
                        "a": str(a), "b": str(b), "p": str(p), "q": str(q)})

            growth: dict = {}
            if "growth" in cfg.checks and not cls.is_degenerate:
                if cls.kind is Kind.REAL and p != 0 and q != 0:
                    branch = real_case_branch(params)
                    growth["branch"] = branch.kind.value
                    growth["case"] = branch.case.value
                    growth["n_min"] = str(branch.n_min)
                    start = max(branch.n_min, 2)
                    if start <= cfg.n_horizon:
                        # A < 0 flips to (-A, B, P, -Q); |u_n| is unchanged
                        bad = kernels.real_growth_scan(
                            abs(a), b, p, -q if a < 0 else q, start,
                            cfg.n_horizon, branch.kind is BranchKind.FAR)
                        growth["first_violation"] = None if bad == -1 else str(bad)
                        if bad != -1:
                            violations += 1
                            flags.append("real-growth-violation")
                            discrepancies.append({
                                "grade": "assertion", "check": "real-growth",
                                "a": str(a), "b": str(b), "p": str(p),
                                "q": str(q), "n": str(bad)})
                    else:
                        growth["first_violation"] = None
                        flags.append("growth-threshold-beyond-horizon")
                elif cls.kind is Kind.NONREAL:
                    emp = empirical_nonreal_threshold(params, cfg.n_horizon)
                    growth["empirical_threshold"] = str(emp)
                    growth["formula_threshold"] = str(
                        nonreal_threshold_formula(params, cfg.c5))
                    if emp > cfg.n_horizon:
                        violations += 1
                        flags.append("nonreal-growth-unstable")
                        discrepancies.append({
                            "grade": "assertion", "check": "nonreal-growth",
                            "a": str(a), "b": str(b), "p": str(p), "q": str(q),
                            "n": str(cfg.n_horizon)})
            if "lucas" in cfg.checks:
                growth["lucas_ok"] = lucas_ok
            rec["growth"] = growth

            if "height" in cfg.checks:
                height: dict = {}
                if not cls.is_degenerate:
                    try:
                        rh = ratio_height(params)
                        height["h"] = str(rh.height)
                        recip = rh.linear or rh.coeffs[0] == rh.coeffs[2]
                        height["reciprocal_ok"] = recip
                        if not recip:
                            violations += 1
                            flags.append("height-reciprocity")
                        if cls.kind is Kind.REAL:
                            sandwich = height_sandwich_check(params)
                            height["sandwich_ok"] = sandwich
                            if not sandwich:
                                violations += 1
                                flags.append("height-sandwich")
                    except DegenerateInputError:
                        pass
                    except HeightBoundError:
                        violations += 1
                        flags.append("height-bound")
                rec["height"] = height

            rec["flags"] = flags
            records.append(rec)

    family = []
    if "zero-family" in cfg.checks and not pair_cls.is_degenerate and a != 0 and b != 0:
        for k in range(2, cfg.zero_k_max + 1):
            try:
                cp, cq = construct_zero_at(a, b, k)
            except ConstructionError:
                continue
            cparams = SequenceParams(a, b, cp, cq)
            frec = {"a": str(a), "b": str(b), "k": str(k),
                    "p": str(cp), "q": str(cq)}
            result = find_zero(cparams, cfg.c4)
            found_ok = isinstance(result, ZeroAt) and result.k == k
            frec["found_ok"] = found_ok
            oracle = brute_force_zero_oracle(cparams, cfg.uniqueness_horizon)
            unique_ok = oracle == [k]
            frec["unique_ok"] = unique_ok
            normalized, _, _ = normalized_for_bound(cparams)
            qn = max(abs(normalized.Q), 1)
            frec["q_normalized"] = str(qn)
            if pair_real:
                bound_ok = below_log_affine(k, 9, qn, 12)
                frec["bound_ok"] = bound_ok
                if not bound_ok:
                    violations += 1
                    discrepancies.append({
                        "grade": "assertion", "check": "zero-bound-real",
                        "a": str(a), "b": str(b), "k": str(k)})
            elif pair_nonreal:
                bound_ok = below_log_affine(k, 10, max(qn, 2), 0)
                frec["bound_ok"] = bound_ok
                if not bound_ok:
                    if k >= 50:
                        violations += 1
                        grade = "assertion"
                    else:
                        grade = "informational"
                    discrepancies.append({
                        "grade": grade, "check": "zero-bound-nonreal",
                        "a": str(a), "b": str(b), "k": str(k)})
            if not (found_ok and unique_ok):
                violations += 1
                discrepancies.append({
                    "grade": "assertion", "check": "zero-family",
                    "a": str(a), "b": str(b), "k": str(k)})
            family.append(frec)

    return {"records": records, "family": family,
            "discrepancies": discrepancies, "violations": violations}


def run_sweep(config: SweepConfig) -> tuple[dict, int]:
    """Execute the sweep; returns (report, assertion_violation_count)."""
    config.validate()
    jobs = [(a, b, config)
            for a in range(config.a_range[0], config.a_range[1] + 1)
            for b in range(config.b_range[0], config.b_range[1] + 1)]
    if config.parallelism > 1 and len(jobs) > 1:
        with multiprocessing.Pool(config.parallelism) as pool:
            results = pool.map(_process_pair, jobs, chunksize=8)
    else:
        results = [_process_pair(j) for j in jobs]

    records = [r for res in results for r in res["records"]]
    family = [f for res in results for f in res["family"]]
    discrepancies = [d for res in results for d in res["discrepancies"]]
    violations = sum(res["violations"] for res in results)

    kinds = {"real": 0, "non-real": 0, "degenerate": 0}
    for rec in records:
        label = rec["class"]
        kinds["degenerate" if label.startswith("degenerate") else label] += 1
    informational = sum(1 for d in discrepancies if d["grade"] == "informational")

    report = {
        "meta": {"version": __version__, "config": config.meta()},
        "records": records,
        "zero_family": family,
        "summary": {
            "records": str(len(records)),
            "real": str(kinds["real"]),
            "non_real": str(kinds["non-real"]),
            "degenerate": str(kinds["degenerate"]),
            "zero_family_instances": str(len(family)),
            "violations": str(violations),
            "informational": str(informational),
        },
        "discrepancies": discrepancies,
    }
    return report, violations


# -- serialization -----------------------------------------------------------

def render_json(report: dict) -> str:
    return json.dumps(report, indent=1) + "\n"


def _csv_row(rec: dict) -> list[str]:
    z = rec.get("zero", {})
    g = rec.get("growth", {})
    h = rec.get("height") or {}

    def opt(d, key):
        v = d.get(key)
        if v is None:
            return ""
        if isinstance(v, bool):
            return "true" if v else "false"
        return str(v)

    return [
        rec["params"]["a"], rec["params"]["b"], rec["params"]["p"],
        rec["params"]["q"], rec["class"],
        opt(z, "kind"), opt(z, "k"), opt(z, "searched"), opt(z, "conclusive"),
        opt(z, "assumes_c4"), opt(z, "modulus"),
        "|".join(z.get("residues", [])), opt(z, "start"),
        opt(z, "oracle_agree"),
        opt(g, "branch"), opt(g, "case"), opt(g, "n_min"),
        opt(g, "first_violation"),
        opt(g, "empirical_threshold"), opt(g, "formula_threshold"),
        opt(g, "lucas_ok"), opt(h, "h"), opt(h, "reciprocal_ok"),
        opt(h, "sandwich_ok"),
        "|".join(rec.get("flags", [])),
    ]


def render_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for rec in report["records"]:
        writer.writerow(_csv_row(rec))
    return buf.getvalue()


def parse_csv(text: str) -> list[dict]:
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows or rows[0] != CSV_HEADER:
        raise ValueError("unrecognized report header")
    return [dict(zip(CSV_HEADER, row)) for row in rows[1:]]


def reserialize_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow([row[k] for k in CSV_HEADER])
    return buf.getvalue()


def write_report(report: dict, path: str, fmt: str) -> None:
    text = render_json(report) if fmt == "json" else render_csv(report)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)
