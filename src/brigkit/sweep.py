"""Grid sweep harness: runs every checker over parameter boxes and emits a
deterministic machine-readable report.

Work is split by (A, B) pair; results are merged in grid order, so the
report is byte-identical for any parallelism setting.  Reports carry no
timestamps and serialize every integer as a decimal string (terms grow
exponentially and would overflow 64-bit JSON consumers).  A JSON report is
the bytes of json.dumps(report, indent=1) plus a newline, written by
render_json without json's pure-Python encoder (which indent would force).

Every failure is one discrepancy, and the sweep's violation count is the
number of assertion-grade ones, which flip the exit status: a proved bound
failing, an oracle mismatch, a failed height reciprocity, sandwich or bound
check (these carry a, b, p and q), or a pair whose checkers raise, which is
reported as an "internal-error" while the sweep goes on with the other
pairs.  Informational discrepancies are small-k zero-bound excursions in the
non-real case and zeros beyond a search bound that assumed a too-small c4.
A growth threshold beyond the horizon is no discrepancy at all, only the
record flag "growth-threshold-beyond-horizon".

Every zero verdict is refereed by brute_force_zero_oracle from
brigkit.referee, which imports nothing from brigkit (see that module for
its table and screen).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import sys
from dataclasses import MISSING, dataclass, fields
from fractions import Fraction

from . import __version__, kernels
from .core import Kind, SequenceParams, classify
from .growth import (empirical_nonreal_threshold, height_sandwich_check,
                     nonreal_threshold_formula, ratio_height, real_case_branch,
                     BranchKind, HeightBoundError, DEFAULT_C_NONREAL_THRESHOLD)
from .referee import _MAX_HORIZON, brute_force_zero_oracle
from .zeros import (AllZero, NoZero, PeriodicZeros, ZeroAt, ZeroTail,
                    construct_zero_at, find_zero, _formula_bound, DEFAULT_C4)

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
    c5: Fraction = DEFAULT_C_NONREAL_THRESHOLD
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
        # the growth and Lucas scans walk the recurrence up to n_horizon
        a_max, b_max = (max(map(abs, r)) for r in (self.a_range, self.b_range))
        try:
            kernels._refuse_huge(a_max, b_max, self.n_horizon)
        except ValueError as exc:
            raise SweepConfigError(f"n_horizon: {exc}") from exc
        if not 1 <= self.c4 <= kernels._MAX_SCAN:
            raise SweepConfigError(
                f"c4 must be in [1, {kernels._MAX_SCAN}], got {self.c4}")
        # an oracle horizon that cuts off the zeros it should see fakes
        # discrepancies, and one past the oracle's limit fails every pair;
        # a non-real point's oracle horizon is its search bound, at least c4
        if "zeros" in self.checks and self.c4 > _MAX_HORIZON:
            raise SweepConfigError(f"c4 must be in [1, {_MAX_HORIZON}] with the "
                                   f"zeros check, got {self.c4}")
        if not 0 <= self.oracle_floor <= _MAX_HORIZON:
            raise SweepConfigError(f"oracle_floor must be in [0, {_MAX_HORIZON}], "
                                   f"got {self.oracle_floor}")
        if not self.zero_k_max <= self.uniqueness_horizon <= _MAX_HORIZON:
            raise SweepConfigError(
                f"uniqueness_horizon must be in [zero_k_max, {_MAX_HORIZON}], "
                f"got {self.uniqueness_horizon} with zero_k_max {self.zero_k_max}")
        if self.parallelism < 1:
            raise SweepConfigError("parallelism must be >= 1")
        if self.format not in FORMATS:
            raise SweepConfigError(f"unknown format {self.format!r}")
        unknown = set(self.checks) - set(ALL_CHECKS)
        if unknown:
            raise SweepConfigError(f"unknown checks: {sorted(unknown)}")

    def meta(self) -> dict:
        """The settings the report's content depends on, as strings."""
        values = {f.name: getattr(self, f.name) for f in fields(self)
                  if f.name not in _RUN_ONLY}
        return {k: [str(x) for x in v] if isinstance(v, tuple) else str(v)
                for k, v in values.items()}


# Settings that steer how and where a sweep runs but not what it finds; the
# report's meta leaves them out, so its bytes do not depend on them.
_RUN_ONLY = ("parallelism", "output_path", "format")

# How a JSON value becomes each field's value, keyed by the field's
# annotation; a field whose annotation is missing here fails at import.
_FROM_JSON = {
    "tuple[int, int]": lambda v: (int(v[0]), int(v[1])),
    "int": int,
    "Fraction": lambda v: Fraction(str(v)),
    "str": str,
    "str | None": lambda v: None if v is None else str(v),
    "tuple[str, ...]": tuple,
}
_PARSE = {f.name: _FROM_JSON[f.type] for f in fields(SweepConfig)}


def config_from_dict(data: dict) -> SweepConfig:
    """A validated SweepConfig from JSON values keyed by field name.  Absent
    keys take the dataclass defaults; a key that names no field is an error,
    so a misspelt setting cannot fall back to its default unnoticed."""
    unknown = sorted(set(data) - set(_PARSE))
    if unknown:
        raise SweepConfigError(f"unknown config keys: {', '.join(unknown)}")
    missing = [f.name for f in fields(SweepConfig)
               if f.default is MISSING and f.name not in data]
    if missing:
        raise SweepConfigError(f"missing {', '.join(missing)}")
    try:
        cfg = SweepConfig(**{k: parse(data[k]) for k, parse in _PARSE.items()
                             if k in data})
    except (LookupError, TypeError, ValueError) as exc:
        raise SweepConfigError(f"bad sweep config: {exc}") from exc
    cfg.validate()
    return cfg


def _expected_zero_set(result, horizon: int) -> list[int]:
    """The indices in [0, horizon] at which result says u_n = 0, ascending."""
    if isinstance(result, ZeroAt):
        return [result.k] if result.k <= horizon else []
    if isinstance(result, NoZero):
        return []
    if isinstance(result, AllZero):
        return list(range(horizon + 1))
    if isinstance(result, PeriodicZeros):
        # the whole periods below top interleave one step range per residue;
        # the partial period from top on follows
        step = result.modulus
        residues = sorted(r for r in result.residues if 0 <= r < step)
        top = (horizon + 1) // step * step
        out = [0] * (top // step * len(residues))
        for j, r in enumerate(residues):
            out[j::len(residues)] = range(r, top, step)
        out.extend(top + r for r in residues if top + r <= horizon)
        return out
    if isinstance(result, ZeroTail):
        start = max(result.start, 0)
        cut = min(start, horizon + 1)
        return (sorted(n for n in result.prefix if 0 <= n < cut)
                + list(range(start, horizon + 1)))
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


def _finding(grade: str, check: str, a: int, b: int, **where) -> dict:
    """One discrepancy: where a check failed, every value a string."""
    return {"grade": grade, "check": check, "a": str(a), "b": str(b),
            **{k: str(v) for k, v in where.items()}}


def _process_pair(job) -> dict:
    """All records and findings for one (A, B) pair (runs in a worker).

    An exception inside the checkers becomes one assertion-grade
    internal-error discrepancy for the pair, which then contributes no
    records; its traceback goes to stderr.  One crashing pair does not lose
    the sweep.
    """
    try:
        return _check_pair(job)
    except Exception as exc:
        import traceback  # only a crashing pair pays for this import
        a, b, _ = job
        sys.stderr.write(f"internal error in pair ({a}, {b}):\n"
                         f"{traceback.format_exc()}")
        return {"records": [], "family": [], "discrepancies": [_finding(
            "assertion", "internal-error", a, b,
            error=f"{type(exc).__name__}: {exc}")]}


def _check_pair(job) -> dict:
    """Runs the configured checks over one (A, B) pair.  Each _check_*
    function returns its record fragment, appends to the point's `flags`,
    and appends its discrepancies to `found`, in report order."""
    a, b, cfg = job
    found: list[dict] = []
    pair_cls = classify(SequenceParams(a, b, 0, 1))
    lucas_ok = None
    if "lucas" in cfg.checks and pair_cls.kind is Kind.REAL:
        lucas_ok = _check_lucas(a, b, cfg, found)

    records = []
    for p in range(cfg.p_range[0], cfg.p_range[1] + 1):
        for q in range(cfg.q_range[0], cfg.q_range[1] + 1):
            params = SequenceParams(a, b, p, q)
            cls = classify(params)
            rec = {"params": {"a": str(a), "b": str(b), "p": str(p), "q": str(q)},
                   "class": cls.label()}
            flags: list[str] = []
            if "zeros" in cfg.checks:
                rec["zero"] = _check_zeros(params, cfg, flags, found)
            growth = {}
            if "growth" in cfg.checks and not cls.is_degenerate:
                growth = _check_growth(params, cls, cfg, flags, found)
            if "lucas" in cfg.checks:
                growth["lucas_ok"] = lucas_ok
            rec["growth"] = growth
            if "height" in cfg.checks:
                rec["height"] = ({} if cls.is_degenerate
                                 else _check_height(params, cls, flags, found))
            rec["flags"] = flags
            records.append(rec)

    family = []
    if "zero-family" in cfg.checks and not pair_cls.is_degenerate:
        family = _check_zero_family(a, b, pair_cls, cfg, found)
    return {"records": records, "family": family, "discrepancies": found}


def _check_lucas(a: int, b: int, cfg: SweepConfig, found: list) -> bool:
    """The first-kind Lucas floor for a real (A, B) pair up to the horizon."""
    first_bad = kernels.lucas_growth_scan(abs(a), b, 2, cfg.n_horizon)
    if first_bad != -1:
        found.append(_finding("assertion", "lucas-growth", a, b, n=first_bad))
    return first_bad == -1


def _check_zeros(params, cfg: SweepConfig, flags: list, found: list) -> dict:
    """find_zero's verdict against the brute-force oracle."""
    result = find_zero(params, cfg.c4)
    horizon = cfg.oracle_floor
    if isinstance(result, NoZero):
        horizon = max(horizon, result.searched_up_to)
    oracle = brute_force_zero_oracle(params, horizon)
    agree = oracle == _expected_zero_set(result, horizon)
    zd = zero_result_dict(result)
    zd["oracle_agree"] = agree
    if not agree:
        # a zero strictly beyond a conditional (c4-assuming) search bound
        # falsifies the assumption, not the procedure
        conditional = (isinstance(result, NoZero)
                       and result.assumes_c4 is not None
                       and all(k > result.searched_up_to for k in oracle))
        flags.append("zero-oracle-mismatch")
        found.append(_finding("informational" if conditional else "assertion",
                              "zero-oracle", params.A, params.B,
                              p=params.P, q=params.Q))
    return zd


def _check_growth(params, cls, cfg: SweepConfig, flags: list, found: list) -> dict:
    """The real growth floor (by branch) or the non-real threshold scan."""
    a, b, p, q = params.A, params.B, params.P, params.Q
    growth: dict = {}
    if cls.kind is Kind.REAL and p != 0 and q != 0:
        branch = real_case_branch(params)
        growth["branch"] = branch.kind.value
        growth["case"] = branch.case.value
        growth["n_min"] = str(branch.n_min)
        growth["first_violation"] = None
        if branch.n_min > cfg.n_horizon:
            flags.append("growth-threshold-beyond-horizon")
            return growth
        # A < 0 flips to (-A, B, P, -Q); |u_n| is unchanged
        bad = kernels.real_growth_scan(abs(a), b, p, -q if a < 0 else q, branch.n_min,
                                       cfg.n_horizon, branch.kind is BranchKind.FAR)
        if bad != -1:
            growth["first_violation"] = str(bad)
            flags.append("real-growth-violation")
            found.append(_finding("assertion", "real-growth", a, b, p=p, q=q, n=bad))
    elif cls.kind is Kind.NONREAL:
        emp = empirical_nonreal_threshold(params, cfg.n_horizon)
        growth["empirical_threshold"] = str(emp)
        growth["formula_threshold"] = str(nonreal_threshold_formula(params, cfg.c5))
        if emp > cfg.n_horizon:
            flags.append("nonreal-growth-unstable")
            found.append(_finding("assertion", "nonreal-growth", a, b, p=p, q=q,
                                  n=cfg.n_horizon))
    return growth


def _check_height(params, cls, flags: list, found: list) -> dict:
    """Ratio height, its reciprocity and (real case) the sandwich."""
    height: dict = {}
    failed = []
    try:
        rh = ratio_height(params)
        height["h"] = str(rh.height)
        height["reciprocal_ok"] = rh.linear or rh.coeffs[0] == rh.coeffs[2]
        if not height["reciprocal_ok"]:
            failed.append("height-reciprocity")
        if cls.kind is Kind.REAL:
            height["sandwich_ok"] = height_sandwich_check(params)
            if not height["sandwich_ok"]:
                failed.append("height-sandwich")
    except HeightBoundError:
        failed.append("height-bound")
    for check in failed:
        flags.append(check)
        found.append(_finding("assertion", check, params.A, params.B,
                              p=params.P, q=params.Q))
    return height


def _check_zero_family(a: int, b: int, pair_cls, cfg: SweepConfig,
                       found: list) -> list[dict]:
    """Zero-at-k instances for k = 2..zero_k_max: found index, uniqueness up
    to uniqueness_horizon, and the logarithmic index bound."""
    family = []
    real = pair_cls.kind is Kind.REAL
    for k in range(2, cfg.zero_k_max + 1):
        cp, cq = construct_zero_at(a, b, k)
        cparams = SequenceParams(a, b, cp, cq)
        frec = {"a": str(a), "b": str(b), "k": str(k), "p": str(cp), "q": str(cq)}
        result = find_zero(cparams, cfg.c4)
        frec["found_ok"] = isinstance(result, ZeroAt) and result.k == k
        frec["unique_ok"] = brute_force_zero_oracle(cparams, cfg.uniqueness_horizon) == [k]
        qn, bound = _formula_bound(cparams, real)
        frec["q_normalized"] = str(qn)
        frec["bound_ok"] = k < bound
        if not frec["bound_ok"]:
            if real:
                found.append(_finding("assertion", "zero-bound-real", a, b, k=k))
            else:
                found.append(_finding("assertion" if k >= 50 else "informational",
                                      "zero-bound-nonreal", a, b, k=k))
        if not (frec["found_ok"] and frec["unique_ok"]):
            found.append(_finding("assertion", "zero-family", a, b, k=k))
        family.append(frec)
    return family


def run_sweep(config: SweepConfig) -> tuple[dict, int]:
    """Execute the sweep; returns (report, number of assertion-grade
    discrepancies).  A worker process that dies raises BrokenProcessPool."""
    config.validate()
    jobs = [(a, b, config)
            for a in range(config.a_range[0], config.a_range[1] + 1)
            for b in range(config.b_range[0], config.b_range[1] + 1)]
    workers = min(config.parallelism, len(jobs))
    if workers > 1:
        # imported here, so a serial sweep does not pay for it; unlike
        # multiprocessing.Pool, the executor notices a worker that dies
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(workers) as pool:
            results = list(pool.map(_process_pair, jobs, chunksize=8))
    else:
        results = [_process_pair(j) for j in jobs]

    records = [r for res in results for r in res["records"]]
    family = [f for res in results for f in res["family"]]
    discrepancies = [d for res in results for d in res["discrepancies"]]
    violations = sum(1 for d in discrepancies if d["grade"] == "assertion")
    informational = sum(1 for d in discrepancies if d["grade"] == "informational")

    kinds = {"real": 0, "non-real": 0, "degenerate": 0}
    for rec in records:
        label = rec["class"]
        kinds["degenerate" if label.startswith("degenerate") else label] += 1

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

_quote = json.encoder.encode_basestring_ascii


def render_json(report: dict) -> str:
    """The bytes of json.dumps(report, indent=1) plus a newline.

    json.dumps takes its pure-Python encoder whenever indent is set, so the
    report is written here instead, into one StringIO.  A report holds only
    str, bool, None, list and dict with str keys; any other value (int,
    float, tuple) raises TypeError rather than being coerced.
    """
    buf = io.StringIO()
    _write_json(buf.write, report, "\n")
    buf.write("\n")
    return buf.getvalue()


def _write_json(write, obj, nl: str) -> None:
    """Writes obj, whose closing bracket goes after nl (newline + indent)."""
    kind = type(obj)
    if kind is str:
        write(_quote(obj))
    elif obj is True:
        write("true")
    elif obj is False:
        write("false")
    elif obj is None:
        write("null")
    elif kind is dict:
        if not obj:
            write("{}")
            return
        inner = nl + " "
        sep = "{" + inner
        for key, value in obj.items():
            if type(value) is str:         # most values: no recursion
                write(f"{sep}{_quote(key)}: {_quote(value)}")
            else:                          # _quote raises on a non-str key
                write(f"{sep}{_quote(key)}: ")
                _write_json(write, value, inner)
            sep = "," + inner
        write(nl + "}")
    elif kind is list:
        if not obj:
            write("[]")
            return
        inner = nl + " "
        sep = "[" + inner
        for value in obj:
            if type(value) is str:
                write(sep + _quote(value))
            else:
                write(sep)
                _write_json(write, value, inner)
            sep = "," + inner
        write(nl + "]")
    else:
        raise TypeError(f"report values must be str, bool, None, list or "
                        f"dict, not {kind.__name__}")


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


FORMATS = {"json": render_json, "csv": render_csv}


def write_report(report: dict, path: str, fmt: str) -> None:
    """Writes the report to path + ".tmp" and renames it to path; on an
    OSError the .tmp file is removed and the error raised."""
    text = FORMATS[fmt](report)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
