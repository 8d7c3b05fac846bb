"""Command-line interface.

Subcommands: classify, term, zeros, make-zero, growth, sweep.  Exit codes:
0 success, 1 usage or config error (and a sweep whose worker process died,
which writes no report), 2 internal invariant violation (a second zero in a
non-degenerate sequence: should never happen), 3 sweep assertion failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .core import DegenerateInputError, SequenceParams, classify
from .growth import (HeightBoundError, check_lucas_growth, check_nonreal_growth,
                     check_real_growth, check_sharp_growth,
                     empirical_nonreal_threshold, height_sandwich_check,
                     nonreal_threshold_formula, ratio_height,
                     DEFAULT_C_LUCAS_NONREAL, DEFAULT_C_NONREAL_THRESHOLD)
from .sweep import (FORMATS, SweepConfigError, config_from_dict, run_sweep,
                    write_report, zero_result_dict)
from .terms import term_fast
from .zeros import (AllZero, InvariantViolationError, NoZero, PeriodicZeros,
                    ZeroAt, ZeroTail, construct_zero_at, zero_family,
                    _find_zero, DEFAULT_C4)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the exit contract reserves 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_params(parser):
    parser.add_argument("--a", type=int, required=True, help="recurrence coefficient A")
    parser.add_argument("--b", type=int, required=True, help="recurrence coefficient B")
    parser.add_argument("--p", type=int, required=True, help="initial value u_0")
    parser.add_argument("--q", type=int, required=True, help="initial value u_1")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="brigkit",
                     description="exact toolkit for binary recurrence sequences "
                                 "u_n = A*u_(n-1) - B*u_(n-2)")
    parser.add_argument("--version", action="version",
                        version=f"brigkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_cls = sub.add_parser("classify", help="classify a sequence")
    _add_params(p_cls)
    p_cls.add_argument("--json", action="store_true")

    p_term = sub.add_parser("term", help="print u_n exactly")
    _add_params(p_term)
    p_term.add_argument("--n", type=int, required=True)
    p_term.add_argument("--json", action="store_true")

    p_zero = sub.add_parser("zeros", help="decide whether some u_k = 0")
    _add_params(p_zero)
    p_zero.add_argument("--c4", type=int, default=DEFAULT_C4,
                        help=f"assumed non-real small-index cutoff (default {DEFAULT_C4})")
    p_zero.add_argument("--json", action="store_true")

    p_mk = sub.add_parser("make-zero", help="initial values vanishing at index k")
    p_mk.add_argument("--a", type=int, required=True)
    p_mk.add_argument("--b", type=int, required=True)
    p_mk.add_argument("--k", type=int)
    p_mk.add_argument("--family", action="store_true",
                      help="print the whole family k = 2..kmax")
    p_mk.add_argument("--kmax", type=int, default=10)
    p_mk.add_argument("--json", action="store_true")

    p_gr = sub.add_parser("growth", help="verify a growth lower bound at index n")
    _add_params(p_gr)
    p_gr.add_argument("--n", type=int, required=True)
    p_gr.add_argument("--check", choices=["real", "nonreal", "sharp", "lucas", "height"],
                      required=True)
    p_gr.add_argument("--c1", type=str, default=None,
                      help="constant for the non-real Lucas bound (rational)")
    p_gr.add_argument("--c5", type=str, default=DEFAULT_C_NONREAL_THRESHOLD,
                      help="constant for the non-real threshold formula (rational)")
    p_gr.add_argument("--json", action="store_true")

    # Each flag's dest is a SweepConfig field; a flag left out keeps the
    # --config file's value, or else the dataclass default.
    p_sw = sub.add_parser("sweep", help="run grid sweeps and write a report")
    p_sw.add_argument("--config", type=str,
                      help="JSON config file keyed by field name; flags override it")
    p_sw.add_argument("--a-range", type=_parse_range, help="lo:hi inclusive")
    p_sw.add_argument("--b-range", type=_parse_range)
    p_sw.add_argument("--p-range", type=_parse_range)
    p_sw.add_argument("--q-range", type=_parse_range)
    p_sw.add_argument("--horizon", dest="n_horizon", type=int)
    p_sw.add_argument("--c4", type=int)
    p_sw.add_argument("--c5", type=str)
    p_sw.add_argument("--checks", type=lambda s: s.split(","),
                      help="comma list: zeros,growth,height,lucas,zero-family")
    p_sw.add_argument("--kmax", dest="zero_k_max", type=int)
    p_sw.add_argument("--jobs", dest="parallelism", type=int,
                      help="worker processes, at most one per (A, B) pair; the "
                           "report is the same at any count")
    p_sw.add_argument("--out", dest="output_path", type=str,
                      help="report path (default stdout)")
    p_sw.add_argument("--format", choices=FORMATS)
    return parser


def _params(args) -> SequenceParams:
    return SequenceParams(args.a, args.b, args.p, args.q)


def _zero_text(result) -> str:
    if isinstance(result, ZeroAt):
        return f"zero at k={result.k}"
    if isinstance(result, NoZero):
        if result.assumes_c4 is not None:
            return (f"no zero up to {result.searched_up_to}, conclusive "
                    f"assuming c4 <= {result.assumes_c4}")
        return f"no zero up to {result.searched_up_to}, conclusive"
    if isinstance(result, AllZero):
        return "all terms are zero"
    if isinstance(result, PeriodicZeros):
        rs = ",".join(str(r) for r in sorted(result.residues))
        return f"zeros at n = {rs} (mod {result.modulus})"
    if isinstance(result, ZeroTail):
        pre = (f" and at n = {','.join(str(r) for r in sorted(result.prefix))}"
               if result.prefix else "")
        return f"zeros at every n >= {result.start}{pre}"
    raise TypeError(result)


def _growth_json(report) -> dict:
    margins = [{"label": m.label, "sign": str(m.sign)} for m in report.margins]
    return {"n": str(report.n), "regime": report.regime,
            "applicable": report.applicable,
            "bound_holds": report.bound_holds,
            "threshold": None if report.threshold is None else str(report.threshold),
            "margins": margins}


def _emit(args, payload: dict, text: str) -> None:
    print(json.dumps(payload) if args.json else text)


def cmd_classify(args) -> int:
    cls = classify(_params(args))
    _emit(args, {"class": cls.label()}, cls.label())
    return 0


def cmd_term(args) -> int:
    value = term_fast(_params(args), args.n)
    _emit(args, {"n": str(args.n), "u_n": str(value)}, str(value))
    return 0


def cmd_zeros(args) -> int:
    result, bound = _find_zero(_params(args), args.c4)
    payload = zero_result_dict(result)
    text = _zero_text(result)
    # bound is None where no scan ran: degenerate, P = 0 or Q = 0
    if isinstance(result, ZeroAt) and bound is not None:
        payload["searched"] = str(bound.n_max)
        text += f" (searched up to {bound.n_max}, "
        text += ("conclusive)" if bound.c4 is None
                 else f"conclusive assuming c4 <= {bound.c4})")
    _emit(args, payload, text)
    return 0


def cmd_make_zero(args) -> int:
    if args.family:
        rows = zero_family(args.a, args.b, args.kmax)
        if args.json:
            print(json.dumps([{"k": str(k), "p": str(p), "q": str(q)}
                              for k, p, q in rows]))
        else:
            for k, p, q in rows:
                print(f"k={k} P={p} Q={q}")
        return 0
    if args.k is None:
        print("error: --k or --family required", file=sys.stderr)
        return 1
    p, q = construct_zero_at(args.a, args.b, args.k)
    _emit(args, {"k": str(args.k), "p": str(p), "q": str(q)}, f"P={p} Q={q}")
    return 0


def cmd_growth(args) -> int:
    params = _params(args)
    extra, suffix = {}, ""
    if args.check == "real":
        report = check_real_growth(params, args.n)
    elif args.check == "nonreal":
        report = check_nonreal_growth(params, args.n)
        emp = empirical_nonreal_threshold(params, max(args.n, 300))
        formula = nonreal_threshold_formula(params, Fraction(args.c5))
        extra = {"empirical_threshold": str(emp), "formula_threshold": str(formula)}
        suffix = f" (empirical threshold {emp}, formula threshold {formula})"
    elif args.check == "sharp":
        report = check_sharp_growth(params, args.n)
    elif args.check == "lucas":
        # the real case ignores the constant
        c1 = DEFAULT_C_LUCAS_NONREAL if args.c1 is None else Fraction(args.c1)
        report = check_lucas_growth(args.a, args.b, args.n, c1)
    else:  # height
        rh = ratio_height(params)
        try:
            sandwich = height_sandwich_check(params)
            verdict = f"sandwich {'holds' if sandwich else 'FAILS'}"
        except DegenerateInputError:
            sandwich, verdict = None, "|b/a| = 1 (non-real)"
        payload = {"h": str(rh.height), "coeffs": [str(c) for c in rh.coeffs],
                   "linear": rh.linear, "sandwich_ok": sandwich}
        _emit(args, payload, f"H={rh.height}, poly={rh.coeffs}, {verdict}")
        return 0
    _emit(args, {**_growth_json(report), **extra}, _growth_text(report) + suffix)
    return 0


def _growth_text(report) -> str:
    if not report.applicable:
        t = "" if report.threshold is None else f" (threshold {report.threshold})"
        return f"{report.regime}: not applicable at n={report.n}{t}"
    return f"{report.regime}: holds={report.bound_holds} at n={report.n}"


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    return int(lo), int(hi)


def cmd_sweep(args) -> int:
    flags = {k: v for k, v in vars(args).items()
             if v is not None and k not in ("command", "config")}
    try:
        data = {}
        if args.config:
            with open(args.config) as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise SweepConfigError("the config file must hold a JSON object")
        cfg = config_from_dict({**data, **flags})
        # a missing directory fails now, not after the whole sweep
        out_dir = os.path.dirname(cfg.output_path or "") or "."
        if not os.path.isdir(out_dir):
            raise SweepConfigError(f"output directory {out_dir} does not exist")
    except (SweepConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    from concurrent.futures import BrokenExecutor
    try:
        report, violations = run_sweep(cfg)
    except BrokenExecutor as exc:  # a worker process died
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if cfg.output_path:
        try:
            write_report(report, cfg.output_path, cfg.format)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {cfg.output_path}: {report['summary']['records']} records, "
              f"{violations} violations")
    else:
        sys.stdout.write(FORMATS[cfg.format](report))
    return 3 if violations else 0


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(2_000_000_000)  # terms have ~n*log10(alpha) digits
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        handler = {
            "classify": cmd_classify, "term": cmd_term, "zeros": cmd_zeros,
            "make-zero": cmd_make_zero, "growth": cmd_growth, "sweep": cmd_sweep,
        }[args.command]
        return handler(args)
    except (InvariantViolationError, HeightBoundError) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 2
    except (DegenerateInputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
