"""Command-line interface.

Subcommands: classify, term, zeros, make-zero, growth, sweep.  Exit codes:
0 success, 1 usage or config error, 2 internal invariant violation (a
second zero in a non-degenerate sequence: should never happen), 3 sweep
assertion failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .core import DegenerateInputError, SequenceParams, classify
from .growth import (HeightBoundError, check_lucas_growth, check_nonreal_growth,
                     check_real_growth, check_sharp_growth,
                     empirical_nonreal_threshold, height_sandwich_check,
                     nonreal_threshold_formula, ratio_height,
                     DEFAULT_C_LUCAS_NONREAL)
from .sweep import (SweepConfig, SweepConfigError, config_from_dict,
                    render_csv, render_json, run_sweep, write_report,
                    zero_result_dict)
from .terms import term_fast, term_iter
from .zeros import (AllZero, InvariantViolationError, NoZero, PeriodicZeros,
                    ZeroAt, ZeroTail, construct_zero_at, find_zero,
                    zero_family, zero_search_bound, DEFAULT_C4)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the exit contract reserves 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_params(parser, required=True):
    parser.add_argument("--a", type=int, required=required, help="recurrence coefficient A")
    parser.add_argument("--b", type=int, required=required, help="recurrence coefficient B")
    parser.add_argument("--p", type=int, required=required, help="initial value u_0")
    parser.add_argument("--q", type=int, required=required, help="initial value u_1")


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
    path = p_term.add_mutually_exclusive_group()
    path.add_argument("--fast", action="store_true", help="doubling path (default)")
    path.add_argument("--iter", action="store_true", help="iterative path")
    p_term.add_argument("--json", action="store_true")

    p_zero = sub.add_parser("zeros", help="decide whether some u_k = 0")
    _add_params(p_zero)
    p_zero.add_argument("--c4", type=int, default=DEFAULT_C4,
                        help="assumed non-real small-index cutoff (default 10000)")
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
    p_gr.add_argument("--c5", type=str, default="50",
                      help="constant for the non-real threshold formula (rational)")
    p_gr.add_argument("--json", action="store_true")

    p_sw = sub.add_parser("sweep", help="run grid sweeps and write a report")
    p_sw.add_argument("--config", type=str, help="JSON config file")
    p_sw.add_argument("--a-range", type=str, help="lo:hi inclusive")
    p_sw.add_argument("--b-range", type=str)
    p_sw.add_argument("--p-range", type=str)
    p_sw.add_argument("--q-range", type=str)
    p_sw.add_argument("--horizon", type=int, default=200)
    p_sw.add_argument("--c4", type=int, default=DEFAULT_C4)
    p_sw.add_argument("--c5", type=str, default="50")
    p_sw.add_argument("--checks", type=str,
                      help="comma list: zeros,growth,height,lucas,zero-family")
    p_sw.add_argument("--kmax", type=int, default=25)
    p_sw.add_argument("--jobs", type=int, default=1,
                      help="worker processes; the report is the same at any "
                           "count (with --config, its parallelism key)")
    p_sw.add_argument("--out", type=str, help="report path (default stdout)")
    p_sw.add_argument("--format", choices=["json", "csv"], default="json")
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
        word = "conclusive" if result.conclusive else "inconclusive"
        return f"no zero up to {result.searched_up_to}, {word}"
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
    if args.n < 0:
        print("error: n must be non-negative", file=sys.stderr)
        return 1
    fn = term_iter if args.iter else term_fast
    value = fn(_params(args), args.n)
    _emit(args, {"n": str(args.n), "u_n": str(value)}, str(value))
    return 0


def cmd_zeros(args) -> int:
    params = _params(args)
    result = find_zero(params, args.c4)
    payload = zero_result_dict(result)
    text = _zero_text(result)
    if isinstance(result, ZeroAt) and not classify(params).is_degenerate:
        bound = zero_search_bound(params, args.c4)
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
    if args.check == "real":
        report = check_real_growth(params, args.n)
    elif args.check == "nonreal":
        report = check_nonreal_growth(params, args.n)
        emp = empirical_nonreal_threshold(params, max(args.n, 300))
        formula = nonreal_threshold_formula(params, Fraction(args.c5))
        extra = f" (empirical threshold {emp}, formula threshold {formula})"
        payload = _growth_json(report)
        payload["empirical_threshold"] = str(emp)
        payload["formula_threshold"] = str(formula)
        text = _growth_text(report) + extra
        _emit(args, payload, text)
        return 0
    elif args.check == "sharp":
        report = check_sharp_growth(params, args.n)
    elif args.check == "lucas":
        c1 = Fraction(args.c1) if args.c1 else None
        try:
            report = check_lucas_growth(args.a, args.b, args.n, c1)
        except DegenerateInputError as exc:
            if c1 is None and "c_nonreal" in str(exc):
                report = check_lucas_growth(args.a, args.b, args.n,
                                            DEFAULT_C_LUCAS_NONREAL)
            else:
                raise
    else:  # height
        rh = ratio_height(params)
        try:
            sandwich = height_sandwich_check(params)
            text = (f"H={rh.height}, poly={rh.coeffs}, "
                    f"sandwich {'holds' if sandwich else 'FAILS'}")
            payload = {"h": str(rh.height),
                       "coeffs": [str(c) for c in rh.coeffs],
                       "linear": rh.linear, "sandwich_ok": sandwich}
        except DegenerateInputError:
            text = f"H={rh.height}, poly={rh.coeffs}, |b/a| = 1 (non-real)"
            payload = {"h": str(rh.height),
                       "coeffs": [str(c) for c in rh.coeffs],
                       "linear": rh.linear, "sandwich_ok": None}
        _emit(args, payload, text)
        return 0
    _emit(args, _growth_json(report), _growth_text(report))
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
    try:
        if args.config:
            with open(args.config) as fh:
                data = json.load(fh)
            if args.out:
                data["output_path"] = args.out
            cfg = config_from_dict(data)
        else:
            missing = [n for n in ("a_range", "b_range", "p_range", "q_range")
                       if getattr(args, n) is None]
            if missing:
                print(f"error: missing {', '.join(m.replace('_', '-') for m in missing)}"
                      " (or use --config)", file=sys.stderr)
                return 1
            checks = tuple(args.checks.split(",")) if args.checks else None
            cfg = SweepConfig(
                a_range=_parse_range(args.a_range),
                b_range=_parse_range(args.b_range),
                p_range=_parse_range(args.p_range),
                q_range=_parse_range(args.q_range),
                n_horizon=args.horizon, c4=args.c4, c5=Fraction(args.c5),
                parallelism=args.jobs, output_path=args.out,
                format=args.format,
                **({"checks": checks} if checks else {}),
                zero_k_max=args.kmax,
            )
            cfg.validate()
    except (SweepConfigError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    report, violations = run_sweep(cfg)
    if cfg.output_path:
        write_report(report, cfg.output_path, cfg.format)
        print(f"wrote {cfg.output_path}: {report['summary']['records']} records, "
              f"{violations} violations")
    else:
        out = render_json(report) if cfg.format == "json" else render_csv(report)
        sys.stdout.write(out)
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
