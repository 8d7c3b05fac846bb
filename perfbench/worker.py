"""One benchmark round in a fresh interpreter; run.py starts it.

    python3 perfbench/worker.py --mode MODE --workload NAME --seed N [--check 1]

Modes:
  setup     import brigkit and build the inputs, then stop where the first
            op would start;
  e2e       run every op once with tracing off;
  traced    the same with the per-layer wrappers installed;
  parallel  run the whole sweep box at 2 workers and then at 1, and compare
            the report bytes.

The last line of standard output is one JSON object.  "first_op" is the
time.monotonic() reading just before the first op, which run.py subtracts
from its own reading taken before starting this process.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import brigkit.sweep  # noqa: E402  (the package does not import its sweep module)
import tracing  # noqa: E402
import workloads  # noqa: E402


def run_ops(work, keep: bool) -> dict:
    """Run every op once.  Outputs are hashed as they come; they are kept for
    the checkers only if `keep`, so that unchecked rounds hold nothing."""
    latencies, kept, errors = [], [], []
    start = end = time.perf_counter()
    for i, (label, op) in enumerate(work.ops):
        t0 = time.perf_counter()
        try:
            out = op()
        except Exception as exc:  # a failed op is counted, the round goes on
            end = time.perf_counter()
            latencies.append(end - t0)
            kept.append(None)
            errors.append(f"{label}: {exc!r}")
            continue
        end = time.perf_counter()
        latencies.append(end - t0)
        out = work.keep(i, out)
        kept.append(out if keep else None)
    return {"wall_s": end - start, "latencies": latencies, "kept": kept,
            "errors": errors}


def logbounds_caches() -> list:
    return [fn for fn in vars(brigkit.logbounds).values() if hasattr(fn, "cache_info")]


def layer_metrics(tracer, work, caches) -> dict:
    summary = tracer.summary()
    m = {}
    for name, st in summary.items():
        m[f"{name}.self_s"] = st["self_s"]
        m[f"{name}.calls"] = st["calls"]
    c = tracer.counters
    m["kernels.zero_scan.steps"] = c["kernels.zero_scan.steps"]
    m["kernels.real_growth_scan.steps"] = c["kernels.real_growth_scan.steps"]
    m["kernels.term_at.out_bits"] = c["kernels.term_at.out_bits"]
    m["sweep.brute_force_zero_oracle.steps"] = c["sweep.brute_force_zero_oracle.steps"]
    m["sweep.report_bytes"] = c["sweep.render_json.bytes"]
    scan = c["kernels.zero_scan.steps"]
    m["sweep.oracle_to_scan_steps"] = c["sweep.brute_force_zero_oracle.steps"] / scan if scan else 0.0
    m["core.classify.calls_per_point"] = summary["core.classify"]["calls"] / work.points
    hits = misses = 0
    for fn in caches:
        info = fn.cache_info()
        hits, misses = hits + info.hits, misses + info.misses
    m["logbounds.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["trace.overhead_s"] = len(tracer.span_start) * tracing.span_cost()
    return m


def parallel(work) -> dict:
    """Whole-box wall time at 1 worker over that at 2, and byte equality.

    The 2-worker run goes first: its forked workers fill only their own
    logbounds caches, so the 1-worker run after it still starts cold.
    """
    times, texts = {}, {}
    for jobs in (2, 1):
        t0 = time.perf_counter()
        report, _ = brigkit.sweep.run_sweep(work.whole_box(jobs))
        texts[jobs] = brigkit.sweep.render_json(report)
        times[jobs] = time.perf_counter() - t0
    return {"speedup": times[1] / times[2], "wall_1": times[1], "wall_2": times[2],
            "bytes_equal": texts[1] == texts[2]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "e2e", "traced", "parallel"), required=True)
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--check", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if Path(brigkit.__file__).resolve().parent != ROOT / "src" / "brigkit":
        raise SystemExit(f"brigkit imported from {brigkit.__file__}, not from this checkout")

    work = workloads.make(args.workload, args.seed, brigkit)
    out = {"backend": brigkit.kernels.backend_name(), "ops": len(work.ops)}
    if args.mode == "setup":
        out["first_op"] = time.monotonic()
    elif args.mode == "parallel":
        out.update(parallel(work))
    else:
        tracer = None
        if args.mode == "traced":
            caches = logbounds_caches()  # before the wrappers hide them
            tracer = tracing.Tracer()
            tracer.install(brigkit)
        out["first_op"] = time.monotonic()
        res = run_ops(work, keep=bool(args.check))
        out["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out.update(wall_s=res["wall_s"], latencies=res["latencies"],
                   failed=len(res["errors"]), errors=res["errors"][:10],
                   digest=work.digest())
        if tracer is not None:
            out["layers"] = layer_metrics(tracer, work, caches)
        if args.check:
            problems = work.check(res["kept"])
            out["problems"] = problems[:20]
            out["n_problems"] = len(problems)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
