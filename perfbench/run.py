"""brigkit benchmark: one workload, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  NAME is zeros-sweep, growth-sweep,
big-queries, or "all" for every workload in turn.  Every round runs in a
fresh interpreter (perfbench/worker.py) with one sweep worker, so the
logbounds caches start cold as on every CLI call.

--trace 0 measures the end-to-end metrics: it runs whole rounds of the
workload's ops, as many as fit in about S seconds but at least three,
checks every output of the first round with the independent checkers and
that later rounds produced the same outputs, and reports medians.  --trace 1
runs one untraced and one traced round, whose outputs must agree (plus, for
the sweeps, the whole box at 2 and at 1 workers), and reports the per-layer
metrics.

Metric names and units come from BENCHMARK.json.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("zeros-sweep", "growth-sweep", "big-queries")
SWEEPS = ("zeros-sweep", "growth-sweep")
SETUP_SAMPLES = 30       # setup_s is the median of this many process starts
MIN_ROUNDS = 3           # so that every median can drop one disturbed round
WORKER_TIMEOUT_S = 170
RUN_BUDGET_S = 140       # rounds beyond this estimated total are not started


class BenchError(RuntimeError):
    pass


def spawn(mode: str, workload: str, seed: int, check: bool = False) -> dict:
    """Run one worker process to completion and return its JSON result."""
    env = dict(os.environ)
    env.pop("BRIGKIT_THREADS", None)   # would override parallelism = 1
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed),
           "--check", "1" if check else "0"]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker for {workload} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} exited "
                         f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if "first_op" in result:
        result["setup_s"] = result["first_op"] - started
    return result


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run_end_to_end(workload: str, seed: int, seconds: int) -> dict:
    spawn("setup", workload, seed)  # fills the bytecode caches; not measured
    first = spawn("e2e", workload, seed, check=True)
    rounds, setups = [first], [first["setup_s"]]
    wanted = max(MIN_ROUNDS, round(seconds / first["wall_s"]))
    per_round = first["wall_s"] + first["setup_s"]
    while True:
        # set-up samples go between the rounds, so that a burst of outside
        # load during the run reaches only some of them
        while len(setups) < SETUP_SAMPLES * len(rounds) / wanted:
            setups.append(spawn("setup", workload, seed)["setup_s"])
        if len(rounds) >= wanted:
            break
        if sum(r["wall_s"] + r["setup_s"] for r in rounds) + per_round > RUN_BUDGET_S:
            break
        rounds.append(spawn("e2e", workload, seed))
        setups.append(rounds[-1]["setup_s"])
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn("setup", workload, seed)["setup_s"])

    problems = list(first["problems"])
    if any(r["digest"] != first["digest"] for r in rounds):
        problems.append("rounds with the same seed produced different outputs")
    # each op's median over the rounds, so a burst of load on the machine
    # during one round does not move the percentiles
    latencies = [statistics.median(op) for op in zip(*(r["latencies"] for r in rounds))]
    return {
        "backend": first["backend"],
        "rounds": len(rounds),
        "problems": problems,
        "errors": [e for r in rounds for e in r["errors"]],
        "attempted": sum(r["ops"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "op_p50_ms": 1000 * statistics.median(latencies),
            "op_p90_ms": 1000 * percentile(latencies, 90),
            "setup_s": statistics.median(setups),
            # the checked first round keeps its outputs for the checkers;
            # the others keep nothing, so their peak is brigkit's own
            "peak_rss_mib": statistics.median(r["rss_kib"] for r in rounds[1:]) / 1024,
        },
    }


def run_traced(workload: str, seed: int) -> dict:
    spawn("setup", workload, seed)
    base = spawn("e2e", workload, seed)
    traced = spawn("traced", workload, seed, check=True)
    problems = list(traced["problems"])
    if traced["digest"] != base["digest"]:
        problems.append("traced and untraced rounds produced different outputs")
    metrics = dict(traced["layers"])
    metrics["sweep.parallel_speedup"] = 0.0  # no sweep in big-queries
    if workload in SWEEPS:
        par = spawn("parallel", workload, seed)
        metrics["sweep.parallel_speedup"] = par["speedup"]
        if not par["bytes_equal"]:
            problems.append("whole-box report bytes differ between 1 and 2 workers")
    return {
        "backend": traced["backend"],
        "rounds": 2,
        "problems": problems,
        "errors": base["errors"] + traced["errors"],
        "attempted": base["ops"] + traced["ops"],
        "failed": base["failed"] + traced["failed"],
        "metrics": metrics,
    }


def select(measured: dict, specs: list[dict]) -> dict:
    out = {}
    for spec in specs:
        if spec["name"] not in measured:
            raise BenchError(f"metric {spec['name']} was not measured")
        out[spec["name"]] = {"value": measured[spec["name"]], "unit": spec["unit"]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=NAMES + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "brigkit" / "__init__.py").is_file():
        print(f"error: no brigkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]

    names = NAMES if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            res = (run_traced(name, args.seed) if args.trace
                   else run_end_to_end(name, args.seed, args.seconds))
            metrics = select(res["metrics"], specs)
            print(f"[{name}] backend={res['backend']} rounds={res['rounds']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            for key, m in metrics.items():
                print(f"[{name}] {key} = {m['value']:.6g} {m['unit']}")
            for line in res["errors"][:10] + res["problems"][:20]:
                print(f"[{name}] problem: {line}")
            combined["correct"] = combined["correct"] and not res["problems"]
            combined["attempted"] += res["attempted"]
            combined["failed"] += res["failed"]
            prefix = f"{name}/" if len(names) > 1 else ""
            combined["metrics"].update({prefix + k: v for k, v in metrics.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
