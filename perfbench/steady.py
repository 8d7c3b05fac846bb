"""Steadiness of the benchmark: two alternating sets of runs of one workload.

    python3 perfbench/steady.py --workload NAME

Runs perfbench/run.py 2 * RUNS times for run_seconds of BENCHMARK.json,
alternating set A and set B, each run with its own seed (A: 1, 3, 5, ...;
B: 2, 4, 6, ...).  For every end-to-end
metric it prints each set's median and quartiles, the quartile spread as a
share of the median, and the difference between the two medians as a share
of set A's median, next to the metric's bound in BENCHMARK.json.  A metric
is steady when, in both sets, its spread stays under a third of its bound
and the medians differ by less than the bound.  The
failed-op share must be identical in the two sets.  All values are written
to .perfbench_out/steady-NAME.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run with seed {seed} failed:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def stats(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    sets = {"A": [], "B": []}
    for i in range(RUNS):
        for name, seed in (("A", 2 * i + 1), ("B", 2 * i + 2)):
            res = one_run(args.workload, seed, seconds)
            res["seed"] = seed
            sets[name].append(res)
            print(f"set {name} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} " +
                  " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()),
                  flush=True)

    steady = True
    shares = {name: sorted({r["failed"] / r["attempted"] for r in runs})
              for name, runs in sets.items()}
    if shares["A"] != shares["B"] or len(shares["A"]) != 1:
        steady = False
    if not all(r["correct"] for runs in sets.values() for r in runs):
        steady = False
    summary = {}
    print(f"\n{args.workload}: {RUNS} runs per set, failed share A={shares['A']} B={shares['B']}")
    print(f"{'metric':14} {'bound':>6} {'A median':>11} {'A q1..q3':>23} {'A sprd':>7} "
          f"{'B median':>11} {'B q1..q3':>23} {'B sprd':>7} {'B-A':>7}")
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        a = stats([r["metrics"][name]["value"] for r in sets["A"]])
        b = stats([r["metrics"][name]["value"] for r in sets["B"]])
        diff = (b["median"] - a["median"]) / a["median"]
        ok = abs(diff) <= bound and max(a["spread"], b["spread"]) < bound / 3
        steady = steady and ok
        summary[name] = {"bound": bound, "A": a, "B": b, "diff": diff, "steady": ok}
        print(f"{name:14} {bound:6.2f} {a['median']:11.5g} "
              f"{a['q1']:11.5g}..{a['q3']:<10.5g} {a['spread']:7.2%} "
              f"{b['median']:11.5g} {b['q1']:11.5g}..{b['q3']:<10.5g} "
              f"{b['spread']:7.2%} {diff:+7.2%}{'' if ok else '  NOT STEADY'}")
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"steady-{args.workload}.json").write_text(
        json.dumps({"workload": args.workload, "seconds": seconds,
                    "runs": sets, "summary": summary, "steady": steady}, indent=1))
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
