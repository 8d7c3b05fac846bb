"""Per-layer tracing from outside the library.

Each traced function is replaced, at every name its callers look it up by,
with a wrapper that records a span (name, parent span, start, end) in
memory.  Self time is a span's duration minus the durations of its direct
child spans.  Counters (scan steps, output bits, report bytes) are taken at
the same boundaries from the call's arguments and result.  The tracer's own
cost is estimated as the number of spans times the measured extra cost of
one wrapped call (span_cost).
"""

from __future__ import annotations

import functools
import statistics
from array import array
from collections import defaultdict
from time import perf_counter


def _scan_steps(args, result):
    lo, hi = args[4], args[5]
    return max(0, hi - lo + 1)


def _growth_steps(args, result):
    lo, hi = args[4], args[5]
    return max(0, (hi if result == -1 else result) - lo + 1)


def _oracle_steps(args, result):
    return args[1] + 1


# (span name, owning module, [modules whose attribute the callers look up],
#  counter name or None, counter function or None).  Modules are given by
# their dotted name under brigkit.
TARGETS = [
    ("kernels.zero_scan", "kernels", ["kernels"], "steps", _scan_steps),
    ("kernels.real_growth_scan", "kernels", ["kernels"], "steps", _growth_steps),
    ("kernels.nonreal_growth_scan", "kernels", ["kernels"], None, None),
    ("kernels.lucas_growth_scan", "kernels", ["kernels"], None, None),
    ("kernels.lucas_u_pair", "kernels", ["kernels"], None, None),
    ("kernels.lucas_uv", "kernels", ["kernels"], None, None),
    ("kernels.term_at", "kernels", ["kernels"], "out_bits",
     lambda args, result: result.bit_length()),
    ("kernels.term_window", "kernels", ["kernels"], None, None),
    ("sweep.run_sweep", "sweep", ["sweep"], None, None),
    ("sweep.render_json", "sweep", ["sweep"], "bytes",
     lambda args, result: len(result)),
    ("sweep.brute_force_zero_oracle", "sweep", ["sweep"], "steps", _oracle_steps),
    ("zeros.find_zero", "zeros", ["zeros", "sweep"], None, None),
    ("zeros.zero_search_bound", "zeros", ["zeros"], None, None),
    ("zeros.construct_zero_at", "zeros", ["zeros", "sweep"], None, None),
    ("growth.real_case_branch", "growth", ["growth", "sweep"], None, None),
    ("growth.ratio_height", "growth", ["growth", "sweep"], None, None),
    ("growth.height_sandwich_check", "growth", ["growth", "sweep"], None, None),
    ("growth.nonreal_threshold_formula", "growth", ["growth", "sweep"], None, None),
    ("growth.empirical_nonreal_threshold", "growth", ["growth", "sweep"], None, None),
    ("growth.check_real_growth", "growth", ["growth"], None, None),
    ("growth.check_sharp_growth", "growth", ["growth"], None, None),
    ("growth.check_nonreal_growth", "growth", ["growth"], None, None),
    ("exactnum.alpha_power", "exactnum", ["exactnum", "growth"], None, None),
    ("logbounds.ceil_log_affine", "logbounds", ["logbounds", "zeros", "growth"], None, None),
    ("logbounds.upper_log_loglog", "logbounds", ["logbounds", "growth"], None, None),
    ("core.classify", "core", ["core", "sweep", "zeros", "growth"], None, None),
    ("intutil.square_cofactor", "intutil", ["intutil", "core"], None, None),
]


class Tracer:
    """Spans kept in flat arrays; one wrapper per traced function."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name, fn, counter=None, count=None):
        name_id = len(self.names)
        self.names.append(name)
        key = f"{name}.{counter}"
        stack = self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                span_start[idx] = t0
                span_end[idx] = t1
            if count is not None:
                counters[key] += count(args, result)
            return result

        return traced

    def install(self, brigkit) -> None:
        """Wrap every TARGETS entry and QuadElem.sign in the loaded brigkit."""
        for name, owner, lookups, counter, count in TARGETS:
            attr = name.split(".", 1)[1]
            original = getattr(getattr(brigkit, owner), attr)
            wrapped = self.wrap(name, original, counter, count)
            for mod in lookups:
                module = getattr(brigkit, mod)
                if getattr(module, attr) is not original:
                    raise RuntimeError(f"brigkit.{mod}.{attr} is not {name}")
                setattr(module, attr, wrapped)
        quad = brigkit.exactnum.QuadElem
        quad.sign = self.wrap("exactnum.QuadElem.sign", quad.sign)

    def summary(self) -> dict[str, dict[str, float]]:
        """{span name: {"calls", "self_s"}} over every span recorded."""
        child = array("d", bytes(8 * len(self.span_start)))
        for i in range(len(self.span_start)):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for i in range(len(self.span_start)):
            entry = out[self.names[self.span_name[i]]]
            entry["calls"] += 1
            entry["self_s"] += self.span_end[i] - self.span_start[i] - child[i]
        return out


def span_cost(calls: int = 20000, repeats: int = 7) -> float:
    """Extra seconds one traced call costs over a plain call (median of repeats)."""
    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            traced()
        t2 = perf_counter()
        samples.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(samples)
