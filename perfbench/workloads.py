"""The benchmark's workloads: inputs made from a seed, the ops, and how each
op's output is kept and checked.

An op is one public call the workload makes.  In the sweeps it is one
run_sweep plus render_json over a single (A, B) pair's box, which is the
sweep's own unit of work; in big-queries it is one library call.  The seed
fixes the op order and the checked sample in the sweeps, and every input
of big-queries; the same seed always gives the same ops.

Library names are looked up on their modules at call time, so that the
traced run sees every call through its wrappers.
"""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction

import checkers

SWEEPS = {
    # Zero decision and zero-family checks: zero scans and the brute-force
    # oracle, no growth or exact-number work.
    "zeros-sweep": {"a": (-5, 5), "b": (-5, 5), "p": (-3, 3), "q": (-3, 3),
                    "checks": ("zeros", "zero-family")},
    # Growth, Lucas and height checks: Fraction/QuadElem sign tests, the
    # real growth scan and JSON rendering, no zero scan.
    "growth-sweep": {"a": (-12, 12), "b": (-3, 3), "p": (-8, 8), "q": (-8, 8),
                     "checks": ("growth", "lucas", "height")},
}
NAMES = ("zeros-sweep", "growth-sweep", "big-queries")

ZERO_CHECK_HORIZON = 300     # plain-recurrence horizon of the zero checker
HEIGHT_SAMPLE = 64           # growth-sweep records whose H sympy re-derives
SWEEP_HORIZON = 200          # growth-scan horizon of growth-sweep


def make(name: str, seed: int, brigkit):
    if name in SWEEPS:
        return SweepWorkload(name, seed, brigkit)
    if name == "big-queries":
        return BigQueries(seed, brigkit)
    raise ValueError(f"unknown workload {name!r}")


def _span(lo_hi):
    return lo_hi[1] - lo_hi[0] + 1


# -- sweeps -------------------------------------------------------------------

class SweepWorkload:
    def __init__(self, name: str, seed: int, brigkit):
        box = SWEEPS[name]
        self.name = name
        self.sweep = brigkit.sweep
        rng = random.Random(seed)
        pairs = [(a, b) for a in range(box["a"][0], box["a"][1] + 1)
                 for b in range(box["b"][0], box["b"][1] + 1)]
        rng.shuffle(pairs)
        per_pair = _span(box["p"]) * _span(box["q"])
        self.points = len(pairs) * per_pair
        self.ops = [(f"{a},{b}", self._op(self.config(box, (a, a), (b, b), 1)))
                    for a, b in pairs]
        self.whole_box = lambda jobs: self.config(box, box["a"], box["b"], jobs)
        # one record per op for the mpmath checks, HEIGHT_SAMPLE of them for sympy
        self.sample = [rng.randrange(per_pair) for _ in pairs]
        self.height_ops = set(rng.sample(range(len(pairs)), min(HEIGHT_SAMPLE, len(pairs))))
        self.hash = hashlib.sha256()

    def config(self, box, a_range, b_range, jobs):
        return self.sweep.SweepConfig(
            a_range=a_range, b_range=b_range, p_range=box["p"],
            q_range=box["q"], n_horizon=SWEEP_HORIZON, checks=box["checks"],
            parallelism=jobs)

    def _op(self, cfg):
        def op():
            report, _ = self.sweep.run_sweep(cfg)
            return report, self.sweep.render_json(report)
        return op

    def keep(self, i: int, output):
        """Hash the op's report and return what the checkers need of it."""
        report, text = output
        self.hash.update(text.encode())
        kept = {"summary": report["summary"],
                "discrepancies": report["discrepancies"],
                "n_records": len(report["records"])}
        if self.name == "zeros-sweep":
            kept["records"] = report["records"]
            kept["family"] = report["zero_family"]
        else:
            kept["sample"] = report["records"][self.sample[i]]
        return kept

    def digest(self) -> str:
        return self.hash.hexdigest()

    def check(self, kept: list) -> list[str]:
        problems = []
        per_pair = self.points // len(self.ops)
        for i, out in enumerate(kept):
            if out is None:
                continue
            label = self.ops[i][0]
            if out["summary"]["violations"] != "0":
                problems.append(f"pair {label}: {out['summary']['violations']} violations")
            if any(d["grade"] != "informational" for d in out["discrepancies"]):
                problems.append(f"pair {label}: assertion-grade discrepancy")
            if out["n_records"] != per_pair:
                problems.append(f"pair {label}: {out['n_records']} records")
            if self.name == "zeros-sweep":
                problems += checkers.check_zero_records(out["records"], ZERO_CHECK_HORIZON)
                problems += checkers.check_family(out["family"], ZERO_CHECK_HORIZON)
            else:
                problems += self._check_growth_record(out["sample"], i in self.height_ops)
        return problems

    def _check_growth_record(self, rec: dict, with_height: bool) -> list[str]:
        p = rec["params"]
        A, B, P, Q = int(p["a"]), int(p["b"]), int(p["p"]), int(p["q"])
        growth, height = rec["growth"], rec.get("height", {})
        problems = []
        if "branch" in growth:
            # floors are claimed on [max(n_min, 2), horizon]; past the horizon
            # only the branch and its threshold are
            n_min = int(growth["n_min"])
            inside = n_min <= SWEEP_HORIZON
            n = SWEEP_HORIZON
            if inside:
                n = random.Random(f"{A},{B},{P},{Q}").randint(max(n_min, 2), SWEEP_HORIZON)
            u_n = checkers.plain_terms(A, B, P, Q, n)[n]
            problems += checkers.real_growth_problems(
                A, B, P, Q, n, u_n, f"real-{growth['branch']}", inside,
                growth.get("first_violation") is None, n_min)
        if "empirical_threshold" in growth:
            want = checkers.empirical_threshold(A, B, P, Q, SWEEP_HORIZON)
            if int(growth["empirical_threshold"]) != want:
                problems.append(f"{(A, B, P, Q)}: empirical threshold "
                                f"{growth['empirical_threshold']}, recurrence {want}")
            problems += checkers.nonreal_formula_problems(
                B * abs(P) + abs(Q), int(growth["formula_threshold"]))
        if "h" in height:
            H = int(height["h"])
            if with_height:
                problems += checkers.check_height(A, B, P, Q, H)
            if "sandwich_ok" in height:
                problems += checkers.check_sandwich(A, B, P, Q, H, height["sandwich_ok"])
        return problems


# -- big-queries ----------------------------------------------------------------

def _lucas_nondegenerate(A: int, B: int) -> bool:
    return A != 0 and B != 0 and A * A not in (4 * B, B, 2 * B, 3 * B)


def _log2_alpha(A: int, B: int) -> float:
    """log2 of the dominant root's modulus (input sizing only)."""
    delta = A * A - 4 * B
    if delta > 0:
        return math.log2((abs(A) + math.sqrt(delta)) / 2)
    return 0.5 * math.log2(B)


def _pairs(lo: float, hi: float, kind: str) -> list[tuple[int, int]]:
    out = []
    for A in range(-12, 13):
        for B in range(-30, 31):
            if not _lucas_nondegenerate(A, B):
                continue
            real = A * A > 4 * B
            if kind != "any" and real != (kind == "real"):
                continue
            if lo <= _log2_alpha(A, B) <= hi:
                out.append((A, B))
    return out


def _signed(rng: random.Random, bits: int) -> int:
    return rng.choice((-1, 1)) * rng.randrange(1 << (bits - 1), 1 << bits)


# Pairs have log2|alpha| in ALPHA_BITS, which keeps n <= 10**6 at the largest
# term size and k <= 2000 at the largest zero-at-k size.
ALPHA_BITS = (1.5, 2.1)
TERM_BITS = [1 << e for e in range(11, 21)]             # output sizes, 2 kbit..1 Mbit
ZERO_BITS = [round(3000 * 0.7 ** i) for i in range(8)]  # |P|, |Q| sizes, 3000..247 bits
FORMULA_BITS = [9, 18, 27, 36, 45, 54]                  # bits of x = B|P| + |Q|


class BigQueries:
    """About 130 single calls on big integers, sized by output bits.

    The sizes and the (A, B) pair of every slot are the same for every
    seed, and n or k comes from the slot's target size, so that every seed
    does the same big-integer work.  The seed draws what leaves that work
    unchanged: the sign of A, the initial values of the term queries, a
    common factor of the zero-at-k instance's (P, Q), and the sequence of
    each threshold query, whose x = B|P| + |Q| is fixed per size because
    the threshold formula's cost depends on x alone.
    """

    def __init__(self, seed: int, brigkit):
        self.b = brigkit
        shape = random.Random("big-queries")
        rng = random.Random(seed)
        self.ops = []
        self.inputs = []
        term_pairs = _pairs(*ALPHA_BITS, "any")
        for bits in TERM_BITS:
            for kind in ("term_fast", "term_window", "lucas_uv"):
                A, B = shape.choice(term_pairs)
                n = math.ceil(bits / _log2_alpha(A, B))
                A *= rng.choice((-1, 1))
                P, Q = _signed(rng, 16), _signed(rng, 16)
                self._add(kind, (A, B, P, Q, n))
        real_pairs, nonreal_pairs = _pairs(*ALPHA_BITS, "real"), _pairs(*ALPHA_BITS, "non-real")
        for bits in ZERO_BITS:
            for pool in (real_pairs, nonreal_pairs):
                A, B = shape.choice(pool)
                k = max(2, min(2000, round(bits / _log2_alpha(A, B))))
                self._zero_instance(A * rng.choice((-1, 1)), B, k,
                                    rng.randrange(1, 256), pool is real_pairs)
        for bits in FORMULA_BITS:
            self._nonreal_query(rng, bits)
        self.points = len(self.ops)
        self.hash = hashlib.sha256()

    def _add(self, kind, args, inst=None):
        self.inputs.append((kind, args, inst))
        self.ops.append((kind, self._call(kind, args, inst)))

    def _call(self, kind, args, inst):
        b = self.b
        if kind in ("term_fast", "term_window"):
            params = b.core.SequenceParams(*args[:4])
            fn = getattr(b.terms, kind)
            return lambda: fn(params, args[4])
        if kind == "lucas_uv":
            return lambda: b.terms.lucas_uv(args[0], args[1], args[4])
        if kind == "construct_zero_at":
            def construct():
                P, Q = b.zeros.construct_zero_at(*args)
                g = inst["scale"]
                inst["params"] = b.core.SequenceParams(args[0], args[1], g * P, g * Q)
                return P, Q
            return construct
        if kind == "find_zero":
            return lambda: b.zeros.find_zero(inst["params"])
        if kind in ("ratio_height", "height_sandwich_check"):
            return lambda: getattr(b.growth, kind)(inst["params"])
        if kind == "nonreal_threshold_formula":
            return lambda: b.growth.nonreal_threshold_formula(inst["params"], Fraction(50))
        # the remaining growth checks take (params, n)
        return lambda: getattr(b.growth, kind)(inst["params"], args)

    def _zero_instance(self, A, B, k, scale, real):
        """construct_zero_at(A, B, k), then the queries on (A, B, scale*P, scale*Q)."""
        inst = {"scale": scale}
        self._add("construct_zero_at", (A, B, k), inst)
        self._add("find_zero", k, inst)
        self._add("ratio_height", None, inst)
        if real:
            self._add("height_sandwich_check", None, inst)
            n = self._real_n(A, B, k, scale)
            self._add("check_real_growth", n, inst)
            self._add("check_sharp_growth", n, inst)
        else:
            self._add("check_nonreal_growth", 2 * k, inst)
            self._add("empirical_nonreal_threshold", 2 * k, inst)

    @staticmethod
    def _real_n(A, B, k, scale):
        """An index past every real-case threshold of the zero-at-k instance.

        The instance has P = s*U_k/g and Q = s*B*U_{k-1}/g with g the gcd of
        U_k and B*U_{k-1} and s the scale.  Every threshold of
        check_real_growth and check_sharp_growth is at most 6|Q/P| + 7,
        (18 + 7 ln|Q|) * max(1, |Q/P|) or 12 + 5 ln|Q|; they are estimated
        here in floating point, with a margin.
        """
        u_prev, u = 0, 1
        for _ in range(k - 1):
            u_prev, u = u, A * u - B * u_prev
        g = math.gcd(u, B * u_prev)
        P, Q = scale * abs(u) // g, scale * abs(B * u_prev) // g
        q = Q / P
        ln_q = math.log(Q) if Q > 1 else 0.0
        return math.ceil(max(6 * q + 7, (18 + 7 * ln_q) * max(1.0, q),
                             12 + 5 * ln_q)) + 3

    def _nonreal_query(self, rng, bits):
        """The calls `brigkit growth --check nonreal --n 50` makes, at x of `bits` bits."""
        x = random.Random(f"x{bits}").randrange(1 << (bits - 1), 1 << bits)
        pool = [(A, B) for A in range(-12, 13) for B in range(2, 31)
                if A * A < 4 * B and _lucas_nondegenerate(A, B)]
        A, B = rng.choice(pool)
        P = rng.choice((-1, 1)) * rng.randrange(1, x // (2 * B))
        Q = rng.choice((-1, 1)) * (x - B * abs(P))
        inst = {"params": self.b.core.SequenceParams(A, B, P, Q)}
        self._add("check_nonreal_growth", 50, inst)
        self._add("empirical_nonreal_threshold", 300, inst)
        self._add("nonreal_threshold_formula", None, inst)

    def keep(self, i: int, output):
        """Plain data from a library result, hashed (called between ops)."""
        kind = self.inputs[i][0]
        if kind == "term_window":
            output = output.u_n, output.u_next
        elif kind == "find_zero":
            output = type(output).__name__, getattr(output, "k", None)
        elif kind == "ratio_height":
            output = output.height
        elif kind.startswith("check_"):
            output = output.regime, output.applicable, output.bound_holds, output.threshold
        self.hash.update(_canon(output).encode())
        return output

    def digest(self) -> str:
        return self.hash.hexdigest()

    def check(self, kept: list) -> list[str]:
        problems = []
        for (kind, args, inst), out in zip(self.inputs, kept):
            if out is None:
                continue
            if kind == "term_fast":
                problems += checkers.check_term(*args, out)
            elif kind == "term_window":
                problems += checkers.check_window(*args, *out)
            elif kind == "lucas_uv":
                problems += checkers.check_lucas_uv(args[0], args[1], args[4], *out)
            else:
                problems += self._check_instance(kind, args, inst, out)
        return problems

    def _check_instance(self, kind, args, inst, out) -> list[str]:
        p = inst["params"]
        A, B, P, Q = p.A, p.B, p.P, p.Q
        if kind == "construct_zero_at":
            if math.gcd(*out) != 1:
                return [f"construct_zero_at{args} not gcd-normalized"]
            return checkers.zero_at_problems(A, B, *out, args[2], 2 * args[2])
        if kind == "find_zero":
            if out != ("ZeroAt", args):
                return [f"find_zero on ({A}, {B}) zero-at-{args}: {out}"]
            return []
        if kind == "ratio_height":
            inst["height"] = out
            return checkers.check_height(A, B, P, Q, out)
        if kind == "height_sandwich_check":
            return checkers.check_sandwich(A, B, P, Q, inst["height"], out)
        if kind in ("check_real_growth", "check_sharp_growth"):
            u_n = checkers.plain_terms(A, B, P, Q, args)[args]
            return checkers.real_growth_problems(A, B, P, Q, args, u_n, *out)
        if kind == "check_nonreal_growth":
            regime, applicable, holds, _ = out
            want = checkers.nonreal_growth_holds(A, B, P, Q, args)
            if (regime, applicable, holds) != ("nonreal", True, want):
                return [f"check_nonreal_growth {(A, B, P, Q)} n={args}: {out}, "
                        f"recurrence says {want}"]
            return []
        if kind == "empirical_nonreal_threshold":
            want = checkers.empirical_threshold(A, B, P, Q, args)
            return [] if out == want else [f"empirical threshold {(A, B, P, Q)}: {out} != {want}"]
        if kind == "nonreal_threshold_formula":
            return checkers.nonreal_formula_problems(B * abs(P) + abs(Q), out)
        raise ValueError(f"unknown op kind {kind!r}")


def _canon(obj) -> str:
    """A text form of plain data with ints in hex (no decimal-size limits)."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return repr(obj)
    if isinstance(obj, int):
        return hex(obj)
    if isinstance(obj, tuple):
        return "(" + ",".join(_canon(x) for x in obj) + ")"
    raise TypeError(f"cannot canonicalize {type(obj).__name__}")
