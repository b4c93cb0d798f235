"""One workload in one single-threaded process: set-up, closed loop, checks.

Started by run.py.  The last line of standard output is a JSON object
with the raw measurements.  With --probe the process stops where the first
timed operation would start and reports only that instant, so that run.py
can repeat the set-up in fresh processes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import quantmat  # noqa: E402  (needs the paths above)
import workloads as W  # noqa: E402
from tracing import ARITH, OP, Tracer  # noqa: E402

if not os.path.abspath(quantmat.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    raise SystemExit(f"quantmat imported from {quantmat.__file__}, not from this checkout's src/")

# One tail percentile for every workload: the highest that leaves at least
# ten operations beyond it in every run (min_rounds makes sure of that).
TAIL_PERCENTILE = 90.0


class Gb:
    """`mq gb` through the library on the structured and swell families."""

    shared_system = None

    def __init__(self, seed: int, qmode, budget: int):
        self.qmode = qmode
        self.instances = W.gb_instances(seed, budget)

    def run(self, i):
        return W.gb_op(self.instances[i], self.qmode)

    def check(self, i, out) -> str:
        return W.check_gb(self.instances[i], out, self.qmode)

    def key(self, out):
        return out.text

    def layer_counts(self, i, out) -> dict:
        return {"pairs": out.stats.pairs_considered, "zeros": out.stats.reductions_to_zero}


class Member:
    """ideal_member on planted members and non-members of fixed bases."""

    def __init__(self, seed: int):
        self.shared_system, self.bases, self.instances = W.member_setup(seed)
        # warm the straightening memo: a basis is queried many times
        for q in self.instances:
            W.member_op(q, self.shared_system, self.bases)

    def run(self, i):
        return W.member_op(self.instances[i], self.shared_system, self.bases)

    def check(self, i, out) -> str:
        want = self.instances[i].expected
        return "" if out is want else f"ideal_member gave {out}, planted {want}"

    def key(self, out):
        return out

    def layer_counts(self, i, out) -> dict:
        return {}


class Hilbert:
    """hilbert_count over a degree sweep plus gk_dimension, per staircase."""

    shared_system = None

    def __init__(self, seed: int):
        self.instances = W.hilbert_setup(seed)

    def run(self, i):
        return W.hilbert_op(self.instances[i])

    def check(self, i, out) -> str:
        counts, gk = W.hilbert_reference(self.instances[i])
        if out[0] != counts:
            return f"Hilbert counts {out[0]} != {counts}"
        if out[1] != gk:
            return f"GK dimension {out[1]} != {gk}"
        return ""

    def key(self, out):
        return out

    def layer_counts(self, i, out) -> dict:
        return {"mins": len(self.instances[i].staircase.mins)}


def make(name: str, seed: int):
    if name == "gb_sym":
        return Gb(seed, W.SYMBOLIC, W.SYM_BUDGET)
    if name == "gb_q2":
        return Gb(seed, W.Q2, W.Q2_BUDGET)
    if name == "member":
        return Member(seed)
    if name == "hilbert":
        return Hilbert(seed)
    raise ValueError(f"unknown workload {name!r}")


def min_rounds(wl) -> int:
    """Rounds that leave at least ten operations beyond the tail percentile."""
    need = round(10 / (1 - TAIL_PERCENTILE / 100))
    return -(-need // len(wl.instances))


class Loop:
    """Closed loop with one client, in whole rounds over the instance list.

    The first output of each instance is checked after the loop.  A later
    output that renders the same shares its verdict; one that differs is
    checked on its own.
    """

    def __init__(self, wl):
        self.wl = wl
        self.first = {}
        self.repeats = defaultdict(int)
        self.differing = []
        self.attempted = 0
        self.raised = 0
        self.errors = []

    def one(self, i, call):
        self.attempted += 1
        try:
            out = call(self.wl.run, i)
        except Exception as exc:  # an operation that raises counts as failed
            self.raised += 1
            self.errors.append(f"instance {i}: {type(exc).__name__}: {exc}")
            return None
        if i not in self.first:
            self.first[i] = out
        elif self.wl.key(out) == self.wl.key(self.first[i]):
            self.repeats[i] += 1
        else:
            self.differing.append((i, out))
        return out

    def failed(self) -> int:
        bad = self.raised
        for i, out in self.first.items():
            problem = self.wl.check(i, out)
            if problem:
                self.errors.append(f"instance {i}: {problem}")
                bad += 1 + self.repeats[i]
        for i, out in self.differing:
            problem = self.wl.check(i, out)
            if problem:
                self.errors.append(f"instance {i} (repeat): {problem}")
                bad += 1
        return bad


def timed(latencies, by_instance):
    def call(fn, i):
        t0 = time.perf_counter()
        out = fn(i)
        dt = time.perf_counter() - t0
        latencies.append(dt)
        by_instance[i].append(dt)
        return out

    return call


def run_rounds(loop: Loop, call, seconds: float, at_least: int) -> list[float]:
    """Whole rounds until `seconds` have passed; returns each round's duration."""
    t0 = time.perf_counter()
    durations = []
    while len(durations) < at_least or time.perf_counter() - t0 < seconds:
        r0 = time.perf_counter()
        for i in range(len(loop.wl.instances)):
            loop.one(i, call)
        durations.append(time.perf_counter() - r0)
    return durations


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks."""
    s = sorted(values)
    k = (len(s) - 1) * p / 100
    lo = int(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def traced_rounds(loop: Loop, tracer: Tracer, rounds: int):
    """Rerun `rounds` rounds with spans; gather the per-operation counters."""
    wl = loop.wl
    counts = defaultdict(float)
    memo_entries = 0

    def call(fn, i):
        nonlocal memo_entries
        shared = wl.shared_system
        before = shared.cache_info() if shared is not None else None
        tracer.op_id += 1
        tracer.built = None
        out = tracer.span(OP, fn, i)
        # the memo of a system built by the operation, else the shared one
        system = tracer.built or shared
        if system is not None:
            info = system.cache_info()
            counts["hits"] += info.hits - (before.hits if before else 0)
            counts["misses"] += info.misses - (before.misses if before else 0)
            memo_entries = max(memo_entries, info.currsize)
        for k, v in wl.layer_counts(i, out).items():
            counts[k] += v
        return out

    tracer.install()
    try:
        run_rounds(loop, call, 0.0, rounds)
    finally:
        tracer.uninstall()
    counts["entries"] = memo_entries
    return counts


def layer_metrics(tracer: Tracer, counts) -> tuple[dict, dict]:
    table, duration = tracer.per_op()
    ops = len(duration)
    total = defaultdict(lambda: [0, 0.0])
    for per_name in table.values():
        for name, (n, s) in per_name.items():
            total[name][0] += n
            total[name][1] += s

    def calls(*names):
        return sum(total[n][0] for n in names) / ops

    def self_ms(*names):
        return 1000 * sum(total[n][1] for n in names) / ops

    def worst(per_op):
        return max(per_op.values(), default=0)

    hits, misses = counts["hits"], counts["misses"]
    pairs, zeros = counts["pairs"], counts["zeros"]
    metrics = {
        "qfield.arith_calls": calls(*ARITH),
        "qfield.arith_self_ms": self_ms(*ARITH),
        "qfield.gcd_calls": calls("qfield.pgcd"),
        "qfield.gcd_self_ms": self_ms("qfield.pgcd"),
        "qfield.coef_qdeg_max": worst(tracer.coef_qdeg),
        "qfield.coef_bits_max": worst(tracer.coef_bits),
        "pbw.poly_add_calls": calls("pbw.poly_add"),
        "pbw.poly_add_self_ms": self_ms("pbw.poly_add"),
        "pbw.terms_max": worst(tracer.terms_max),
        "straighten.mono_mul_calls": calls("straighten.mono_mul"),
        "straighten.mono_mul_self_ms": self_ms("straighten.mono_mul"),
        "straighten.poly_mul_self_ms": self_ms("straighten.poly_mul"),
        "straighten.memo_hits": hits / ops,
        "straighten.memo_misses": misses / ops,
        "straighten.memo_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "straighten.memo_entries": counts["entries"],
        "groebner.pairs": pairs / ops,
        "groebner.zero_reductions": zeros / ops,
        "groebner.useful_pair_ratio": (pairs - zeros) / pairs if pairs else 0.0,
        "groebner.spoly_calls": calls("groebner.left_spoly"),
        "groebner.spoly_self_ms": self_ms("groebner.left_spoly"),
        "groebner.buchberger_self_ms": self_ms("groebner.buchberger"),
        "groebner.divide_calls": calls("groebner.left_divide"),
        "groebner.divide_self_ms": self_ms("groebner.left_divide"),
        "dimension.hilbert_calls": calls("dimension.hilbert_count"),
        "dimension.hilbert_self_ms": self_ms("dimension.hilbert_count"),
        "dimension.gk_self_ms": self_ms("dimension.gk_dimension"),
        "dimension.staircase_mins": counts["mins"] / ops,
        "textio.parse_self_ms": self_ms("textio.parse_poly"),
        "textio.format_self_ms": self_ms("textio.format_poly"),
        "textio.chars_out": sum(tracer.chars_out.values()) / ops,
        "mq.build_self_ms": self_ms("mq.build_mq"),
    }
    # self times of an operation's spans must add up to its traced duration
    gap = max(
        abs(sum(s for _, s in table[o].values()) - d) for o, d in duration.items()
    )
    glue = {name: 1000 * s / ops for name, (_, s) in total.items() if name.startswith("bench.")}
    info = {"ops": ops, "traced_s": sum(duration.values()), "self_sum_gap_s": gap, "bench_self_ms": glue}
    return metrics, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--trace-file")
    args = ap.parse_args(argv)

    wl = make(args.workload, args.seed)
    first_op_at = time.monotonic()
    if args.probe:
        print(json.dumps({"first_op_at": first_op_at}))
        return 0

    loop = Loop(wl)
    latencies, by_instance = [], defaultdict(list)
    t0 = time.perf_counter()
    seconds = args.seconds / 4 if args.trace else args.seconds
    durations = run_rounds(
        loop, timed(latencies, by_instance), seconds, 1 if args.trace else min_rounds(wl)
    )
    loop_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {
        "first_op_at": first_op_at,
        "rounds": len(durations),
        "ops": len(latencies),
        "loop_s": loop_s,
        # the median round, so that a burst of load on the machine counts once
        "ops_per_s": len(wl.instances) / statistics.median(durations),
        "p50_ms": 1000 * percentile(latencies, 50),
        "tail_percentile": TAIL_PERCENTILE,
        "tail_ms": 1000 * percentile(latencies, TAIL_PERCENTILE),
        "peak_rss_mb": peak_rss_mb,
        "instance_p50_ms": {
            getattr(wl.instances[i], "label", str(i)): 1000 * percentile(v, 50)
            for i, v in sorted(by_instance.items())
        },
    }
    if args.trace:
        tracer = Tracer()
        counts = traced_rounds(loop, tracer, len(durations))
        layers, info = layer_metrics(tracer, counts)
        result["layers"] = layers
        result["trace"] = info
        result["overhead"] = info["traced_s"] / sum(latencies) - 1
        if args.trace_file:
            tracer.write(args.trace_file)
            result["trace"]["file"] = args.trace_file
            result["trace"]["spans"] = len(tracer.start)
    result["attempted"] = loop.attempted
    result["failed"] = loop.failed()
    result["raised"] = loop.raised
    result["errors"] = loop.errors[:10]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
