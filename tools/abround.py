"""In-process A/B timing of whole `gb_sym` rounds against another checkout.

    python tools/abround.py --against DIR [--seed N] [--seconds S]

Whole-run benchmark figures drift between runs on a shared machine; two
engines timed in one process, round by round, see the same drift.  The
script loads DIR/src/quantmat (the base) and this checkout's
src/quantmat (the head) under two package names, builds the `gb_sym`
instances of `gb_instances` in perfbench/workloads.py for the seed, and
runs `mq gb` on every instance through each package's library, as
`gb_op` does.  It exits 1 if the two sides render a different basis or
partial flag for any instance.  Then it alternates whole rounds, base
and head in turn, until S seconds have passed (at least one pair of
rounds); every instance in a round is timed by process CPU time, and a
round's time is their sum.  It prints each side's median round, the
median of the per-pair head/base ratios, and how many pairs the head
won; then each side's 90th percentile of the per-operation times (an
operation is one instance in one round; perfbench's `op_tail_ms` is the
same percentile of its operations) and their ratio; then, one line per
instance, each side's median time for that instance and their ratio, so
a change in the tail can be traced to the instances that set it.  It
supplements perfbench/run.py; it does not replace it.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

from workloads import SYM_BUDGET, gb_instances  # noqa: E402


def load_package(name: str, src: Path):
    """Import the quantmat package in the directory src under another name."""
    init = src / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no quantmat package at {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(src)]
    )
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def gb_output(pkg, inst) -> str:
    """`mq gb` at symbolic q on one instance: partial flag and basis text."""
    system = pkg.build_mq(pkg.MqSpec(3, pkg.SYMBOLIC))
    gens = [pkg.parse_poly(t, system) for t in inst.gens]
    try:
        basis = pkg.buchberger(gens, system, max_pairs=inst.max_pairs)
        partial = "no"
    except pkg.PairLimitExceeded as exc:
        basis = exc.partial
        partial = "yes"
    text = "\n".join(pkg.format_poly(g, system.gen_names) for g in basis.elements)
    return f"partial {partial}\n{text}"


def timed_round(pkg, instances) -> list[float]:
    """Process CPU seconds of each instance, in one round over all of them."""
    gc.collect()
    times = []
    for inst in instances:
        start = time.process_time()
        gb_output(pkg, inst)
        times.append(time.process_time() - start)
    return times


def p90(rounds: list[list[float]]) -> float:
    """90th percentile of the per-operation times of all rounds, by linear
    interpolation between closest ranks, as perfbench computes op_tail_ms."""
    times = [t for r in rounds for t in r]
    return statistics.quantiles(times, n=10, method="inclusive")[-1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument(
        "--against", type=Path, required=True, help="checkout holding the base engine"
    )
    ap.add_argument("--seed", type=int, default=1, help="gb_sym instance seed")
    ap.add_argument(
        "--seconds", type=float, default=30.0, help="wall-clock time for the rounds"
    )
    args = ap.parse_args(argv)
    base = load_package("quantmat_base", args.against.resolve() / "src" / "quantmat")
    head = load_package("quantmat_head", ROOT / "src" / "quantmat")
    instances = gb_instances(args.seed, SYM_BUDGET)

    for inst in instances:
        if gb_output(base, inst) != gb_output(head, inst):
            print(f"outputs differ on instance {inst.label}")
            return 1
    print(f"seed {args.seed}: {len(instances)} instances, outputs identical")

    # per round, the CPU seconds of each instance
    base_r: list[list[float]] = []
    head_r: list[list[float]] = []
    deadline = time.perf_counter() + args.seconds
    while not base_r or time.perf_counter() < deadline:
        # swap the order every pair so neither side always runs first
        if len(base_r) % 2:
            head_r.append(timed_round(head, instances))
            base_r.append(timed_round(base, instances))
        else:
            base_r.append(timed_round(base, instances))
            head_r.append(timed_round(head, instances))

    base_t = [sum(r) for r in base_r]
    head_t = [sum(r) for r in head_r]
    ratios = [h / b for b, h in zip(base_t, head_t)]
    wins = sum(h < b for b, h in zip(base_t, head_t))
    print(f"base median round {1000 * statistics.median(base_t):.1f} ms")
    print(f"head median round {1000 * statistics.median(head_t):.1f} ms")
    print(f"median head/base {statistics.median(ratios):.3f}")
    print(f"head won {wins} of {len(ratios)} rounds")
    b90, h90 = p90(base_r), p90(head_r)
    ratio = f"{h90 / b90:.3f}" if b90 else "n/a"
    print(
        f"p90 operation base {1000 * b90:.2f} ms"
        f" head {1000 * h90:.2f} ms head/base {ratio}"
    )
    for k, inst in enumerate(instances):
        b = statistics.median(r[k] for r in base_r)
        h = statistics.median(r[k] for r in head_r)
        ratio = f"{h / b:.3f}" if b else "n/a"
        print(
            f"instance {inst.label} base {1000 * b:.2f} ms"
            f" head {1000 * h:.2f} ms head/base {ratio}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
