"""Benchmark of the quantmat engine on M_q(3).

    python3 perfbench/run.py --workload gb_sym --seed 1 --seconds 55 --trace 0

Each workload runs in a single-threaded process of its own (worker.py),
one after another, as a closed loop with one client.  Without --workload
all four run.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics of a separate traced run with
--trace 1.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
WORKLOADS = ("gb_sym", "gb_q2", "member", "hilbert")
SETUPS = 3  # set-ups measured per run; setup_s is their median
WORKER_TIMEOUT_S = 170


class WorkerFailed(RuntimeError):
    pass


def worker(args: list[str]) -> tuple[dict, float]:
    """Run worker.py; return its JSON result and the monotonic start time."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    started = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(
            f"worker {' '.join(args)} exited with code {proc.returncode}\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    for _ in range(SETUPS - 1):
        probe, started = worker(common + ["--probe"])
        setups.append(probe["first_op_at"] - started)
    res, started = worker(common)
    setups.append(res["first_op_at"] - started)
    res["setup_runs_s"] = setups
    res["metrics"] = {
        "ops_per_s": {"value": res["ops_per_s"], "unit": "1/s"},
        "op_p50_ms": {"value": res["p50_ms"], "unit": "ms"},
        "op_tail_ms": {"value": res["tail_ms"], "unit": "ms"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }
    return res


def per_layer(name: str, seed: int, seconds: float) -> dict:
    spans = os.path.join(OUT, f"trace-{name}-seed{seed}.spans")
    res, _ = worker(
        ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1", "--trace-file", spans]
    )
    res["metrics"] = {
        k: {"value": v, "unit": "ms" if k.endswith("_ms") else "1"}
        for k, v in res["layers"].items()
    }
    return res


def report(name: str, res: dict, trace: bool) -> None:
    for metric, m in res["metrics"].items():
        print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
    print(f"{name} attempted {res['attempted']} failed {res['failed']}")
    if trace:
        t = res["trace"]
        print(f"{name} tracing overhead {100 * res['overhead']:+.1f}% over {t['ops']} operations")
        print(f"{name} largest gap between an operation's span self times and its duration {t['self_sum_gap_s']:.3g} s")
        print(f"{name} trace written to {os.path.relpath(t['file'])} ({t['spans']} spans)")
    else:
        print(f"{name} op_tail_ms is p{res['tail_percentile']:g} of {res['ops']} operations in {res['rounds']} rounds")
    for err in res["errors"]:
        print(f"{name} error: {err}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, help="default: all four in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.makedirs(OUT, exist_ok=True)
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for name in names:
            run = per_layer if args.trace else end_to_end
            res = run(name, args.seed, args.seconds)
            report(name, res, bool(args.trace))
            suffix = "-trace" if args.trace else ""
            with open(os.path.join(OUT, f"result-{name}-seed{args.seed}{suffix}.json"), "w") as fh:
                json.dump(res, fh, indent=1)
            results[name] = res
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    summary = {
        # a failed check makes the run incorrect; an operation that raised
        # is failed but says nothing about the outputs that were returned
        "correct": all(r["failed"] == r["raised"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
