"""Output hashes of the `mq gb` workload instances, for byte-identity checks.

    python tools/outhash.py --q sym --seeds 1-12 --max-pairs 4
    python tools/outhash.py --q 2 --seeds 1-30 --max-pairs 8

For each seed the script builds the instances of `gb_instances` in
perfbench/workloads.py (the structured minors family and the swell
family, the latter under the given pair budget), runs `gb_op` on each,
and prints `seed <s> <hash>`: the leading 16 hex digits of the SHA-256 of
every instance's partial flag and rendered basis (one element per line,
as `mq gb` prints it), in instance order.  The last line gives the
wall-clock seconds of all runs.  Two engine versions that print the same
lines computed the same bases, byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

from quantmat import SYMBOLIC, QMode  # noqa: E402
from workloads import gb_instances, gb_op  # noqa: E402


def _seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    try:
        lo, hi = int(first), int(last or first)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seeds must be A or A-B, got {text!r}")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return range(lo, hi + 1)


def seed_hash(seed: int, qmode: QMode, max_pairs: int) -> str:
    h = hashlib.sha256()
    for inst in gb_instances(seed, max_pairs):
        out = gb_op(inst, qmode)
        h.update(f"partial {'yes' if out.partial else 'no'}\n{out.text}\n\n".encode())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument(
        "--q", choices=("sym", "2"), required=True, help="symbolic q or q = 2"
    )
    ap.add_argument(
        "--seeds", type=_seed_range, required=True, help="seed or range A-B"
    )
    ap.add_argument(
        "--max-pairs", type=int, required=True, help="pair budget of the swell family"
    )
    args = ap.parse_args(argv)
    qmode = SYMBOLIC if args.q == "sym" else QMode.numeric(2)
    start = time.perf_counter()
    for seed in args.seeds:
        print(f"seed {seed} {seed_hash(seed, qmode, args.max_pairs)}", flush=True)
    print(f"seconds {time.perf_counter() - start:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
