"""Fixed-budget completion of W-rand3, the swell case of M_q(3).

    python tools/wrand3.py --q sym --max-pairs 8
    python tools/wrand3.py --q 2 --max-pairs 16

W-rand3 is the left ideal of M_q(3) generated by
    3*z[3,3]*z[3,1] + 2/q*z[2,2] + 3
    3/q*z[3,3] + 1/q*z[3,1]^2 + q^2*z[1,1]
Its completion has never finished; a run stops after --max-pairs
S-polynomials and reports the interreduced partial basis.  The script
prints the element count, the completion statistics, whether the basis is
partial, the largest term count, the leading 16 hex digits of the SHA-256
of the rendered basis (one element per line, as `mq gb` prints it), the
wall-clock seconds of the completion and the peak resident set size of
the process in MB.  The hash shows whether a change to
the engine moved the basis.
"""

from __future__ import annotations

import argparse
import hashlib
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from quantmat import (  # noqa: E402
    SYMBOLIC,
    MqSpec,
    QMode,
    buchberger,
    build_mq,
    format_poly,
    parse_poly,
)
from quantmat.errors import PairLimitExceeded  # noqa: E402

GENERATORS = (
    "3*z[3,3]*z[3,1] + 2/q*z[2,2] + 3",
    "3/q*z[3,3] + 1/q*z[3,1]^2 + q^2*z[1,1]",
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument(
        "--q", choices=("sym", "2"), required=True, help="symbolic q or q = 2"
    )
    ap.add_argument("--max-pairs", type=int, required=True, help="S-polynomial budget")
    args = ap.parse_args(argv)
    system = build_mq(MqSpec(3, SYMBOLIC if args.q == "sym" else QMode.numeric(2)))
    gens = [parse_poly(t, system) for t in GENERATORS]
    start = time.perf_counter()
    try:
        basis = buchberger(gens, system, max_pairs=args.max_pairs)
        partial = False
    except PairLimitExceeded as exc:
        basis = exc.partial
        partial = True
    seconds = time.perf_counter() - start
    text = "\n".join(format_poly(g, system.gen_names) for g in basis.elements)
    print(f"elements {len(basis.elements)}")
    print(f"stats {basis.stats}")
    print(f"partial {'yes' if partial else 'no'}")
    print(f"max_terms {max(len(g.terms) for g in basis.elements)}")
    print(f"sha256 {hashlib.sha256(text.encode()).hexdigest()[:16]}")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"seconds {seconds:.2f} peak_rss_mb {peak_mb:.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
