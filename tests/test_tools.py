"""The scripts in tools/ run from a source checkout."""

import subprocess
import sys
from pathlib import Path

WRAND3 = Path(__file__).resolve().parent.parent / "tools" / "wrand3.py"


def test_wrand3_probe_at_q2():
    proc = subprocess.run(
        [sys.executable, str(WRAND3), "--q", "2", "--max-pairs", "4"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:5] == [
        "elements 5",
        "stats BasisStats(pairs_considered=4, reductions_to_zero=0, chain_skips=0)",
        "partial yes",
        "max_terms 27",
        "sha256 f4976f6266540784",
    ]
    assert len(lines) == 6 and lines[5].startswith("seconds ")
