"""The scripts in tools/ run from a source checkout."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
WRAND3 = TOOLS / "wrand3.py"


@pytest.mark.parametrize(
    "q, budget, elements, max_terms, digest",
    [
        ("2", "4", 5, 27, "f4976f6266540784"),
        # the cheapest probes that interreduce a partial basis of 9
        # elements with up to 231 terms
        ("2", "8", 9, 231, "9384d0f5b7e53b12"),
        ("sym", "8", 9, 231, "4da61b5dcb6927de"),
    ],
)
def test_wrand3_probe(q, budget, elements, max_terms, digest):
    proc = subprocess.run(
        [sys.executable, str(WRAND3), "--q", q, "--max-pairs", budget],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:5] == [
        f"elements {elements}",
        f"stats BasisStats(pairs_considered={budget}, reductions_to_zero=0,"
        " chain_skips=0)",
        "partial yes",
        f"max_terms {max_terms}",
        f"sha256 {digest}",
    ]
    assert len(lines) == 6 and lines[5].startswith("seconds ")


@pytest.mark.parametrize(
    "q, budget, digest",
    [("sym", "4", "67eb2760736642ee"), ("2", "8", "907f82d44048392a")],
)
def test_outhash_probe_seed_1(q, budget, digest):
    # one hash over the partial flags and rendered bases of the `mq gb`
    # workload instances; a change that moves any basis by a byte moves it
    proc = subprocess.run(
        [
            sys.executable,
            str(TOOLS / "outhash.py"),
            *("--q", q, "--seeds", "1", "--max-pairs", budget),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == f"seed 1 {digest}"
    assert len(lines) == 2 and lines[1].startswith("seconds ")


def _abround_against_this_checkout(*args) -> None:
    # both sides load this checkout's engine, so the outputs must agree
    proc = subprocess.run(
        [
            sys.executable,
            str(TOOLS / "abround.py"),
            *("--against", str(TOOLS.parent), "--seed", "1", "--seconds", "1"),
            *args,
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "seed 1: 13 instances, outputs identical"
    assert [line.split()[:3] for line in lines[1:3]] == [
        ["base", "median", "round"],
        ["head", "median", "round"],
    ]
    assert lines[3].startswith("median head/base ")
    assert lines[4].startswith("head won ") and lines[4].endswith(" rounds")
    # each side's 90th percentile of the per-operation times, e.g.
    # "p90 operation base 30.21 ms head 27.06 ms head/base 0.896"
    p90 = lines[5].split()
    assert len(p90) == 10
    assert [p90[k] for k in (0, 1, 2, 4, 5, 7, 8)] == [
        "p90", "operation", "base", "ms", "head", "ms", "head/base"
    ]
    assert float(p90[3]) > 0 and float(p90[6]) > 0 and float(p90[9]) > 0
    # then one line per instance, in instance order: each side's median
    # time, e.g. "instance minors base 7.05 ms head 6.32 ms head/base 0.896"
    words = [line.split() for line in lines[6:]]
    assert [w[1] for w in words] == [
        "minors", "quad", "sum", "trace", "lin2", "trace_lin", "trace2",
        "w3", "s5", "s6", "s9", "s17", "s20",
    ]
    for w in words:
        assert len(w) == 10
        assert [w[k] for k in (0, 2, 4, 5, 7, 8)] == [
            "instance", "base", "ms", "head", "ms", "head/base"
        ]
        assert float(w[3]) >= 0 and float(w[6]) >= 0


def test_abround_probe_against_this_checkout():
    _abround_against_this_checkout()


def test_abround_probe_at_q_2_against_this_checkout():
    # the q = 2 path of `mq gb`, with the gb_q2 budget of the swell family
    _abround_against_this_checkout("--q", "2")


def test_abround_probe_exits_1_when_outputs_differ(tmp_path):
    engine = tmp_path / "src" / "quantmat"
    shutil.copytree(TOOLS.parent / "src" / "quantmat", engine)
    with open(engine / "__init__.py", "a") as fh:
        fh.write("\nformat_poly = lambda p, names: 'other'\n")
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "abround.py"), "--against", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == "outputs differ on instance minors\n"
