"""Command-line behavior: frozen output, exit codes, file input, limits."""

import io
import json
import subprocess
import time
from contextlib import redirect_stderr, redirect_stdout
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from quantmat.cli import run_command
from quantmat.textio import IdealFile, save_ideal

from oracles import quantum_minors
from test_textio import _FUZZ_TOKENS, _TREES, _render

DIAG = ["--n", "2", "--ideal", "z[1,1]", "--ideal", "z[2,2]"]


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nf(capsys):
    code, out, _ = run(capsys, "nf", "--n", "2", "z[1,1]*z[2,2]")
    assert code == 0
    assert out == "z[2,2]*z[1,1] + (q^2 - 1)/q*z[2,1]*z[1,2]\n"


def test_mul_matches_nf(capsys):
    code, out, _ = run(capsys, "mul", "--n", "2", "z[1,1]", "z[2,2]")
    assert code == 0
    assert out == "z[2,2]*z[1,1] + (q^2 - 1)/q*z[2,1]*z[1,2]\n"


def test_nf_numeric_q(capsys):
    code, out, _ = run(capsys, "nf", "--n", "2", "--q", "3", "z[1,1]*z[2,2]")
    assert code == 0
    assert out == "z[2,2]*z[1,1] + 8/3*z[2,1]*z[1,2]\n"


def test_gb(capsys):
    code, out, _ = run(capsys, "gb", *DIAG)
    assert code == 0
    assert out == "z[1,1]\nz[2,1]*z[1,2]\nz[2,2]\n"


def test_gb_json(capsys):
    code, out, _ = run(capsys, "gb", *DIAG, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["basis"] == ["z[1,1]", "z[2,1]*z[1,2]", "z[2,2]"]
    assert doc["stats"] == {
        "pairs_considered": 3,
        "reductions_to_zero": 2,
        "chain_skips": 0,
    }


def test_member_exit_codes(capsys):
    code, out, _ = run(capsys, "member", *DIAG, "z[2,1]*z[1,2]")
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "member", *DIAG, "z[1,2]")
    assert (code, out) == (1, "false\n")


def test_gkdim(capsys):
    code, out, _ = run(capsys, "gkdim", *DIAG)
    assert (code, out) == (0, "1\n")
    code, out, _ = run(capsys, "gkdim", *DIAG, "--json")
    assert code == 0
    assert json.loads(out)["gk_dimension"] == 1


def test_hilbert(capsys):
    code, out, _ = run(capsys, "hilbert", "--n", "2", "--maxdeg", "4")
    assert (code, out) == (0, "1, 4, 10, 20, 35\n")
    code, out, _ = run(capsys, "hilbert", "--maxdeg", "2", *DIAG)
    assert (code, out) == (0, "1, 2, 2\n")


def test_hilbert_high_degree_minors(module_cli):
    # M_q(3) modulo its nine 2x2 quantum minors: C(d+2,2)^2 words in degree d
    command, env = module_cli
    ideal = [arg for m in quantum_minors(3) for arg in ("--ideal", m)]
    proc = subprocess.run(
        command + ["hilbert", "--n", "3", "--maxdeg", "24", *ideal],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    expected = ", ".join(str(comb(d + 2, 2) ** 2) for d in range(25)) + "\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, "")


def test_eliminate(capsys):
    code, out, _ = run(capsys, "eliminate", "--keep", "3", *DIAG)
    assert (code, out) == (0, "z[1,1]\nz[2,1]*z[1,2]\n")


def test_validate(capsys):
    code, out, _ = run(capsys, "validate", "--n", "2")
    assert code == 0
    assert out == "solvability: M_q(2)\npairs checked: 6\nfailures: 0\nverdict: PASS\n"


def test_q_one_leaves_stderr_empty(module_cli):
    # q = 1 is a supported specialization, not a warning
    command, env = module_cli
    proc = subprocess.run(
        command + ["nf", "--n", "2", "--q", "1", "z[1,1]"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "z[1,1]\n", "")


def test_build_mq(capsys):
    code, out, _ = run(capsys, "build-mq", "--n", "2")
    assert code == 0
    assert out == (
        "z[1,1]*z[1,2] = q*z[1,2]*z[1,1]\n"
        "z[1,1]*z[2,1] = q*z[2,1]*z[1,1]\n"
        "z[1,1]*z[2,2] = z[2,2]*z[1,1] + (q^2 - 1)/q*z[2,1]*z[1,2]\n"
        "z[1,2]*z[2,1] = z[2,1]*z[1,2]\n"
        "z[1,2]*z[2,2] = q*z[2,2]*z[1,2]\n"
        "z[2,1]*z[2,2] = q*z[2,2]*z[2,1]\n"
    )


def test_json_flag_everywhere(capsys):
    cases = [
        (["nf", "--n", "2", "z[1,1]*z[2,2]"], "result"),
        (["member", *DIAG, "z[2,1]*z[1,2]"], "member"),
        (["hilbert", "--n", "2", "--maxdeg", "3"], "counts"),
        (["eliminate", "--keep", "2", *DIAG], "elements"),
        (["validate", "--n", "2"], "verdict"),
        (["build-mq", "--n", "2"], "relations"),
    ]
    for argv, key in cases:
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert key in doc


# the full --json bytes of the two table commands, frozen
VALIDATE_2_JSON = """\
{
  "schema": 1,
  "n": 2,
  "kind": "solvability",
  "verdict": "PASS",
  "checks": [
    {
      "name": "z[1,1]*z[1,2]",
      "ok": true,
      "witness": ""
    },
    {
      "name": "z[1,1]*z[2,1]",
      "ok": true,
      "witness": ""
    },
    {
      "name": "z[1,2]*z[2,1]",
      "ok": true,
      "witness": ""
    },
    {
      "name": "z[1,1]*z[2,2]",
      "ok": true,
      "witness": ""
    },
    {
      "name": "z[1,2]*z[2,2]",
      "ok": true,
      "witness": ""
    },
    {
      "name": "z[2,1]*z[2,2]",
      "ok": true,
      "witness": ""
    }
  ],
  "meta": {
    "system": "M_q(2)",
    "ngens": 4,
    "pairs": 6
  }
}
"""

BUILD_MQ_2_JSON = """\
{
  "schema": 1,
  "n": 2,
  "q": "symbolic",
  "relations": [
    {
      "small": "z[1,1]",
      "big": "z[1,2]",
      "normal_form": "q*z[1,2]*z[1,1]"
    },
    {
      "small": "z[1,1]",
      "big": "z[2,1]",
      "normal_form": "q*z[2,1]*z[1,1]"
    },
    {
      "small": "z[1,1]",
      "big": "z[2,2]",
      "normal_form": "z[2,2]*z[1,1] + (q^2 - 1)/q*z[2,1]*z[1,2]"
    },
    {
      "small": "z[1,2]",
      "big": "z[2,1]",
      "normal_form": "z[2,1]*z[1,2]"
    },
    {
      "small": "z[1,2]",
      "big": "z[2,2]",
      "normal_form": "q*z[2,2]*z[1,2]"
    },
    {
      "small": "z[2,1]",
      "big": "z[2,2]",
      "normal_form": "q*z[2,2]*z[2,1]"
    }
  ]
}
"""


@pytest.mark.parametrize(
    "command, expected", [("validate", VALIDATE_2_JSON), ("build-mq", BUILD_MQ_2_JSON)]
)
def test_table_commands_json_frozen(capsys, command, expected):
    assert run(capsys, command, "--n", "2", "--json") == (0, expected, "")


def test_dimension_above_the_bound_exits_2(tmp_path, capsys):
    # M_q(n) has n^2 (n^2 - 1) / 2 relations: n = 10^6 is refused at once
    message = "error: matrix dimension must be <= 16, got 1000000\n"
    assert run(capsys, "nf", "--n", "1000000", "1") == (2, "", message)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"schema": 1, "n": 10**6, "generators": ["1"]}))
    assert run(capsys, "gb", "--file", str(path)) == (2, "", message)


def test_deterministic_output(capsys):
    first = run(capsys, "gb", *DIAG, "--json")
    second = run(capsys, "gb", *DIAG, "--json")
    assert first == second


def test_parse_error_exits_2(capsys):
    code, out, err = run(capsys, "nf", "--n", "2", "z[1,1] +")
    assert code == 2
    assert out == ""
    assert "position 8" in err


def test_deeply_nested_expression_exits_2(capsys):
    text = "(" * 400 + "z[1,1]" + ")" * 400
    code, out, err = run(capsys, "nf", "--n", "2", text)
    assert (code, out) == (2, "")
    assert err == "error: expression nests too deeply (at position 0)\n"


def test_bad_generator_exits_2(capsys):
    code, _, err = run(capsys, "nf", "--n", "2", "z[1,3]")
    assert code == 2
    assert err


def test_missing_n_exits_2(capsys):
    code, _, _ = run(capsys, "nf", "z[1,1]")
    assert code == 2


def test_unknown_command_exits_2(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_file_input(tmp_path, capsys):
    path = tmp_path / "diag.json"
    save_ideal(IdealFile(n=2, generators=["z[1,1]", "z[2,2]"]), path)
    code, out, _ = run(capsys, "gb", "--file", str(path))
    assert (code, out) == (0, "z[1,1]\nz[2,1]*z[1,2]\nz[2,2]\n")


def test_file_flag_conflict(tmp_path, capsys):
    path = tmp_path / "diag.json"
    save_ideal(IdealFile(n=2, generators=["z[1,1]"]), path)
    code, _, err = run(capsys, "gb", "--file", str(path), "--n", "3")
    assert code == 2
    assert "conflicts" in err
    # a matching --n is redundant but allowed
    code, _, _ = run(capsys, "gb", "--file", str(path), "--n", "2")
    assert code == 0


def test_flag_q_and_file_q_compare_as_values(tmp_path, capsys):
    # --q 2/1 names the file's q = 2; the output keeps the file's spelling
    path = tmp_path / "q2.json"
    save_ideal(IdealFile(n=2, generators=["z[1,1]"], q="2"), path)
    for flags in ([], ["--json"]):
        expected = run(capsys, "gb", "--file", str(path), "--q", "2", *flags)
        assert expected[0] == 0
        assert run(capsys, "gb", "--file", str(path), "--q", "2/1", *flags) == expected
    code, _, err = run(capsys, "gb", "--file", str(path), "--q", "3")
    assert (code, err) == (2, "error: --q 3 conflicts with file q 2\n")


def test_missing_file_exits_2(capsys):
    code, _, _ = run(capsys, "gb", "--file", "/nonexistent/ideal.json")
    assert code == 2


def test_degree_limit_env(capsys, monkeypatch):
    monkeypatch.setenv("MQ_MAX_DEGREE", "3")
    code, _, err = run(capsys, "nf", "--n", "2", "z[1,1]^2*z[2,2]^2")
    assert code == 3
    assert err


def test_degree_limit_from_file_overrides_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MQ_MAX_DEGREE", "64")
    path = tmp_path / "tight.json"
    save_ideal(
        IdealFile(n=2, generators=["z[1,1]"], limits={"max_degree": 3}), path
    )
    code, _, _ = run(capsys, "member", "--file", str(path), "z[1,1]^2*z[2,2]^2")
    assert code == 3


@pytest.mark.parametrize("expr", ["z[1,1]^70", "2*z[1,1]^70", "z[1,1]^70*1"])
def test_degree_guard_bounds_parsed_powers(capsys, expr):
    # the guard does not depend on how the input spells the power
    code, out, err = run(capsys, "nf", "--n", "2", expr)
    assert (code, out, err) == (3, "", "error: product degree 70 exceeds guard 64\n")


def test_degree_guard_admits_its_own_degree(capsys):
    code, out, _ = run(capsys, "nf", "--n", "2", "z[1,1]^64")
    assert (code, out) == (0, "z[1,1]^64\n")


def test_degree_guard_bounds_ideal_generators(capsys):
    code, out, err = run(capsys, "gb", "--n", "2", "--ideal", "z[1,1]^70")
    assert (code, out, err) == (3, "", "error: product degree 70 exceeds guard 64\n")


@pytest.mark.parametrize(
    "expr, expected",
    [
        ("z[1,1]^70 +", (3, "", "error: product degree 70 exceeds guard 64\n")),
        (
            "z[1,1]/z[1,2] )",
            (2, "", "error: division is only defined by scalars (at position 7)\n"),
        ),
    ],
)
def test_input_errors_are_reported_left_to_right(capsys, expr, expected):
    # the expression is evaluated as it is read: the first error in the
    # text wins, even when a syntax error follows it
    assert run(capsys, "nf", "--n", "2", expr) == expected


def test_overlong_integer_literal_exits_2(capsys):
    code, out, err = run(capsys, "nf", "--n", "2", "z[1," + "1" * 5000 + "]")
    assert (code, out) == (2, "")
    assert err == "error: integer literal of 5000 digits is too long (at position 4)\n"


def _digits(n):
    # decimal digits by repeated division by ten, independent of str(int)
    out = []
    while n:
        n, d = divmod(n, 10)
        out.append("0123456789"[d])
    return "".join(reversed(out)) or "0"


def test_coefficient_past_the_str_digit_limit_prints(capsys):
    # 2^20000 has 6,021 digits, past the 4,300 that str(int) accepts
    digits = _digits(2**20000)
    assert len(digits) == 6021
    assert run(capsys, "nf", "--n", "2", "--q", "2", "q^20000") == (
        0, digits + "\n", ""
    )
    assert run(capsys, "nf", "--n", "2", "--q", "2", "3*q^-20000*z[1,1]") == (
        0, f"3/{digits}*z[1,1]\n", ""
    )


def test_numeric_q_power_past_the_bit_bound_exits_2_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "nf", "--n", "2", "--q", "3", "q^1000000000")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "error: q^1000000000 at q = 3 exceeds 1048576 bits (at position 2)\n"


@pytest.mark.parametrize("sign", ["", "-"])
def test_symbolic_q_power_past_the_exponent_bound_exits_2(capsys, sign):
    # a 26-digit exponent once overflowed an index while padding the sum
    k = sign + "1" + "0" * 25
    code, out, err = run(capsys, "nf", "--n", "2", f"q^{k} + 1")
    assert (code, out) == (2, "")
    assert err == f"error: q^{k} exceeds the exponent bound 2147483648 (at position 2)\n"
    # the bound itself is accepted
    printed = "1/q^2147483648" if sign else "q^2147483648"
    assert run(capsys, "nf", "--n", "2", f"q^{sign}2147483648*z[1,1]") == (
        0, f"{printed}*z[1,1]\n", ""
    )


def test_negative_pair_budget_exits_2(tmp_path, capsys):
    code, out, err = run(capsys, "gb", *DIAG, "--max-pairs", "-1")
    assert (code, out, err) == (2, "", "error: pair budget must be >= 0, got -1\n")
    path = tmp_path / "negative.json"
    save_ideal(IdealFile(n=2, generators=["z[1,1]"], limits={"max_pairs": -1}), path)
    code, out, _ = run(capsys, "gb", "--file", str(path))
    assert (code, out) == (2, "")
    # a budget of 0 is valid: the run stops before the first S-polynomial
    code, _, err = run(capsys, "gb", *DIAG, "--max-pairs", "0")
    assert (code, err) == (3, "error: pair budget 0 exhausted\n")


def test_negative_degree_guard_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("MQ_MAX_DEGREE", "-1")
    for expr in ("z[2,2]", "z[1,1]*z[2,2]"):
        code, out, err = run(capsys, "nf", "--n", "2", expr)
        assert (code, out, err) == (
            2, "", "error: degree guard must be >= 0, got -1\n"
        )


@pytest.mark.parametrize("value", ["abc", "1.5", ""])
def test_non_integer_degree_guard_exits_2(capsys, monkeypatch, value):
    monkeypatch.setenv("MQ_MAX_DEGREE", value)
    code, out, err = run(capsys, "nf", "--n", "2", "z[2,2]")
    assert (code, out, err) == (
        2, "", f"error: MQ_MAX_DEGREE must be an integer, got {value!r}\n"
    )


@pytest.mark.parametrize(
    "argv",
    [["nf", "--n", "2", "--q", "1/0", "z[1,1]"], ["validate", "--n", "2", "--q", "1/0"]],
)
def test_zero_denominator_q_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: numeric q 1/0 has a zero denominator\n")


_GOOD_FILE = {"schema": 1, "n": 2, "generators": ["z[1,1]"]}


@pytest.mark.parametrize(
    "data, message",
    [
        ({**_GOOD_FILE, "q": "1/0"}, "numeric q 1/0 has a zero denominator"),
        (
            {**_GOOD_FILE, "limits": {"max_pairs": None}},
            "limits.max_pairs must be an integer, got None",
        ),
        (
            {**_GOOD_FILE, "limits": {"max_pairs": 1.7}},
            "limits.max_pairs must be an integer, got 1.7",
        ),
        (
            {**_GOOD_FILE, "limits": {"max_degree": 1.7}},
            "limits.max_degree must be an integer, got 1.7",
        ),
        ({**_GOOD_FILE, "limits": [1]}, "ideal file limits must be a JSON object"),
        ({**_GOOD_FILE, "generators": 5}, "ideal file generators must be a JSON array"),
        (
            {**_GOOD_FILE, "generators": "z[1,1]"},
            "ideal file generators must be a JSON array",
        ),
        ({**_GOOD_FILE, "n": "2"}, "n must be an integer, got '2'"),
        ({"schema": 1, "generators": ["z[1,1]"]}, "ideal file has no matrix dimension n"),
        ([_GOOD_FILE], "an ideal file must hold a JSON object"),
        ({**_GOOD_FILE, "ordering": "deglex"}, "unsupported ordering 'deglex'"),
    ],
)
def test_malformed_ideal_file_exits_2(tmp_path, capsys, data, message):
    # one error line, no traceback; exit 1 is kept for negative answers
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "gb", "--file", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_deeply_nested_ideal_file_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "gb", "--file", str(path))
    assert (code, out, err) == (2, "", "error: ideal file JSON nests too deeply\n")


def test_pair_limit_exits_3(capsys):
    argv = [
        "--n",
        "2",
        "--ideal",
        "z[1,1] + z[2,2]",
        "--ideal",
        "z[1,2]*z[2,1] + z[1,1]",
        "--max-pairs",
        "1",
    ]
    code, out, err = run(capsys, "gb", *argv)
    assert code == 3
    assert err == "error: pair budget 1 exhausted\n"
    # the interreduced partial basis still reaches stdout
    assert out == (
        "z[1,1]^2 - q^3/(q^2 + 1)*z[1,1]\n"
        "z[2,1]*z[1,2] + z[1,1]\n"
        "z[2,2] + z[1,1]\n"
    )
    code, out, _ = run(capsys, "gb", "--json", *argv)
    assert code == 3
    data = json.loads(out)
    assert data["partial"] is True
    assert data["basis"] == [
        "z[1,1]^2 - q^3/(q^2 + 1)*z[1,1]",
        "z[2,1]*z[1,2] + z[1,1]",
        "z[2,2] + z[1,1]",
    ]


def test_console_script_maps_to_main():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["mq"] == "quantmat.cli:main"


@pytest.mark.parametrize(
    "argv",
    [
        ["hilbert", "--n", "2", "--maxdeg", "4"],
        ["member", *DIAG, "z[1,2]"],
        ["nf", "--n", "2", "z[1,1] +"],
        ["frobnicate"],
        [
            "gb",
            "--n",
            "2",
            "--ideal",
            "z[1,1] + z[2,2]",
            "--ideal",
            "z[1,2]*z[2,1] + z[1,1]",
            "--max-pairs",
            "1",
        ],
    ],
)
def test_module_entry_matches_run_command(argv, module_cli, capsys):
    # `python -m quantmat` is the same front end as the `mq` script:
    # identical stdout, stderr and exit code (0, 1, 2 and 3 above)
    command, env = module_cli
    proc = subprocess.run(
        command + argv,
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["nf", "--n=--", "1"],
        ["nf", "--n", "2", "--q=--", "1"],
        ["gb", "--n", "2", "--file=--"],
        ["gb", "--n", "2", "--ideal=--"],
        ["gb", *DIAG, "--max-pairs=--"],
        ["hilbert", "--n", "2", "--maxdeg=--"],
        ["eliminate", *DIAG, "--keep=--"],
    ],
)
def test_double_dash_option_value_exits_2(capsys, argv):
    # argparse leaves an empty list for --opt=--, which no command expects
    assert run(capsys, *argv) == (2, "", "error: '--' is not an option value\n")


# -- fuzz of every command ----------------------------------------------

# Expressions come from the parser fuzz: well-formed trees over z[1..2,1..2]
# and runs of its tokens.  The token digit runs stay at 1-3 digits: at
# symbolic q a sum of far-apart q-powers pads one coefficient tuple to
# their distance (QRat.__add__), so q^999999 + 1 costs megabytes without
# being a fault of the front end.  Valid values are drawn as often as
# invalid ones, so that most commands get past their input checks.
_WELL_FORMED = _TREES.map(_render)
_EXPRS = _WELL_FORMED | st.lists(_FUZZ_TOKENS, max_size=12).map("".join)
_NS = st.sampled_from([2, 3]) | st.sampled_from([-1, 0, 1, 2, 3, 10**6])
_QS = st.sampled_from(["symbolic", "2", "-1", "1/3"]) | st.sampled_from(
    ["symbolic", "2", "-1", "1", "1/3", "0", "1/0", "junk"]
)
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(-3, 3),
    st.text(max_size=3),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2),
)
_LIMITS = st.one_of(st.integers(-2, 4), _JUNK)
_IDEAL_JSON = st.one_of(
    _JUNK,
    st.fixed_dictionaries(
        {
            "schema": st.just(1) | st.integers(0, 2) | _JUNK,
            "n": _NS | _JUNK,
        },
        optional={
            "q": st.one_of(_QS, _JUNK),
            "generators": st.one_of(st.lists(_EXPRS, max_size=3), _JUNK),
            "ordering": st.one_of(st.sampled_from(["paperlex", "deglex"]), _JUNK),
            "limits": st.one_of(
                st.fixed_dictionaries(
                    {}, optional={"max_pairs": _LIMITS, "max_degree": _LIMITS}
                ),
                _JUNK,
            ),
        },
    ),
)
_IDEAL_COMMANDS = ("gb", "member", "gkdim", "hilbert", "eliminate")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_commands_exit_with_a_code_and_one_error_line(tmp_path_factory, data):
    command = data.draw(
        st.sampled_from(["mul", *_IDEAL_COMMANDS, "validate", "build-mq"])
    )
    argv = [command]
    for flag, values in (("--n", _NS), ("--q", _QS)):
        value = data.draw(st.none() | values, label=flag)
        if value is not None:
            argv.append(f"{flag}={value}")
    if data.draw(st.booleans(), label="json"):
        argv.append("--json")
    if command in _IDEAL_COMMANDS:
        ideal = st.lists(_WELL_FORMED, max_size=3) | st.lists(_EXPRS, max_size=3)
        argv += [f"--ideal={e}" for e in data.draw(ideal)]
        argv.append(f"--max-pairs={data.draw(st.integers(0, 4))}")
        content = data.draw(st.none() | _IDEAL_JSON, label="file")
        if content is not None:
            path = tmp_path_factory.getbasetemp() / "fuzzed_ideal.json"
            path.write_text(json.dumps(content))
            argv.append(f"--file={path}")
    if command == "hilbert":
        # the output is linear in --maxdeg: a requested size, not a defect
        argv.append(f"--maxdeg={data.draw(st.integers(-1, 6))}")
    if command == "eliminate":
        argv.append(f"--keep={data.draw(st.integers(-1, 10))}")
    positional = {"mul": 2, "member": 1}.get(command)
    if positional:
        exprs = st.lists(_EXPRS, min_size=positional, max_size=positional)
        argv += ["--", *data.draw(exprs)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_command(argv)
    assert code in (0, 1, 2, 3), argv
    if code >= 2:
        assert err.getvalue().startswith("error: "), argv
        assert err.getvalue().count("\n") == 1, argv
    else:
        assert err.getvalue() == "", argv
