"""Only quantmat.qfield knows how an element of Q(q) is stored.

Every other module of the package builds coefficients through
`QRat.from_rational`, `QMode.q_power` and arithmetic, and prints them
through `format_qrat` and `format_factor`.  A change of the storage (a
packed Z[q], a second coefficient domain) then touches one module.
"""

import ast
import subprocess
import sys
from pathlib import Path

import quantmat

PACKAGE = Path(quantmat.__file__).resolve().parent
# QRat's stored parts, and a QMode's value and kind
PRIVATE_ATTRS = {"_n", "_d", "_v", "value", "is_symbolic"}


def _violations(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute):
            if node.attr in PRIVATE_ATTRS:
                found.append(f"reads .{node.attr}")
            if isinstance(node.value, ast.Name) and node.value.id == "qfield":
                if node.attr.startswith("_"):
                    found.append(f"reads qfield.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("qfield"):
            found += [f"imports {a.name}" for a in node.names if a.name.startswith("_")]
    return [f"{path.name}:{line}" for line in found]


def test_only_qfield_reads_the_coefficient_storage():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "qfield.py" in modules and len(modules) > 5
    found = [v for m in modules if m.name != "qfield.py" for v in _violations(m)]
    assert found == []


def test_qfield_prints_without_textio():
    # the package __init__ imports every module; a bare package object
    # lets quantmat.qfield load alone
    code = (
        "import sys, types\n"
        "pkg = types.ModuleType('quantmat')\n"
        f"pkg.__path__ = [{str(PACKAGE)!r}]\n"
        "sys.modules['quantmat'] = pkg\n"
        "from quantmat.qfield import ONE, Q, SYMBOLIC, format_factor\n"
        "assert str(Q + SYMBOLIC.q_power(-1)) == '(q^2 + 1)/q'\n"
        "assert format_factor(-Q - ONE) == (True, '(q + 1)')\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('quantmat'))))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["quantmat", "quantmat.errors", "quantmat.qfield"]
