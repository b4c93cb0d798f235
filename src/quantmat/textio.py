"""Text syntax for polynomials and JSON ideal files.

Grammar (products are noncommutative and straightened in written order;
division is permitted by nonzero scalar factors only):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := integer | 'q' ['^' ['-'] integer]
            | 'z[' integer ',' integer ']' ['^' integer] | '(' expr ')'

Expressions are evaluated as parsed: each grammar rule returns the
canonical polynomial of the text it read, and no syntax tree is built.
Errors are therefore reported in text order; an evaluation error (the
degree guard, a non-scalar divisor, a q^k past the bounds of
`QMode.q_power`, a sum of powers of q past the span guard of
`quantmat.qfield`) precedes any syntax error further right.

Formatting emits terms in descending basis order and round-trips:
parse_poly(format_poly(p)) == p exactly, unless it prints an integer
longer than the parser accepts (4,300 digits).  The text of each
coefficient comes from `quantmat.qfield.format_factor`.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from math import isqrt
from typing import Sequence

from .errors import InvalidSpec, NegativeGeneratorPower, ParseError
from .mq import MqSpec
from .pbw import Monomial, Polynomial, gen_index
from .qfield import QMode, QRat, format_factor
from .straighten import CommutationSystem, scalar_mul

SCHEMA_VERSION = 1


def format_mono(m: Monomial, names: Sequence[str]) -> str:
    """Descending generator word, e.g. 'z[2,1]*z[1,2]^2'; unit is '1'."""
    parts = []
    for g in range(m.ngens - 1, -1, -1):
        e = m.exps[g]
        if e:
            parts.append(names[g] if e == 1 else f"{names[g]}^{e}")
    return "*".join(parts) if parts else "1"


def format_poly(p: Polynomial, names: Sequence[str]) -> str:
    """Canonical text: terms in descending basis order, signs joined."""
    if p.is_zero():
        return "0"
    out = []
    for c, m in p.terms:
        neg, factor = format_factor(c)
        if m.is_unit():
            body = factor
        elif factor == "1":
            body = format_mono(m, names)
        else:
            body = f"{factor}*{format_mono(m, names)}"
        if not out:
            out.append(("-" if neg else "") + body)
        else:
            out.append((" - " if neg else " + ") + body)
    return "".join(out)


# -- tokenizer and parser -------------------------------------------------

_TOKEN = re.compile(r"(\d+)|([A-Za-z]+)|(\S)")
_SYMBOLS = set("+-*/^()[],")

def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for match in _TOKEN.finditer(text):
        pos = match.start()
        if match.group(1):
            tokens.append(("num", match.group(1), pos))
        elif match.group(2):
            tokens.append(("name", match.group(2), pos))
        else:
            ch = match.group(3)
            if ch not in _SYMBOLS:
                raise ParseError(f"unexpected character {ch!r}", pos)
            tokens.append((ch, ch, pos))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent that evaluates as it parses: each rule returns the
    canonical polynomial of the text it consumed, so errors are reported
    in the order they occur in the text."""

    def __init__(self, text: str, sys: CommutationSystem):
        self.tokens = _tokenize(text)
        self.i = 0
        self.sys = sys

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def take(self, kind: str) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        self.i += 1
        return tok

    def parse(self) -> Polynomial:
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r} after expression", tok[2])
        return value

    def expr(self) -> Polynomial:
        if self.peek()[0] == "-":
            self.take("-")
            acc = -self.term()
        else:
            acc = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take(self.peek()[0])[0]
            value = self.term()
            acc = acc + value if op == "+" else acc - value
        return acc

    def term(self) -> Polynomial:
        acc = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.take(self.peek()[0])[0]
            pos = self.peek()[2]
            value = self.factor()
            if op == "*":
                acc = self.sys.poly_mul(acc, value)
            elif value.is_zero():
                raise ParseError("division by zero", pos)
            elif len(value.terms) > 1 or not value.lm().is_unit():
                raise ParseError("division is only defined by scalars", pos)
            else:
                acc = scalar_mul(value.lc().inv(), acc)
        return acc

    def factor(self) -> Polynomial:
        kind, text, pos = self.peek()
        ngens = self.sys.ngens
        if kind == "num":
            c = QRat.from_rational(self._integer())
            return Polynomial.from_mono(Monomial.unit(ngens), c)
        if kind == "name":
            if text == "q":
                self.take("name")
                power, at = 1, pos
                if self.peek()[0] == "^":
                    at = self.tokens[self.i + 1][2]  # the exponent, after '^'
                    power = self._exponent(allow_negative=True)
                try:
                    c = self.sys.qmode.q_power(power)
                except InvalidSpec as exc:  # past a bound on q^k
                    raise ParseError(str(exc), at) from None
                return Polynomial.from_mono(Monomial.unit(ngens), c)
            if text == "z":
                self.take("name")
                self.take("[")
                row = self._integer()
                self.take(",")
                col = self._integer()
                self.take("]")
                power = 1
                if self.peek()[0] == "^":
                    power = self._exponent(allow_negative=False)
                n = isqrt(ngens)
                if n * n != ngens:
                    raise ParseError("z[i,j] generators need a square generator count", pos)
                linear = gen_index(row, col, n)
                self.sys.check_degree(power)
                return Polynomial.from_mono(Monomial.gen(linear, ngens, power))
            raise ParseError(f"unknown symbol {text!r}", pos)
        if kind == "(":
            self.take("(")
            inner = self.expr()
            self.take(")")
            return inner
        raise ParseError(f"expected a factor, found {text or 'end of input'!r}", pos)

    def _integer(self) -> int:
        _, text, pos = self.take("num")
        try:
            return int(text)
        except ValueError:  # past the interpreter's limit on digits
            raise ParseError(f"integer literal of {len(text)} digits is too long", pos) from None

    def _exponent(self, allow_negative: bool) -> int:
        self.take("^")
        neg = False
        if self.peek()[0] == "-":
            tok = self.take("-")
            if not allow_negative:
                raise NegativeGeneratorPower(
                    "generator exponents must be nonnegative", tok[2]
                )
            neg = True
        value = self._integer()
        return -value if neg else value


def parse_poly(text: str, sys: CommutationSystem) -> Polynomial:
    """Parse an expression and evaluate it to its canonical polynomial."""
    try:
        return _Parser(text, sys).parse()
    except RecursionError:
        # the parser recurses once per level of nesting
        raise ParseError("expression nests too deeply", 0) from None


# -- ideal files ----------------------------------------------------------


@dataclass
class IdealFile:
    """JSON-serializable ideal description; q is 'symbolic' or a rational."""

    n: int
    q: str = "symbolic"
    generators: list[str] = field(default_factory=list)
    limits: dict = field(default_factory=dict)

    def __post_init__(self):
        MqSpec(self.n)  # raises for a dimension out of range
        if self.q != "symbolic":
            QMode.numeric(self.q)  # raises for a zero or malformed q
        for key in ("max_pairs", "max_degree"):
            if key in self.limits:
                _check_integer(f"limits.{key}", self.limits[key])

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "n": self.n,
            "q": self.q,
            "generators": list(self.generators),
            "ordering": "paperlex",
            "limits": dict(self.limits),
        }

    @staticmethod
    def from_json_dict(data: dict) -> "IdealFile":
        if not isinstance(data, dict):
            raise InvalidSpec("an ideal file must hold a JSON object")
        if data.get("schema") != SCHEMA_VERSION:
            raise InvalidSpec(f"unsupported ideal file schema {data.get('schema')!r}")
        if "n" not in data:
            raise InvalidSpec("ideal file has no matrix dimension n")
        generators = data.get("generators", [])
        if not isinstance(generators, list):
            raise InvalidSpec("ideal file generators must be a JSON array")
        limits = data.get("limits", {})
        if not isinstance(limits, dict):
            raise InvalidSpec("ideal file limits must be a JSON object")
        ordering = str(data.get("ordering", "paperlex"))
        if ordering != "paperlex":
            # the engine has one ordering; the field names it for readers
            raise InvalidSpec(f"unsupported ordering {ordering!r}")
        return IdealFile(
            n=_check_integer("n", data["n"]),
            q=str(data.get("q", "symbolic")),
            generators=[str(s) for s in generators],
            limits=dict(limits),
        )


def _check_integer(name: str, value) -> int:
    # bool is an int subclass, and a float limit would be truncated
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidSpec(f"{name} must be an integer, got {value!r}")
    return value


def load_ideal(path) -> IdealFile:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise InvalidSpec("ideal file JSON nests too deeply") from None
    return IdealFile.from_json_dict(data)


def save_ideal(ideal: IdealFile, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ideal.to_json_dict(), fh, indent=2)
        fh.write("\n")
