"""Text syntax for polynomials and JSON ideal files.

Grammar (products are noncommutative and evaluated in written order;
division is permitted by scalar factors only):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := integer | 'q' ['^' int] | 'z[' row ',' col ']' ['^' nat]
            | '(' expr ')'

Formatting emits terms in descending basis order and round-trips:
parse_poly(format_poly(p)) == p exactly.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from typing import Optional, Sequence, Union

from .errors import InvalidSpec, NegativeGeneratorPower, ParseError
from .pbw import Monomial, Polynomial, gen_index
from .qfield import QMode, QRat, ZERO
from .straighten import CommutationSystem, scalar_mul

SCHEMA_VERSION = 1


# -- coefficient formatting ----------------------------------------------


def _fmt_qpoly(p: tuple, shift: int, lead: int) -> tuple[str, int]:
    """Render q^shift * p / lead, highest power first; returns (text, #terms).

    p holds integers; a coefficient that lead does not divide prints as a
    reduced fraction.  The shift is added to the printed exponents, so
    q^k is never padded out to a tuple of length k.
    """
    pieces = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if not c:
            continue
        neg = c < 0
        a = -c if neg else c
        if lead != 1:
            quo, rem = divmod(a, lead)
            a = Fraction(a, lead) if rem else quo
        k += shift
        if k == 0:
            body = str(a)
        else:
            qs = "q" if k == 1 else f"q^{k}"
            body = qs if a == 1 else f"{a}*{qs}"
        if not pieces:
            pieces.append(("-" if neg else "") + body)
        else:
            pieces.append((" - " if neg else " + ") + body)
    if not pieces:
        return "0", 0
    return "".join(pieces), len(pieces)


def _qrat_core(a: QRat) -> tuple[str, bool]:
    """Positive-sign rendering; the flag says parens are needed before '*'.

    Renders the stored q^v * n/d as num/den over the rationals, with den
    monic and the power of q on whichever side keeps both polynomials:
    the text of ``a.num`` and ``a.den`` without building their padding.
    """
    n, d, v = a._n, a._d, a._v
    lead = d[-1]
    num_s, num_terms = _fmt_qpoly(n, max(v, 0), lead)
    if len(d) == 1 and v >= 0:
        return num_s, num_terms > 1
    den_s, den_terms = _fmt_qpoly(d, max(-v, 0), lead)
    nm = f"({num_s})" if num_terms > 1 else num_s
    dn = f"({den_s})" if den_terms > 1 else den_s
    return f"{nm}/{dn}", False


def format_qrat(c: QRat) -> str:
    """Standalone coefficient text, e.g. '-(q^2 - 1)/q'."""
    if c.is_zero():
        return "0"
    neg = c.sign() < 0
    core, _ = _qrat_core(-c if neg else c)
    return ("-" + core) if neg else core


def _coeff_product(a: QRat) -> str:
    """Positive coefficient as a factor string safe to follow with '*...'."""
    core, needs_parens = _qrat_core(a)
    return f"({core})" if needs_parens else core


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
        neg = c.sign() < 0
        a = -c if neg else c
        if m.is_unit():
            body = _coeff_product(a)
        elif a.is_one():
            body = format_mono(m, names)
        else:
            body = f"{_coeff_product(a)}*{format_mono(m, names)}"
        if not out:
            out.append(("-" if neg else "") + body)
        else:
            out.append((" - " if neg else " + ") + body)
    return "".join(out)


# -- expression AST -------------------------------------------------------


@dataclass(frozen=True)
class RationalLit:
    value: Fraction
    pos: int = 0


@dataclass(frozen=True)
class QPower:
    power: int
    pos: int = 0


@dataclass(frozen=True)
class GenPower:
    row: int
    col: int
    power: int = 1
    pos: int = 0


@dataclass(frozen=True)
class Group:
    inner: "ExprNode"
    pos: int = 0


@dataclass(frozen=True)
class Product:
    # items are (op, node) with op in '*/' ; the first op is always '*'
    items: tuple
    pos: int = 0


@dataclass(frozen=True)
class Sum:
    # items are (sign, node) with sign +1 or -1
    items: tuple
    pos: int = 0


ExprNode = Union[RationalLit, QPower, GenPower, Group, Product, Sum]


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
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def take(self, kind: str) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        self.i += 1
        return tok

    def parse(self) -> ExprNode:
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r} after expression", tok[2])
        return node

    def expr(self) -> ExprNode:
        pos = self.peek()[2]
        items = []
        sign = 1
        if self.peek()[0] == "-":
            self.take("-")
            sign = -1
        items.append((sign, self.term()))
        while self.peek()[0] in ("+", "-"):
            op = self.take(self.peek()[0])
            items.append((1 if op[0] == "+" else -1, self.term()))
        return Sum(tuple(items), pos)

    def term(self) -> ExprNode:
        pos = self.peek()[2]
        items = [("*", self.factor())]
        while self.peek()[0] in ("*", "/"):
            op = self.take(self.peek()[0])
            items.append((op[0], self.factor()))
        return Product(tuple(items), pos)

    def factor(self) -> ExprNode:
        kind, text, pos = self.peek()
        if kind == "num":
            self.take("num")
            return RationalLit(Fraction(int(text)), pos)
        if kind == "name":
            if text == "q":
                self.take("name")
                power = self._exponent(allow_negative=True) if self.peek()[0] == "^" else 1
                return QPower(power, pos)
            if text == "z":
                self.take("name")
                self.take("[")
                row = int(self.take("num")[1])
                self.take(",")
                col = int(self.take("num")[1])
                self.take("]")
                power = 1
                if self.peek()[0] == "^":
                    power = self._exponent(allow_negative=False)
                return GenPower(row, col, power, pos)
            raise ParseError(f"unknown symbol {text!r}", pos)
        if kind == "(":
            self.take("(")
            inner = self.expr()
            self.take(")")
            return Group(inner, pos)
        raise ParseError(f"expected a factor, found {text or 'end of input'!r}", pos)

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
        value = int(self.take("num")[1])
        return -value if neg else value


def parse_expr(text: str) -> ExprNode:
    return _Parser(text).parse()


# -- evaluation -----------------------------------------------------------


def _scalar_of(p: Polynomial) -> Optional[QRat]:
    """The coefficient if p is a scalar (constant) polynomial, else None."""
    if p.is_zero():
        return ZERO
    if len(p.terms) == 1 and p.terms[0].mono.is_unit():
        return p.terms[0].coeff
    return None


def eval_expr(node: ExprNode, sys: CommutationSystem) -> Polynomial:
    ngens = sys.ngens
    one = Polynomial.one(ngens)
    if isinstance(node, RationalLit):
        return scalar_mul(QRat.from_rational(node.value), one)
    if isinstance(node, QPower):
        return scalar_mul(QRat.q_power(node.power).specialize(sys.qmode), one)
    if isinstance(node, GenPower):
        n = isqrt(ngens)
        if n * n != ngens:
            raise ParseError(
                "z[i,j] generators need a square generator count", node.pos
            )
        linear = gen_index(node.row, node.col, n).linear
        sys.check_degree(node.power)
        return Polynomial.from_mono(Monomial.gen(linear, ngens, node.power))
    if isinstance(node, Group):
        return eval_expr(node.inner, sys)
    if isinstance(node, Product):
        acc = eval_expr(node.items[0][1], sys)
        for op, sub in node.items[1:]:
            v = eval_expr(sub, sys)
            if op == "*":
                acc = sys.poly_mul(acc, v)
                continue
            c = _scalar_of(v)
            if c is None:
                raise ParseError("division is only defined by scalars", sub.pos)
            if c.is_zero():
                raise ParseError("division by zero", sub.pos)
            acc = scalar_mul(c.inv(), acc)
        return acc
    if isinstance(node, Sum):
        acc = Polynomial.zero(ngens)
        for sign, sub in node.items:
            v = eval_expr(sub, sys)
            acc = acc + v if sign > 0 else acc - v
        return acc
    raise TypeError(f"not an expression node: {node!r}")


def parse_poly(text: str, sys: CommutationSystem) -> Polynomial:
    """Parse and straighten an expression into canonical form."""
    try:
        return eval_expr(parse_expr(text), sys)
    except RecursionError:
        # the parser and the evaluator recurse once per level of nesting
        raise ParseError("expression nests too deeply", 0) from None


# -- ideal files ----------------------------------------------------------


@dataclass
class IdealFile:
    """JSON-serializable ideal description; q is 'symbolic' or a rational."""

    n: int
    q: str = "symbolic"
    generators: list[str] = field(default_factory=list)
    ordering: str = "paperlex"
    limits: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 2:
            raise InvalidSpec(f"matrix dimension must be >= 2, got {self.n}")
        if self.ordering != "paperlex":
            raise InvalidSpec(f"unsupported ordering {self.ordering!r}")
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
            "ordering": self.ordering,
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
        return IdealFile(
            n=_check_integer("n", data["n"]),
            q=str(data.get("q", "symbolic")),
            generators=[str(s) for s in generators],
            ordering=str(data.get("ordering", "paperlex")),
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
        json.dump(ideal.to_json_dict(), fh, indent=2, sort_keys=False)
        fh.write("\n")
