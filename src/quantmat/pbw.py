"""Generators, PBW monomials, the normative monomial ordering, and polynomials.

A monomial is an exponent vector over the generator set; it stands for the
word with generators written in strictly decreasing order.  The normative
comparison (PaperLex, the only ordering the engine uses) scans exponents
from the highest generator index down; the tests prove it against an
independent word-form comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple, Sequence

from .errors import DimensionMismatch, IndexOutOfRange
from .qfield import QRat

LESS, EQUAL, GREATER = -1, 0, 1


@dataclass(frozen=True)
class GeneratorId:
    """Matrix-entry generator z[row,col]; linear = (row-1)*n + (col-1)."""

    row: int
    col: int
    n: int

    @property
    def linear(self) -> int:
        return (self.row - 1) * self.n + (self.col - 1)

    def __str__(self):
        return f"z[{self.row},{self.col}]"


def gen_index(i: int, j: int, n: int) -> GeneratorId:
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexOutOfRange(f"generator z[{i},{j}] outside 1..{n}")
    return GeneratorId(i, j, n)


def gen_row_col(linear: int, n: int) -> tuple[int, int]:
    return linear // n + 1, linear % n + 1


class Monomial:
    """Exponent vector; denotes the descending PBW word it encodes."""

    __slots__ = ("exps", "degree", "_rev")

    def __init__(self, exps: Sequence[int]):
        exps = tuple(exps)
        self.exps = exps
        self.degree = sum(exps)
        self._rev = exps[::-1]

    @staticmethod
    def unit(ngens: int) -> "Monomial":
        return Monomial((0,) * ngens)

    @staticmethod
    def gen(linear: int, ngens: int, power: int = 1) -> "Monomial":
        exps = [0] * ngens
        exps[linear] = power
        return Monomial(exps)

    @property
    def ngens(self) -> int:
        return len(self.exps)

    def is_unit(self) -> bool:
        return self.degree == 0

    def word(self) -> tuple[int, ...]:
        """Generator indices of the descending word, highest first."""
        out = []
        for g in range(len(self.exps) - 1, -1, -1):
            out.extend([g] * self.exps[g])
        return tuple(out)

    def top(self) -> int:
        """Largest generator index with nonzero exponent; -1 for the unit."""
        for g in range(len(self.exps) - 1, -1, -1):
            if self.exps[g]:
                return g
        return -1

    def support(self) -> tuple[int, ...]:
        return tuple(g for g, e in enumerate(self.exps) if e)

    def sort_key(self) -> tuple[int, ...]:
        # reversed exponents make Python tuple order coincide with PaperLex
        return self._rev

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self):
        return hash(self.exps)

    def __repr__(self):
        return f"Monomial{self.exps}"


def _check_same_ngens(a: Monomial, b: Monomial):
    if len(a.exps) != len(b.exps):
        raise DimensionMismatch(
            f"monomials over {len(a.exps)} and {len(b.exps)} generators"
        )


def compare_monomials(a: Monomial, b: Monomial) -> int:
    """Normative PaperLex comparison on exponent vectors.

    Scans linear indices from the top generator down; at the first index
    where the exponents differ the larger one wins.
    """
    _check_same_ngens(a, b)
    if a._rev == b._rev:
        return EQUAL
    return GREATER if a._rev > b._rev else LESS


# bit i of a support mask stands for generator i; compress keeps the bits
# of the nonzero exponents.  Generators past the last bit are left out of
# the mask, which then only tests the others: a mask is a quick necessary
# condition for divisibility, and the exponents decide.
_BITS = tuple(1 << i for i in range(64))


def _support_mask(exps: Sequence[int]) -> int:
    """Bit i set for every generator index i < 64 with a nonzero exponent."""
    return sum(compress(_BITS, exps))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    _check_same_ngens(a, b)
    return all(x <= y for x, y in zip(a.exps, b.exps))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    _check_same_ngens(a, b)
    return Monomial(tuple(max(x, y) for x, y in zip(a.exps, b.exps)))


def mono_sum(a: Monomial, b: Monomial) -> Monomial:
    """Exponent sum; the leading monomial of the straightened product."""
    _check_same_ngens(a, b)
    return Monomial(tuple(x + y for x, y in zip(a.exps, b.exps)))


def mono_sub(a: Monomial, b: Monomial) -> Monomial:
    """Exponentwise difference a - b; requires b | a."""
    _check_same_ngens(a, b)
    return Monomial(tuple(x - y for x, y in zip(a.exps, b.exps)))


class Term(NamedTuple):
    coeff: QRat
    mono: Monomial


class Polynomial:
    """Canonical finite sum of terms, strictly descending under PaperLex.

    A polynomial never changes, so two values derived from it are computed
    on first use and kept in slots: its hash, which keys the product memo
    of ``CommutationSystem.mono_mul``, and the support of its LM (see
    ``_lm_support``), which division and the chain criterion test
    divisibility by.  Filling a slot twice stores the same value, so
    polynomials can still be shared across threads.
    """

    __slots__ = ("terms", "ngens", "_hash", "_support")

    def __init__(self, terms: tuple[Term, ...], ngens: int):
        # trusted constructor: terms must already be canonical
        self.terms = terms
        self.ngens = ngens

    @staticmethod
    def zero(ngens: int) -> "Polynomial":
        return Polynomial((), ngens)

    @staticmethod
    def one(ngens: int) -> "Polynomial":
        from .qfield import ONE

        return Polynomial((Term(ONE, Monomial.unit(ngens)),), ngens)

    @staticmethod
    def from_mono(mono: Monomial, coeff: QRat | None = None) -> "Polynomial":
        from .qfield import ONE

        c = ONE if coeff is None else coeff
        if c.is_zero():
            return Polynomial((), mono.ngens)
        return Polynomial((Term(c, mono),), mono.ngens)

    def is_zero(self) -> bool:
        return not self.terms

    def lt(self) -> Term:
        return self.terms[0]

    def lm(self) -> Monomial:
        return self.terms[0].mono

    def lc(self) -> QRat:
        return self.terms[0].coeff

    def degree(self) -> int:
        """Maximal total degree over the terms; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(t.mono.degree for t in self.terms)

    def monic(self) -> "Polynomial":
        if not self.terms or self.lc().is_one():
            return self
        inv = self.lc().inv()
        return Polynomial(
            tuple(Term(c * inv, m) for c, m in self.terms), self.ngens
        )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return poly_add(self, other)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return poly_add(self, -other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(
            tuple(Term(-c, m) for c, m in self.terms), self.ngens
        )

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ngens == other.ngens
            and self.terms == other.terms
        )

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = self._hash = hash((self.ngens, self.terms))
            return h

    def _lm_support(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """LM(self) as its generator bitmask and its (index, exponent) pairs.

        LM(self) divides a monomial m exactly when the mask has no bit
        that ``_support_mask(m.exps)`` lacks and every pair's exponent is at
        most m's; the mask rejects most non-divisors in one integer test.
        """
        try:
            return self._support
        except AttributeError:
            exps = self.terms[0].mono.exps
            s = self._support = (
                _support_mask(exps),
                tuple((i, e) for i, e in enumerate(exps) if e),
            )
            return s

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        return f"Polynomial({len(self.terms)} terms, lm={self.lm().exps})"


def poly_from_dict(acc: dict[Monomial, QRat], ngens: int) -> Polynomial:
    """Canonicalize an already-merged accumulator (internal hot path)."""
    terms = tuple(
        Term(c, m)
        for m, c in sorted(acc.items(), key=lambda kv: kv[0]._rev, reverse=True)
        if not c.is_zero()
    )
    return Polynomial(terms, ngens)


def poly_add(f: Polynomial, g: Polynomial) -> Polynomial:
    if f.ngens != g.ngens:
        raise DimensionMismatch(
            f"polynomials over {f.ngens} and {g.ngens} generators"
        )
    if not f.terms:
        return g
    if not g.terms:
        return f
    acc = {m: c for c, m in f.terms}
    for c, m in g.terms:
        prev = acc.get(m)
        acc[m] = c if prev is None else prev + c
    return poly_from_dict(acc, f.ngens)
