"""Generators, PBW monomials, the normative monomial ordering, and polynomials.

A monomial is an exponent vector over the generator set; it stands for the
word with generators written in strictly decreasing order.  The normative
comparison (PaperLex, the only ordering the engine uses) scans exponents
from the highest generator index down; the tests prove it against an
independent word-form comparison.

The data is plain: a ``Monomial`` is a tuple of exponents, a ``Term`` a
(coefficient, monomial) pair, and a ``Polynomial`` a tuple of terms in
descending PaperLex order.  The hot paths of the engine merge terms in a
dict keyed by monomial and sort once, by ``_paperlex_key``, when they
build a polynomial (``poly_from_dict``).
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter
from typing import NamedTuple, Sequence

from .errors import DimensionMismatch, IndexOutOfRange
from .qfield import ONE, QRat

LESS, EQUAL, GREATER = -1, 0, 1


def gen_index(i: int, j: int, n: int) -> int:
    """Linear index (i-1)*n + (j-1) of the matrix-entry generator z[i,j]."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexOutOfRange(f"generator z[{i},{j}] outside 1..{n}")
    return (i - 1) * n + (j - 1)


class Monomial(tuple):
    """Exponent vector; denotes the descending PBW word it encodes.

    A monomial is the tuple of its exponents in generator order, and hot
    code indexes it directly.  Hashing and ``==`` are tuple's, so a
    Monomial equals, and hashes as, the plain tuple of its exponents, and
    dict and heap lookups run no Python code.  So is ``<``: tuple order is
    lexicographic from the lowest generator and is not PaperLex, which
    ``_paperlex_key`` and ``compare_monomials`` give.  ``exps`` is the monomial
    itself; ``str`` prints it as the plain tuple, ``repr`` tags it.
    """

    __slots__ = ()

    @staticmethod
    def unit(ngens: int) -> "Monomial":
        return Monomial((0,) * ngens)

    @staticmethod
    def gen(linear: int, ngens: int, power: int = 1) -> "Monomial":
        exps = [0] * ngens
        exps[linear] = power
        return Monomial(exps)

    @property
    def exps(self) -> "Monomial":
        return self

    @property
    def degree(self) -> int:
        return sum(self)

    @property
    def ngens(self) -> int:
        return len(self)

    def is_unit(self) -> bool:
        return not any(self)

    def top(self) -> int:
        """Largest generator index with nonzero exponent; -1 for the unit."""
        for g in range(len(self) - 1, -1, -1):
            if self[g]:
                return g
        return -1

    __str__ = tuple.__repr__

    def __repr__(self):
        return f"Monomial{tuple.__repr__(self)}"


def _check_same_ngens(a: Monomial, b: Monomial):
    if len(a) != len(b):
        raise DimensionMismatch(f"monomials over {len(a)} and {len(b)} generators")


# PaperLex, the one monomial ordering: scan the exponents from the top
# generator down, and at the first index where they differ the larger one
# wins.  So the PaperLex key of a monomial is its reversed exponents, and
# Python's tuple order on the keys is PaperLex.  Every sort and comparison
# of monomials goes through this key; it runs in C.
_paperlex_key = itemgetter(slice(None, None, -1))


def compare_monomials(a: Monomial, b: Monomial) -> int:
    """Normative PaperLex comparison on exponent vectors (see ``_paperlex_key``)."""
    _check_same_ngens(a, b)
    ra, rb = _paperlex_key(a), _paperlex_key(b)
    if ra == rb:
        return EQUAL
    return GREATER if ra > rb else LESS


# bit i of a support mask stands for generator i; compress keeps the bits
# of the nonzero exponents.  Generators past the last bit are left out of
# the mask, which then only tests the others: a mask is a quick necessary
# condition for divisibility, and the exponents decide.
_BITS = tuple(1 << i for i in range(64))


def _support_mask(exps: Sequence[int]) -> int:
    """Bit i set for every generator index i < 64 with a nonzero exponent."""
    return sum(compress(_BITS, exps))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    _check_same_ngens(a, b)
    return Monomial([x if x > y else y for x, y in zip(a, b)])


def mono_sum(a: Monomial, b: Monomial) -> Monomial:
    """Exponent sum; the leading monomial of the straightened product."""
    _check_same_ngens(a, b)
    return Monomial([x + y for x, y in zip(a, b)])


class Term(NamedTuple):
    """One term of a polynomial.  Hot code builds it as
    ``_new_tuple(Term, (coeff, mono))``, skipping the Python-level
    ``__new__`` that NamedTuple generates."""

    coeff: QRat
    mono: Monomial


_new_tuple = tuple.__new__


class Polynomial:
    """Canonical finite sum of terms, strictly descending under PaperLex.

    A polynomial never changes, so two values derived from it are computed
    on first use and kept in slots: its degree, which the degree guard of
    ``CommutationSystem.mono_mul`` reads on every product, and the support
    of its LM (see ``_lm_support``), which division and the chain criterion
    test divisibility by.  Filling a slot twice stores the same value, so
    polynomials can still be shared across threads.
    """

    __slots__ = ("terms", "ngens", "_degree", "_support")

    def __init__(self, terms: tuple[Term, ...], ngens: int):
        # trusted constructor: terms must already be canonical
        self.terms = terms
        self.ngens = ngens

    @staticmethod
    def zero(ngens: int) -> "Polynomial":
        return Polynomial((), ngens)

    @staticmethod
    def one(ngens: int) -> "Polynomial":
        return Polynomial((Term(ONE, Monomial.unit(ngens)),), ngens)

    @staticmethod
    def from_mono(mono: Monomial, coeff: QRat | None = None) -> "Polynomial":
        c = ONE if coeff is None else coeff
        if c.is_zero():
            return Polynomial((), len(mono))
        return Polynomial((_new_tuple(Term, (c, mono)),), len(mono))

    def is_zero(self) -> bool:
        return not self.terms

    def lm(self) -> Monomial:
        return self.terms[0][1]

    def lc(self) -> QRat:
        return self.terms[0][0]

    def degree(self) -> int:
        """Maximal total degree over the terms; -1 for the zero polynomial."""
        try:
            return self._degree
        except AttributeError:
            d = self._degree = max([sum(t[1]) for t in self.terms], default=-1)
            return d

    def monic(self) -> "Polynomial":
        if not self.terms or self.lc().is_one():
            return self
        inv = self.lc().inv()
        return Polynomial(
            tuple([_new_tuple(Term, (c * inv, m)) for c, m in self.terms]),
            self.ngens,
        )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return poly_add(self, other)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return poly_add(self, -other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(
            tuple([_new_tuple(Term, (-c, m)) for c, m in self.terms]), self.ngens
        )

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ngens == other.ngens
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ngens, self.terms))

    def _lm_support(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """LM(self) as its generator bitmask and its (index, exponent) pairs.

        LM(self) divides a monomial m exactly when the mask has no bit
        that ``_support_mask(m)`` lacks and every pair's exponent is at
        most m's; the mask rejects most non-divisors in one integer test.
        """
        try:
            return self._support
        except AttributeError:
            exps = self.terms[0][1]
            s = self._support = (
                _support_mask(exps),
                tuple((i, e) for i, e in enumerate(exps) if e),
            )
            return s

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        return f"Polynomial({len(self.terms)} terms, lm={self.lm()})"


def poly_from_dict(acc: dict[Monomial, QRat], ngens: int) -> Polynomial:
    """Canonicalize an already-merged accumulator (internal hot path):
    drop the zero coefficients, sort once, box each term once."""
    return Polynomial(
        tuple(
            [
                _new_tuple(Term, (c, m))
                for m in sorted(acc, key=_paperlex_key, reverse=True)
                if not (c := acc[m]).is_zero()
            ]
        ),
        ngens,
    )


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
