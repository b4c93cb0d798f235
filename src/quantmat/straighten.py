"""Straightening engine: multiplication in any algebra given by a
commutation table, plus the machine check that the table is solvable.

The table holds, for every generator pair big > small, the normal form of
the ascending product z_small * z_big as lam * (z_big z_small) + f.  The
engine is generic: the quantized matrix algebra is one instance; the
quantum plane and the first Weyl algebra ship as controls, one without
tails and one with.

``validate_solvability`` checks a table: for every pair, lam != 0 and
LM(f) below z_big z_small.  It returns the pairs it checked or raises
``InvalidSpec`` naming each failing pair; every system runs it when
built, with no way to skip it.  With PaperLex a lex order on exponent vectors, that is all
the engine needs of its ordering: a product u*v then leads with u + v
times a nonzero scalar.

Every product goes through one algorithm, the fold behind
``CommutationSystem.mono_mul(u, g)``: the left multiple of a polynomial g
by a monomial u, found by folding u's letters over all of g, lowest
letter first, and merging after each letter into an unsorted dict; only
the finished product is sorted.  A letter at or above a word's top letter
only raises its exponent; any other letter times a basis word comes from
the letter memo, whose values are unsorted (coefficient, monomial) pairs
that the fold merges as they are.  In M_q(n) most pairs swap with a power
of q and no tail, so a memo miss moves the letter past all such letters
of the word in one pass and recurses only at the first letter whose
relation has a tail; that tail's terms are folded over the rest of the
word by the same fold, in place, under the same degree guard as
``mono_mul``.
"""

from __future__ import annotations

import weakref
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Optional

from .errors import DegreeGuardExceeded, DimensionMismatch, InvalidSpec, MissingPair
from .pbw import (
    LESS,
    Monomial,
    Polynomial,
    Term,
    _new_tuple,
    compare_monomials,
    mono_sum,
    poly_from_dict,
)
from .qfield import ONE, QMode, QRat, SYMBOLIC

DEFAULT_MAX_DEGREE = 64


class CommutationSystem:
    """Immutable multiplication table z_small*z_big = lam*(z_big z_small) + f.

    ``table`` maps (big, small) linear-index pairs (big > small) to
    (lam, f) with f a canonical polynomial; it is checked for solvability
    when the system is built, before anything is stored, and kept as a
    read-only view.  The per-generator rows that products read are built
    from it with the system.  Letter times basis word is memoized per
    system (an lru_cache of at most 65,536 entries, which
    ``cache_info`` reports).  The memo holds no strong reference to its
    system and is safe under concurrent multiplication.
    """

    def __init__(
        self,
        ngens: int,
        table: Mapping[tuple[int, int], tuple[QRat, Polynomial]],
        qmode: QMode = SYMBOLIC,
        gen_names: Optional[tuple[str, ...]] = None,
        max_degree: int = DEFAULT_MAX_DEGREE,
        name: str = "",
    ):
        if max_degree < 0:
            raise InvalidSpec(f"degree guard must be >= 0, got {max_degree}")
        gen_names = gen_names or tuple(f"g{k}" for k in range(ngens))
        table = dict(table)
        validate_solvability(ngens, table, gen_names)
        self.ngens = ngens
        self.table = MappingProxyType(table)
        self.qmode = qmode
        self.gen_names = gen_names
        self.max_degree = max_degree
        self.name = name
        # per generator g: (h, lam, tail terms) of every pair (h, g) with h
        # above g, top down
        self._rows = [
            [
                (h, lam, f.terms)
                for h in range(ngens - 1, g, -1)
                for lam, f in (table[(h, g)],)
            ]
            for g in range(ngens)
        ]
        # the memo reaches the system through a weak reference, so a dropped
        # system and its memo are freed at once, not by the cycle collector
        ref = weakref.ref(self)

        def gen_mul_mono(g: int, mono: Monomial) -> tuple:
            return ref()._gen_mul_mono_impl(g, mono)

        self._gen_mul_mono = lru_cache(maxsize=1 << 16)(gen_mul_mono)

    # -- multiplication -------------------------------------------------

    def gen_mono(self, g: int, power: int = 1) -> Monomial:
        return Monomial.gen(g, self.ngens, power)

    def gen_poly(self, g: int) -> Polynomial:
        return Polynomial.from_mono(self.gen_mono(g))

    def check_degree(self, degree: int) -> None:
        """The degree guard: raise if a product of this degree is too large."""
        if degree > self.max_degree:
            raise DegreeGuardExceeded(
                f"product degree {degree} exceeds guard {self.max_degree}"
            )

    def _gen_mul_mono_impl(self, g: int, mono: Monomial) -> tuple:
        """Normal form of z_g * mono, mono a basis word, as unsorted
        (coefficient, monomial) pairs with no zero coefficient.

        One pass over the letters of mono above g, from the top down: a
        letter z_h whose pair has no tail only scales, z_g z_h^e =
        lam^e z_h^e z_g.  With no tail met the result is one term.  At the
        first letter z_h with a tail, mono = P z_h rest and

            z_g * mono = scale P (lam z_h (z_g rest) + f rest),

        one memo lookup for z_g rest, and each term c*w of f folded over
        rest by ``_fold`` in place, without sorting, under the degree
        guard of w*rest: PaperLex is not degree-compatible, so a tail may
        be of higher degree than its pair.  Every term in the bracket has
        its letters at or below h (solvability puts LM(f) below z_h z_g),
        so z_h and P prepend: a term keeps its exponents up to h and takes
        P's above.  Every lam is nonzero, so neither scale nor the head
        factor is zero.
        """
        scale = ONE
        for h, lam, tail in self._rows[g]:
            e = mono[h]
            if not e:
                continue
            if tail:
                break
            if not lam.is_one():
                for _ in range(e):
                    # the first factor replaces the initial one
                    scale = lam if scale is ONE else scale * lam
        else:
            out = list(mono)
            out[g] += 1
            return ((scale, Monomial(out)),)
        above = mono[h + 1 :]
        rest = Monomial(mono[:h] + (e - 1,) + (0,) * len(above))
        head = scale if lam.is_one() else scale * lam
        one = head.is_one()
        acc: dict[Monomial, QRat] = {}
        for c, m in self._gen_mul_mono(g, rest):
            key = Monomial(m[:h] + (m[h] + 1,) + above)
            acc[key] = c if one else head * c
        one = scale.is_one()
        degree = sum(rest)
        for c, w in tail:
            self.check_degree(sum(w) + degree)
            c = c if one else scale * c
            c_one = c.is_one()
            for m, cm in self._fold(w, {rest: ONE}).items():
                if cm.is_zero():
                    continue
                key = Monomial(m[: h + 1] + above)
                if not c_one:
                    cm = c if cm.is_one() else c * cm
                prev = acc.get(key)
                acc[key] = cm if prev is None else prev + cm
        return tuple([(c, m) for m, c in acc.items() if not c.is_zero()])

    def mono_mul(self, u: Monomial, g: Polynomial) -> Polynomial:
        """Normal form of the left multiple u*g.

        The one product algorithm: division and S-polynomials lift by it,
        and ``poly_mul`` sums it over the terms of its left factor.  A
        letter at or above the top letter of a term only raises that
        term's exponent; the other terms go through the memoized
        letter-times-word table.  The degree guard is checked first, and
        a unit u returns g itself.
        """
        if len(u) != self.ngens or g.ngens != self.ngens:
            raise DimensionMismatch(
                f"operands over {len(u)}/{g.ngens} generators in a "
                f"{self.ngens}-generator system"
            )
        if not g.terms:
            return g
        degree = sum(u)
        self.check_degree(degree + g.degree())
        if not degree:
            return g
        return poly_from_dict(self._fold(u, {m: c for c, m in g.terms}), self.ngens)

    def _fold(self, u: Monomial, acc: dict) -> dict:
        # fold u's letters over the terms of acc, lowest first:
        # u*g = z_1(z_2(...(z_r*g))).  Between letters the running product
        # is an unsorted dict, whose zero entries the next letter skips;
        # the caller sorts and boxes the result.  Sums in Q(q) are exact
        # and canonical, so the order terms merge in cannot change it.
        gen_mul = self._gen_mul_mono
        for letter, e in enumerate(u):
            if not e:
                continue
            above = letter + 1
            for _ in range(e):
                running, acc = acc, {}
                for m, c in running.items():
                    if c.is_zero():
                        continue
                    if any(m[above:]):
                        _add_scaled(acc, c, gen_mul(letter, m))
                        continue
                    out = list(m)
                    out[letter] += 1
                    key = Monomial(out)
                    prev = acc.get(key)
                    acc[key] = c if prev is None else prev + c
        return acc

    def poly_mul(self, f: Polynomial, g: Polynomial) -> Polynomial:
        if f.ngens != self.ngens or g.ngens != self.ngens:
            raise DimensionMismatch(
                f"polynomials over {f.ngens}/{g.ngens} generators in a "
                f"{self.ngens}-generator system"
            )
        acc: dict[Monomial, QRat] = {}
        for c, m in f.terms:
            _add_scaled(acc, c, self.mono_mul(m, g).terms)
        return poly_from_dict(acc, self.ngens)

    def cache_info(self):
        return self._gen_mul_mono.cache_info()

    def __repr__(self):
        label = self.name or f"{self.ngens} generators"
        return f"CommutationSystem({label}, q={self.qmode})"


def _add_scaled(acc: dict[Monomial, QRat], c: QRat, terms) -> None:
    """acc += c*p for the (coefficient, monomial) pairs of p, on an unsorted
    accumulator that poly_from_dict finishes.

    A product with a factor of one is not formed: c is one for the leading
    term of every monic element, and so are many letter products' terms.
    """
    one = c.is_one()
    for cp, m in terms:
        if not one:
            cp = c if cp.is_one() else c * cp
        prev = acc.get(m)
        acc[m] = cp if prev is None else prev + cp


def scalar_mul(c: QRat, f: Polynomial) -> Polynomial:
    if c.is_zero():
        return Polynomial.zero(f.ngens)
    if c.is_one():
        return f
    return Polynomial(
        tuple([_new_tuple(Term, (c * cf, m)) for cf, m in f.terms]), f.ngens
    )


# -- validation ---------------------------------------------------------


def validate_solvability(
    ngens: int,
    table: Mapping[tuple[int, int], tuple[QRat, Polynomial]],
    gen_names: tuple[str, ...],
) -> list[tuple[int, int]]:
    """Check every pair of a table: lam in K^* and LM(f) strictly below
    the basis word, and return the (big, small) pairs checked, in order.

    A failed pair raises ``InvalidSpec`` naming every failing pair with its
    witness; a table not shaped as one raises ``InvalidSpec``, or
    ``MissingPair`` for an absent pair."""
    if ngens < 1:
        raise InvalidSpec("need at least one generator")
    if len(gen_names) != ngens:
        raise InvalidSpec(f"{len(gen_names)} generator names for {ngens} generators")
    pairs = [(big, small) for big in range(1, ngens) for small in range(big)]
    stray = set(table).difference(pairs)
    if stray:
        raise InvalidSpec(
            f"table key {min(map(repr, stray))} is not a pair (big, small) "
            f"with {ngens} > big > small >= 0"
        )
    failures = []
    for key in pairs:
        big, small = key
        if key not in table:
            raise MissingPair(
                f"no table entry for pair ({gen_names[big]}, {gen_names[small]})"
            )
        lam, f = table[key]
        witness = ""
        if lam.is_zero():
            witness = "lambda = 0"
        elif not f.is_zero():
            word = mono_sum(Monomial.gen(big, ngens), Monomial.gen(small, ngens))
            if compare_monomials(f.lm(), word) != LESS:
                witness = f"LM(f) = {f.lm()} not below {word}"
        if witness:
            failures.append(f"{gen_names[small]}*{gen_names[big]}: {witness}")
    if failures:
        raise InvalidSpec(
            "commutation table violates solvability: " + "; ".join(failures)
        )
    return pairs


# -- shipped control instances ------------------------------------------


def quantum_plane(max_degree: int = DEFAULT_MAX_DEGREE) -> CommutationSystem:
    """K<x,y> with y x = q x y: positive control with a trivial tail."""
    from .qfield import Q_INV

    table = {(1, 0): (Q_INV, Polynomial.zero(2))}
    return CommutationSystem(
        2, table, SYMBOLIC, gen_names=("x", "y"), max_degree=max_degree,
        name="quantum plane",
    )


def weyl_algebra(max_degree: int = DEFAULT_MAX_DEGREE) -> CommutationSystem:
    """First Weyl algebra d x = x d + 1: positive control with a nonzero tail."""
    one = Polynomial.one(2)
    table = {(1, 0): (ONE, -one)}
    return CommutationSystem(
        2, table, SYMBOLIC, gen_names=("x", "d"), max_degree=max_degree,
        name="Weyl algebra",
    )
