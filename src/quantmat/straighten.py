"""Straightening engine: multiplication in any algebra given by a
commutation table, plus machine checks of the table and ordering axioms.

The table holds, for every generator pair big > small, the normal form of
the ascending product z_small * z_big as lam * (z_big z_small) + f.  The
engine is generic: the quantized matrix algebra is one instance; the
quantum plane and the first Weyl algebra ship as controls for the
validators.

Every product goes through one algorithm, ``CommutationSystem.mono_mul(u, g)``:
the left multiple of a polynomial g by a monomial u, found by folding u's
letters over all of g, lowest letter first, and merging after each letter
into an unsorted dict; only the finished product is sorted.
A letter at or above a word's top letter only raises its exponent; any
other letter times a basis word comes from a memoized table lookup.  In
M_q(n) most pairs swap with a power of q and no tail, so a memo miss moves
the letter past all such letters of the word in one pass and recurses
only at the first letter whose relation has a tail.

Completion lifts the same element by the same monomial many times (an
S-pair and a later division step, or two divisions), so each system also
memoizes whole products u*g, keyed by g's value and u's exponents.  The
memo stores the product the fold returned, so a hit returns exactly what
a fold would.  It holds at most ``_PRODUCT_MEMO_TERMS`` terms, keys and
products counted together, and is emptied when the next product would
pass that bound.
"""

from __future__ import annotations

import random
import threading
import weakref
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from .errors import DegreeGuardExceeded, DimensionMismatch, InvalidSpec, MissingPair
from .pbw import (
    GREATER,
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

# Terms the product memo of one system may hold, counting the terms of each
# key polynomial g and of its product u*g.  A term (a Term tuple, a Monomial
# tuple and a QRat) took 185-270 bytes on the gb_sym benchmark ideals of
# M_q(3), so the bound allows about 18 MB per system, plus what larger
# coefficients add.
_PRODUCT_MEMO_TERMS = 1 << 16


class CommutationSystem:
    """Immutable multiplication table z_small*z_big = lam*(z_big z_small) + f.

    ``table`` maps (big, small) linear-index pairs (big > small) to
    (lam, f) with f a canonical polynomial.  Products are memoized per
    system at two levels: letter times basis word (an lru_cache of at most
    65,536 entries, which ``cache_info`` reports) and monomial times
    polynomial (bounded by ``_PRODUCT_MEMO_TERMS`` terms).  Neither memo
    holds a strong reference to its system, and both are safe under
    concurrent multiplication.
    """

    def __init__(
        self,
        ngens: int,
        table: dict[tuple[int, int], tuple[QRat, Polynomial]],
        qmode: QMode = SYMBOLIC,
        gen_names: Optional[tuple[str, ...]] = None,
        max_degree: int = DEFAULT_MAX_DEGREE,
        name: str = "",
        validate: bool = True,
    ):
        if ngens < 1:
            raise InvalidSpec("need at least one generator")
        if max_degree < 0:
            raise InvalidSpec(f"degree guard must be >= 0, got {max_degree}")
        self.ngens = ngens
        self.table = dict(table)
        self.qmode = qmode
        self.gen_names = gen_names or tuple(f"g{k}" for k in range(ngens))
        self.max_degree = max_degree
        self.name = name
        # the memo reaches the system through a weak reference, so a dropped
        # system and its memo are freed at once, not by the cycle collector
        ref = weakref.ref(self)

        def gen_mul_mono(g: int, mono: Monomial) -> Polynomial:
            return ref()._gen_mul_mono_impl(g, mono)

        self._gen_mul_mono = lru_cache(maxsize=1 << 16)(gen_mul_mono)
        # (g, u) -> u*g; the lock guards the stores and the term count
        self._products: dict[tuple[Polynomial, Monomial], Polynomial] = {}
        self._product_terms = 0
        self._products_lock = threading.Lock()
        if validate:
            report = validate_solvability(self)
            if not report.ok:
                raise InvalidSpec(
                    "commutation table violates solvability: "
                    + "; ".join(c.witness for c in report.checks if not c.ok)
                )

    # -- multiplication -------------------------------------------------

    def unit(self) -> Monomial:
        return Monomial.unit(self.ngens)

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

    def _gen_mul_mono_impl(self, g: int, mono: Monomial) -> Polynomial:
        """Normal form of z_g * mono, mono a basis word.

        One pass over the letters of mono above g, from the top down: a
        letter z_h whose pair has no tail only scales, z_g z_h^e =
        lam^e z_h^e z_g.  With no tail met the result is one term.  At the
        first letter z_h with a tail, mono = P z_h rest and

            z_g * mono = scale P (lam z_h (z_g rest) + f rest),

        one memo lookup for z_g rest and one product f*rest.  Every term in
        the bracket has its letters at or below h (solvability puts LM(f)
        below z_h z_g), so z_h and P prepend by adding exponents and the
        terms stay sorted.
        """
        table = self.table
        scale = ONE
        for h in range(len(mono) - 1, g, -1):
            e = mono[h]
            if not e:
                continue
            lam, f = table[(h, g)]
            if f.terms:
                break
            if not lam.is_one():
                for _ in range(e):
                    # the first factor replaces the initial one
                    scale = lam if scale is ONE else scale * lam
        else:
            out = list(mono)
            out[g] += 1
            # a lam = 0 of a table built without validation gives zero here
            return Polynomial.from_mono(Monomial(out), scale)
        if scale.is_zero():
            return Polynomial.zero(self.ngens)
        above = (0,) * (h + 1) + mono[h + 1 :]
        rest = Monomial(mono[:h] + (e - 1,) + (0,) * (len(mono) - h - 1))
        lifted = list(above)
        lifted[h] = 1
        head = scale if lam.is_one() else scale * lam
        acc: dict[Monomial, QRat] = {}
        if not head.is_zero():
            one = head.is_one()
            for c, m in self._gen_mul_mono(g, rest).terms:
                key = Monomial([x + y for x, y in zip(m, lifted)])
                acc[key] = c if one else head * c
        one = scale.is_one()
        for c, m in self.poly_mul(f, Polynomial.from_mono(rest)).terms:
            key = Monomial([x + y for x, y in zip(m, above)])
            cc = c if one else scale * c
            prev = acc.get(key)
            acc[key] = cc if prev is None else prev + cc
        return poly_from_dict(acc, self.ngens)

    def mono_mul(self, u: Monomial, g: Polynomial) -> Polynomial:
        """Normal form of the left multiple u*g.

        The one product algorithm: division and S-polynomials lift by it,
        and ``poly_mul`` sums it over the terms of its left factor.  A
        letter at or above the top letter of a term only raises that
        term's exponent; the other terms go through the memoized
        letter-times-word table.  The degree guard is checked first; a
        unit u returns g itself, and any other product is looked up in
        the system's product memo before it is folded, and stored after.
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
        key = (g, u)
        product = self._products.get(key)
        if product is None:
            product = self._fold(u, g)
            self._store_product(key, product)
        return product

    def _fold(self, u: Monomial, g: Polynomial) -> Polynomial:
        # fold u's letters over all of g, lowest first: u*g = z_1(z_2(...(z_r*g))).
        # Between letters the running product is an unsorted dict, whose
        # zero entries the next letter skips; only the full product is
        # sorted and boxed.  Sums in Q(q) are exact and canonical, so the
        # order terms merge in cannot change the result.
        gen_mul = self._gen_mul_mono
        acc = {m: c for c, m in g.terms}
        for letter, e in enumerate(u):
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
        return poly_from_dict(acc, self.ngens)

    def _store_product(
        self, key: tuple[Polynomial, Monomial], product: Polynomial
    ) -> None:
        """Remember u*g, emptying the memo first if it would pass its bound."""
        size = len(key[0].terms) + len(product.terms)
        if size > _PRODUCT_MEMO_TERMS:
            return
        with self._products_lock:
            if self._product_terms + size > _PRODUCT_MEMO_TERMS:
                self._products.clear()
                self._product_terms = 0
            # another thread may have stored the same product meanwhile
            if self._products.setdefault(key, product) is product:
                self._product_terms += size

    def poly_mul(self, f: Polynomial, g: Polynomial) -> Polynomial:
        if f.ngens != self.ngens or g.ngens != self.ngens:
            raise DimensionMismatch(
                f"polynomials over {f.ngens}/{g.ngens} generators in a "
                f"{self.ngens}-generator system"
            )
        acc: dict[Monomial, QRat] = {}
        for c, m in f.terms:
            _add_scaled(acc, c, self.mono_mul(m, g))
        return poly_from_dict(acc, self.ngens)

    def cache_info(self):
        return self._gen_mul_mono.cache_info()

    def __repr__(self):
        label = self.name or f"{self.ngens} generators"
        return f"CommutationSystem({label}, q={self.qmode})"


def _add_scaled(acc: dict[Monomial, QRat], c: QRat, p: Polynomial) -> None:
    """acc += c*p, on an unsorted accumulator that poly_from_dict finishes.

    A product with a factor of one is not formed: c is one for the leading
    term of every monic element, and so are many letter products' terms.
    """
    one = c.is_one()
    for cp, m in p.terms:
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


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    witness: str = ""


@dataclass
class ValidationReport:
    kind: str
    ok: bool
    checks: list[CheckResult] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.ok]

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "verdict": "PASS" if self.ok else "FAIL",
            "checks": [
                {"name": c.name, "ok": c.ok, "witness": c.witness}
                for c in self.checks
            ],
            "meta": self.meta,
        }


def validate_solvability(sys: CommutationSystem) -> ValidationReport:
    """Check every pair: lam in K^* and LM(f) strictly below the basis word."""
    checks = []
    for big in range(1, sys.ngens):
        for small in range(big):
            key = (big, small)
            if key not in sys.table:
                raise MissingPair(
                    f"no table entry for pair ({sys.gen_names[big]}, {sys.gen_names[small]})"
                )
            lam, f = sys.table[key]
            name = f"{sys.gen_names[small]}*{sys.gen_names[big]}"
            if lam.is_zero():
                checks.append(CheckResult(name, False, "lambda = 0"))
                continue
            if f.is_zero():
                checks.append(CheckResult(name, True))
                continue
            basis_word = mono_sum(sys.gen_mono(big), sys.gen_mono(small))
            if compare_monomials(f.lm(), basis_word) == LESS:
                checks.append(CheckResult(name, True))
            else:
                checks.append(
                    CheckResult(
                        name,
                        False,
                        f"LM(f) = {f.lm().exps} not below {basis_word.exps}",
                    )
                )
    ok = all(c.ok for c in checks)
    return ValidationReport(
        kind="solvability",
        ok=ok,
        checks=checks,
        meta={"system": sys.name or "", "ngens": sys.ngens, "pairs": len(checks)},
    )


def _random_monomial(rng: random.Random, ngens: int, max_degree: int) -> Monomial:
    deg = rng.randint(0, max_degree)
    exps = [0] * ngens
    for _ in range(deg):
        exps[rng.randrange(ngens)] += 1
    return Monomial(exps)


def _lm_under(p: Polynomial, compare) -> Monomial:
    best = p.terms[0].mono
    for _, m in p.terms[1:]:
        if compare(m, best) == GREATER:
            best = m
    return best


def validate_ordering(
    sys: CommutationSystem,
    compare=compare_monomials,
    samples: int = 1000,
    seed: int = 0,
    sample_degree: int = 3,
) -> ValidationReport:
    """Sample the two multiplicative monomial-ordering axioms.

    Products are straightened by the engine; LM is taken under ``compare``
    (PaperLex unless a test injects another), so a broken comparator is
    caught with a witness.  The generator-pair facts the axioms reduce to
    are checked exhaustively.
    """
    rng = random.Random(seed)
    checks = []
    failures = 0

    # exhaustive on generators: the unit is strictly minimal
    unit = sys.unit()
    bad = [
        g
        for g in range(sys.ngens)
        if compare(unit, sys.gen_mono(g)) != LESS
    ]
    checks.append(
        CheckResult(
            "unit-minimal-generators",
            not bad,
            "" if not bad else f"1 not below {sys.gen_names[bad[0]]}",
        )
    )

    # exhaustive on generator pairs: straightened z_g*z_h leads with the basis word
    bad_pair = None
    for h in range(sys.ngens):
        for g in range(h):
            p = sys.mono_mul(sys.gen_mono(g), sys.gen_poly(h))
            expected = mono_sum(sys.gen_mono(g), sys.gen_mono(h))
            if p.is_zero() or _lm_under(p, compare) != expected:
                bad_pair = (g, h)
                break
        if bad_pair:
            break
    checks.append(
        CheckResult(
            "generator-pair-leading-words",
            bad_pair is None,
            ""
            if bad_pair is None
            else f"LM({sys.gen_names[bad_pair[0]]}*{sys.gen_names[bad_pair[1]]}) "
            "is not the ordered word",
        )
    )

    cond2_fail = cond3_fail = unit_fail = None
    for _ in range(samples):
        ga = _random_monomial(rng, sys.ngens, sample_degree)
        al = _random_monomial(rng, sys.ngens, sample_degree)
        be = _random_monomial(rng, sys.ngens, sample_degree)
        et = _random_monomial(rng, sys.ngens, sample_degree)
        et_poly = Polynomial.from_mono(et)

        if unit_fail is None and not ga.is_unit():
            if compare(unit, ga) != LESS:
                unit_fail = ga

        # condition (2): gamma = LM(alpha*beta*eta) dominates the inner factor
        prod = sys.poly_mul(sys.mono_mul(al, Polynomial.from_mono(be)), et_poly)
        if not prod.is_zero():
            gamma = _lm_under(prod, compare)
            if not gamma.is_unit() and be != gamma:
                if compare(be, gamma) != LESS and cond2_fail is None:
                    cond2_fail = (al, be, et, gamma)

        # condition (3): order survives multiplication at the LM level
        cmp_ab = compare(al, be)
        if cmp_ab != 0:
            lo, hi = (al, be) if cmp_ab == LESS else (be, al)
            p_lo = sys.poly_mul(sys.mono_mul(ga, Polynomial.from_mono(lo)), et_poly)
            p_hi = sys.poly_mul(sys.mono_mul(ga, Polynomial.from_mono(hi)), et_poly)
            if not p_lo.is_zero() and not p_hi.is_zero():
                lm_hi = _lm_under(p_hi, compare)
                if not lm_hi.is_unit():
                    if (
                        compare(_lm_under(p_lo, compare), lm_hi) != LESS
                        and cond3_fail is None
                    ):
                        cond3_fail = (ga, lo, hi, et)

        if cond2_fail and cond3_fail and unit_fail:
            break

    checks.append(
        CheckResult(
            "unit-minimal-sampled",
            unit_fail is None,
            "" if unit_fail is None else f"1 not below {unit_fail.exps}",
        )
    )
    checks.append(
        CheckResult(
            "condition-2-sampled",
            cond2_fail is None,
            ""
            if cond2_fail is None
            else f"beta {cond2_fail[1].exps} not below LM {cond2_fail[3].exps}",
        )
    )
    checks.append(
        CheckResult(
            "condition-3-sampled",
            cond3_fail is None,
            ""
            if cond3_fail is None
            else f"LM order broken at gamma={cond3_fail[0].exps}, "
            f"alpha={cond3_fail[1].exps}, beta={cond3_fail[2].exps}, "
            f"eta={cond3_fail[3].exps}",
        )
    )
    ok = all(c.ok for c in checks)
    return ValidationReport(
        kind="ordering",
        ok=ok,
        checks=checks,
        meta={
            "system": sys.name or "",
            "samples": samples,
            "seed": seed,
            "sample_degree": sample_degree,
        },
    )


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
