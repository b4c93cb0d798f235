"""Left Groebner bases in a validated commutation system.

Left ideals only: divisors are multiplied by monomials on the left, and
every product is straightened through the system before its leading data
is read off.  Divisor selection scans the basis in sequence order and
takes the first leading-monomial match, so division is a pure function
of its inputs.  Completion uses the normal pair strategy (smallest lcm
first) and discards a pair by Buchberger's chain criterion when two
already-treated pairs through a third element account for it; the pair
budget counts only the S-polynomials actually formed.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import EmptyBasis, InvalidSpec, PairLimitExceeded
from .pbw import Monomial, Polynomial, Term, mono_divides, mono_lcm, mono_sub
from .straighten import CommutationSystem, scalar_mul

DEFAULT_MAX_PAIRS = 10_000


@dataclass(frozen=True)
class BasisStats:
    """Completion counts: S-polynomials formed, of those reduced to zero,
    and pairs dropped by the chain criterion without forming one."""

    pairs_considered: int = 0
    reductions_to_zero: int = 0
    chain_skips: int = 0


@dataclass(frozen=True)
class GroebnerBasis:
    """Completed left basis: monic elements sorted by ascending LM.

    When cofactor tracking is on, ``cofactors[i][j]`` left-multiplies
    ``generators[j]`` so that elements[i] = sum_j cofactors[i][j]*generators[j].
    """

    elements: tuple[Polynomial, ...]
    stats: BasisStats = field(default_factory=BasisStats)
    cofactors: Optional[tuple[tuple[Polynomial, ...], ...]] = None
    generators: Optional[tuple[Polynomial, ...]] = None

    @property
    def ngens(self) -> int:
        if not self.elements:
            raise EmptyBasis("basis has no elements")
        return self.elements[0].ngens

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


def _check_divisors(G: Sequence[Polynomial]) -> None:
    if not G:
        raise EmptyBasis("empty divisor sequence")
    for g in G:
        if g.is_zero():
            raise InvalidSpec("zero polynomial among divisors")


def left_divide(
    f: Polynomial,
    G: Sequence[Polynomial],
    sys: CommutationSystem,
) -> tuple[list[Polynomial], Polynomial]:
    """Divide f by G on the left: f = sum quotients[k]*G[k] + remainder.

    The divisor for each step is the first element of G whose LM divides
    the current leading monomial; no remainder term is divisible by any
    LM(G[k]).  The identity reconstructs exactly under poly_mul.
    """
    _check_divisors(G)
    ngens = f.ngens
    lms = [g.lm() for g in G]
    quot_terms: list[list[Term]] = [[] for _ in G]
    rem_terms: list[Term] = []
    p = f
    while not p.is_zero():
        c, m = p.lt()
        for k, lm in enumerate(lms):
            if mono_divides(lm, m):
                delta = mono_sub(m, lm)
                if delta.is_unit():
                    h = G[k]
                else:
                    h = sys.mono_mul_poly(delta, G[k])
                coef = c / h.lc()
                p = p - scalar_mul(coef, h)
                # deltas decrease strictly with m, so the list stays sorted
                quot_terms[k].append(Term(coef, delta))
                break
        else:
            rem_terms.append(Term(c, m))
            p = Polynomial(p.terms[1:], ngens)
    quotients = [Polynomial(tuple(ts), ngens) for ts in quot_terms]
    return quotients, Polynomial(tuple(rem_terms), ngens)


def left_spoly(g1: Polynomial, g2: Polynomial, sys: CommutationSystem) -> Polynomial:
    """Lift both elements to the lcm of their LMs and cancel the heads."""
    if g1.is_zero() or g2.is_zero():
        raise InvalidSpec("S-polynomial of a zero polynomial")
    gamma = mono_lcm(g1.lm(), g2.lm())
    h1 = _lift(g1, mono_sub(gamma, g1.lm()), sys)
    h2 = _lift(g2, mono_sub(gamma, g2.lm()), sys)
    return scalar_mul(h1.lc().inv(), h1) - scalar_mul(h2.lc().inv(), h2)


def _lift(g: Polynomial, delta: Monomial, sys: CommutationSystem) -> Polynomial:
    return g if delta.is_unit() else sys.mono_mul_poly(delta, g)


def _scale_vec(c, vec):
    return tuple(scalar_mul(c, p) for p in vec)


def _sub_vec(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _mono_mul_vec(sys, delta, vec):
    if delta.is_unit():
        return tuple(vec)
    return tuple(sys.mono_mul_poly(delta, p) for p in vec)


def _poly_mul_vec(sys, q, vec):
    return tuple(sys.poly_mul(q, p) for p in vec)


class _Tracked:
    """Basis under construction: elements plus optional cofactor rows."""

    def __init__(self, sys, track: bool, width: int):
        self.sys = sys
        self.track = track
        self.width = width
        self.elems: list[Polynomial] = []
        self.cofs: list[tuple[Polynomial, ...]] = []
        # division scans by (LM ascending, insertion order)
        self._view: list[tuple[tuple[int, ...], int]] = []

    def append(self, p: Polynomial, cof) -> None:
        bisect.insort(self._view, (p.lm().sort_key(), len(self.elems)))
        self.elems.append(p)
        if self.track:
            self.cofs.append(cof)

    def view(self) -> tuple[list[Polynomial], list[int]]:
        idx = [t for _, t in self._view]
        return [self.elems[t] for t in idx], idx

    def reduce(self, p: Polynomial, cof):
        """Fully left-reduce p by the current basis, tracking cofactors."""
        divisors, idx = self.view()
        quotients, r = left_divide(p, divisors, self.sys)
        if self.track:
            for q, t in zip(quotients, idx):
                if not q.is_zero():
                    cof = _sub_vec(cof, _poly_mul_vec(self.sys, q, self.cofs[t]))
        return r, cof


def buchberger(
    gens: Sequence[Polynomial],
    sys: CommutationSystem,
    max_pairs: int = DEFAULT_MAX_PAIRS,
    track_cofactors: bool = False,
) -> GroebnerBasis:
    """Complete a generating set of a left ideal to a reduced basis.

    Pairs are taken smallest lcm first.  A pair the chain criterion shows
    redundant is dropped without forming its S-polynomial and counted in
    ``stats.chain_skips``; ``max_pairs`` bounds the S-polynomials formed,
    ``stats.pairs_considered``.  Raises PairLimitExceeded with the
    interreduced partial basis attached when one more would be formed.
    """
    inputs = [g for g in gens if not g.is_zero()]
    if not inputs:
        raise EmptyBasis("no nonzero generators")
    width = len(inputs)

    basis = _Tracked(sys, track_cofactors, width)
    seen: set[Polynomial] = set()

    def unit_cof(j: int, c) -> tuple[Polynomial, ...]:
        row = [Polynomial.zero(sys.ngens)] * width
        row[j] = scalar_mul(c, Polynomial.one(sys.ngens))
        return tuple(row)

    for j, g in enumerate(inputs):
        m = g.monic()
        if m in seen:
            continue
        seen.add(m)
        basis.append(m, unit_cof(j, g.lc().inv()) if track_cofactors else None)

    heap: list[tuple[tuple[int, ...], int, int]] = []
    pending: set[tuple[int, int]] = set()

    def add_pairs(j: int) -> None:
        for i in range(j):
            lcm = mono_lcm(basis.elems[i].lm(), basis.elems[j].lm())
            heapq.heappush(heap, (lcm.sort_key(), i, j))
            pending.add((i, j))

    for j in range(len(basis.elems)):
        add_pairs(j)

    pairs = 0
    drops = 0
    skips = 0
    while heap:
        _, i, j = heapq.heappop(heap)
        pending.remove((i, j))
        if _chain_redundant(i, j, basis.elems, pending):
            skips += 1
            continue
        pairs += 1
        if pairs > max_pairs:
            elems, cofs = _interreduce_raw(basis.elems, basis.cofs, sys, track_cofactors)
            partial = GroebnerBasis(
                tuple(elems),
                BasisStats(pairs - 1, drops, skips),
                tuple(cofs) if track_cofactors else None,
                tuple(inputs) if track_cofactors else None,
            )
            raise PairLimitExceeded(
                f"pair budget {max_pairs} exhausted", partial=partial
            )
        s = left_spoly(basis.elems[i], basis.elems[j], sys)
        scof = None
        if track_cofactors:
            scof = _spoly_cofactor(basis, i, j)
        if not s.is_zero():
            s, scof = basis.reduce(s, scof)
        if s.is_zero():
            drops += 1
            continue
        lc = s.lc()
        s = s.monic()
        if track_cofactors:
            scof = _scale_vec(lc.inv(), scof)
        basis.append(s, scof)
        add_pairs(len(basis.elems) - 1)

    elems, cofs = _interreduce_raw(basis.elems, basis.cofs, sys, track_cofactors)
    result = GroebnerBasis(
        tuple(elems),
        BasisStats(pairs, drops, skips),
        tuple(cofs) if track_cofactors else None,
        tuple(inputs) if track_cofactors else None,
    )
    for g in inputs:
        _, r = left_divide(g, result.elements, sys)
        if not r.is_zero():
            raise AssertionError("completed basis must reduce every input to zero")
    return result


def _chain_redundant(
    i: int, j: int, elems: Sequence[Polynomial], pending: set[tuple[int, int]]
) -> bool:
    """Chain criterion (Gebauer & Moeller, J. Symb. Comp. 6, 1988).

    The pair (i, j) is redundant when a third element k has
    LM(k) | lcm(LM(i), LM(j)) and neither (i, k) nor (j, k) is pending.
    Its S-polynomial is then a combination of monomial left multiples of
    S(i, k) and S(k, j) plus left multiples of g_i, g_k, g_j with leading
    monomials below the lcm.  In an algebra of solvable type a monomial
    times a polynomial has the product of the leading monomials as its
    leading monomial, times a nonzero scalar, plus strictly smaller terms,
    so representations of S(i, k) and S(k, j) below their lcms lift to one
    of S(i, j) below its own (Kandri-Rody & Weispfenning, J. Symb. Comp. 9,
    1990; Levandovskyy, PhD thesis, Kaiserslautern 2005).  A pair that is
    no longer pending was reduced, or dropped on the strength of pairs
    taken before it, so the argument is an induction on the order pairs
    leave the queue.

    The product criterion (coprime leading monomials) rests on
    commutativity and does not hold in M_q(n), so it is not used.
    """
    gamma = mono_lcm(elems[i].lm(), elems[j].lm())
    for k, g in enumerate(elems):
        if k == i or k == j or not mono_divides(g.lm(), gamma):
            continue
        ik = (i, k) if i < k else (k, i)
        jk = (j, k) if j < k else (k, j)
        if ik not in pending and jk not in pending:
            return True
    return False


def _spoly_cofactor(basis: _Tracked, i: int, j: int):
    g1, g2 = basis.elems[i], basis.elems[j]
    gamma = mono_lcm(g1.lm(), g2.lm())
    sys = basis.sys
    h1 = _lift(g1, mono_sub(gamma, g1.lm()), sys)
    h2 = _lift(g2, mono_sub(gamma, g2.lm()), sys)
    v1 = _mono_mul_vec(sys, mono_sub(gamma, g1.lm()), basis.cofs[i])
    v2 = _mono_mul_vec(sys, mono_sub(gamma, g2.lm()), basis.cofs[j])
    return _sub_vec(_scale_vec(h1.lc().inv(), v1), _scale_vec(h2.lc().inv(), v2))


def _interreduce_raw(elems, cofs, sys, track):
    """Mutual full reduction to the unique reduced basis (fixpoint loop)."""
    items = []
    for t, p in enumerate(elems):
        cof = cofs[t] if track else None
        if not p.lc().is_one():
            if track:
                cof = _scale_vec(p.lc().inv(), cof)
            p = p.monic()
        items.append((p, cof))
    changed = True
    while changed:
        changed = False
        items.sort(key=lambda it: it[0].lm().sort_key())
        for t in range(len(items)):
            p, cof = items[t]
            others = [it[0] for u, it in enumerate(items) if u != t]
            if not others:
                break
            quotients, r = left_divide(p, others, sys)
            if r == p:
                continue
            changed = True
            if track:
                other_cofs = [it[1] for u, it in enumerate(items) if u != t]
                for q, oc in zip(quotients, other_cofs):
                    if not q.is_zero():
                        cof = _sub_vec(cof, _poly_mul_vec(sys, q, oc))
            if r.is_zero():
                del items[t]
                break
            lc = r.lc()
            if track:
                cof = _scale_vec(lc.inv(), cof)
            items[t] = (r.monic(), cof)
            break
    items.sort(key=lambda it: it[0].lm().sort_key())
    return [it[0] for it in items], [it[1] for it in items]


def interreduce(G: GroebnerBasis, sys: CommutationSystem) -> GroebnerBasis:
    """Reduced form: monic, no term divisible by another element's LM.

    The result is unique and generates the same ideal.
    """
    track = G.cofactors is not None
    elems, cofs = _interreduce_raw(list(G.elements), list(G.cofactors or ()), sys, track)
    return GroebnerBasis(
        tuple(elems),
        G.stats,
        tuple(cofs) if track else None,
        G.generators,
    )


def ideal_member(f: Polynomial, G: GroebnerBasis, sys: CommutationSystem) -> bool:
    """True iff f left-reduces to zero by the completed basis."""
    if f.is_zero():
        return True
    _, r = left_divide(f, G.elements, sys)
    return r.is_zero()
