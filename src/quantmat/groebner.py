"""Left Groebner bases in a validated commutation system.

Left ideals only: divisors are multiplied by monomials on the left, and
every product is straightened through the system before its leading data
is read off.  Division takes the first basis element, in sequence order,
whose LM divides, so it is a pure function of its inputs, and keeps its
remainder as a dict of terms with a heap of their monomials.  Completion
takes pairs smallest lcm first, drops a pair by Buchberger's chain
criterion when two treated pairs through a third element account for it,
charges the pair budget only for S-polynomials formed, and ends with one
forward sweep of interreduction.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass, field
from typing import Sequence

from .errors import EmptyBasis, InvalidSpec, PairLimitExceeded
from .pbw import (
    Monomial,
    Polynomial,
    Term,
    _new_tuple,
    _support_mask,
    mono_lcm,
    mono_sub,
)
from .qfield import QRat
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
    """Completed left basis: monic elements sorted by ascending LM."""

    elements: tuple[Polynomial, ...]
    stats: BasisStats = field(default_factory=BasisStats)

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

    The running remainder is a dict from monomial to coefficient with a
    heap of its monomials, largest first.  A step pops the leading
    monomial and subtracts the scaled tail of the lifted divisor into the
    dict; nothing is re-sorted.  A monomial that cancels to zero leaves
    its heap entry behind, and the pop skips it.

    Each divisor's LM support, a generator bitmask and its (index,
    exponent) pairs, is cached on the divisor, so repeated divisions by
    the same basis do not rebuild it.  A step computes the popped
    monomial's mask once, skips every divisor whose mask has a bit the
    monomial lacks, and compares exponents only for the rest.
    """
    _check_divisors(G)
    ngens = f.ngens
    supports = [g._lm_support() for g in G]
    quot_terms: list[list[Term]] = [[] for _ in G]
    rem_terms: list[Term] = []
    acc: dict[Monomial, QRat] = {}
    # the terms of f descend, so their negated keys ascend: already a heap
    heap = []
    for c, m in f.terms:
        acc[m] = c
        heap.append((_heap_key(m), m))
    while heap:
        m = heapq.heappop(heap)[1]
        c = acc.pop(m, None)
        if c is None:
            continue  # cancelled after it was queued
        absent = ~_support_mask(m)
        for k, (mask, pairs) in enumerate(supports):
            if mask & absent or any(m[i] < e for i, e in pairs):
                continue
            delta = Monomial([x - y for x, y in zip(m, G[k].lm())])
            h = _lift(G[k], delta, sys)
            lc = h.lc()
            coef = c if lc.is_one() else c / lc
            neg = -coef
            for ch, mh in h.terms[1:]:
                prev = acc.get(mh)
                if prev is None:
                    acc[mh] = neg * ch
                    heapq.heappush(heap, (_heap_key(mh), mh))
                    continue
                s = prev + neg * ch
                if s.is_zero():
                    del acc[mh]
                else:
                    acc[mh] = s
            # deltas decrease strictly with m, so the list stays sorted
            quot_terms[k].append(_new_tuple(Term, (coef, delta)))
            break
        else:
            rem_terms.append(_new_tuple(Term, (c, m)))
    quotients = [Polynomial(tuple(ts), ngens) for ts in quot_terms]
    return quotients, Polynomial(tuple(rem_terms), ngens)


def _heap_key(m: Monomial) -> tuple[int, ...]:
    # heapq pops the smallest item; negated PaperLex keys pop the largest
    # monomial first.  Equal keys mean equal monomials, so a tie compares
    # them by == and never by <.
    return tuple([-x for x in m[::-1]])


def left_spoly(g1: Polynomial, g2: Polynomial, sys: CommutationSystem) -> Polynomial:
    """Lift both elements to the lcm of their LMs and cancel the heads."""
    if g1.is_zero() or g2.is_zero():
        raise InvalidSpec("S-polynomial of a zero polynomial")
    gamma = mono_lcm(g1.lm(), g2.lm())
    h1 = _lift(g1, mono_sub(gamma, g1.lm()), sys)
    h2 = _lift(g2, mono_sub(gamma, g2.lm()), sys)
    return scalar_mul(h1.lc().inv(), h1) - scalar_mul(h2.lc().inv(), h2)


def _lift(g: Polynomial, delta: Monomial, sys: CommutationSystem) -> Polynomial:
    return g if delta.is_unit() else sys.mono_mul(delta, g)


def buchberger(
    gens: Sequence[Polynomial],
    sys: CommutationSystem,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> GroebnerBasis:
    """Complete a generating set of a left ideal to a reduced basis.

    Pairs are taken smallest lcm first.  A pair the chain criterion shows
    redundant is dropped without forming its S-polynomial and counted in
    ``stats.chain_skips``; ``max_pairs`` bounds the S-polynomials formed,
    ``stats.pairs_considered``.  Raises PairLimitExceeded with the
    interreduced partial basis attached when one more would be formed.
    """
    if max_pairs < 0:
        raise InvalidSpec(f"pair budget must be >= 0, got {max_pairs}")
    inputs = [g for g in gens if not g.is_zero()]
    if not inputs:
        raise EmptyBasis("no nonzero generators")

    # monic inputs, first occurrence kept; division scans the basis by
    # (LM ascending, insertion order)
    elems = list(dict.fromkeys(g.monic() for g in inputs))
    view = sorted((g.lm().sort_key(), t) for t, g in enumerate(elems))

    # (lcm key, i, j, lcm): (i, j) is unique, so no Monomial is compared
    heap: list[tuple[tuple[int, ...], int, int, Monomial]] = []
    pending: set[tuple[int, int]] = set()

    def add_pairs(j: int) -> None:
        for i in range(j):
            lcm = mono_lcm(elems[i].lm(), elems[j].lm())
            heapq.heappush(heap, (lcm.sort_key(), i, j, lcm))
            pending.add((i, j))

    for j in range(len(elems)):
        add_pairs(j)

    pairs = 0
    drops = 0
    skips = 0
    while heap:
        _, i, j, lcm = heapq.heappop(heap)
        pending.remove((i, j))
        if _chain_redundant(i, j, lcm, elems, pending):
            skips += 1
            continue
        pairs += 1
        if pairs > max_pairs:
            partial = GroebnerBasis(
                tuple(_interreduce(elems, sys)), BasisStats(pairs - 1, drops, skips)
            )
            raise PairLimitExceeded(
                f"pair budget {max_pairs} exhausted", partial=partial
            )
        s = left_spoly(elems[i], elems[j], sys)
        if not s.is_zero():
            _, s = left_divide(s, [elems[t] for _, t in view], sys)
        if s.is_zero():
            drops += 1
            continue
        bisect.insort(view, (s.lm().sort_key(), len(elems)))
        elems.append(s.monic())
        add_pairs(len(elems) - 1)

    result = GroebnerBasis(
        tuple(_interreduce(elems, sys)), BasisStats(pairs, drops, skips)
    )
    for g in inputs:
        _, r = left_divide(g, result.elements, sys)
        if not r.is_zero():
            raise AssertionError("completed basis must reduce every input to zero")
    return result


def _chain_redundant(
    i: int, j: int, gamma: Monomial, elems: Sequence[Polynomial], pending: set
) -> bool:
    """Chain criterion (Gebauer & Moeller, J. Symb. Comp. 6, 1988).

    The pair (i, j) with gamma = lcm(LM(i), LM(j)) is redundant when a third
    element k has LM(k) | gamma and neither (i, k) nor (j, k) is pending.
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

    LM(k) | gamma is tested on the cached LM support, as in division.
    """
    absent = ~_support_mask(gamma)
    for k, g in enumerate(elems):
        if k == i or k == j:
            continue
        mask, pairs = g._lm_support()
        if mask & absent or any(gamma[x] < e for x, e in pairs):
            continue
        ik = (i, k) if i < k else (k, i)
        jk = (j, k) if j < k else (k, j)
        if ik not in pending and jk not in pending:
            return True
    return False


def _interreduce(
    elems: Sequence[Polynomial], sys: CommutationSystem
) -> list[Polynomial]:
    """Mutual full reduction: monic, sorted by ascending LM, no term
    divisible by another element's LM, generating the same ideal.

    One sweep in ascending LM order divides each element by the others.
    A zero remainder is deleted and one with the same LM replaces it;
    neither adds an LM, so no earlier element gains a reducible term.  A
    remainder with a lower LM can make earlier elements reducible, so the
    list is sorted again and the sweep restarts at 0.  A loop restarting
    after every change makes the same changes and only adds divisions
    that change nothing, so even a budgeted partial basis, whose form
    depends on the order of the changes, comes out the same.  On a
    Groebner basis no LM drops, each element is divided once, and the
    result is the unique reduced basis.
    """
    items = sorted((p.monic() for p in elems), key=lambda p: p.lm().sort_key())
    t = 0
    while t < len(items) and len(items) > 1:
        p = items[t]
        _, r = left_divide(p, items[:t] + items[t + 1 :], sys)
        if r.is_zero():
            del items[t]
            continue
        items[t] = r.monic()
        if r.lm() == p.lm():
            t += 1
        else:
            items.sort(key=lambda p: p.lm().sort_key())
            t = 0
    return items


def interreduce(G: GroebnerBasis, sys: CommutationSystem) -> GroebnerBasis:
    """Reduced form of G (see ``_interreduce``), keeping its stats."""
    return GroebnerBasis(tuple(_interreduce(G.elements, sys)), G.stats)


def ideal_member(f: Polynomial, G: GroebnerBasis, sys: CommutationSystem) -> bool:
    """True iff f left-reduces to zero by the completed basis."""
    if f.is_zero():
        return True
    _, r = left_divide(f, G.elements, sys)
    return r.is_zero()
