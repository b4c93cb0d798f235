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

Every lift of a divisor goes through a lift table, ``_Lifts``: the
algebra is solvable, so the lift of g to a monomial m is fixed by g and m,
and its head is m.  A completion keeps one table for its S-pairs, its
divisions, its interreduction and its final check of the inputs, so each
lift is folded once while it stays in the table; ``left_spoly``,
``left_divide`` and ``ideal_member`` run the same code on a fresh table.
``_spair`` sums the two lifted tails of an S-pair into one dict, without
the heads that cancel, and ``_reduce`` divides such a dict in place.
Completion hands the S-pair's dict straight to ``_reduce``, so it builds
no S-polynomial and no quotient; ``left_divide`` adds quotients, only for
the divisors a step used.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import EmptyBasis, InvalidSpec, PairLimitExceeded
from .pbw import (
    Monomial,
    Polynomial,
    Term,
    _new_tuple,
    _paperlex_key,
    _support_mask,
    mono_lcm,
    poly_from_dict,
)
from .qfield import QRat
from .straighten import CommutationSystem

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
    LM(G[k]).  The identity reconstructs exactly under poly_mul.  The
    steps are those of ``_reduce``, on a fresh lift table; a divisor no
    step used gets the zero quotient, one object shared by all of them.
    """
    _check_divisors(G)
    quot: dict[int, list[Term]] = {}
    rem = _reduce({m: c for c, m in f.terms}, G, _Lifts(sys), quot)
    zero = Polynomial.zero(f.ngens)
    quotients = [zero] * len(G)
    for k, ts in quot.items():
        # deltas decrease strictly with m, so each list is sorted
        quotients[k] = Polynomial(tuple(ts), f.ngens)
    return quotients, rem


# A lift table holds at most this many terms, heads included; a lift that
# would take it past the bound empties it first.
_MAX_LIFT_TERMS = 1 << 16


class _Lifts:
    """Lifts of divisors to target monomials, each folded once.

    In a solvable algebra (m - LM(g))*g leads with m times a nonzero
    scalar, so the lift is fixed by the divisor g and the target m.  The
    table maps (id(g), m) to (g, lc, tail): the lift's leading coefficient
    and its terms below m divided by lc, an unsorted monomial-to-coefficient
    dict that callers read and never change.  The entry holds g, so its id
    is not reused while the entry lives, and no Polynomial is hashed.  A
    miss folds the lift with the system's ``_fold`` under the degree guard
    of ``mono_mul``.  ``terms`` counts the terms held; the table is emptied
    when a new lift would take it past ``_MAX_LIFT_TERMS``, and a lift
    larger than that is returned without being stored.
    """

    __slots__ = ("sys", "entries", "terms")

    def __init__(self, sys: CommutationSystem):
        self.sys = sys
        self.entries: dict[tuple[int, Monomial], tuple] = {}
        self.terms = 0

    def lift(self, g: Polynomial, m: Monomial) -> tuple[QRat, dict]:
        """(lc, tail) of the lift of g to m; LM(g) must divide m."""
        key = (id(g), m)
        entry = self.entries.get(key)
        if entry is not None:
            return entry[1], entry[2]
        acc = {w: c for c, w in g.terms}
        delta = Monomial([x - y for x, y in zip(m, g.lm())])
        if any(delta):
            self.sys.check_degree(sum(delta) + g.degree())
            acc = self.sys._fold(delta, acc)
        lc = acc.pop(m)
        inv = None if lc.is_one() else lc.inv()
        tail = {
            w: c if inv is None else inv * c
            for w, c in acc.items()
            if not c.is_zero()
        }
        size = len(tail) + 1
        if size <= _MAX_LIFT_TERMS:
            if self.terms + size > _MAX_LIFT_TERMS:
                self.entries.clear()
                self.terms = 0
            self.entries[key] = (g, lc, tail)
            self.terms += size
        return lc, tail


def _reduce(
    acc: dict[Monomial, QRat],
    G: Sequence[Polynomial],
    lifts: _Lifts,
    quot: Optional[dict[int, list[Term]]] = None,
) -> Polynomial:
    """The remainder of the polynomial acc holds on division by G.

    acc maps monomials to nonzero coefficients and becomes the running
    remainder, with a heap of its monomials, largest first.  A step pops
    the leading monomial and subtracts the scaled tail of the divisor's
    lift from ``lifts`` into the dict; nothing is re-sorted.  A monomial
    that cancels to zero leaves its heap entry behind, and the pop skips
    it.  When quot is given, each step appends its quotient term to
    quot[k] for the divisor G[k] it used.

    Each divisor's LM support, a generator bitmask and its (index,
    exponent) pairs, is cached on the divisor, so repeated divisions by
    the same basis do not rebuild it.  A step computes the popped
    monomial's mask once, skips every divisor whose mask has a bit the
    monomial lacks, and compares exponents only for the rest.
    """
    supports = [g._lm_support() for g in G]
    lift = lifts.lift
    rem_terms: list[Term] = []
    heap = [(_heap_key(m), m) for m in acc]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        m = pop(heap)[1]
        c = acc.pop(m, None)
        if c is None:
            continue  # cancelled after it was queued
        absent = ~_support_mask(m)
        for k, (mask, pairs) in enumerate(supports):
            if mask & absent or any(m[i] < e for i, e in pairs):
                continue
            lc, tail = lift(G[k], m)
            neg = -c
            for mh, ch in tail.items():
                prev = acc.get(mh)
                if prev is None:
                    acc[mh] = neg * ch
                    push(heap, (_heap_key(mh), mh))
                    continue
                s = prev + neg * ch
                if s.is_zero():
                    del acc[mh]
                else:
                    acc[mh] = s
            if quot is not None:
                delta = Monomial([x - y for x, y in zip(m, G[k].lm())])
                coef = c if lc.is_one() else c / lc
                quot.setdefault(k, []).append(_new_tuple(Term, (coef, delta)))
            break
        else:
            rem_terms.append(_new_tuple(Term, (c, m)))
    return Polynomial(tuple(rem_terms), lifts.sys.ngens)


def _remainder(f: Polynomial, G: Sequence[Polynomial], lifts: _Lifts) -> Polynomial:
    """The remainder of f on division by G, lifting through ``lifts``."""
    return _reduce({m: c for c, m in f.terms}, G, lifts)


def _heap_key(m: Monomial) -> tuple[int, ...]:
    # the PaperLex key negated: heapq pops the smallest item, so the largest
    # monomial comes first.  Equal keys mean equal monomials, so a tie
    # compares them by == and never by <.
    return tuple([-x for x in _paperlex_key(m)])


def left_spoly(g1: Polynomial, g2: Polynomial, sys: CommutationSystem) -> Polynomial:
    """Lift both elements to the lcm of their LMs and cancel the heads."""
    if g1.is_zero() or g2.is_zero():
        raise InvalidSpec("S-polynomial of a zero polynomial")
    acc = _spair(g1, g2, mono_lcm(g1.lm(), g2.lm()), _Lifts(sys))
    return poly_from_dict(acc, g1.ngens)


def _spair(g1: Polynomial, g2: Polynomial, gamma: Monomial, lifts: _Lifts) -> dict:
    """h1/lc(h1) - h2/lc(h2), h_k the lift of g_k to gamma, the lcm of the
    LMs, as a dict of its nonzero terms; the heads cancel and are never
    added."""
    acc = dict(lifts.lift(g1, gamma)[1])
    for m, c in lifts.lift(g2, gamma)[1].items():
        prev = acc.get(m)
        if prev is None:
            acc[m] = -c
            continue
        s = prev - c
        if s.is_zero():
            del acc[m]
        else:
            acc[m] = s
    return acc


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
    lifts = _Lifts(sys)
    view = sorted((_paperlex_key(g.lm()), t) for t, g in enumerate(elems))

    # (lcm key, i, j, lcm): (i, j) is unique, so no Monomial is compared
    heap: list[tuple[tuple[int, ...], int, int, Monomial]] = []
    pending: set[tuple[int, int]] = set()

    def add_pairs(j: int) -> None:
        for i in range(j):
            lcm = mono_lcm(elems[i].lm(), elems[j].lm())
            heapq.heappush(heap, (_paperlex_key(lcm), i, j, lcm))
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
                tuple(_interreduce(elems, sys, lifts)),
                BasisStats(pairs - 1, drops, skips),
            )
            raise PairLimitExceeded(
                f"pair budget {max_pairs} exhausted", partial=partial
            )
        acc = _spair(elems[i], elems[j], lcm, lifts)
        if not acc:
            drops += 1
            continue
        s = _reduce(acc, [elems[t] for _, t in view], lifts)
        if s.is_zero():
            drops += 1
            continue
        bisect.insort(view, (_paperlex_key(s.lm()), len(elems)))
        elems.append(s.monic())
        add_pairs(len(elems) - 1)

    result = GroebnerBasis(
        tuple(_interreduce(elems, sys, lifts)), BasisStats(pairs, drops, skips)
    )
    for g in inputs:
        if not _remainder(g, result.elements, lifts).is_zero():
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
    elems: Sequence[Polynomial],
    sys: CommutationSystem,
    lifts: Optional[_Lifts] = None,
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

    Completion passes its lift table, so the sweep reuses the lifts its
    pairs made; without one, each division is a ``left_divide``.
    """
    items = sorted((p.monic() for p in elems), key=lambda p: _paperlex_key(p.lm()))
    t = 0
    while t < len(items) and len(items) > 1:
        p = items[t]
        others = items[:t] + items[t + 1 :]
        if lifts is None:
            _, r = left_divide(p, others, sys)
        else:
            r = _remainder(p, others, lifts)
        if r.is_zero():
            del items[t]
            continue
        items[t] = r.monic()
        if r.lm() == p.lm():
            t += 1
        else:
            items.sort(key=lambda p: _paperlex_key(p.lm()))
            t = 0
    return items


def ideal_member(f: Polynomial, G: GroebnerBasis, sys: CommutationSystem) -> bool:
    """True iff f left-reduces to zero by the completed basis."""
    if f.is_zero():
        return True
    _, r = left_divide(f, G.elements, sys)
    return r.is_zero()
