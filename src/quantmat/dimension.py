"""Staircase combinatorics of a completed basis.

The leading exponents of a left Groebner basis generate a monomial ideal;
its complement (the standard monomials) is a linear basis of the cyclic
quotient.  Counting that complement degree by degree gives the Hilbert
function, and the growth degree of the count is the Gelfand-Kirillov
dimension of the quotient.  Because the shipped ordering eliminates every
prefix of the generator list, intersecting the basis with a prefix
subalgebra is a support filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import EmptyBasis, InvalidPrefix
from .groebner import GroebnerBasis
from .pbw import Polynomial
from .straighten import CheckResult, ValidationReport


@dataclass(frozen=True)
class Staircase:
    """Antichain of minimal leading exponents of a monomial ideal."""

    dim: int
    mins: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for v in self.mins:
            if len(v) != self.dim:
                raise ValueError(f"exponent vector {v} has wrong length")
            for w in self.mins:
                if w is not v and all(a <= b for a, b in zip(w, v)):
                    raise ValueError(f"{w} divides {v}: mins must be an antichain")


def make_staircase(dim: int, vectors) -> Staircase:
    """Antichain of the given exponent vectors (divisibility-minimal ones)."""
    vecs = sorted(set(tuple(v) for v in vectors))
    mins = [
        v
        for v in vecs
        if not any(w != v and all(a <= b for a, b in zip(w, v)) for w in vecs)
    ]
    mins.sort(key=lambda v: tuple(reversed(v)))
    return Staircase(dim, tuple(mins))


def leading_staircase(G: GroebnerBasis) -> Staircase:
    if not G.elements:
        raise EmptyBasis("cannot take the staircase of an empty basis")
    return make_staircase(G.ngens, (g.lm().exps for g in G.elements))


def hilbert_count(st: Staircase, d: int) -> int:
    """Number of degree-d exponent vectors divisible by no staircase minimum."""
    if d < 0:
        raise ValueError(f"degree must be >= 0, got {d}")
    dim = st.dim
    suffix = {m: [0] * (dim + 1) for m in st.mins}
    for m in st.mins:
        for pos in range(dim - 1, -1, -1):
            suffix[m][pos] = suffix[m][pos + 1] + m[pos]

    def count(pos: int, rem: int, active: tuple) -> int:
        if not active:
            # free completions of the remaining coordinates
            if pos == dim:
                return 1 if rem == 0 else 0
            return comb(rem + dim - pos - 1, dim - pos - 1)
        if pos == dim:
            # some minimum matched on every coordinate
            return 0
        if rem == 0:
            return 0 if any(suffix[m][pos] == 0 for m in active) else 1
        total = 0
        for e in range(rem + 1):
            nxt = tuple(
                m for m in active if m[pos] <= e and suffix[m][pos + 1] <= rem - e
            )
            total += count(pos + 1, rem - e, nxt)
        return total

    return count(0, d, st.mins)


def gk_dimension(st: Staircase) -> int:
    """Largest coordinate set containing the support of no staircase minimum.

    Equals dim minus a minimum hitting set of the supports, found by
    branch and bound; also the growth degree of hilbert_count.
    """
    if not st.mins:
        return st.dim  # zero ideal: full polynomial growth
    supports = [tuple(g for g, e in enumerate(m) if e) for m in st.mins]
    if any(not s for s in supports):
        # the unit monomial is in the ideal: the quotient vanishes
        return 0
    supports.sort(key=len)
    best = st.dim

    def search(chosen: set) -> None:
        nonlocal best
        if len(chosen) >= best:
            return
        for sup in supports:
            if not chosen.intersection(sup):
                for g in sup:
                    chosen.add(g)
                    search(chosen)
                    chosen.remove(g)
                return
        best = len(chosen)

    search(set())
    return st.dim - best


def eliminate_prefix(G: GroebnerBasis, s: int) -> tuple[Polynomial, ...]:
    """Basis elements supported entirely on the generators 0..s-1.

    Nonempty exactly when the ideal meets the span of words in the first
    s generators, because the shipped ordering eliminates every prefix.
    """
    if s < 1:
        raise InvalidPrefix(f"prefix size must be >= 1, got {s}")
    ngens = G.ngens
    if s > ngens - 1:
        raise InvalidPrefix(f"prefix size must be <= {ngens - 1}, got {s}")
    return tuple(
        g for g in G.elements if all(m.top() < s for _, m in g.terms)
    )


def check_elimination_bound(G: GroebnerBasis) -> ValidationReport:
    """Every prefix larger than the quotient's GK dimension meets the ideal."""
    st = leading_staircase(G)
    d = gk_dimension(st)
    checks = []
    for s in range(d + 1, G.ngens):
        found = eliminate_prefix(G, s)
        if found:
            checks.append(
                CheckResult(
                    f"prefix-{s}", True, f"{len(found)} prefix-supported elements"
                )
            )
        else:
            checks.append(
                CheckResult(f"prefix-{s}", False, "no prefix-supported element")
            )
    ok = all(c.ok for c in checks)
    return ValidationReport(
        kind="elimination-bound",
        ok=ok,
        checks=checks,
        meta={"gk_dimension": d, "ngens": G.ngens},
    )
