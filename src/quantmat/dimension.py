"""Staircase combinatorics of a completed basis.

The leading exponents of a left Groebner basis generate a monomial ideal;
its complement (the standard monomials) is a linear basis of the cyclic
quotient.  Counting that complement degree by degree gives the Hilbert
function, and the growth degree of the count is the Gelfand-Kirillov
dimension of the quotient.  Hilbert counts come from the numerator N(t) of
the Hilbert series HS(t) = N(t)/(1-t)^n, found by Bigatti's pivot recursion
(A. M. Bigatti, J. Pure Appl. Algebra 119, 1997), so their cost depends on
the staircase and not on the degree.  Because the shipped ordering
eliminates every prefix of the generator list, intersecting the basis with
a prefix subalgebra is a support filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import EmptyBasis, InvalidPrefix
from .groebner import GroebnerBasis
from .pbw import Polynomial, _paperlex_key


def _divides(w, v) -> bool:
    return all(a <= b for a, b in zip(w, v))


def _minimal(vectors) -> list[tuple[int, ...]]:
    """Divisibility-minimal members of a set of exponent vectors."""
    kept: list[tuple[int, ...]] = []
    for v in sorted(set(vectors), key=sum):
        if not any(_divides(w, v) for w in kept):
            kept.append(v)
    return kept


@dataclass(frozen=True)
class Staircase:
    """Antichain of minimal leading exponents of a monomial ideal."""

    dim: int
    mins: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for v in self.mins:
            if len(v) != self.dim:
                raise ValueError(f"exponent vector {v} has wrong length")
        for i, v in enumerate(self.mins):
            for j, w in enumerate(self.mins):
                if i == j:
                    continue
                if w == v:
                    raise ValueError(f"{v} is repeated: mins must be distinct")
                if _divides(w, v):
                    raise ValueError(f"{w} divides {v}: mins must be an antichain")


def make_staircase(dim: int, vectors) -> Staircase:
    """Antichain of the given exponent vectors (divisibility-minimal ones)."""
    mins = sorted(_minimal(tuple(v) for v in vectors), key=_paperlex_key)
    return Staircase(dim, tuple(mins))


def leading_staircase(G: GroebnerBasis) -> Staircase:
    if not G.elements:
        raise EmptyBasis("cannot take the staircase of an empty basis")
    return make_staircase(G.ngens, (g.lm().exps for g in G.elements))


def _numerator(mins) -> list[int]:
    """Coefficients of N(t), where HS(t) = N(t)/(1-t)^n for the ideal of mins.

    `mins` must be an antichain.  Splits on a pivot p by
    N(I) = N(I + (p)) + t^deg(p) * N(I : p) until the supports of the
    minima are pairwise disjoint, where N is the product of (1 - t^deg m).
    """
    if not mins:
        return [1]
    dim = len(mins[0])
    if any(not any(m) for m in mins):
        return [0]  # the unit ideal: nothing is standard
    shared = [0] * dim
    for m in mins:
        for i, a in enumerate(m):
            if a:
                shared[i] += 1
    i = max(range(dim), key=shared.__getitem__)
    if shared[i] < 2:
        out = [1]
        for m in mins:
            g = sum(m)
            nxt = out + [0] * g
            for k, c in enumerate(out):
                nxt[k + g] -= c
            out = nxt
        return out
    # p = x_i^e with e the median exponent of x_i over the minima that are
    # not pure powers of x_i; a pure power x_i^a in the antichain has a
    # above every such exponent, so p is not in the ideal and both
    # branches grow it
    exps = sorted(m[i] for m in mins if m[i] and sum(m) != m[i])
    e = exps[len(exps) // 2]
    power = tuple(e if j == i else 0 for j in range(dim))
    plus = [m for m in mins if m[i] < e]
    plus.append(power)
    colon = _minimal(m[:i] + (max(m[i] - e, 0),) + m[i + 1 :] for m in mins)
    low, high = _numerator(plus), [0] * e + _numerator(colon)
    if len(low) < len(high):
        low, high = high, low
    for k, c in enumerate(high):
        low[k] += c
    return low


def hilbert_count(st: Staircase, d: int) -> int:
    """Number of degree-d exponent vectors divisible by no staircase minimum.

    The coefficient of t^d in N(t)/(1-t)^n: the sum over k <= d of
    N_k * C(d - k + n - 1, n - 1), with N from Bigatti's pivot recursion
    (J. Pure Appl. Algebra 119, 1997).
    """
    if d < 0:
        raise ValueError(f"degree must be >= 0, got {d}")
    num = _numerator(st.mins)
    if st.dim == 0:
        # no variables: HS(t) = N(t)
        return num[d] if d < len(num) else 0
    r = st.dim - 1
    return sum(c * comb(d - k + r, r) for k, c in enumerate(num[: d + 1]))


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
