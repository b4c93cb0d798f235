"""Independent reference implementations the engine is tested against.

Everything here deliberately uses a different strategy from the package:
word-by-word rewriting instead of memoized generator folds, dense Fraction
linear algebra at rational q values instead of symbolic division, finite
differences of the Hilbert function and a hitting-set search over the
staircase supports instead of the pole order of the Hilbert series,
enumeration of standard monomials instead of the Hilbert-series numerator,
every S-pair of a basis instead of completion's pair criteria, an
S-polynomial as the difference of two whole scaled lifts instead of one
accumulator of their tails, a remainder rebuilt at every division step
instead of a heap-ordered accumulator, interreduction that restarts
after every change instead of one forward sweep, and Q(q) as Fraction
polynomials reduced by the monic Euclidean algorithm instead of coprime
integer polynomials reduced by a gcd in Z[q].
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

from quantmat import (
    Monomial,
    MqSpec,
    Polynomial,
    QMode,
    QRat,
    build_mq,
)
from quantmat.errors import DimensionMismatch, DivisionByZero
from quantmat.groebner import left_divide
from quantmat.pbw import (
    EQUAL,
    GREATER,
    LESS,
    Term,
    mono_lcm,
    poly_from_dict,
)
from quantmat.qfield import ONE, ZERO
from quantmat.straighten import scalar_mul


# -- Q(q) over the rationals: monic Euclid --------------------------------
#
# A rational function is a pair (num, den) of coefficient tuples, lowest
# power first, in the form QRat.num and QRat.den show: reduced, den monic.


def _qpadd(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def qpmul(a, b):
    """Product of polynomials with int or Fraction coefficients."""
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def pdivmod(a, b):
    """Quotient and remainder of a by b over the rationals."""
    if not b:
        raise DivisionByZero("polynomial division by zero")
    if len(a) < len(b):
        return (), a
    rem = [Fraction(c) for c in a]
    quo = [Fraction(0)] * (len(a) - len(b) + 1)
    for k in range(len(a) - len(b), -1, -1):
        c = rem[k + len(b) - 1] / b[-1]
        quo[k] = c
        for j, cb in enumerate(b):
            rem[k + j] -= c * cb
    while rem and not rem[-1]:
        rem.pop()
    return tuple(quo), tuple(rem)


def pmonic(a):
    """Scale so the leading coefficient is 1."""
    if not a:
        return a
    return tuple(Fraction(c) / a[-1] for c in a)


def monic_gcd(a, b):
    """Monic gcd over the rationals (monic Euclid)."""
    while b:
        a, b = b, pmonic(pdivmod(a, b)[1])
    return pmonic(a)


def rat_canonical(num, den):
    """num/den reduced by the monic gcd, with den monic."""
    num, den = _qpadd(num, ()), _qpadd(den, ())  # drop trailing zeros
    if not num:
        return (), (1,)
    g = monic_gcd(num, den)
    num, den = pdivmod(num, g)[0], pdivmod(den, g)[0]
    return tuple(c / den[-1] for c in num), pmonic(den)


def rat_add(x, y):
    num = _qpadd(qpmul(x[0], y[1]), qpmul(y[0], x[1]))
    return rat_canonical(num, qpmul(x[1], y[1]))


def rat_mul(x, y):
    return rat_canonical(qpmul(x[0], y[0]), qpmul(x[1], y[1]))


def rat_inv(x):
    if not x[0]:
        raise DivisionByZero("inversion of zero")
    return rat_canonical(x[1], x[0])


def qrat(num, den=(1,)) -> QRat:
    """num/den as a QRat, for int or Fraction coefficient tuples, lowest
    power first; built by QRat's public arithmetic, so it reduces any
    representative.  A zero den raises DivisionByZero."""

    def poly(coeffs):
        acc = ZERO
        for k, c in enumerate(coeffs):
            if c:
                acc = acc + QRat.from_rational(c) * QRat.q_power(k)
        return acc

    return poly(num) / poly(den)


def rat_eval(a, v: Fraction) -> Fraction:
    """The polynomial a at q = v."""
    return sum((Fraction(c) * v**k for k, c in enumerate(a)), Fraction(0))


def _render_qpoly(p) -> tuple[str, int]:
    pieces = []
    for k in reversed(range(len(p))):
        if not p[k]:
            continue
        a = abs(p[k])
        power = "" if k == 0 else ("q" if k == 1 else f"q^{k}")
        body = str(a) if not power else (power if a == 1 else f"{a}*{power}")
        if pieces:
            pieces.append((" - " if p[k] < 0 else " + ") + body)
        else:
            pieces.append(("-" if p[k] < 0 else "") + body)
    return "".join(pieces), len(pieces)


def render_rat(x) -> str:
    """The coefficient text of qfield.format_qrat, from the reduced pair."""
    num, den = x
    if not num:
        return "0"
    sign = "-" if num[-1] < 0 else ""
    num_s, num_terms = _render_qpoly(tuple(-c for c in num) if sign else num)
    if tuple(den) == (1,):
        return sign + num_s
    den_s, den_terms = _render_qpoly(den)
    if num_terms > 1:
        num_s = f"({num_s})"
    if den_terms > 1:
        den_s = f"({den_s})"
    return f"{sign}{num_s}/{den_s}"


def view_format_qrat(c: QRat) -> str:
    """qfield.format_qrat as it was before it printed from the stored parts:
    render the padded num/den view, whose length grows with the power of q."""
    return render_rat((c.num, c.den))


# -- canonical form of raw terms, and the commutator ---------------------


def poly_canonicalize(raw, ngens: int) -> Polynomial:
    """Merge equal monomials, drop zeros, sort strictly descending."""
    acc: dict[Monomial, QRat] = {}
    for coeff, mono in raw:
        if len(mono.exps) != ngens:
            raise DimensionMismatch(
                f"term over {len(mono.exps)} generators in a {ngens}-generator polynomial"
            )
        prev = acc.get(mono)
        acc[mono] = coeff if prev is None else prev + coeff
    return poly_from_dict(acc, ngens)


def commutator(sys, f: Polynomial, g: Polynomial) -> Polynomial:
    """[f, g] = f*g - g*f in the system's normal form."""
    return sys.poly_mul(f, g) - sys.poly_mul(g, f)


# -- ordering oracle: comparison of the written words, divisibility ------


def _word(m: Monomial) -> tuple[int, ...]:
    """Generator indices of the descending word m stands for, highest first."""
    return tuple(g for g in range(len(m) - 1, -1, -1) for _ in range(m[g]))


def compare_word_lex(a: Monomial, b: Monomial) -> int:
    """Word-form comparison: proper prefix is smaller, else the first
    differing letter decides by generator order."""
    if a.ngens != b.ngens:
        raise DimensionMismatch(f"monomials over {a.ngens} and {b.ngens} generators")
    wa, wb = _word(a), _word(b)
    for x, y in zip(wa, wb):
        if x != y:
            return GREATER if x > y else LESS
    if len(wa) == len(wb):
        return EQUAL
    return LESS if len(wa) < len(wb) else GREATER


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """Exponentwise a <= b; division in the engine tests LM bitmasks."""
    if a.ngens != b.ngens:
        raise DimensionMismatch(f"monomials over {a.ngens} and {b.ngens} generators")
    return all(x <= y for x, y in zip(a, b))


# -- random data ----------------------------------------------------------


def rand_monomial(rng, ngens, max_degree):
    deg = rng.randint(0, max_degree)
    exps = [0] * ngens
    for _ in range(deg):
        exps[rng.randrange(ngens)] += 1
    return Monomial(exps)


def rand_coeff(rng):
    """Pole-free coefficient: nonzero rational times a power of q."""
    a = rng.choice([-3, -2, -1, 1, 2, 3])
    k = rng.randint(-2, 2)
    return QRat.from_rational(a) * QRat.q_power(k)


def rand_poly(rng, ngens, max_degree=2, max_terms=3, allow_zero=False):
    while True:
        raw = [
            (rand_coeff(rng), rand_monomial(rng, ngens, max_degree))
            for _ in range(rng.randint(1, max_terms))
        ]
        p = poly_canonicalize(raw, ngens)
        if allow_zero or not p.is_zero():
            return p


# -- straightening oracle: leftmost ascending adjacent pair ---------------


def _word_to_mono(word, ngens):
    exps = [0] * ngens
    for g in word:
        exps[g] += 1
    return Monomial(exps)


def naive_mono_mul(sys, u: Monomial, v: Monomial) -> Polynomial:
    """Rewrite the concatenated word pair by pair until descending."""
    pending = {_word(u) + _word(v): ONE}
    done: dict[tuple, QRat] = {}
    while pending:
        word, coeff = pending.popitem()
        if coeff.is_zero():
            continue
        for k in range(len(word) - 1):
            if word[k] < word[k + 1]:
                small, big = word[k], word[k + 1]
                lam, f = sys.table[(big, small)]
                swapped = word[:k] + (big, small) + word[k + 2:]
                prev = pending.get(swapped)
                add = lam * coeff
                pending[swapped] = add if prev is None else prev + add
                for cf, mf in f.terms:
                    spliced = word[:k] + _word(mf) + word[k + 2:]
                    prev = pending.get(spliced)
                    add = coeff * cf
                    pending[spliced] = add if prev is None else prev + add
                break
        else:
            prev = done.get(word)
            done[word] = coeff if prev is None else prev + coeff
    raw = [(c, _word_to_mono(w, sys.ngens)) for w, c in done.items()]
    return poly_canonicalize(raw, sys.ngens)


def naive_poly_mul(sys, f: Polynomial, g: Polynomial) -> Polynomial:
    acc = Polynomial.zero(sys.ngens)
    for cf, mf in f.terms:
        for cg, mg in g.terms:
            prod = naive_mono_mul(sys, mf, mg)
            acc = acc + Polynomial(
                tuple(Term(cf * cg * c, m) for c, m in prod.terms), sys.ngens
            )
    return acc


# -- division: rebuild the remainder at every step ------------------------


def rebuild_left_divide(f: Polynomial, G, sys):
    """Reference left division: the first divisor whose LM divides the
    leading monomial, and the whole remainder rebuilt by polynomial
    subtraction at every step.  Returns (quotients, remainder) as
    groebner.left_divide does; lifts use the engine's mono_mul.
    """
    ngens = f.ngens
    quot_terms = [[] for _ in G]
    rem_terms = []
    p = f
    while not p.is_zero():
        c, m = p.terms[0]
        for k, g in enumerate(G):
            if mono_divides(g.lm(), m):
                delta = Monomial([y - x for x, y in zip(g.lm().exps, m.exps)])
                h = g if delta.is_unit() else sys.mono_mul(delta, g)
                coef = c / h.lc()
                p = p - _scaled(coef, h)
                quot_terms[k].append(Term(coef, delta))
                break
        else:
            rem_terms.append(Term(c, m))
            p = Polynomial(p.terms[1:], ngens)
    quotients = [Polynomial(tuple(ts), ngens) for ts in quot_terms]
    return quotients, Polynomial(tuple(rem_terms), ngens)


# -- S-polynomials: whole scaled lifts subtracted --------------------------


def mono_quotient(a: Monomial, b: Monomial) -> Monomial:
    """The monomial u with u * b = a in the commutative sense; b must divide a."""
    return Monomial([x - y for x, y in zip(a, b)])


def spoly_reference(g1: Polynomial, g2: Polynomial, sys) -> Polynomial:
    """Reference left S-polynomial: lift both elements to the lcm of their
    LMs with the engine's mono_mul, scale each lift to a monic head, and
    subtract the two whole polynomials, heads included.  The engine builds
    the difference of the tails in one accumulator instead."""
    gamma = mono_lcm(g1.lm(), g2.lm())
    h1, h2 = (
        g if (u := mono_quotient(gamma, g.lm())).is_unit() else sys.mono_mul(u, g)
        for g in (g1, g2)
    )
    return scalar_mul(h1.lc().inv(), h1) - scalar_mul(h2.lc().inv(), h2)


# -- interreduction: restart after every change ---------------------------


def fixpoint_interreduce(elems, sys) -> list[Polynomial]:
    """Reference interreduction: sort by ascending LM, divide each element
    by all the others, and after the first change start again from a fresh
    sort, until a whole pass changes nothing.  Division is the engine's
    left_divide, so this checks only the order of the changes.
    """
    items = [p.monic() for p in elems]
    changed = True
    while changed:
        changed = False
        items.sort(key=lambda p: p.lm()[::-1])
        for t, p in enumerate(items):
            others = items[:t] + items[t + 1 :]
            if not others:
                break
            _, r = left_divide(p, others, sys)
            if r == p:
                continue
            changed = True
            if r.is_zero():
                del items[t]
            else:
                items[t] = r.monic()
            break
    items.sort(key=lambda p: p.lm()[::-1])
    return items


# -- Groebner certificate: every S-pair, no criterion ---------------------


def _scaled(c: QRat, p: Polynomial) -> Polynomial:
    return Polynomial(tuple(Term(c * a, m) for a, m in p.terms), p.ngens)


def _left_lift(sys, exps, g: Polynomial) -> Polynomial:
    """z^exps * g by word rewriting."""
    return naive_poly_mul(sys, Polynomial((Term(ONE, Monomial(exps)),), sys.ngens), g)


def _reduces_to_zero(f: Polynomial, G, sys) -> bool:
    """True iff top reduction by G, first dividing LM first, ends at zero.

    The divisor choice does not change the verdict of is_left_groebner:
    one path to zero gives an S-polynomial a standard representation, and
    by a Groebner basis every path from an ideal member ends at zero.
    """
    p = f
    while not p.is_zero():
        c, m = p.terms[0]
        g = next((g for g in G if mono_divides(g.lm(), m)), None)
        if g is None:
            return False
        h = _left_lift(sys, [y - x for x, y in zip(g.lm().exps, m.exps)], g)
        p = p - _scaled(c / h.lc(), h)
    return True


def _s_pair(g1: Polynomial, g2: Polynomial, sys) -> Polynomial:
    a, b = g1.lm().exps, g2.lm().exps
    gamma = [max(x, y) for x, y in zip(a, b)]
    h1 = _left_lift(sys, [z - x for z, x in zip(gamma, a)], g1)
    h2 = _left_lift(sys, [z - y for z, y in zip(gamma, b)], g2)
    return _scaled(h1.lc().inv(), h1) - _scaled(h2.lc().inv(), h2)


def is_left_groebner(G, gens, sys) -> bool:
    """True iff G is a left Groebner basis whose left ideal holds every gen.

    Buchberger's test with no pair discarded: the S-polynomial of every
    pair of G, and every generator, reduces to zero by G.  Products are
    formed by word rewriting (naive_poly_mul), not by the engine.  That
    G lies in the ideal of gens is not checked here; see
    test_groebner.test_basis_lies_in_input_ideal, which checks it with
    membership_oracle.
    """
    elems = list(G)
    if not elems or any(g.is_zero() for g in elems):
        return False
    for a, b in combinations(range(len(elems)), 2):
        if not _reduces_to_zero(_s_pair(elems[a], elems[b], sys), elems, sys):
            return False
    return all(_reduces_to_zero(f, elems, sys) for f in gens)


# -- membership oracle: dense linear algebra at rational q ----------------


def qrat_value(c: QRat, v: Fraction) -> Fraction:
    s = c.specialize(QMode.numeric(v))
    num = s.num[0] if s.num else 0
    return Fraction(num) / Fraction(s.den[0])


def specialize_terms(p: Polynomial, v: Fraction, ngens: int) -> Polynomial:
    raw = [(QRat.from_rational(qrat_value(c, v)), m) for c, m in p.terms]
    return poly_canonicalize(raw, ngens)


def _monomials_up_to(ngens, max_degree):
    out = [Monomial.unit(ngens)]
    frontier = out[:]
    for _ in range(max_degree):
        nxt = []
        for m in frontier:
            top = m.top()
            start = top if top >= 0 else 0
            for g in range(start, ngens):
                exps = list(m.exps)
                exps[g] += 1
                nxt.append(Monomial(exps))
        out.extend(nxt)
        frontier = nxt
    return out


class _Span:
    """Row space over Fraction with incremental Gaussian elimination."""

    def __init__(self, width: int):
        self.width = width
        self.pivots: dict[int, list[Fraction]] = {}

    def _reduce(self, row):
        row = list(row)
        for col, pivot in self.pivots.items():
            if row[col]:
                factor = row[col]
                row = [a - factor * b for a, b in zip(row, pivot)]
        return row

    def add(self, row) -> bool:
        """Insert a vector; returns True if it enlarged the span."""
        row = self._reduce(row)
        for col, a in enumerate(row):
            if a:
                inv = Fraction(1) / a
                self.pivots[col] = [x * inv for x in row]
                return True
        return False

    def contains(self, row) -> bool:
        return all(not a for a in self._reduce(row))

    def rank(self) -> int:
        return len(self.pivots)


def _vector(p: Polynomial, index: dict) -> list[Fraction]:
    vec = [Fraction(0)] * len(index)
    for c, m in p.terms:
        vec[index[m]] = Fraction(c.num[0]) / Fraction(c.den[0])
    return vec


def left_multiples_span(n, gens, v: Fraction, max_degree: int):
    """Span of {z^delta * g} with deg(z^delta * g) <= max_degree, at q = v."""
    sysv = build_mq(MqSpec(n, QMode.numeric(v)))
    ngens = n * n
    basis_monos = _monomials_up_to(ngens, max_degree)
    index = {m: i for i, m in enumerate(basis_monos)}
    span = _Span(len(basis_monos))
    for g in gens:
        gv = specialize_terms(g, v, ngens)
        if gv.is_zero():
            continue
        room = max_degree - gv.degree()
        if room < 0:
            continue
        for delta in _monomials_up_to(ngens, room):
            prod = sysv.mono_mul(delta, gv)
            span.add(_vector(prod, index))
    return span, index


@lru_cache(maxsize=32)
def _cached_span(n, gens: tuple, v: Fraction, max_degree: int):
    # queries share a span; callers only read it (contains, rank, pivots)
    return left_multiples_span(n, gens, v, max_degree)


def membership_oracle(n, gens, f: Polynomial, max_degree: int, qvalues) -> bool:
    """f in the span of bounded left multiples at every sampled q?"""
    ngens = n * n
    for v in qvalues:
        span, index = _cached_span(n, tuple(gens), v, max_degree)
        fv = specialize_terms(f, v, ngens)
        if any(m not in index for _, m in fv.terms):
            return False  # a term of f lies above max_degree
        if not span.contains(_vector(fv, index)):
            return False
    return True


def prefix_intersection_found(n, gens, s: int, max_degree: int, qvalues) -> bool:
    """Does the bounded-degree span meet the prefix coordinate subspace?

    Checked at every sampled q; True only if a nonzero intersection shows
    up at all of them (dimension count via ranks).
    """
    ngens = n * n
    for v in qvalues:
        span, index = _cached_span(n, tuple(gens), v, max_degree)
        prefix_rows = [
            m for m in index if all(e == 0 for e in m.exps[s:])
        ]
        wspan = _Span(len(index))
        for m in prefix_rows:
            row = [Fraction(0)] * len(index)
            row[index[m]] = Fraction(1)
            wspan.add(row)
        joint = _Span(len(index))
        for pivot in span.pivots.values():
            joint.add(list(pivot))
        for pivot in wspan.pivots.values():
            joint.add(list(pivot))
        meet = span.rank() + wspan.rank() - joint.rank()
        if meet == 0:
            return False
    return True


# -- growth oracle --------------------------------------------------------


def growth_degree(counts) -> int:
    """GK dimension from Hilbert values by exact finite differences.

    Requires the tail of the (repeatedly differenced) sequence to
    stabilize; returns the least i with the i-th difference eventually
    zero.  counts[d] must be exact values for d = 0..len-1.
    """
    tail = 4
    seq = list(counts)
    for i in range(len(seq)):
        if all(x == 0 for x in seq[-tail:]):
            return i
        seq = [b - a for a, b in zip(seq, seq[1:])]
    raise ValueError("sequence did not stabilize; extend the degree range")


def hitting_set_gk(mins, dim) -> int:
    """GK dimension of the monomial quotient by a staircase, combinatorially.

    The largest coordinate set containing the support of no minimum: dim
    minus a minimum hitting set of the supports, found by branch and
    bound.  The zero ideal (no minima) has dim, the unit ideal 0.
    """
    if not mins:
        return dim
    supports = sorted((tuple(g for g, e in enumerate(m) if e) for m in mins), key=len)
    if not supports[0]:
        return 0  # the unit monomial is in the ideal: the quotient vanishes
    best = dim

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
    return dim - best


def binomial_count(ngens, d) -> int:
    return comb(d + ngens - 1, ngens - 1)


def brute_hilbert_count(mins, dim, d) -> int:
    """Degree-d exponent vectors in dim variables divisible by no minimum.

    Enumerates every vector by stars and bars: the dim - 1 bars sit at
    positions of range(d + dim - 1) and the gaps between them are the
    exponents.
    """
    if dim == 0:
        vectors = [()] if d == 0 else []
    else:
        vectors = []
        for bars in combinations(range(d + dim - 1), dim - 1):
            edges = (-1, *bars, d + dim - 1)
            vectors.append(tuple(b - a - 1 for a, b in zip(edges, edges[1:])))
    return sum(
        1
        for v in vectors
        if not any(all(a <= b for a, b in zip(m, v)) for m in mins)
    )


def quantum_minors(n) -> list[str]:
    """The 2x2 quantum minors z[a,c]*z[b,d] - q*z[a,d]*z[b,c] of M_q(n)."""
    pairs = list(combinations(range(1, n + 1), 2))
    return [
        f"z[{a},{c}]*z[{b},{d}] - q*z[{a},{d}]*z[{b},{c}]"
        for a, b in pairs
        for c, d in pairs
    ]


# -- ideal files ------------------------------------------------------------


def ideal_json(ideal) -> dict:
    """The JSON object of an ideal file, in the schema load_ideal reads."""
    return {
        "schema": 1,
        "n": ideal.n,
        "q": ideal.q,
        "generators": list(ideal.generators),
        "ordering": "paperlex",
        "limits": dict(ideal.limits),
    }


def write_ideal(ideal, path) -> None:
    """Write an IdealFile as an indented JSON file, for `mq --file`."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ideal_json(ideal), fh, indent=2)
        fh.write("\n")
