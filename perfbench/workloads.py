"""Inputs, operations and output checks of the four workloads.

Every input is generated from the run's seed as text, in the generator
syntax that `mq` reads, and the engine receives only that text (or, for
`member` and `hilbert`, objects it built from that text during set-up).
The checks never compare against a stored copy of an earlier output: each
is either an independent computation (dense linear algebra, brute-force
counting, closed formulas) or a property every correct result must have.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from quantmat import dimension, groebner, mq, textio
from quantmat.errors import EvaluationPole, PairLimitExceeded
from quantmat.qfield import QMode, SYMBOLIC

from oracles import left_multiples_span, specialize_terms

N = 3
NGENS = N * N
Q2 = QMode.numeric(2)
ORACLE_Q = Fraction(3)  # rational point for the dense oracle at symbolic q

# Pair budgets of the swell family.  At symbolic q one more pair can cost
# fifteen times as much (W-rand3: 5 pairs 0.09 s, 6 pairs 1.3 s).
SYM_BUDGET = 4
Q2_BUDGET = 8

# Degrees swept by each `hilbert` operation.
HILBERT_DEGREES = tuple(range(0, 9))


# -- instance generation -------------------------------------------------


def _coeff(rng: random.Random) -> str:
    """Pole-free scalar a*q^k with a in +-{1,2,3}, k in -2..2 (rand_coeff shape)."""
    a = rng.choice([-3, -2, -1, 1, 2, 3])
    k = rng.randint(-2, 2)
    if k > 0:
        return f"({a}*q^{k})"
    if k < 0:
        return f"({a}/q^{-k})"
    return f"({a})"


def _small(rng: random.Random) -> int:
    return rng.choice([-3, -2, -1, 1, 2, 3])


def quantum_minors() -> list[str]:
    """The nine 2x2 quantum minors z[a,c]z[b,d] - q z[a,d]z[b,c] of M_q(3)."""
    return [
        f"z[{a},{c}]*z[{b},{d}] - q*z[{a},{d}]*z[{b},{c}]"
        for a, b in itertools.combinations(range(1, N + 1), 2)
        for c, d in itertools.combinations(range(1, N + 1), 2)
    ]


TRACE = "z[1,1] + z[2,2] + z[3,3]"

# Structured family: the nine quantum minors with seeded lower-order
# additions.  Every kind completes, most S-pairs reduce to zero, and every
# completed element lies in the span of degree <= ORACLE_DEGREE[kind] left
# multiples of the generators, so the dense oracle can certify it.
STRUCTURED_KINDS = ("minors", "quad", "sum", "trace", "lin2", "trace_lin", "trace2")
ORACLE_DEGREE = {"lin2": 3}


def structured(kind: str, rng: random.Random) -> list[str]:
    minors = quantum_minors()
    if kind == "minors":
        # a scalar multiple of each minor: same ideal, same reduced basis
        return [f"{_coeff(rng)}*({m})" for m in minors]
    if kind == "quad":
        return minors + [f"z[1,1]*z[3,3] - ({_small(rng)})*z[2,2]^2"]
    if kind == "sum":
        return minors + [f"z[1,1] + ({_small(rng)})*z[2,2] + ({_small(rng)})*z[3,3]"]
    if kind == "trace":
        return minors + [f"{TRACE} - ({_small(rng)})"]
    if kind == "lin2":
        return minors + [f"z[1,3] - ({_small(rng)}*q)*z[3,1]", f"z[1,2] - ({_small(rng)})*z[2,1]"]
    if kind == "trace_lin":
        return minors + [f"{TRACE} - ({_small(rng)})", f"z[1,3] - ({_small(rng)}*q)*z[3,1]"]
    if kind == "trace2":
        return minors + [f"{TRACE} - ({_small(rng)})", f"z[1,2] - ({_small(rng)})*z[2,1]"]
    raise ValueError(f"unknown structured kind {kind!r}")


# Swell family: two generators with the monomial supports of nontrivial
# tests/oracles.rand_poly draws (degree <= 2, <= 3 terms); the seed draws
# every coefficient.  "w3" is W-rand3 of the ROADMAP.  Fixed supports keep
# the pair sequence, and so the cost of an operation, nearly independent
# of the seed; random supports mostly give the unit ideal at once.
SWELL_SHAPES = {
    "w3": (("z[3,3]*z[3,1]", "z[2,2]", "1"), ("z[3,3]", "z[3,1]^2", "z[1,1]")),
    "s5": (("z[3,3]*z[3,1]", "z[1,2]*z[1,1]", "z[3,1]"), ("z[2,1]*z[1,2]", "1", "z[2,1]*z[1,1]")),
    "s6": (("z[1,1]", "z[3,2]", "z[2,1]"), ("z[3,1]*z[1,3]", "z[3,3]*z[1,2]", "z[2,2]")),
    "s9": (("z[1,1]", "z[3,2]"), ("z[3,3]*z[1,3]", "z[2,3]*z[2,1]", "1")),
    "s17": (("z[2,1]", "z[2,1]*z[1,1]", "z[3,2]"), ("1", "z[3,3]*z[3,1]")),
    "s20": (("z[3,3]", "z[2,2]*z[1,1]", "1"), ("z[2,1]", "z[3,2]*z[2,2]")),
}


def swell(shape: str, rng: random.Random) -> list[str]:
    return [
        " + ".join(f"{_coeff(rng)}*{m}" for m in gen) for gen in SWELL_SHAPES[shape]
    ]


@dataclass(frozen=True)
class GbInstance:
    label: str
    gens: tuple[str, ...]
    max_pairs: int
    structured: bool


def gb_instances(seed: int, budget: int) -> list[GbInstance]:
    rng = random.Random(seed)
    out = [
        GbInstance(k, tuple(structured(k, rng)), groebner.DEFAULT_MAX_PAIRS, True)
        for k in STRUCTURED_KINDS
    ]
    out += [
        GbInstance(s, tuple(swell(s, rng)), budget, False) for s in SWELL_SHAPES
    ]
    return out


# -- the `mq gb` operation -------------------------------------------------


@dataclass(frozen=True)
class GbOutput:
    elements: tuple
    text: str
    partial: bool
    stats: object


def gb_op(inst: GbInstance, qmode: QMode) -> GbOutput:
    """What `mq gb` does, through the library: build, parse, complete, render.

    A budgeted run keeps the partial basis PairLimitExceeded carries.
    """
    system = mq.build_mq(mq.MqSpec(N, qmode))
    gens = [textio.parse_poly(t, system) for t in inst.gens]
    try:
        basis = groebner.buchberger(gens, system, max_pairs=inst.max_pairs)
        partial = False
    except PairLimitExceeded as exc:
        basis = exc.partial
        partial = True
    text = "\n".join(textio.format_poly(g, system.gen_names) for g in basis.elements)
    return GbOutput(basis.elements, text, partial, basis.stats)


# -- checks of `mq gb` outputs ------------------------------------------------


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _word(exps) -> str:
    parts = []
    for g in range(NGENS - 1, -1, -1):
        e = exps[g]
        if e:
            name = f"z[{g // N + 1},{g % N + 1}]"
            parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def check_reduced(elements) -> str:
    """Monic, ascending distinct LMs, no term divisible by another LM.

    Exponent arithmetic only; PaperLex compares reversed exponent vectors.
    """
    if not elements:
        return "empty basis"
    lms = [g.terms[0].mono.exps for g in elements]
    for g in elements:
        if not g.terms[0].coeff.is_one():
            return "basis element is not monic"
    for g in elements:
        keys = [tuple(reversed(m.exps)) for _, m in g.terms]
        if any(a <= b for a, b in zip(keys, keys[1:])):
            return "terms of an element are not strictly descending"
    keys = [tuple(reversed(e)) for e in lms]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        return "leading monomials are not strictly ascending"
    for i, g in enumerate(elements):
        for _, m in g.terms:
            for j, lm in enumerate(lms):
                if j != i and _divides(lm, m.exps):
                    return f"element {i} has a term divisible by LM of element {j}"
    return ""


def check_text(elements, text: str) -> str:
    """Each line renders its element: every term's word, in order, whole."""
    lines = text.split("\n")
    if len(lines) != len(elements):
        return f"{len(lines)} rendered lines for {len(elements)} elements"
    for g, line in zip(elements, lines):
        pos = 0
        for _, m in g.terms:
            if not any(m.exps):
                continue
            w = _word(m.exps)
            while True:
                k = line.find(w, pos)
                end = k + len(w)
                if k < 0:
                    return f"term {w} missing from rendered line"
                if end == len(line) or line[end] == " ":
                    break
                pos = k + 1
            pos = end
    return ""


def _vector(p, index) -> list:
    vec = [Fraction(0)] * len(index)
    for c, m in p.terms:
        if m not in index:
            return None
        vec[index[m]] = Fraction(c.num[0]) / Fraction(c.den[0])
    return vec


def check_oracle(inst: GbInstance, out: GbOutput, qmode: QMode) -> str:
    """Each element lies in the span of bounded left multiples of the inputs.

    Dense linear algebra over Q at a rational q (tests/oracles), with the
    inputs parsed in a system of their own.
    """
    v = ORACLE_Q if qmode.is_symbolic else qmode.value
    degree = ORACLE_DEGREE.get(inst.label, 2)
    system = mq.build_mq(mq.MqSpec(N, qmode))
    gens = [textio.parse_poly(t, system) for t in inst.gens]
    span, index = left_multiples_span(N, gens, v, degree)
    for i, g in enumerate(out.elements):
        vec = _vector(specialize_terms(g, v, NGENS), index)
        if vec is None or not span.contains(vec):
            return f"element {i} is not in the degree-{degree} span at q = {v}"
    return ""


def specialize_basis(elements):
    """Basis at q = 2 as (coefficient, exponents) lists; None at a pole."""
    out = []
    for g in elements:
        try:
            terms = [(c.specialize(Q2), m.exps) for c, m in g.terms]
        except EvaluationPole:
            return None
        out.append([(c, e) for c, e in terms if not c.is_zero()])
    return out


def check_specialization(inst: GbInstance, out: GbOutput) -> str:
    """The symbolic result at q = 2 equals the q = 2 result at the same budget.

    Exempt when a coefficient of the symbolic result has a pole at q = 2:
    the two runs then take different reduction paths.
    """
    spec = specialize_basis(out.elements)
    if spec is None:
        return ""
    numeric = gb_op(inst, Q2)
    if numeric.partial != out.partial:
        return "symbolic and q = 2 runs disagree on whether the budget ran out"
    ref = [[(c, m.exps) for c, m in g.terms] for g in numeric.elements]
    if spec != ref:
        return "symbolic result specialized at q = 2 differs from the q = 2 result"
    return ""


def check_rescaled(inst: GbInstance, out: GbOutput, qmode: QMode) -> str:
    """The reduced result does not change when each input is scaled.

    A consistency check, not an oracle: no independent method reaches the
    degrees of a budgeted q = 2 partial basis.
    """
    scaled = GbInstance(
        inst.label, tuple(f"(-3/q)*({g})" for g in inst.gens), inst.max_pairs, False
    )
    if gb_op(scaled, qmode).text != out.text:
        return "result changed when the inputs were scaled"
    return ""


def check_gb(inst: GbInstance, out: GbOutput, qmode: QMode) -> str:
    """Every check that applies to one `mq gb` output; '' when all pass."""
    problem = check_reduced(out.elements) or check_text(out.elements, out.text)
    if not problem and inst.structured:
        if out.partial:
            return "a structured instance ran out of pairs"
        problem = check_oracle(inst, out, qmode)
    if not problem and qmode.is_symbolic:
        problem = check_specialization(inst, out)
    if not problem and not inst.structured and not qmode.is_symbolic:
        problem = check_rescaled(inst, out, qmode)
    return problem


# -- member -------------------------------------------------------------------


@dataclass(frozen=True)
class MemberQuery:
    basis: int
    poly: object
    expected: bool


def _standard_monomials(lms, rng: random.Random, count: int) -> list[tuple]:
    """Distinct exponent vectors of degree 1..3 divisible by no LM."""
    found: list[tuple] = []
    while len(found) < count:
        exps = [0] * NGENS
        for _ in range(rng.randint(1, 3)):
            exps[rng.randrange(NGENS)] += 1
        exps = tuple(exps)
        if exps not in found and not any(_divides(lm, exps) for lm in lms):
            found.append(exps)
    return found


def _planted_member(gens: list[str], rng: random.Random) -> str:
    """A combination of three left multiples z*g of input generators."""
    return " + ".join(
        f"{_coeff(rng)}*z[{rng.randint(1, N)},{rng.randint(1, N)}]*({rng.choice(gens)})"
        for _ in range(3)
    )


def member_setup(seed: int, per_basis: int = 36):
    """Complete the structured bases at symbolic q and plant the queries.

    Each basis gets per_basis members and as many non-members.  A planted
    non-member is a member plus a nonzero combination of two standard
    monomials, so its normal form is that combination.
    """
    rng = random.Random(seed)
    system = mq.build_mq(mq.MqSpec(N, SYMBOLIC))
    bases, queries = [], []
    for b, kind in enumerate(STRUCTURED_KINDS):
        texts = structured(kind, rng)
        gens = [textio.parse_poly(t, system) for t in texts]
        basis = groebner.buchberger(gens, system)
        bases.append(basis)
        lms = [g.lm().exps for g in basis.elements]
        for _ in range(per_basis):
            member = _planted_member(texts, rng)
            queries.append(MemberQuery(b, textio.parse_poly(member, system), True))
            extra = " + ".join(
                f"{_coeff(rng)}*{_word(e)}" for e in _standard_monomials(lms, rng, 2)
            )
            queries.append(
                MemberQuery(b, textio.parse_poly(f"{member} + {extra}", system), False)
            )
    return system, bases, queries


def member_op(query: MemberQuery, system, bases) -> bool:
    return groebner.ideal_member(query.poly, bases[query.basis], system)


# -- hilbert ------------------------------------------------------------------


@dataclass(frozen=True)
class HilbertInstance:
    label: str
    staircase: object


def hilbert_setup(seed: int) -> list[HilbertInstance]:
    """Leading staircases of the structured bases completed at q = 2, plus
    the staircase of the zero ideal (no generators)."""
    rng = random.Random(seed)
    system = mq.build_mq(mq.MqSpec(N, Q2))
    out = []
    for kind in STRUCTURED_KINDS:
        gens = [textio.parse_poly(t, system) for t in structured(kind, rng)]
        basis = groebner.buchberger(gens, system)
        out.append(HilbertInstance(kind, dimension.leading_staircase(basis)))
    out.append(HilbertInstance("zero", dimension.make_staircase(NGENS, ())))
    return out


def hilbert_op(inst: HilbertInstance) -> tuple:
    counts = tuple(dimension.hilbert_count(inst.staircase, d) for d in HILBERT_DEGREES)
    return counts, dimension.gk_dimension(inst.staircase)


def _brute_counts(mins) -> list[int]:
    counts = []
    for d in HILBERT_DEGREES:
        n = 0
        for cut in itertools.combinations(range(d + NGENS - 1), NGENS - 1):
            # stars and bars: the gaps between cut positions are the exponents
            exps, prev = [], -1
            for c in cut:
                exps.append(c - prev - 1)
                prev = c
            exps.append(d + NGENS - 2 - prev)
            if not any(_divides(m, exps) for m in mins):
                n += 1
        counts.append(n)
    return counts


def _brute_gk(mins) -> int:
    """Largest coordinate set that contains the support of no minimum."""
    supports = [frozenset(g for g, e in enumerate(m) if e) for m in mins]
    for size in range(NGENS, -1, -1):
        for coords in itertools.combinations(range(NGENS), size):
            s = set(coords)
            if not any(sup <= s for sup in supports):
                return size
    return 0


def hilbert_reference(inst: HilbertInstance) -> tuple:
    """Counts and GK dimension computed apart from `dimension`."""
    mins = inst.staircase.mins
    if inst.label == "minors":
        # M_q(3) modulo its 2x2 minors: C(d+2,2)^2 standard words, GK 2n-1
        return tuple(comb(d + 2, 2) ** 2 for d in HILBERT_DEGREES), 2 * N - 1
    if inst.label == "zero":
        return tuple(comb(d + NGENS - 1, NGENS - 1) for d in HILBERT_DEGREES), NGENS
    return tuple(_brute_counts(mins)), _brute_gk(mins)
