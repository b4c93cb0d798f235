"""Left division, S-polynomials, completion, and ideal membership."""

import hashlib
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, reject, settings, strategies as st

import quantmat.groebner as gb
from quantmat import MqSpec, build_mq, format_poly, parse_poly
from quantmat.errors import EmptyBasis, InvalidSpec, PairLimitExceeded
from quantmat.groebner import (
    BasisStats,
    GroebnerBasis,
    _interreduce,
    buchberger,
    ideal_member,
    left_divide,
    left_spoly,
)
from quantmat.pbw import Monomial, Polynomial, Term, mono_lcm, mono_sum, poly_from_dict
from quantmat.qfield import ONE, Q, QMode, QRat
from quantmat.straighten import quantum_plane, scalar_mul, weyl_algebra

from oracles import (
    fixpoint_interreduce,
    is_left_groebner,
    membership_oracle,
    naive_poly_mul,
    poly_canonicalize,
    quantum_minors,
    rand_monomial,
    rand_poly,
    rebuild_left_divide,
    specialize_terms,
    spoly_reference,
)
from test_straighten import _mq3, _poly3

QVALUES = (Fraction(2), Fraction(3), Fraction(1, 2))
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _gp(sys, g):
    return sys.gen_poly(g)


def _mono_poly(ngens, exps, coeff=ONE):
    return Polynomial((Term(coeff, Monomial(exps)),), ngens)


def test_divide_unit_quotient(sys2):
    f = _gp(sys2, 0)
    qs, r = left_divide(f, [f], sys2)
    assert qs[0] == Polynomial.one(4)
    assert r.is_zero()


def test_divide_diagonal_word(sys2):
    # z22 z11 = z11 * z22 - (q - 1/q) z21 z12
    f = _mono_poly(4, (1, 0, 0, 1))
    qs, r = left_divide(f, [_gp(sys2, 3)], sys2)
    assert qs[0] == _gp(sys2, 0)
    hook = Q - Q.inv()
    assert r == _mono_poly(4, (0, 1, 1, 0), -hook)


def test_divide_prefers_earlier_divisor(sys2):
    f = _mono_poly(4, (1, 0, 0, 1))
    g0 = _gp(sys2, 0)
    g3 = _gp(sys2, 3)
    qs, r = left_divide(f, [g0, g3], sys2)
    assert r.is_zero()
    # first listed divisor whose leading monomial divides is charged
    assert not qs[0].is_zero()
    assert qs[1].is_zero()
    # division identity: f = sum q_k * g_k + r
    total = Polynomial.zero(4)
    for qk, gk in zip(qs, (g0, g3)):
        total = total + sys2.poly_mul(qk, gk)
    assert total + r == f


def test_division_identity_and_normality(sys2):
    rng = random.Random(30)
    for _ in range(60):
        f = rand_poly(rng, 4, max_degree=3, max_terms=4)
        G = [
            rand_poly(rng, 4, max_degree=2, max_terms=2)
            for _ in range(rng.randint(1, 3))
        ]
        qs, r = left_divide(f, G, sys2)
        total = r
        for qk, gk in zip(qs, G):
            total = total + sys2.poly_mul(qk, gk)
        assert total == f
        for _, m in r.terms:
            assert not any(
                all(x <= y for x, y in zip(g.lm().exps, m.exps)) for g in G
            )


def test_divide_skips_nondividing_basis(sys2):
    qs, r = left_divide(_gp(sys2, 0), [_gp(sys2, 3)], sys2)
    assert qs[0].is_zero()
    assert r == _gp(sys2, 0)


def test_divide_recreates_a_cancelled_term():
    # quantum plane, y > x: dividing y^2 by y^2 + x + y cancels x, and the
    # next step, by y - x, creates x again
    qp = quantum_plane()
    x, y = qp.gen_poly(0), qp.gen_poly(1)
    y2 = qp.poly_mul(y, y)
    f = y2 + x
    G = [y2 + x + y, y - x]
    qs, r = left_divide(f, G, qp)
    assert (qs, r) == rebuild_left_divide(f, G, qp)
    assert qs == [Polynomial.one(2), -Polynomial.one(2)]
    assert r == -x


@pytest.mark.parametrize("q", ["sym", "2"])
@settings(deadline=None)
@given(data=st.data())
def test_divide_matches_rebuild_reference_n3(q, data):
    sys = _mq3(q)
    f = data.draw(_poly3(sys.qmode, 4), label="f")
    nonzero = _poly3(sys.qmode, 2).filter(lambda p: not p.is_zero())
    G = data.draw(st.lists(nonzero, min_size=1, max_size=4), label="G")
    assert left_divide(f, G, sys) == rebuild_left_divide(f, G, sys)


def test_spoly_of_element_with_itself(sys2):
    f = _gp(sys2, 0) + _gp(sys2, 1)
    assert left_spoly(f, f, sys2).is_zero()


def test_spoly_same_row_pair(sys2):
    # LMs z12 and z11 give lcm z12 z11; both lifts straighten to multiples
    s = left_spoly(_gp(sys2, 1), _gp(sys2, 0), sys2)
    assert s.is_zero()


def test_spoly_detects_new_element(sys2):
    s = left_spoly(_gp(sys2, 0), _gp(sys2, 3), sys2)
    # z^(0,0,0,1) * z11 - z^(1,0,0,0) * z22 leaves the hook term
    hook = Q - Q.inv()
    assert s == _mono_poly(4, (0, 1, 1, 0), -hook)


def test_spoly_after_adjoining_hook_word(sys2):
    g1 = _gp(sys2, 0)
    g2 = _mono_poly(4, (0, 1, 1, 0))
    s = left_spoly(g1, g2, sys2)
    qs, r = left_divide(s, [g1, g2, _gp(sys2, 3)], sys2)
    assert r.is_zero()


_SPOLY_SYSTEMS = {
    "M_q(2) symbolic": lambda: build_mq(MqSpec(2)),
    "M_q(2) q=2": lambda: build_mq(MqSpec(2, QMode.numeric(2))),
    "quantum plane": quantum_plane,
    "Weyl algebra": weyl_algebra,
}


@pytest.mark.parametrize("name", list(_SPOLY_SYSTEMS))
@settings(deadline=None)
@given(data=st.data())
def test_spoly_matches_reference(name, data):
    # left_spoly sums the two scaled tails in one accumulator; the
    # reference subtracts the two whole scaled lifts
    sys = _SPOLY_SYSTEMS[name]()
    rng = data.draw(st.randoms(use_true_random=False))

    def element():
        p = rand_poly(rng, sys.ngens, max_degree=3, max_terms=4)
        q = sys.qmode.value
        return p if q is None else specialize_terms(p, q, sys.ngens)

    g1, g2 = element(), element()
    # a sum of powers of q can vanish at q = 2; left_spoly rejects zero
    assume(not g1.is_zero() and not g2.is_zero())
    assert left_spoly(g1, g2, sys) == spoly_reference(g1, g2, sys)
    assert left_spoly(g1, g1, sys).is_zero()


def test_buchberger_diagonal_fixture(sys2):
    G = buchberger([_gp(sys2, 0), _gp(sys2, 3)], sys2)
    lms = [g.lm().exps for g in G]
    assert lms == [(1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 0, 1)]
    assert all(g.lc().is_one() for g in G)
    assert G.stats.pairs_considered == 3
    assert G.stats.reductions_to_zero == 2
    assert len(G) == 3


def test_buchberger_singleton(sys2):
    G = buchberger([scalar_mul(QRat.from_rational(2), _gp(sys2, 2))], sys2)
    assert len(G) == 1
    assert G.elements[0] == _gp(sys2, 2)
    assert G.stats.pairs_considered == 0


def test_buchberger_determinant(sys2):
    det = poly_canonicalize(
        [
            Term(ONE, Monomial((1, 0, 0, 1))),
            Term(-Q.inv(), Monomial((0, 1, 1, 0))),
        ],
        4,
    )
    G = buchberger([det], sys2)
    assert len(G) == 1
    assert G.elements[0] == det  # already monic, already a basis


def test_completion_soundness(sys2, sys3):
    rng = random.Random(31)
    for sys in (sys2, sys3):
        for _ in range(8):
            gens = [
                rand_poly(rng, sys.ngens, max_degree=2, max_terms=2)
                for _ in range(2)
            ]
            G = buchberger(gens, sys)
            for a in range(len(G)):
                for b in range(a + 1, len(G)):
                    s = left_spoly(G.elements[a], G.elements[b], sys)
                    _, r = left_divide(s, G.elements, sys)
                    assert r.is_zero()
            for g0 in gens:
                assert ideal_member(g0, G, sys)


# system, q value inputs are specialized at (None: symbolic), instances,
# max degree and max terms of each of the three generators
CERTIFIED_FAMILIES = {
    "mq2": (lambda: build_mq(MqSpec(2)), None, 40, 2, 2),
    "mq3_symbolic": (lambda: build_mq(MqSpec(3)), None, 30, 2, 2),
    "mq3_q2": (lambda: build_mq(MqSpec(3, QMode.numeric(2))), Fraction(2), 30, 2, 2),
    "quantum_plane": (quantum_plane, None, 40, 3, 3),
    "weyl": (weyl_algebra, None, 40, 3, 2),
}


@pytest.mark.parametrize("family", sorted(CERTIFIED_FAMILIES))
def test_completion_passes_full_pair_check(family):
    # the chain criterion skips pairs; the oracle forms every one of them
    make, qv, count, deg, terms = CERTIFIED_FAMILIES[family]
    sys = make()
    skips = 0
    for seed in range(count):
        rng = random.Random(seed)
        gens = [rand_poly(rng, sys.ngens, deg, terms) for _ in range(3)]
        if qv is not None:
            gens = [specialize_terms(g, qv, sys.ngens) for g in gens]
        G = buchberger(gens, sys)
        assert is_left_groebner(G.elements, gens, sys)
        skips += G.stats.chain_skips
    assert skips > 0


def test_chain_criterion_on_quantum_minors(sys3):
    gens = [parse_poly(m, sys3) for m in quantum_minors(3)]
    G = buchberger(gens, sys3)
    # 36 pairs without the criterion, every one reducing to zero
    assert G.stats == BasisStats(
        pairs_considered=17, reductions_to_zero=17, chain_skips=19
    )
    assert [format_poly(g, sys3.gen_names) for g in G] == [
        "z[2,2]*z[1,1] - 1/q*z[2,1]*z[1,2]",
        "z[2,3]*z[1,1] - 1/q*z[2,1]*z[1,3]",
        "z[2,3]*z[1,2] - 1/q*z[2,2]*z[1,3]",
        "z[3,2]*z[1,1] - 1/q*z[3,1]*z[1,2]",
        "z[3,2]*z[2,1] - 1/q*z[3,1]*z[2,2]",
        "z[3,3]*z[1,1] - 1/q*z[3,1]*z[1,3]",
        "z[3,3]*z[1,2] - 1/q*z[3,2]*z[1,3]",
        "z[3,3]*z[2,1] - 1/q*z[3,1]*z[2,3]",
        "z[3,3]*z[2,2] - 1/q*z[3,2]*z[2,3]",
    ]
    assert is_left_groebner(G.elements, gens, sys3)
    # skipped pairs are not charged to the budget
    assert buchberger(gens, sys3, max_pairs=17).elements == G.elements
    with pytest.raises(PairLimitExceeded) as exc:
        buchberger(gens, sys3, max_pairs=16)
    assert exc.value.partial.stats.pairs_considered == 16


def _weyl_swell_generators():
    # x is generator 0 and d generator 1; a monomial is (x exponent, d exponent)
    def poly(*terms):
        return poly_canonicalize([(c, Monomial(e)) for c, e in terms], 2)

    qp, rat = QRat.q_power, QRat.from_rational
    return [
        poly((qp(-2), (1, 3))),
        poly((-qp(-2), (0, 3)), (rat(3), (0, 1)), (rat(2), (2, 0))),
        poly((qp(2), (2, 2)), (rat(2) * Q, (1, 0))),
    ]


def test_weyl_completion_through_coefficient_swell():
    # the divisions build Q(q) coefficients of q-degree in the dozens; the
    # monic Euclidean gcd over the rationals stalled here for over 30 s
    W = weyl_algebra()
    gens = _weyl_swell_generators()
    assert [format_poly(g, W.gen_names) for g in gens] == [
        "1/q^2*d^3*x",
        "-1/q^2*d^3 + 3*d + 2*x^2",
        "q^2*d^2*x^2 + 2*q*x",
    ]
    # the relation d*x = x*d - 1 has no q, so q = 2 takes the same steps
    at_2 = [specialize_terms(g, Fraction(2), 2) for g in gens]
    for inputs in (gens, at_2):
        G = buchberger(inputs, W)
        assert G.elements == (Polynomial.one(2),)
        assert G.stats == BasisStats(
            pairs_considered=23, reductions_to_zero=8, chain_skips=130
        )


def test_reduced_basis_canonical_under_shuffle(sys2):
    rng = random.Random(32)
    gens = [rand_poly(rng, 4, max_degree=2, max_terms=2) for _ in range(3)]
    G1 = buchberger(gens, sys2)
    shuffled = list(gens)
    rng.shuffle(shuffled)
    G2 = buchberger(shuffled, sys2)
    assert G1.elements == G2.elements


def test_interreduce_head_reduction(sys2):
    z11 = _gp(sys2, 0)
    f = sys2.poly_mul(z11, z11) + _gp(sys2, 3)
    assert _interreduce([z11, f], gb._Lifts(sys2)) == [z11, _gp(sys2, 3)]


def test_interreduce_idempotent_and_monic(sys2):
    two_z = scalar_mul(QRat.from_rational(2), _gp(sys2, 0))
    lifts = gb._Lifts(sys2)
    red = _interreduce([two_z], lifts)
    assert red == [_gp(sys2, 0)]
    assert _interreduce(red, lifts) == red


_INTERREDUCE_SYSTEMS = {
    "mq2_sym": lambda: build_mq(MqSpec(2)),
    "mq2_q2": lambda: build_mq(MqSpec(2, QMode.numeric(2))),
    "quantum_plane": quantum_plane,
    "weyl": weyl_algebra,
}


class _Swell(Exception):
    """A remainder coefficient grew past _MAX_COEF_BITS."""


# Interreducing a list that is not a Groebner basis can climb in degree
# under PaperLex while its coefficients double at each division (one q = 2
# draw reached degree 21 and 180k bits in 74 divisions).  Draws that swell
# are rejected before a single division takes seconds.
_MAX_COEF_BITS = 256


def _coef_bits(c: QRat) -> int:
    parts = c.num + c.den
    return sum(x.numerator.bit_length() + x.denominator.bit_length() for x in parts)


@pytest.mark.parametrize("name", list(_INTERREDUCE_SYSTEMS))
def test_interreduce_matches_fixpoint_reference(name):
    # random element lists are rarely Groebner bases, so the interreduced
    # form depends on the order of the changes, as for a budgeted partial
    # basis; the sweep must make the changes the restarting loop makes
    sys = _INTERREDUCE_SYSTEMS[name]()
    lm_drops = []

    remainder = gb._remainder

    def divide(f, G, lifts):
        r = remainder(f, G, lifts)
        if any(_coef_bits(c) > _MAX_COEF_BITS for c, _ in r.terms):
            raise _Swell
        if not r.is_zero() and r.lm() != f.lm():
            lm_drops.append(f)
        return r

    @settings(deadline=None, max_examples=60)
    @given(rng=st.randoms(use_true_random=False), size=st.integers(2, 5))
    def check(rng, size):
        elems = [rand_poly(rng, sys.ngens, max_degree=3) for _ in range(size)]
        if sys.qmode.value is not None:
            elems = [specialize_terms(p, Fraction(2), sys.ngens) for p in elems]
            assume(not any(p.is_zero() for p in elems))
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(gb, "_remainder", divide)
                swept = _interreduce(elems, gb._Lifts(sys))
        except _Swell:
            reject()
        assert swept == fixpoint_interreduce(elems, sys)

    check()
    # some draws reach the branch that sorts again and restarts the sweep
    assert lm_drops


def test_interreduce_divides_each_element_once(sys3, monkeypatch):
    # completion hands over a Groebner basis that is not yet reduced: no LM
    # can drop, so the sweep divides each element once
    gens = [parse_poly(m, sys3) for m in quantum_minors(3)]
    gens.append(parse_poly("z[1,1] + z[2,2] + z[3,3] - 2", sys3))
    handed = []

    def capture(elems, lifts):
        handed.append(list(elems))
        return _interreduce(elems, lifts)

    monkeypatch.setattr(gb, "_interreduce", capture)
    G = buchberger(gens, sys3)
    (elems,) = handed
    assert len(elems) == 14 and len(G) == 10

    divided = []
    remainder = gb._remainder

    def divide(f, G, lifts):
        divided.append(f)
        return remainder(f, G, lifts)

    monkeypatch.setattr(gb, "_remainder", divide)
    assert tuple(_interreduce(elems, gb._Lifts(sys3))) == G.elements
    assert len(divided) == len(elems) and set(divided) == set(elems)


def test_ideal_member(sys2):
    G = buchberger([_gp(sys2, 0), _gp(sys2, 3)], sys2)
    assert ideal_member(_mono_poly(4, (0, 1, 1, 0)), G, sys2)
    assert ideal_member(Polynomial.zero(4), G, sys2)
    assert not ideal_member(_gp(sys2, 1), G, sys2)
    assert not membership_oracle(
        2, [_gp(sys2, 0), _gp(sys2, 3)], _gp(sys2, 1), 3, QVALUES
    )


def test_membership_matches_linear_oracle(sys2):
    rng = random.Random(33)
    gens = [_gp(sys2, 0), _gp(sys2, 3)]
    G = buchberger(gens, sys2)
    for _ in range(25):
        f = rand_poly(rng, 4, max_degree=3, max_terms=3)
        claimed = ideal_member(f, G, sys2)
        if claimed:
            qs, r = left_divide(f, G.elements, sys2)
            assert r.is_zero()
            deg = max(
                (sys2.poly_mul(qk, gk).degree() for qk, gk in zip(qs, G.elements)
                 if not qk.is_zero()),
                default=0,
            )
            assert membership_oracle(2, list(G.elements), f, max(deg, f.degree()), QVALUES)
        else:
            assert not membership_oracle(2, gens, f, f.degree() + 2, QVALUES)


def test_membership_oracle_rejects_terms_above_the_bound(sys2):
    # no left multiple of degree <= max_degree has a term of higher degree
    gens = [parse_poly("z[2,2]*z[1,1] - z[1,1]", sys2)]
    f = sys2.poly_mul(_gp(sys2, 1), gens[0])
    assert f.degree() == 3
    assert not membership_oracle(2, gens, gens[0], 0, QVALUES)
    assert not membership_oracle(2, gens, f, 2, QVALUES)
    assert membership_oracle(2, gens, f, 3, QVALUES)


def test_basis_lies_in_input_ideal(sys2):
    # G is a subset of I: the dense oracle finds every element among the
    # left multiples of the inputs, at each of the rational q values
    for seed in range(30):
        rng = random.Random(3400 + seed)
        gens = [
            rand_poly(rng, 4, max_degree=2, max_terms=2)
            for _ in range(rng.randint(1, 3))
        ]
        G = buchberger(gens, sys2)
        top = max(g.degree() for g in (*G.elements, *gens))
        for g in G:
            # a certificate can need a higher degree than g and the inputs
            # (seed 0 completes to the unit ideal; 1 needs degree 6 there);
            # the spans grow with the bound, so any() stops at the first hit
            assert any(
                membership_oracle(2, gens, g, d, QVALUES)
                for d in range(top, top + 5)
            )


def test_pair_limit(sys2):
    rng = random.Random(35)
    gens = [rand_poly(rng, 4, max_degree=2, max_terms=3) for _ in range(4)]
    with pytest.raises(PairLimitExceeded) as exc:
        buchberger(gens, sys2, max_pairs=1)
    partial = exc.value.partial
    assert isinstance(partial, GroebnerBasis)
    assert len(partial) >= 1


def test_empty_and_invalid_inputs(sys2):
    with pytest.raises(EmptyBasis):
        buchberger([], sys2)
    with pytest.raises(EmptyBasis):
        buchberger([Polynomial.zero(4)], sys2)
    with pytest.raises(InvalidSpec):
        left_divide(_gp(sys2, 0), [Polynomial.zero(4)], sys2)


_DROP_ELEMENT_SCRIPT = """
import quantmat.groebner as gb
from quantmat import MqSpec, build_mq, parse_poly

if __debug__:
    raise SystemExit("expected python -O")
real = gb._interreduce


def drop_last(*args):
    return real(*args)[:-1]


gb._interreduce = drop_last
S = build_mq(MqSpec(2))
try:
    gb.buchberger([parse_poly("z[1,1]", S), parse_poly("z[2,2]", S)], S)
except AssertionError as exc:
    print("raised:", exc)
else:
    print("returned")
"""


def test_completion_self_check_survives_optimize(module_cli):
    # `python -O` strips assert statements; the final input check must stay
    _, env = module_cli
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _DROP_ELEMENT_SCRIPT],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "raised: completed basis must reduce every input to zero\n"
    )


def test_lm_of_basis_divides_members(sys2):
    G = buchberger([_gp(sys2, 0), _gp(sys2, 3)], sys2)
    rng = random.Random(36)
    for _ in range(40):
        h = rand_poly(rng, 4, max_degree=2, max_terms=2)
        member = sys2.poly_mul(h, G.elements[0])
        if member.is_zero():
            continue
        assert any(
            all(x <= y for x, y in zip(g.lm().exps, member.lm().exps))
            for g in G
        )


def _c06_ideals() -> list[list[Polynomial]]:
    # the generator sets of test_c06_groebner_correctness, drawn from the
    # same seed in the same order; the other draws of that test are skipped
    rng = random.Random(103)
    ideals = []
    for _ in range(50):
        gens = [
            rand_poly(rng, 4, max_degree=2, max_terms=2)
            for _ in range(rng.randint(1, 2))
        ]
        for _ in gens:
            rand_poly(rng, 4, max_degree=2, max_terms=2, allow_zero=True)
        for _ in range(3):
            rand_poly(rng, 4, max_degree=2, max_terms=2)
        ideals.append(gens)
    return ideals


def _gb_sym_seed_1() -> list[tuple[list[str], int]]:
    sys.path.insert(0, str(PERFBENCH))
    try:
        from workloads import SYM_BUDGET, gb_instances
    finally:
        sys.path.remove(str(PERFBENCH))
    return [(list(i.gens), i.max_pairs) for i in gb_instances(1, SYM_BUDGET)]


def _rendered_basis(gens, system, max_pairs=gb.DEFAULT_MAX_PAIRS) -> str:
    gens = [parse_poly(g, system) if isinstance(g, str) else g for g in gens]
    try:
        basis, flag = buchberger(gens, system, max_pairs=max_pairs), "complete"
    except PairLimitExceeded as exc:
        basis, flag = exc.partial, "partial"
    return "\n".join([flag] + [format_poly(g, system.gen_names) for g in basis])


def test_reused_system_matches_fresh_systems():
    # one system completes every ideal in turn, so its letter memo carries
    # entries from earlier ideals into later ones; a stale entry would show
    # as a basis that differs from the one a fresh system computes
    jobs = [(3, gens, budget) for gens, budget in _gb_sym_seed_1()]
    jobs += [(2, gens, gb.DEFAULT_MAX_PAIRS) for gens in _c06_ideals()]
    fresh = [_rendered_basis(g, build_mq(MqSpec(n)), b) for n, g, b in jobs]
    shared = {2: build_mq(MqSpec(2)), 3: build_mq(MqSpec(3))}
    reused = [_rendered_basis(g, shared[n], b) for n, g, b in jobs]
    assert reused == fresh
    assert sum(text.startswith("partial") for text in fresh) == 6


# -- the lift table ------------------------------------------------------


@pytest.mark.parametrize("name", list(_INTERREDUCE_SYSTEMS))
def test_lifted_tails_match_naive_products(name):
    # an entry (g, lc, tail) at (id(g), m), scaled back by lc, is the naive
    # product (m - LM g)*g without its head lc*m; entries come from direct
    # lifts, S-pairs and divisions sharing one table
    sys = _INTERREDUCE_SYSTEMS[name]()
    ngens = sys.ngens

    @settings(deadline=None, max_examples=40)
    @given(rng=st.randoms(use_true_random=False), size=st.integers(1, 3))
    def check(rng, size):
        G = [rand_poly(rng, ngens, max_degree=2) for _ in range(size)]
        if sys.qmode.value is not None:
            G = [specialize_terms(p, Fraction(2), ngens) for p in G]
            assume(not any(p.is_zero() for p in G))
        lifts = gb._Lifts(sys)
        for g in G:
            lifts.lift(g, mono_sum(g.lm(), rand_monomial(rng, ngens, 2)))
        gb._spair(G[0], G[-1], mono_lcm(G[0].lm(), G[-1].lm()), lifts)
        f = rand_poly(rng, ngens, max_degree=3)
        if sys.qmode.value is not None:
            f = specialize_terms(f, Fraction(2), ngens)
        gb._remainder(f, G, lifts)
        assert lifts.entries
        for (gid, m), (g, lc, tail) in lifts.entries.items():
            assert gid == id(g)
            delta = Monomial([x - y for x, y in zip(m, g.lm())])
            product = naive_poly_mul(sys, Polynomial.from_mono(delta), g)
            assert (product.lm(), product.lc()) == (m, lc)
            assert all(not c.is_zero() for c in tail.values())
            scaled = poly_from_dict({w: lc * c for w, c in tail.items()}, ngens)
            assert scaled == Polynomial(product.terms[1:], ngens)

    check()


def _wrand3_generators() -> tuple[str, ...]:
    tools = Path(__file__).resolve().parent.parent / "tools"
    sys.path.insert(0, str(tools))
    try:
        from wrand3 import GENERATORS
    finally:
        sys.path.remove(str(tools))
    return GENERATORS


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_lift_table_bound_keeps_outputs(monkeypatch):
    # a table capped at a few terms is emptied over and over and stores no
    # larger lift, yet each basis renders as it did before the table
    trace_gens, trace_budget = _gb_sym_seed_1()[3]  # the structured `trace`
    wrand3 = list(_wrand3_generators())
    cap = 6
    monkeypatch.setattr(gb, "_MAX_LIFT_TERMS", cap)
    seen = {"lifts": 0, "clears": 0, "unstored": 0}
    lift = gb._Lifts.lift

    def checked(self, g, m):
        before = self.terms
        lc, tail = lift(self, g, m)
        held = sum(len(t) + 1 for _, _, t in self.entries.values())
        assert self.terms == held <= cap
        seen["lifts"] += 1
        seen["clears"] += self.terms < before
        seen["unstored"] += len(tail) + 1 > cap
        return lc, tail

    monkeypatch.setattr(gb._Lifts, "lift", checked)
    text = _rendered_basis(trace_gens, build_mq(MqSpec(3)), trace_budget)
    assert _digest(text) == "dca8c3575e3d9fc7"
    text = _rendered_basis(wrand3, build_mq(MqSpec(3, QMode.numeric(2))), 8)
    assert text.startswith("partial\n")
    # the test_wrand3_probe digest at q = 2
    assert _digest(text[len("partial\n") :]) == "9384d0f5b7e53b12"
    assert seen["clears"] > 0 and seen["unstored"] > 0 and seen["lifts"] > 100
