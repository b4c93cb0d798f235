"""Straightening engine: normal-form products and the solvability check."""

import gc
import random
import re
import sys as sys_module
import threading
import weakref
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from quantmat import MqSpec, build_mq

from quantmat.errors import (
    DegreeGuardExceeded,
    DimensionMismatch,
    InvalidSpec,
    MissingPair,
)
from quantmat.pbw import (
    Monomial,
    Polynomial,
    Term,
    mono_sum,
)
from quantmat.qfield import ONE, SYMBOLIC, Q, QMode, QRat, ZERO
from quantmat.straighten import (
    CommutationSystem,
    quantum_plane,
    scalar_mul,
    validate_solvability,
    weyl_algebra,
)

from oracles import (
    commutator,
    naive_mono_mul,
    naive_poly_mul,
    poly_canonicalize,
    rand_coeff,
    rand_monomial,
    rand_poly,
)


def _mono(sys, *gens):
    exps = [0] * sys.ngens
    for g in gens:
        exps[g] += 1
    return Monomial(exps)


def test_reorder_same_row(sys2):
    # z11 * z12 = q * z12 z11
    p = sys2.mono_mul(sys2.gen_mono(0), sys2.gen_poly(1))
    assert p.terms == (Term(Q, _mono(sys2, 1, 0)),)


def test_reorder_diagonal(sys2):
    # z11 * z22 = z22 z11 + (q - 1/q) z21 z12
    p = sys2.mono_mul(sys2.gen_mono(0), sys2.gen_poly(3))
    hook = Q - Q.inv()
    assert p.terms == (
        Term(ONE, _mono(sys2, 3, 0)),
        Term(hook, _mono(sys2, 2, 1)),
    )


def test_descending_product_is_already_normal(sys2):
    p = sys2.mono_mul(sys2.gen_mono(3), sys2.gen_poly(0))
    assert p.terms == (Term(ONE, _mono(sys2, 3, 0)),)


def test_antidiagonal_pair_commutes(sys2):
    p = sys2.mono_mul(sys2.gen_mono(1), sys2.gen_poly(2))
    assert p.terms == (Term(ONE, _mono(sys2, 2, 1)),)


def test_poly_mul_mixed(sys2):
    # (z11 + z12) * z22 = q*z22 z12 + z22 z11 + (q - 1/q) z21 z12
    f = sys2.gen_poly(0) + sys2.gen_poly(1)
    p = sys2.poly_mul(f, sys2.gen_poly(3))
    expect = poly_canonicalize(
        [
            Term(Q, _mono(sys2, 3, 1)),
            Term(ONE, _mono(sys2, 3, 0)),
            Term(Q - Q.inv(), _mono(sys2, 2, 1)),
        ],
        4,
    )
    assert p == expect


def test_poly_mul_trivia(sys2):
    f = rand_poly(random.Random(0), 4, max_degree=2, max_terms=3)
    zero = Polynomial.zero(4)
    one = Polynomial.one(4)
    assert sys2.poly_mul(f, zero).is_zero()
    assert sys2.poly_mul(zero, f).is_zero()
    assert sys2.poly_mul(f, one) == f
    assert sys2.poly_mul(one, f) == f


def test_scalar_mul():
    f = Polynomial.one(4) + Polynomial.from_mono(Monomial.gen(2, 4))
    assert scalar_mul(QRat((2,)), f).lc() == QRat((2,))
    assert scalar_mul(ZERO, f).is_zero()
    assert scalar_mul(ONE, f) == f


def test_agrees_with_naive_rewriting(sys2, sys3):
    rng = random.Random(20)
    for sys, rounds, deg in ((sys2, 300, 4), (sys3, 100, 3)):
        for _ in range(rounds):
            u = rand_monomial(rng, sys.ngens, deg)
            v = rand_monomial(rng, sys.ngens, deg)
            assert sys.mono_mul(u, Polynomial.from_mono(v)) == naive_mono_mul(sys, u, v)


@lru_cache(maxsize=None)
def _mq3(q: str):
    return build_mq(MqSpec(3, SYMBOLIC if q == "sym" else QMode.numeric(int(q))))


_letters3 = st.lists(st.integers(0, 8), max_size=3)


def _mono_of(letters) -> Monomial:
    exps = [0] * 9
    for g in letters:
        exps[g] += 1
    return Monomial(exps)


@st.composite
def _poly3(draw, qmode, max_degree=3):
    # <= 4 terms of degree <= max_degree with rand_coeff coefficients
    rng = draw(st.randoms(use_true_random=False))
    letters = st.lists(st.integers(0, 8), max_size=max_degree)
    monos = draw(st.lists(letters.map(_mono_of), min_size=1, max_size=4))
    return poly_canonicalize(
        [(rand_coeff(rng).specialize(qmode), m) for m in monos], 9
    )


@pytest.mark.parametrize("q", ["sym", "2"])
@settings(deadline=None)
@given(data=st.data())
def test_fold_agrees_with_naive_rewriting_n3(q, data):
    # the fold merges after each letter of u; word rewriting never merges
    sys = _mq3(q)
    u = data.draw(_letters3.map(_mono_of), label="u")
    f = data.draw(_poly3(sys.qmode), label="f")
    g = data.draw(_poly3(sys.qmode), label="g")
    assert sys.mono_mul(u, g) == naive_poly_mul(sys, Polynomial.from_mono(u), g)
    assert sys.poly_mul(f, g) == naive_poly_mul(sys, f, g)


def test_control_systems_agree_with_naive():
    rng = random.Random(21)
    for sys in (quantum_plane(), weyl_algebra()):
        for _ in range(200):
            u = rand_monomial(rng, 2, 5)
            v = rand_monomial(rng, 2, 5)
            assert sys.mono_mul(u, Polynomial.from_mono(v)) == naive_mono_mul(sys, u, v)


def test_tail_below_tail_free_letter_agrees_with_naive():
    # z_0 passes the tail-free z_2 before it meets z_1, whose pair has a
    # Weyl-style tail; the two controls above have no such letter order
    table = {
        (2, 0): (Q.inv(), Polynomial.zero(3)),
        (2, 1): (Q, Polynomial.zero(3)),
        (1, 0): (ONE, Polynomial.one(3)),
    }
    sys = CommutationSystem(3, table)
    words = [
        Monomial((a, b, c))
        for a in range(5)
        for b in range(5 - a)
        for c in range(5 - a - b)
    ]
    for g in range(3):
        u = sys.gen_mono(g)
        for w in words:
            assert sys.mono_mul(u, Polynomial.from_mono(w)) == naive_mono_mul(sys, u, w)


def test_fold_skips_a_coefficient_cancelled_at_an_inner_letter():
    # in the Weyl algebra x*(d x + 1) = (d x^2 - x) + x: the first letter of
    # u = x^2 cancels the x term, and the second letter folds over what is left
    w = weyl_algebra()
    g = Polynomial.from_mono(Monomial((1, 1))) + Polynomial.one(2)
    assert w.mono_mul(Monomial((1, 0)), g) == Polynomial.from_mono(Monomial((2, 1)))
    u = Monomial((2, 0))
    p = w.mono_mul(u, g)
    assert p == naive_poly_mul(w, Polynomial.from_mono(u), g)
    assert p == poly_canonicalize(
        [Term(ONE, Monomial((3, 1))), Term(-ONE, Monomial((2, 0)))], 2
    )


def test_weyl_folds_of_degree_two_and_more_agree_with_naive():
    rng = random.Random(26)
    w = weyl_algebra()
    for _ in range(150):
        u = Monomial((rng.randint(1, 3), rng.randint(0, 2)))
        if u.degree < 2:
            continue
        g = rand_poly(rng, 2, max_degree=3, max_terms=4)
        assert w.mono_mul(u, g) == naive_poly_mul(w, Polynomial.from_mono(u), g)


def test_quantum_plane_relation():
    qp = quantum_plane()
    # x*y = (1/q) y*x with x the lower generator
    p = qp.mono_mul(qp.gen_mono(0), qp.gen_poly(1))
    assert p.terms == (Term(Q.inv(), Monomial((1, 1))),)


def test_weyl_relation():
    w = weyl_algebra()
    # x*d = d*x - 1
    p = w.mono_mul(w.gen_mono(0), w.gen_poly(1))
    assert p == poly_canonicalize(
        [Term(ONE, Monomial((1, 1))), Term(-ONE, Monomial((0, 0)))], 2
    )
    c = commutator(w, w.gen_poly(0), w.gen_poly(1))
    assert c == -Polynomial.one(2)


def test_associativity_sampled(sys2):
    rng = random.Random(22)
    for _ in range(150):
        f = rand_poly(rng, 4, max_degree=2, max_terms=2)
        g = rand_poly(rng, 4, max_degree=2, max_terms=2)
        h = rand_poly(rng, 4, max_degree=2, max_terms=2)
        left = sys2.poly_mul(sys2.poly_mul(f, g), h)
        right = sys2.poly_mul(f, sys2.poly_mul(g, h))
        assert left == right


def test_distributivity_sampled(sys2):
    rng = random.Random(23)
    for _ in range(150):
        f = rand_poly(rng, 4, max_degree=2, max_terms=2)
        g = rand_poly(rng, 4, max_degree=2, max_terms=2)
        h = rand_poly(rng, 4, max_degree=2, max_terms=2)
        assert sys2.poly_mul(f, g + h) == sys2.poly_mul(f, g) + sys2.poly_mul(f, h)
        assert sys2.poly_mul(f + g, h) == sys2.poly_mul(f, h) + sys2.poly_mul(g, h)


def test_degree_homogeneity(sys2, sys3):
    # relations preserve total degree, so products of monomials stay homogeneous
    rng = random.Random(24)
    for sys in (sys2, sys3):
        for _ in range(100):
            u = rand_monomial(rng, sys.ngens, 3)
            v = rand_monomial(rng, sys.ngens, 3)
            p = sys.mono_mul(u, Polynomial.from_mono(v))
            assert {m.degree for _, m in p.terms} == {u.degree + v.degree}


def test_lm_multiplicative(sys2, sys3):
    # LM(f*g) = LM(f) + LM(g) in every shipped system: what a solvable
    # table gives PaperLex, so the ordering needs no check of its own
    rng = random.Random(25)
    for sys in (sys2, sys3, quantum_plane(), weyl_algebra()):
        for _ in range(200):
            f = rand_poly(rng, sys.ngens, max_degree=3, max_terms=3)
            g = rand_poly(rng, sys.ngens, max_degree=3, max_terms=3)
            p = sys.poly_mul(f, g)
            assert p.lm() == mono_sum(f.lm(), g.lm())


def test_validate_solvability_passes(sys2):
    pairs = validate_solvability(sys2.ngens, sys2.table, sys2.gen_names)
    assert pairs == [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]


def test_table_is_read_only(sys2):
    # products read rows built from the checked table, so it cannot change
    with pytest.raises(TypeError):
        sys2.table[(1, 0)] = (ZERO, Polynomial.zero(4))
    assert sys2.table[(1, 0)] == (Q, Polynomial.zero(4))


def test_missing_pair():
    table = {(1, 0): (Q, Polynomial.zero(3))}
    with pytest.raises(MissingPair):
        validate_solvability(3, table, ("g0", "g1", "g2"))
    with pytest.raises(MissingPair):
        CommutationSystem(3, table)


def test_names_not_one_per_generator(sys2):
    with pytest.raises(InvalidSpec, match="2 generator names for 4 generators"):
        validate_solvability(4, sys2.table, ("a", "b"))
    with pytest.raises(InvalidSpec, match="2 generator names for 4 generators"):
        CommutationSystem(4, sys2.table, gen_names=("a", "b"))


@pytest.mark.parametrize("key", [(9, 0), (0, 1), (2, 2), (1, -1), (1,), "ab"])
def test_stray_table_key(sys2, key):
    table = dict(sys2.table)
    table[key] = (ONE, Polynomial.zero(4))
    match = f"table key {key!r} is not a pair"
    with pytest.raises(InvalidSpec, match=re.escape(match)):
        validate_solvability(4, table, sys2.gen_names)
    with pytest.raises(InvalidSpec, match=re.escape(match)):
        CommutationSystem(4, table, gen_names=sys2.gen_names)


def test_tampered_lambda_zero(sys2):
    table = dict(sys2.table)
    lam, f = table[(1, 0)]
    table[(1, 0)] = (QRat((0,)), f)
    # the one failing pair, and nothing after it
    match = re.escape("solvability: z[1,1]*z[1,2]: lambda = 0") + "$"
    with pytest.raises(InvalidSpec, match=match):
        validate_solvability(4, table, sys2.gen_names)
    with pytest.raises(InvalidSpec, match=match):
        CommutationSystem(4, table, gen_names=sys2.gen_names)


@pytest.mark.parametrize(
    "key, pair",
    [
        ((1, 0), "z[1,1]*z[1,2]"),
        ((2, 0), "z[1,1]*z[2,1]"),
        ((2, 1), "z[1,2]*z[2,1]"),
        ((3, 0), "z[1,1]*z[2,2]"),
        ((3, 1), "z[1,2]*z[2,2]"),
        ((3, 2), "z[2,1]*z[2,2]"),
    ],
)
def test_lambda_zero_names_its_pair(sys2, key, pair):
    table = dict(sys2.table)
    table[key] = (ZERO, table[key][1])
    match = re.escape(f"solvability: {pair}: lambda = 0") + "$"
    with pytest.raises(InvalidSpec, match=match):
        validate_solvability(4, table, sys2.gen_names)


def test_every_failing_pair_is_named(sys2):
    table = dict(sys2.table)
    for key in ((2, 1), (3, 2)):
        table[key] = (ZERO, table[key][1])
    message = (
        "commutation table violates solvability: "
        "z[1,2]*z[2,1]: lambda = 0; z[2,1]*z[2,2]: lambda = 0"
    )
    with pytest.raises(InvalidSpec, match=re.escape(message) + "$"):
        validate_solvability(4, table, sys2.gen_names)


def test_tampered_tail_not_below(sys2):
    # replace the diagonal correction with z22^2, which dominates z22*z11
    table = dict(sys2.table)
    lam, _ = table[(3, 0)]
    big = Polynomial.from_mono(Monomial((0, 0, 0, 2)))
    table[(3, 0)] = (lam, big)
    witness = "LM(f) = (0, 0, 0, 2) not below (1, 0, 0, 1)"
    match = re.escape(f"solvability: z[1,1]*z[2,2]: {witness}") + "$"
    with pytest.raises(InvalidSpec, match=match):
        validate_solvability(4, table, sys2.gen_names)
    with pytest.raises(InvalidSpec, match=match):
        CommutationSystem(4, table, gen_names=sys2.gen_names)


def test_cache_effectiveness(sys2):
    # within one fold a word can recur: z[1,2] and z[1,1] over the two
    # terms of g ask for one letter-times-word product twice
    sys = CommutationSystem(4, sys2.table, gen_names=sys2.gen_names)
    g = Polynomial.from_mono(Monomial((0, 1, 1, 1))) + Polynomial.from_mono(
        Monomial((0, 1, 1, 0))
    )
    p = sys.mono_mul(Monomial((1, 1, 0, 0)), g)
    assert sys.cache_info().hits > 0
    assert p == naive_poly_mul(sys, Polynomial.from_mono(Monomial((1, 1, 0, 0))), g)


def test_products_under_threads(sys2):
    # four threads multiply on one fresh system, so they fill its letter
    # memo concurrently (its per-generator rows are built with the system)
    sys = CommutationSystem(4, sys2.table, gen_names=sys2.gen_names)
    rng = random.Random(23)
    jobs = [
        (rand_monomial(rng, 4, 2), rand_poly(rng, 4, max_degree=2, max_terms=3))
        for _ in range(40)
    ]
    want = [sys2.mono_mul(u, g) for u, g in jobs]
    bad = []

    def work(offset):
        for r in range(20):
            k = (offset + 7 * r) % len(jobs)
            if sys.mono_mul(*jobs[k]) != want[k]:
                bad.append(k)

    interval = sys_module.getswitchinterval()
    sys_module.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys_module.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not bad


def test_dropped_system_is_freed_without_collector(sys2):
    # the letter memo may not hold its system alive through a reference cycle
    sys = CommutationSystem(4, sys2.table, gen_names=sys2.gen_names)
    g = Polynomial.from_mono(Monomial((0, 1, 2, 0)))
    sys.mono_mul(Monomial((2, 1, 0, 1)), g)
    sys.mono_mul(Monomial((1, 0, 0, 0)), sys.mono_mul(Monomial((0, 0, 1, 0)), g))
    assert sys.cache_info().currsize > 0
    ref = weakref.ref(sys)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del sys
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_degree_guard():
    qp = quantum_plane(max_degree=6)
    big = Monomial((4, 0))
    with pytest.raises(DegreeGuardExceeded):
        qp.mono_mul(big, Polynomial.from_mono(Monomial((0, 4))))


def test_degree_guard_holds_inside_a_tail_of_higher_degree():
    # PaperLex is not degree-compatible, so x0*x1 = x1*x0 + x0^3 is a
    # solvable table: x0^3 lies below x1*x0.  Straightening x0*x1 meets
    # the degree-3 tail, which the guard must see although deg u + deg g
    # is only 2.
    x0, x1 = Monomial((1, 0)), Monomial((0, 1))
    table = {(1, 0): (ONE, Polynomial.from_mono(Monomial((3, 0))))}
    sys = CommutationSystem(2, table, max_degree=2)
    with pytest.raises(DegreeGuardExceeded, match="product degree 3 exceeds guard 2"):
        sys.mono_mul(x0, Polynomial.from_mono(x1))
    roomy = CommutationSystem(2, table, max_degree=3)
    p = roomy.mono_mul(x0, Polynomial.from_mono(x1))
    assert p == naive_mono_mul(roomy, x0, x1)
    assert p == poly_canonicalize(
        [Term(ONE, Monomial((1, 1))), Term(ONE, Monomial((3, 0)))], 2
    )


def test_degree_guard_counts_the_whole_polynomial():
    # u*g is guarded by deg u + deg g, whichever term of g carries the degree
    qp = quantum_plane(max_degree=6)
    g = Polynomial.one(2) + Polynomial.from_mono(Monomial((0, 4)))
    with pytest.raises(DegreeGuardExceeded, match="product degree 7 exceeds guard 6"):
        qp.mono_mul(Monomial((3, 0)), g)
    assert qp.mono_mul(Monomial((2, 0)), g).degree() == 6
    assert qp.mono_mul(Monomial((9, 0)), Polynomial.zero(2)).is_zero()


def test_cached_degree_is_the_largest_term_degree():
    rng = random.Random(27)
    for _ in range(100):
        p = rand_poly(rng, 4, max_degree=4, max_terms=4)
        top = max(sum(m) for _, m in p.terms)
        assert p.degree() == top
        assert p.degree() == top  # read from the slot
    assert Polynomial.zero(4).degree() == -1


def test_degree_guard_boundary_on_a_cached_degree():
    # LM(g) = z_1 has degree 1; the degree-3 term below it sets deg g
    sys = CommutationSystem(2, {(1, 0): (Q, Polynomial.zero(2))}, max_degree=5)
    z1, z0_cubed = Monomial((0, 1)), Monomial((3, 0))
    g = Polynomial.from_mono(z1) + Polynomial.from_mono(z0_cubed)
    assert g.lm() == z1 and g.degree() == 3
    for _ in range(2):  # the second product reads the degree from the slot
        assert sys.mono_mul(Monomial((1, 1)), g).degree() == 5
        with pytest.raises(DegreeGuardExceeded, match="degree 6 exceeds guard 5"):
            sys.mono_mul(Monomial((2, 1)), g)


def test_negative_degree_guard_is_rejected():
    with pytest.raises(InvalidSpec, match="degree guard must be >= 0"):
        quantum_plane(max_degree=-1)
    assert quantum_plane(max_degree=0).max_degree == 0


def test_dimension_mismatch(sys2):
    with pytest.raises(DimensionMismatch):
        sys2.mono_mul(Monomial((1, 0)), Polynomial.from_mono(Monomial((0, 1))))


def test_constructor_rejects_bad_table():
    table = {(1, 0): (QRat((0,)), Polynomial.zero(2))}
    with pytest.raises(InvalidSpec):
        CommutationSystem(2, table)
