"""Hilbert counting, growth dimension, and prefix elimination."""

import random
from math import comb

import pytest

from quantmat import dimension, parse_poly
from quantmat.dimension import (
    Staircase,
    eliminate_prefix,
    gk_dimension,
    hilbert_count,
    hilbert_counts,
    leading_staircase,
    make_staircase,
)
from quantmat.errors import EmptyBasis, InvalidPrefix
from quantmat.groebner import GroebnerBasis, buchberger

from oracles import (
    binomial_count,
    brute_hilbert_count,
    growth_degree,
    hitting_set_gk,
    prefix_intersection_found,
    quantum_minors,
)

QVALUES = (2, 3)


def _diag_basis(sys2):
    return buchberger([sys2.gen_poly(0), sys2.gen_poly(3)], sys2)


def test_make_staircase_filters_to_antichain():
    st = make_staircase(3, [(1, 0, 0), (1, 1, 0), (0, 0, 2), (1, 0, 0)])
    assert st.mins == ((1, 0, 0), (0, 0, 2))
    # support masks cover the first 64 generators; exponents decide past them
    a, b, c = ([0] * 70 for _ in range(3))
    a[65], b[65], b[66], c[66] = 1, 1, 1, 2
    st = make_staircase(70, [tuple(b), tuple(a), tuple(c)])
    assert set(st.mins) == {tuple(a), tuple(c)}


def test_staircase_rejects_non_antichain():
    with pytest.raises(ValueError):
        Staircase(2, ((1, 0), (1, 1)))
    with pytest.raises(ValueError):
        Staircase(2, ((1, 0, 0),))


def test_staircase_rejects_repeated_minimum():
    v = (1, 0)
    with pytest.raises(ValueError, match="repeated"):
        Staircase(2, (v, v))
    w = tuple([1, 0])
    assert w == v and w is not v
    with pytest.raises(ValueError, match="repeated"):
        Staircase(2, (v, w))


def test_leading_staircase_fixture(sys2):
    st = leading_staircase(_diag_basis(sys2))
    assert st.dim == 4
    assert st.mins == ((1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 0, 1))
    with pytest.raises(EmptyBasis):
        leading_staircase(GroebnerBasis(elements=()))


def test_hilbert_free_algebra_counts():
    empty = Staircase(4, ())
    for d in range(9):
        assert hilbert_count(empty, d) == binomial_count(4, d)
    empty9 = Staircase(9, ())
    for d in range(9):
        assert hilbert_count(empty9, d) == binomial_count(9, d)


def test_hilbert_fixture(sys2):
    st = leading_staircase(_diag_basis(sys2))
    assert [hilbert_count(st, d) for d in range(6)] == [1, 2, 2, 2, 2, 2]


def test_hilbert_collapsed_quotient():
    unit = Staircase(4, ((0, 0, 0, 0),))
    assert hilbert_count(unit, 0) == 0
    full = make_staircase(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    assert hilbert_count(full, 0) == 1
    assert all(hilbert_count(full, d) == 0 for d in range(1, 5))


def _random_staircases(seed, count):
    # dims 1..6, up to 8 minima, exponents 0..4 (a zero vector is the unit
    # ideal)
    rng = random.Random(seed)
    for _ in range(count):
        dim = rng.randint(1, 6)
        vectors = [
            tuple(rng.randint(0, 4) for _ in range(dim))
            for _ in range(rng.randint(0, 8))
        ]
        yield make_staircase(dim, vectors)


def _minors_staircase(sys3):
    gens = [parse_poly(m, sys3) for m in quantum_minors(3)]
    return leading_staircase(buchberger(gens, sys3))


def test_hilbert_matches_brute_oracle():
    for st in _random_staircases(1997, 150):
        for d in range(11):
            assert hilbert_count(st, d) == brute_hilbert_count(st.mins, st.dim, d), (
                st,
                d,
            )


def test_numerator_sees_only_antichains(monkeypatch):
    # every recursive call goes through the module name, so the wrapper
    # checks each intermediate staircase: no repeated or divisible minimum
    numerator = dimension._numerator
    calls = []

    def checked(mins):
        calls.append(Staircase(len(mins[0]) if mins else 0, tuple(mins)))
        return numerator(mins)

    monkeypatch.setattr(dimension, "_numerator", checked)
    for st in _random_staircases(1992, 40):
        hilbert_count(st, 3)
    assert len(calls) > 40


def test_hilbert_minors_closed_form(sys3):
    # M_q(3) modulo its nine 2x2 quantum minors: C(d+2,2)^2 standard words
    st = _minors_staircase(sys3)
    assert [hilbert_count(st, d) for d in range(41)] == [
        comb(d + 2, 2) ** 2 for d in range(41)
    ]


def test_hilbert_power_of_maximal_ideal():
    # (x, y)^k: every degree below k is free (d + 1 words), none from k up
    k = 300
    st = Staircase(2, tuple((a, k - a) for a in range(k + 1)))
    for d in (0, 1, k - 1):
        assert hilbert_count(st, d) == d + 1
    for d in (k, k + 5):
        assert hilbert_count(st, d) == 0


def test_hilbert_unit_ideal_and_no_variables():
    for dim in range(5):
        unit = Staircase(dim, ((0,) * dim,))
        assert all(hilbert_count(unit, d) == 0 for d in range(6))
    none = Staircase(0, ())
    assert hilbert_count(none, 0) == 1
    assert all(hilbert_count(none, d) == 0 for d in range(1, 6))


def test_gk_matches_hitting_set_reference(sys3):
    # the series pole order against the combinatorial definition
    for st in _random_staircases(1992, 150):
        assert gk_dimension(st) == hitting_set_gk(st.mins, st.dim), st
    minors = _minors_staircase(sys3)
    assert gk_dimension(minors) == hitting_set_gk(minors.mins, 9) == 5
    for st in (
        Staircase(3, ((0, 0, 0),)),  # unit
        Staircase(3, ()),  # zero
        Staircase(0, ()),  # no variables
        Staircase(0, ((),)),  # no variables, unit
    ):
        assert gk_dimension(st) == hitting_set_gk(st.mins, st.dim), st


def test_hilbert_counts_match_single_counts():
    for st in _random_staircases(1997, 60):
        assert hilbert_counts(st, 10) == [hilbert_count(st, d) for d in range(11)], st
    for dim in range(3):
        for st in (Staircase(dim, ()), Staircase(dim, ((0,) * dim,))):
            assert hilbert_counts(st, 4) == [hilbert_count(st, d) for d in range(5)]


def test_hilbert_rejects_negative_degree():
    with pytest.raises(ValueError):
        hilbert_count(Staircase(2, ()), -1)


def test_gk_fixtures(sys2):
    assert gk_dimension(Staircase(4, ())) == 4
    assert gk_dimension(leading_staircase(_diag_basis(sys2))) == 1
    full = make_staircase(4, [tuple(1 if k == g else 0 for k in range(4)) for g in range(4)])
    assert gk_dimension(full) == 0
    assert gk_dimension(Staircase(4, ((0, 0, 0, 0),))) == 0
    anti = buchberger([sys2.gen_poly(1), sys2.gen_poly(2)], sys2)
    assert gk_dimension(leading_staircase(anti)) == 2
    with pytest.raises(EmptyBasis):
        gk_dimension(leading_staircase(GroebnerBasis(elements=())))


def test_gk_matches_growth_oracle(sys2):
    cases = [
        [sys2.gen_poly(0), sys2.gen_poly(3)],
        [sys2.gen_poly(1), sys2.gen_poly(2)],
        [sys2.gen_poly(3)],
        [sys2.gen_poly(0) + sys2.gen_poly(1)],
    ]
    for gens in cases:
        st = leading_staircase(buchberger(gens, sys2))
        counts = [hilbert_count(st, d) for d in range(13)]
        assert gk_dimension(st) == growth_degree(counts)


def test_gk_bounded_by_ngens(sys2):
    import random

    from oracles import rand_poly

    rng = random.Random(40)
    for _ in range(10):
        gens = [rand_poly(rng, 4, max_degree=2, max_terms=2) for _ in range(2)]
        st = leading_staircase(buchberger(gens, sys2))
        assert 0 <= gk_dimension(st) <= 4


def test_prefix_subset(sys2):
    G = _diag_basis(sys2)
    kept = eliminate_prefix(G, 2)
    assert all(m.top() < 2 for p in kept for _, m in p.terms)
    for s in (0, -1):
        with pytest.raises(InvalidPrefix):
            eliminate_prefix(G, s)


def test_eliminate_fixture(sys2):
    G = _diag_basis(sys2)
    kept3 = eliminate_prefix(G, 3)
    assert tuple(p.lm().exps for p in kept3) == ((1, 0, 0, 0), (0, 1, 1, 0))
    kept1 = eliminate_prefix(G, 1)
    assert tuple(p.lm().exps for p in kept1) == ((1, 0, 0, 0),)
    assert eliminate_prefix(buchberger([sys2.gen_poly(3)], sys2), 3) == ()


def test_eliminate_members_stay_in_prefix(sys2):
    G = _diag_basis(sys2)
    for s in (1, 2, 3):
        for p in eliminate_prefix(G, s):
            assert all(m.top() < s for _, m in p.terms)


def test_eliminate_prefix_bounds(sys2):
    G = _diag_basis(sys2)
    with pytest.raises(InvalidPrefix):
        eliminate_prefix(G, 0)
    with pytest.raises(InvalidPrefix):
        eliminate_prefix(G, 4)


def _prefixes_above_dimension(G):
    d = gk_dimension(leading_staircase(G))
    return d, range(d + 1, G.ngens)


def test_elimination_bound_report(sys2):
    G = _diag_basis(sys2)
    d, prefixes = _prefixes_above_dimension(G)
    assert d == 1
    # prefixes strictly above the dimension all intersect nontrivially
    assert list(prefixes) == [2, 3]
    assert all(eliminate_prefix(G, s) for s in prefixes)


def test_elimination_bound_vacuous(sys2, sys3):
    G = buchberger([sys2.gen_poly(k) for k in range(4)], sys2)
    _, prefixes = _prefixes_above_dimension(G)
    assert all(eliminate_prefix(G, s) for s in prefixes)
    # gk = 3 for a single generator at n=2: no prefix above the bound exists
    single = buchberger([sys2.gen_poly(0)], sys2)
    d, prefixes = _prefixes_above_dimension(single)
    assert d == 3 and not prefixes
    # same shape at n=3: gk = 8, prefixes stop at 8
    single3 = buchberger([sys3.gen_poly(0)], sys3)
    d3, prefixes3 = _prefixes_above_dimension(single3)
    assert d3 == 8 and not prefixes3


def test_negative_control_no_intersection(sys2):
    # the ideal generated by the top variable alone misses every proper prefix
    G = buchberger([sys2.gen_poly(3)], sys2)
    assert eliminate_prefix(G, 3) == ()
    assert not prefix_intersection_found(2, [sys2.gen_poly(3)], 3, 5, QVALUES)


def test_positive_control_intersection_found(sys2):
    gens = [sys2.gen_poly(0), sys2.gen_poly(3)]
    assert prefix_intersection_found(2, gens, 3, 4, QVALUES)
