"""Hilbert counting, growth dimension, and prefix elimination."""

import pytest

from quantmat.dimension import (
    Staircase,
    check_elimination_bound,
    eliminate_prefix,
    gk_dimension,
    hilbert_count,
    leading_staircase,
    make_staircase,
)
from quantmat.errors import EmptyBasis, InvalidPrefix
from quantmat.groebner import GroebnerBasis, buchberger

from oracles import binomial_count, growth_degree, prefix_intersection_found

QVALUES = (2, 3)


def _diag_basis(sys2):
    return buchberger([sys2.gen_poly(0), sys2.gen_poly(3)], sys2)


def test_make_staircase_filters_to_antichain():
    st = make_staircase(3, [(1, 0, 0), (1, 1, 0), (0, 0, 2), (1, 0, 0)])
    assert st.mins == ((1, 0, 0), (0, 0, 2))


def test_staircase_rejects_non_antichain():
    with pytest.raises(ValueError):
        Staircase(2, ((1, 0), (1, 1)))
    with pytest.raises(ValueError):
        Staircase(2, ((1, 0, 0),))


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


def test_elimination_bound_report(sys2):
    G = _diag_basis(sys2)
    report = check_elimination_bound(G)
    assert report.kind == "elimination-bound"
    assert report.ok
    assert report.meta["gk_dimension"] == 1
    # prefixes strictly above the dimension all intersect nontrivially
    assert len(report.checks) == 2  # s = 2, 3


def test_elimination_bound_vacuous(sys2, sys3):
    G = buchberger([sys2.gen_poly(k) for k in range(4)], sys2)
    report = check_elimination_bound(G)
    assert report.ok
    # gk = 3 for a single generator at n=2: no prefix above the bound exists
    single = buchberger([sys2.gen_poly(0)], sys2)
    vac = check_elimination_bound(single)
    assert vac.ok and not vac.checks
    # same shape at n=3: gk = 8, prefixes stop at 8
    single3 = buchberger([sys3.gen_poly(0)], sys3)
    vac3 = check_elimination_bound(single3)
    assert vac3.ok and not vac3.checks
    assert vac3.meta["gk_dimension"] == 8


def test_negative_control_no_intersection(sys2):
    # the ideal generated by the top variable alone misses every proper prefix
    G = buchberger([sys2.gen_poly(3)], sys2)
    assert eliminate_prefix(G, 3) == ()
    assert not prefix_intersection_found(2, [sys2.gen_poly(3)], 3, 5, QVALUES)


def test_positive_control_intersection_found(sys2):
    gens = [sys2.gen_poly(0), sys2.gen_poly(3)]
    assert prefix_intersection_found(2, gens, 3, 4, QVALUES)
