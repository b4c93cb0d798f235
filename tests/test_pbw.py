"""Monomial representation, the shipped ordering, and polynomial normal forms."""

import inspect
import random

import pytest

import quantmat
from quantmat.errors import DimensionMismatch, IndexOutOfRange
from quantmat.mq import MqSpec, build_mq
from quantmat.pbw import (
    Monomial,
    Polynomial,
    Term,
    _paperlex_key,
    compare_monomials,
    gen_index,
    mono_lcm,
    mono_sub,
    mono_sum,
    poly_add,
    poly_from_dict,
)
from quantmat.qfield import ONE, Q, QRat, ZERO

from oracles import (
    compare_word_lex,
    mono_divides,
    poly_canonicalize,
    rand_monomial,
    rand_poly,
)


def test_gen_index_linearization():
    assert gen_index(1, 1, 2) == 0
    assert gen_index(1, 2, 2) == 1
    assert gen_index(2, 1, 2) == 2
    assert gen_index(2, 2, 2) == 3
    assert gen_index(2, 1, 3) == 3
    assert build_mq(MqSpec(3)).gen_names[3] == "z[2,1]"


def test_gen_index_bounds():
    for i, j in ((0, 1), (1, 0), (3, 1), (1, 3)):
        with pytest.raises(IndexOutOfRange):
            gen_index(i, j, 2)


def test_monomial_basics():
    m = Monomial((2, 0, 1, 0))
    assert m.degree == 3
    assert m.top() == 2
    u = Monomial.unit(4)
    assert u.degree == 0 and u.top() == -1 and u.is_unit()
    g = Monomial.gen(1, 4)
    assert g.exps == (0, 1, 0, 0)
    # a monomial is the tuple of its exponents: equal, same hash, and
    # printed as that tuple by str; repr tags it
    assert g.exps is g and g == (0, 1, 0, 0) and hash(g) == hash((0, 1, 0, 0))
    assert g.ngens == 4 and _paperlex_key(g) == (0, 0, 1, 0) and not g.is_unit()
    assert str(g) == "(0, 1, 0, 0)" and repr(g) == "Monomial(0, 1, 0, 0)"


def test_compare_frozen_examples():
    # z21*z12 comes before z22*z11: later letters dominate
    assert compare_monomials(Monomial((0, 1, 1, 0)), Monomial((1, 0, 0, 1))) < 0
    assert compare_monomials(Monomial((0, 1)), Monomial((1, 0))) > 0
    u = Monomial.unit(4)
    for k in range(4):
        assert compare_monomials(u, Monomial.gen(k, 4)) < 0
    m = Monomial((1, 2, 0))
    assert compare_monomials(m, m) == 0


def test_compare_matches_word_order():
    rng = random.Random(10)
    for ngens in (4, 9):
        for _ in range(500):
            a = rand_monomial(rng, ngens, 5)
            b = rand_monomial(rng, ngens, 5)
            assert compare_monomials(a, b) == compare_word_lex(a, b)


def test_order_axioms_sampled():
    rng = random.Random(11)
    monos = [rand_monomial(rng, 4, 4) for _ in range(60)]
    for a in monos:
        for b in monos:
            c = compare_monomials(a, b)
            assert c == -compare_monomials(b, a)
            if c == 0:
                assert a == b
    for a in monos[:20]:
        for b in monos[:20]:
            for c in monos[:20]:
                if compare_monomials(a, b) < 0 and compare_monomials(b, c) < 0:
                    assert compare_monomials(a, c) < 0


def test_order_respects_multiplication():
    rng = random.Random(12)
    for _ in range(300):
        a = rand_monomial(rng, 4, 4)
        b = rand_monomial(rng, 4, 4)
        g = rand_monomial(rng, 4, 3)
        c = compare_monomials(a, b)
        assert compare_monomials(mono_sum(a, g), mono_sum(b, g)) == c


def test_divisibility_implies_smaller():
    rng = random.Random(13)
    for _ in range(300):
        a = rand_monomial(rng, 4, 3)
        g = rand_monomial(rng, 4, 3)
        if g.degree == 0:
            continue
        b = mono_sum(a, g)
        assert mono_divides(a, b)
        assert not mono_divides(b, a)
        assert compare_monomials(a, b) < 0


def test_mono_arithmetic():
    a = Monomial((2, 0, 1, 0))
    b = Monomial((1, 1, 0, 0))
    assert mono_lcm(a, b) == Monomial((2, 1, 1, 0))
    assert mono_sum(a, b) == Monomial((3, 1, 1, 0))
    assert mono_sub(mono_lcm(a, b), a) == Monomial((0, 1, 0, 0))
    assert mono_divides(a, mono_lcm(a, b))
    assert mono_divides(b, mono_lcm(a, b))
    assert mono_sum(mono_sub(mono_lcm(a, b), b), b) == mono_lcm(a, b)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        mono_sum(Monomial((1, 0)), Monomial((1, 0, 0)))
    with pytest.raises(DimensionMismatch):
        compare_monomials(Monomial((1,)), Monomial((1, 0)))


def test_word_order_frozen_examples():
    # second letter decides: z22 z11 against z22 z22
    assert compare_word_lex(Monomial((1, 0, 0, 1)), Monomial((0, 0, 0, 2))) < 0
    # a proper prefix is smaller: z22 against z22 z11
    assert compare_word_lex(Monomial((0, 0, 0, 1)), Monomial((1, 0, 0, 1))) < 0
    m = Monomial((1, 2, 0, 0))
    assert compare_word_lex(m, m) == 0


def test_descending_chains_terminate():
    # strict descent never cycles; bounded-degree chains run out of monomials
    rng = random.Random(17)
    for _ in range(20):
        current = rand_monomial(rng, 4, 6)
        seen = {current}
        for _step in range(500):
            candidate = rand_monomial(rng, 4, 6)
            if compare_monomials(candidate, current) < 0:
                assert candidate not in seen
                seen.add(candidate)
                current = candidate
        assert compare_monomials(Monomial.unit(4), current) <= 0


def test_sort_key_agrees_with_compare():
    rng = random.Random(14)
    monos = [rand_monomial(rng, 4, 4) for _ in range(80)]
    by_key = sorted(monos, key=_paperlex_key)
    for x, y in zip(by_key, by_key[1:]):
        assert compare_monomials(x, y) <= 0


def test_no_public_callable_takes_an_ordering():
    # PaperLex is the one ordering: nothing exported lets a caller pass
    # another, nor build a system whose table skips the solvability check
    for name in quantmat.__all__:
        obj = getattr(quantmat, name)
        if not callable(obj) or (
            isinstance(obj, type) and issubclass(obj, BaseException)
        ):
            continue
        callables = [(name, obj)]
        if isinstance(obj, type):
            callables += [
                (f"{name}.{attr}", f)
                for attr, f in inspect.getmembers(obj, inspect.isfunction)
                if not attr.startswith("_")
            ]
        for label, f in callables:
            params = set(inspect.signature(f).parameters)
            assert not params & {"order", "ordering", "compare", "validate"}, label


def test_polynomial_canonicalize_merges_and_sorts():
    m1 = Monomial((1, 0, 0, 1))
    m2 = Monomial((0, 1, 1, 0))
    p = poly_canonicalize([Term(ONE, m2), Term(Q, m1), Term(ONE, m2)], 4)
    assert p.lm() == m1  # m1 is the larger monomial
    assert p.lc() == Q
    assert p.terms[1] == Term(QRat.from_rational(2), m2)
    # exact cancellation drops the term
    z = poly_canonicalize([Term(ONE, m1), Term(-ONE, m1)], 4)
    assert z.is_zero()


def test_polynomial_terms_strictly_descending():
    rng = random.Random(15)
    for _ in range(100):
        p = rand_poly(rng, 4, max_degree=3, max_terms=5)
        for s, t in zip(p.terms, p.terms[1:]):
            assert compare_monomials(s.mono, t.mono) > 0
            assert not s.coeff.is_zero()


def test_polynomial_ops():
    x = Polynomial.from_mono(Monomial.gen(0, 4))
    y = Polynomial.from_mono(Monomial.gen(3, 4))
    s = x + y
    assert s.degree() == 1 and len(s.terms) == 2
    assert s - y == x
    assert (s + (-s)).is_zero()
    assert x.terms == (Term(ONE, Monomial.gen(0, 4)),)
    two_x = poly_add(x, x)
    assert two_x.lc() == QRat.from_rational(2)
    assert two_x.monic() == x
    assert Polynomial.zero(4).is_zero()
    assert Polynomial.one(4).degree() == 0
    with pytest.raises(IndexError):
        Polynomial.zero(4).lm()  # leading monomial of 0 is undefined


def test_polynomial_hash_and_eq():
    rng = random.Random(16)
    for _ in range(50):
        p = rand_poly(rng, 4, max_degree=3, max_terms=4)
        q = poly_canonicalize(list(reversed(p.terms)), 4)
        assert p == q
        assert hash(p) == hash(q)


def test_poly_from_dict_drops_zeros():
    m = Monomial.gen(2, 4)
    p = poly_from_dict({m: ZERO, Monomial.unit(4): ONE}, 4)
    assert p == Polynomial.one(4)
