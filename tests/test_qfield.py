"""Exact arithmetic in Q(q): canonical forms, field axioms, specialization."""

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quantmat.errors import DegreeGuardExceeded, DivisionByZero, EvaluationPole, InvalidSpec
from quantmat.qfield import (
    ONE,
    P_ONE,
    Q,
    Q_INV,
    QMode,
    QRat,
    SYMBOLIC,
    ZERO,
    format_qrat,
    pgcd,
    pmul,
    pstrip,
)

from oracles import (
    monic_gcd,
    pdivmod,
    pmonic,
    qpmul,
    qrat,
    rat_add,
    rat_canonical,
    rat_eval,
    rat_inv,
    rat_mul,
    render_rat,
)


def test_constants():
    assert Q.num == (0, 1) and Q.den == (1,)
    assert Q_INV.num == (1,) and Q_INV.den == (0, 1)
    assert ZERO.is_zero() and ONE.is_one()
    assert Q * Q_INV == ONE


def test_sum_of_q_and_inverse():
    s = Q + Q_INV
    assert s.num == (1, 0, 1)  # q^2 + 1
    assert s.den == (0, 1)  # q


def test_product_cancels_common_factor():
    # (q^2-1)/q * q/(q-1) = q+1
    left = qrat((-1, 0, 1), (0, 1))
    right = qrat((0, 1), (-1, 1))
    assert left * right == qrat((1, 1))


def test_inverse_swaps_and_normalizes():
    c = qrat((-1, 0, 1), (0, 1))
    assert c.inv() == qrat((0, 1), (-1, 0, 1))
    assert (c * c.inv()).is_one()


def test_inverse_makes_denominator_monic():
    inv = qrat((2,)).inv()
    assert inv == qrat((Fraction(1, 2),))
    assert inv.den == P_ONE


def test_q_power():
    assert QRat.q_power(3).num == (0, 0, 0, 1)
    assert QRat.q_power(-2) == Q_INV * Q_INV
    assert QRat.q_power(0).is_one()


def test_non_canonical_inputs_reduce():
    assert qrat((2, 2), (2,)) == qrat((1, 1))
    # q(q-1)/q^2(q-1) = 1/q
    assert qrat((0, -1, 1), (0, 0, -1, 1)) == Q_INV
    assert qrat((0, 0, 2), (0, 4)) == qrat((0, 1), (2,))


def test_zero_denominator_rejected():
    with pytest.raises(DivisionByZero):
        ONE / ZERO
    with pytest.raises(DivisionByZero):
        ZERO.inv()


def test_specialize():
    c = qrat((-1, 0, 1), (0, 1))  # (q^2-1)/q
    assert c.specialize(QMode.numeric(2)) == qrat((Fraction(3, 2),))
    assert c.specialize(QMode.numeric(1)).is_zero()
    assert c.specialize(SYMBOLIC) is c
    pole = Q / (Q - QRat.from_rational(2))
    with pytest.raises(EvaluationPole):
        pole.specialize(QMode.numeric(2))


def test_qmode_rejects_zero():
    with pytest.raises(InvalidSpec):
        QMode.numeric(0)
    assert QMode.numeric("3/2").value == Fraction(3, 2)
    assert SYMBOLIC.is_symbolic


def test_qmode_takes_none_an_int_or_a_fraction():
    # a str, float or bool q once built a system that failed later, in
    # arithmetic or printing
    for bad in ("2", 2.5, True, False, [2]):
        with pytest.raises(InvalidSpec) as info:
            QMode(bad)
        assert str(info.value) == f"numeric q must be an int or a Fraction, got {bad!r}"
    assert QMode(2) == QMode(Fraction(2)) == QMode.numeric("2")
    assert type(QMode(2).value) is Fraction and str(QMode(-3)) == "-3"
    assert QMode(None) == SYMBOLIC


@pytest.mark.parametrize("q", ["2", "1/2", "5/3", "-1", "1", "-7/4", "3"])
def test_q_power_is_the_specialized_power(q):
    mode = QMode.numeric(q)
    for k in range(-12, 13):
        c = mode.q_power(k)
        assert c == QRat.q_power(k).specialize(mode)
        assert c == QRat.from_rational(mode.value**k)
    assert all(SYMBOLIC.q_power(k) == QRat.q_power(k) for k in range(-12, 13))


def test_q_power_bounds():
    assert SYMBOLIC.q_power(-(2**31)) == QRat.q_power(-(2**31))
    with pytest.raises(InvalidSpec) as info:
        SYMBOLIC.q_power(2**31 + 1)
    assert str(info.value) == "q^2147483649 exceeds the exponent bound 2147483648"
    assert QMode(2).q_power(2**19) == QRat.from_rational(2 ** (2**19))
    with pytest.raises(InvalidSpec) as info:
        QMode(Fraction(-1, 2)).q_power(-(2**19) - 1)
    assert str(info.value) == "q^-524289 at q = -1/2 exceeds 1048576 bits"


def test_qrat_has_no_constructor():
    for args in ((), ((1,),), ((1,), ()), ((1, 1), (2,))):
        with pytest.raises(TypeError, match="QRat has no constructor"):
            QRat(*args)
    # copies and pickles rebuild the stored parts without it
    c = (Q + ONE) / (Q - ONE) * QRat.q_power(-3)
    for twin in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
        assert twin == c and hash(twin) == hash(c) and str(twin) == str(c)


def test_sum_of_far_apart_powers_is_guarded():
    # the sum pads the higher term's numerator down to the lower power of
    # q; at most 65536 powers of q may be spanned
    at_guard = QRat.q_power(65535) + ONE
    assert at_guard.num == (1,) + (0,) * 65534 + (1,)
    assert (QRat.q_power(-65535) - ONE).den == (0,) * 65535 + (1,)
    past = (
        (QRat.q_power(65536), ONE, 65537),
        (ONE, QRat.q_power(65536), 65537),
        (QRat.q_power(-65536), ONE, 65537),
        ((Q + ONE) * QRat.q_power(65535), ONE, 65537),  # two coefficients on top
        (QRat.q_power(-70000), -QRat.q_power(70000), 140001),
    )
    for a, b, span in past:
        with pytest.raises(DegreeGuardExceeded) as info:
            a + b
        assert str(info.value) == f"sum spans {span} powers of q, past the guard 65536"


def test_product_of_far_apart_powers_is_guarded():
    # a symbolic product's numerator and denominator are stored dense; each
    # may span at most 65536 powers of q
    a, b = QRat.q_power(32767) + ONE, QRat.q_power(32768) + ONE
    at_guard = a * b
    assert at_guard.num == (1,) + (0,) * 32766 + (1, 1) + (0,) * 32766 + (1,)
    assert (ONE / a / b).den == at_guard.num
    past = (
        (b, b, 65537),
        (ONE / b, ONE / b, 65537),
        (b, b / (Q + ONE), 65537),  # a denominator on one side
        (QRat.q_power(65000) + ONE, QRat.q_power(65000) + ONE, 130001),
    )
    for x, y, span in past:
        with pytest.raises(DegreeGuardExceeded) as info:
            x * y
        assert str(info.value) == f"product spans {span} powers of q, past the guard 65536"
    # a factor +-q^k only moves the power, however far
    assert QRat.q_power(10**9) * b * QRat.q_power(-(10**9)) == b


def test_sign():
    assert Q.sign() == 1
    assert (-Q).sign() == -1
    assert ZERO.sign() == 0
    assert qrat((1, -2)).sign() == -1  # leading coefficient is -2


def _rand_qrat(rng, allow_zero=False):
    while True:
        num = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 4)))
        den = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 4)))
        if not any(den):
            continue
        c = qrat(num, den)
        if allow_zero or not c.is_zero():
            return c


def test_field_axioms_sampled():
    rng = random.Random(0)
    for _ in range(300):
        a = _rand_qrat(rng, allow_zero=True)
        b = _rand_qrat(rng, allow_zero=True)
        c = _rand_qrat(rng, allow_zero=True)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO
        if not b.is_zero():
            assert (a / b) * b == a
            assert b * b.inv() == ONE


def test_canonical_equality_and_hash():
    rng = random.Random(1)
    for _ in range(200):
        a = _rand_qrat(rng)
        scale = tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 3)))
        if not any(scale):
            continue
        b = qrat(qpmul(a.num, scale), qpmul(a.den, scale))
        assert a == b
        assert hash(a) == hash(b)


def _divides_in_zq(g, a) -> bool:
    quo, rem = pdivmod(a, g)
    return not rem and all(c.denominator == 1 for c in quo)


def test_gcd_is_monic_and_divides():
    # pgcd is the gcd in Z[q] (content included, leading coefficient > 0);
    # its monic form is the gcd over the rationals
    rng = random.Random(2)
    for _ in range(100):
        a = pstrip(tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 4))))
        b = pstrip(tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 4))))
        if not a or not b:
            continue
        g = pgcd(a, b)
        assert g[-1] > 0
        assert _divides_in_zq(g, a) and _divides_in_zq(g, b)
        assert pmonic(g) == monic_gcd(a, b)
        # common factors survive: gcd(ac, bc) = gcd(a, b) * c for primitive c
        c = (rng.choice((-1, 1)), rng.randint(-3, 3), 1)
        assert pgcd(pmul(a, c), pmul(b, c)) == pmul(g, c)


def test_gcd_takes_the_integer_content():
    assert pgcd((6,), (0, 4)) == (2,)
    assert pgcd((-4, 0, 4), (6, 6)) == (2, 2)  # gcd(4q^2 - 4, 6q + 6)
    assert pgcd((2, 2), (-3, 3)) == (1,)  # 2(q + 1) and 3(q - 1)
    assert pgcd((0, -2), (0, 0, -4)) == (0, 2)


def test_arithmetic_results_stay_reduced():
    rng = random.Random(3)
    for _ in range(150):
        a = _rand_qrat(rng)
        b = _rand_qrat(rng)
        for c in (a * b, a + b, a / b):
            if c.is_zero():
                assert c.num == () and c.den == P_ONE
                continue
            assert monic_gcd(c.num, c.den) == P_ONE
            assert c.den[-1] == 1


def _assert_laurent_form(c):
    n, d, v = c._n, c._d, c._v
    if not n:
        assert (n, d, v) == ((), P_ONE, 0)
        return
    assert n[0] and d[0]  # q divides neither part
    assert n[-1] and d[-1] > 0
    assert pgcd(n, d) == P_ONE


def test_laurent_form_is_canonical():
    rng = random.Random(4)
    for _ in range(200):
        a = _rand_qrat(rng, allow_zero=True) * QRat.q_power(rng.randint(-4, 4))
        b = _rand_qrat(rng) * QRat.q_power(rng.randint(-4, 4))
        for c in (a, b, a + b, a - b, a * b, a / b, b.inv(), a + b * Q, a - a):
            _assert_laurent_form(c)
    assert (ONE + Q) - ONE == Q
    assert format_qrat(Q + Q_INV) == "(q^2 + 1)/q"
    assert qrat((0, -1, 1), (0, 0, 0, 1)) == qrat((-1, 1), (0, 0, 1))
    for k in range(-5, 6):
        assert QRat.q_power(k) * QRat.q_power(-k) == ONE
    assert Q.inv() == Q_INV


def test_int_and_fraction_coefficients_mix():
    a = qrat((Fraction(1, 2),))
    b = qrat((1,), (2,))
    assert a == b
    assert hash(a) == hash(b)
    assert (a + b) == qrat((1,))


def test_specialize_string_rational():
    c = (Q * Q - ONE) / Q
    v = c.specialize(QMode.numeric(Fraction(1, 2)))
    assert v == qrat((Fraction(-3, 2),))


# -- differential test against the monic-Euclid reference ----------------

_COEF = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-4, 4), st.integers(2, 4)),
)
_POLY = st.lists(_COEF, max_size=4).map(tuple)
# a last coefficient drawn as zero becomes 1, so the polynomial is nonzero
_NONZERO = st.lists(_COEF, min_size=1, max_size=4).map(
    lambda cs: (*cs[:-1], cs[-1] or 1)
)


def _times_q_power(raw, k):
    # q^k * num/den, as the tuples the constructor and the reference read
    num, den = raw
    if k >= 0:
        return (0,) * k + num, den
    return num, (0,) * -k + den


# the shifts reach sums of unequal powers of q, and sums of equal powers
# whose constant terms cancel; the signed powers +-q^k reach the product
# that only shifts the power, from either side of `*`
_RAW = st.one_of(
    st.builds(_times_q_power, st.tuples(_POLY, _NONZERO), st.integers(-4, 4)),
    st.builds(
        _times_q_power,
        st.tuples(st.sampled_from([(1,), (-1,)]), st.just((1,))),
        st.integers(-6, 6),
    ),
)
_POINTS = (Fraction(2), Fraction(-1, 2), Fraction(1), Fraction(3))


def _from_raw(raw):
    return qrat(*raw), rat_canonical(*raw)


def _check_against_reference(x, ref):
    assert (x.num, x.den) == ref
    # the view keeps integral coefficients as int
    assert all(type(c) is int or c.denominator > 1 for c in x.num + x.den)
    assert format_qrat(x) == render_rat(ref)
    assert qrat(*ref) == x and hash(qrat(*ref)) == hash(x)
    for v in _POINTS:
        d = rat_eval(ref[1], v)
        if not d:
            with pytest.raises(EvaluationPole):
                x.specialize(QMode.numeric(v))
            continue
        val = rat_eval(ref[0], v) / d
        s = x.specialize(QMode.numeric(v))
        assert s.num == ((val,) if val else ()) and s.den == P_ONE


_OPS = ("+", "-", "*", "/", "inv")


@settings(max_examples=200, deadline=None)
@given(
    start=_RAW,
    steps=st.lists(st.tuples(st.sampled_from(_OPS), _RAW), max_size=4),
    scale=_NONZERO,
)
def test_qrat_matches_euclid_reference(start, steps, scale):
    x, ref = _from_raw(start)
    _check_against_reference(x, ref)
    for op, raw in steps:
        y, yref = _from_raw(raw)
        _check_against_reference(y, yref)
        # equality is equality of the reduced forms, and equal values hash equal
        assert (x == y) == (ref == yref)
        if x == y:
            assert hash(x) == hash(y)
        if op == "+":
            x, ref = x + y, rat_add(ref, yref)
        elif op == "-":
            x, ref = x - y, rat_add(ref, rat_mul(((-1,), (1,)), yref))
        elif op == "*":
            x, ref = x * y, rat_mul(ref, yref)
        elif op == "/" and not y.is_zero():
            x, ref = x / y, rat_mul(ref, rat_inv(yref))
        elif op == "inv" and not x.is_zero():
            x, ref = x.inv(), rat_inv(ref)
        _check_against_reference(x, ref)
    # a representative scaled by any nonzero polynomial is the same element
    same = qrat(qpmul(x.num, scale), qpmul(x.den, scale))
    assert same == x and hash(same) == hash(x)
