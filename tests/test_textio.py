"""Text round trips: expression parsing, canonical printing, ideal files."""

import json
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quantmat.errors import (
    IndexOutOfRange,
    InvalidSpec,
    NegativeGeneratorPower,
    ParseError,
)
from quantmat.fixtures import quantum_determinant
from quantmat.mq import MqSpec
from quantmat.qfield import ONE, Q, QRat
from quantmat.textio import (
    GenPower,
    IdealFile,
    Product,
    QPower,
    RationalLit,
    Sum,
    format_mono,
    format_poly,
    format_qrat,
    load_ideal,
    parse_expr,
    parse_poly,
    save_ideal,
)

from oracles import rand_poly, view_format_qrat


def test_parse_products_straighten(sys2):
    p = parse_poly("z[1,1]*z[2,2]", sys2)
    assert format_poly(p, sys2.gen_names) == "z[2,2]*z[1,1] + (q^2 - 1)/q*z[2,1]*z[1,2]"
    q = parse_poly("z[1,1]*z[1,2]", sys2)
    assert format_poly(q, sys2.gen_names) == "q*z[1,2]*z[1,1]"


def test_parse_scalars_and_powers(sys2):
    assert parse_poly("3", sys2).lc() == QRat.from_rational(3)
    assert parse_poly("q^2*z[1,1]", sys2).lc() == Q * Q
    assert parse_poly("q^-1*z[1,1]", sys2).lc() == Q.inv()
    assert parse_poly("z[2,1]^3", sys2).lm().exps == (0, 0, 3, 0)
    assert parse_poly("0", sys2).is_zero()


def test_parse_literal_term(sys2):
    p = parse_poly("(q^-1)*z[1,2]^2", sys2)
    assert p.lc() == Q.inv()
    assert p.lm().exps == (0, 2, 0, 0)


def test_parse_sums_signs_whitespace(sys2):
    p = parse_poly("  z[1,1] - z[1,1] ", sys2)
    assert p.is_zero()
    m = parse_poly("-z[2,2] + 2*z[2,2]", sys2)
    assert m == sys2.gen_poly(3)
    nested = parse_poly("(z[1,1] + (q - 1)*z[1,2])*z[2,2] - z[1,1]*z[2,2]", sys2)
    direct = sys2.poly_mul(
        parse_poly("(q - 1)*z[1,2]", sys2), sys2.gen_poly(3)
    )
    assert nested == direct


def test_parse_scalar_division(sys2):
    p = parse_poly("z[1,1]/2", sys2)
    assert p.lc() == QRat.from_rational(Fraction(1, 2))
    r = parse_poly("(q^2 - 1)/q*z[2,1]*z[1,2]", sys2)
    assert r.lc() == Q - Q.inv()


def test_parse_errors_carry_position(sys2):
    with pytest.raises(ParseError, match="position 8"):
        parse_poly("z[1,1] +", sys2)
    with pytest.raises(ParseError):
        parse_poly("", sys2)
    with pytest.raises(ParseError):
        parse_poly("z[1,1] z[1,2]", sys2)  # missing operator
    with pytest.raises(ParseError):
        parse_poly("z[1,1]!", sys2)
    with pytest.raises(ParseError):
        parse_poly("z[1,1", sys2)
    with pytest.raises(ParseError):
        parse_poly("w[1,1]", sys2)
    with pytest.raises(ParseError):
        parse_poly("(z[1,1]", sys2)


def test_parse_rejects_bad_generators(sys2):
    with pytest.raises(IndexOutOfRange):
        parse_poly("z[1,3]", sys2)
    with pytest.raises(NegativeGeneratorPower):
        parse_poly("z[1,1]^-2", sys2)


def test_parse_rejects_nonscalar_division(sys2):
    with pytest.raises(ParseError, match="scalar"):
        parse_poly("z[1,1]/z[1,2]", sys2)
    with pytest.raises(ParseError):
        parse_poly("1/(q - q)", sys2)


def test_ast_shape():
    ast = parse_expr("q^2*z[1,1] - 3")
    assert isinstance(ast, Sum)
    (s1, t1), (s2, t2) = ast.items
    assert (s1, s2) == (1, -1)
    assert isinstance(t1, Product)
    assert t1.items[0][1] == QPower(power=2, pos=0)
    assert t1.items[1][1] == GenPower(row=1, col=1, power=1, pos=4)
    assert t2.items[0][1] == RationalLit(value=Fraction(3), pos=13)


def test_format_frozen(sys2):
    det = quantum_determinant(MqSpec(2), sys2)
    assert format_poly(det, sys2.gen_names) == "z[2,2]*z[1,1] - 1/q*z[2,1]*z[1,2]"
    assert format_poly(det - det, sys2.gen_names) == "0"
    assert format_mono(det.lm(), sys2.gen_names) == "z[2,2]*z[1,1]"
    assert format_mono(sys2.unit(), sys2.gen_names) == "1"


def test_format_qrat_frozen():
    assert format_qrat(Q) == "q"
    assert format_qrat(Q.inv()) == "1/q"
    assert format_qrat(-(Q * Q - ONE) / Q) == "-(q^2 - 1)/q"
    assert format_qrat(QRat.from_rational(Fraction(3, 2))) == "3/2"
    assert format_qrat(QRat((0, 2))) == "2*q"
    assert format_qrat((Q + ONE) / (Q * Q - ONE)) == "1/(q - 1)"
    assert format_qrat(QRat((2, 2))) == "2*q + 2"
    assert str(-Q.inv()) == "-1/q"


_COEF = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-9, 9), st.integers(2, 4)),
)


@settings(max_examples=300, deadline=None)
@given(
    num=st.lists(_COEF, max_size=4),
    den=st.lists(_COEF, min_size=1, max_size=4).filter(any),
    k=st.integers(-60, 60),
)
def test_format_qrat_matches_view_renderer(num, den, k):
    # printing from the stored q^v*n/d gives the text of the padded view
    c = QRat(num, den) * QRat.q_power(k)
    assert format_qrat(c) == view_format_qrat(c)
    assert format_qrat(-c) == view_format_qrat(-c)


@pytest.mark.parametrize("k, text", [(10**6, "q^1000000"), (-(10**6), "1/q^1000000")])
def test_format_large_q_power_in_small_memory(k, text):
    # the view of q^(10^6) is a million-entry tuple, about 8 MB
    c = QRat.q_power(k)
    tracemalloc.start()
    try:
        out = format_qrat(c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out == text
    assert peak < 1_000_000


def test_roundtrip_sampled(sys2, sys3):
    rng = random.Random(50)
    for sys, rounds in ((sys2, 300), (sys3, 100)):
        for _ in range(rounds):
            p = rand_poly(rng, sys.ngens, max_degree=3, max_terms=4, allow_zero=True)
            assert parse_poly(format_poly(p, sys.gen_names), sys) == p


def test_ideal_file_roundtrip(tmp_path):
    ideal = IdealFile(
        n=2,
        q="symbolic",
        generators=["z[1,1]", "z[2,2]"],
        limits={"max_degree": 32},
    )
    d = ideal.to_json_dict()
    assert d["schema"] == 1
    assert IdealFile.from_json_dict(d) == ideal
    path = tmp_path / "ideal.json"
    save_ideal(ideal, path)
    raw = json.loads(path.read_text())
    assert raw["schema"] == 1
    assert load_ideal(path) == ideal
    assert path.read_text().endswith("\n")


def test_ideal_file_validation():
    with pytest.raises(InvalidSpec):
        IdealFile(n=1, generators=["z[1,1]"])
    with pytest.raises(InvalidSpec):
        IdealFile(n=2, ordering="deglex", generators=["z[1,1]"])
    with pytest.raises(InvalidSpec):
        IdealFile(n=2, q="0", generators=["z[1,1]"])
    good = IdealFile(n=2, generators=[]).to_json_dict()
    bad = dict(good)
    bad["schema"] = 2
    with pytest.raises(InvalidSpec):
        IdealFile.from_json_dict(bad)
