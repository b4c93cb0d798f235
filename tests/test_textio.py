"""Text round trips: expression parsing, canonical printing, ideal files."""

import io
import json
import random
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from quantmat.cli import run_command
from quantmat.errors import (
    DegreeGuardExceeded,
    IndexOutOfRange,
    InvalidSpec,
    NegativeGeneratorPower,
    ParseError,
    QuantmatError,
)
from quantmat.mq import MqSpec, build_mq, quantum_determinant
from quantmat.pbw import Monomial, Polynomial, Term, gen_index
from quantmat.qfield import ONE, Q, QMode, QRat, format_qrat
from quantmat.straighten import quantum_plane
from quantmat.textio import (
    IdealFile,
    format_mono,
    format_poly,
    load_ideal,
    parse_poly,
    save_ideal,
)

from oracles import naive_poly_mul, qrat, rand_poly, view_format_qrat

SYS2_AT_2 = build_mq(MqSpec(2, QMode.numeric(2)))


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
    with pytest.raises(ParseError) as info:
        parse_poly("z[1,1]", quantum_plane())
    assert str(info.value) == (
        "z[i,j] generators need a square generator count (at position 0)"
    )


def test_parse_rejects_nonscalar_division(sys2):
    with pytest.raises(ParseError, match="scalar"):
        parse_poly("z[1,1]/z[1,2]", sys2)
    with pytest.raises(ParseError):
        parse_poly("1/(q - q)", sys2)


def test_format_frozen(sys2):
    det = quantum_determinant(sys2)
    assert format_poly(det, sys2.gen_names) == "z[2,2]*z[1,1] - 1/q*z[2,1]*z[1,2]"
    assert format_poly(det - det, sys2.gen_names) == "0"
    assert format_mono(det.lm(), sys2.gen_names) == "z[2,2]*z[1,1]"
    assert format_mono(Monomial.unit(sys2.ngens), sys2.gen_names) == "1"


def test_format_qrat_frozen():
    assert format_qrat(Q) == "q"
    assert format_qrat(Q.inv()) == "1/q"
    assert format_qrat(-(Q * Q - ONE) / Q) == "-(q^2 - 1)/q"
    assert format_qrat(QRat.from_rational(Fraction(3, 2))) == "3/2"
    assert format_qrat(qrat((0, 2))) == "2*q"
    assert format_qrat((Q + ONE) / (Q * Q - ONE)) == "1/(q - 1)"
    assert format_qrat(qrat((2, 2))) == "2*q + 2"
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
    c = qrat(num, den) * QRat.q_power(k)
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
        IdealFile(n=2, q="0", generators=["z[1,1]"])
    good = IdealFile(n=2, generators=[]).to_json_dict()
    assert good["ordering"] == "paperlex"
    for key, value in (("schema", 2), ("ordering", "deglex")):
        with pytest.raises(InvalidSpec):
            IdealFile.from_json_dict({**good, key: value})


# -- the parser evaluates as it reads ---------------------------------------


def test_errors_are_reported_left_to_right(sys2):
    # an error met while evaluating precedes a later syntax error
    with pytest.raises(DegreeGuardExceeded, match="product degree 70 exceeds guard 64"):
        parse_poly("z[1,1]^70 +", sys2)
    with pytest.raises(ParseError) as info:
        parse_poly("z[1,1]/z[1,2] )", sys2)
    assert str(info.value) == "division is only defined by scalars (at position 7)"


_LONG = "9" * 4301  # one digit past the interpreter's default conversion limit


@pytest.mark.parametrize(
    "text, position",
    [
        (_LONG, 0),
        (f"2*{_LONG}", 2),
        (f"z[{_LONG},1]", 2),
        (f"z[1,{_LONG}]", 4),
        (f"z[1,1]^{_LONG}", 7),
        (f"q^-{_LONG}", 3),
    ],
    ids=["number", "factor", "row", "col", "z_exponent", "q_exponent"],
)
def test_overlong_integer_literal_is_a_parse_error(sys2, text, position):
    with pytest.raises(ParseError) as info:
        parse_poly(text, sys2)
    assert info.value.position == position
    assert str(info.value) == (
        f"integer literal of 4301 digits is too long (at position {position})"
    )


@pytest.mark.parametrize("q, largest", [("2", 1 << 19), ("1/2", 1 << 19), ("5/3", 349525)])
def test_numeric_q_power_bound_is_on_bits(q, largest):
    # |k| times the larger bit length of q's numerator and denominator
    sys = build_mq(MqSpec(2, QMode.numeric(q)))
    assert parse_poly(f"q^{largest}", sys).lc() == QRat.from_rational(
        QMode.numeric(q).value ** largest
    )
    for k in (largest + 1, -largest - 1):
        with pytest.raises(ParseError) as info:
            parse_poly(f"z[1,1] + q^{k}", sys)
        assert str(info.value) == (
            f"q^{k} at q = {q} exceeds 1048576 bits (at position 11)"
        )


def test_symbolic_q_power_is_kept_as_its_exponent(sys2):
    p = parse_poly("q^1000000000*z[1,1]", sys2)
    assert p.lc() == QRat.q_power(10**9)
    assert parse_poly(format_poly(p, sys2.gen_names), sys2) == p


# An expression tree: ("int", k), ("q", k), ("z", row, col, m),
# ("sum", ((sign, node), ...)) or ("prod", (node, ((op, node), ...))).

_SCALAR_LEAVES = st.one_of(
    st.builds(lambda k: ("int", k), st.integers(0, 9)),
    st.builds(lambda k: ("q", k), st.integers(-3, 3)),
)
_GENERATORS = st.builds(
    lambda i, j, m: ("z", i, j, m),
    st.integers(1, 2),
    st.integers(1, 2),
    st.sampled_from((1, 2, 3, 0)),
)
_LEAVES = st.one_of(_GENERATORS, _SCALAR_LEAVES, _GENERATORS)


def _sums(children):
    return st.builds(
        lambda items: ("sum", tuple(items)),
        st.lists(st.tuples(st.sampled_from((1, -1)), children), min_size=1, max_size=3),
    )


_SCALARS = st.recursive(
    _SCALAR_LEAVES,
    lambda ch: st.one_of(
        _sums(ch),
        st.builds(
            lambda a, b: ("prod", (a, (("*", b),))), ch, ch
        ),
    ),
    max_leaves=4,
)


def _products(children):
    step = st.one_of(
        st.tuples(st.just("*"), children),
        st.tuples(st.just("*"), children),
        st.tuples(st.just("/"), _SCALARS),
    )
    return st.builds(
        lambda first, rest: ("prod", (first, tuple(rest))),
        children,
        st.lists(step, min_size=1, max_size=2),
    )


_TREES = st.recursive(
    _LEAVES, lambda ch: st.one_of(_sums(ch), _products(ch)), max_leaves=10
)


def _render(node) -> str:
    kind = node[0]
    if kind == "int":
        return str(node[1])
    if kind == "q":
        return "q" if node[1] == 1 else f"q^{node[1]}"
    if kind == "z":
        _, i, j, m = node
        return f"z[{i},{j}]" + ("" if m == 1 else f"^{m}")
    if kind == "sum":
        out = []
        for sign, child in node[1]:
            body = f"({_render(child)})" if child[0] == "sum" else _render(child)
            if not out:
                out.append(("-" if sign < 0 else "") + body)
            else:
                out.append((" - " if sign < 0 else " + ") + body)
        return "".join(out)
    first, rest = node[1]
    parts = [_render_factor(first)]
    parts += [op + _render_factor(child) for op, child in rest]
    return "".join(parts)


def _render_factor(node) -> str:
    return f"({_render(node)})" if node[0] in ("sum", "prod") else _render(node)


def _value(node, sys, q: QRat) -> Polynomial:
    """The tree's polynomial by word rewriting and QRat arithmetic."""
    kind = node[0]
    ngens = sys.ngens
    if kind in ("int", "q"):
        if kind == "int":
            c = QRat.from_rational(node[1])
        else:
            c = ONE
            for _ in range(abs(node[1])):
                c = c * q
            if node[1] < 0:
                c = c.inv()
        return Polynomial.from_mono(Monomial.unit(ngens), c)
    if kind == "z":
        _, i, j, m = node
        return Polynomial.from_mono(Monomial.gen(gen_index(i, j, 2), ngens, m))
    if kind == "sum":
        acc = Polynomial.zero(ngens)
        for sign, child in node[1]:
            v = _value(child, sys, q)
            acc = acc + v if sign > 0 else acc - v
        return acc
    first, rest = node[1]
    acc = _value(first, sys, q)
    for op, child in rest:
        v = _value(child, sys, q)
        if op == "*":
            acc = naive_poly_mul(sys, acc, v)
            continue
        assume(not v.is_zero())
        inv = v.lc().inv()
        acc = Polynomial(tuple(Term(inv * c, m) for c, m in acc.terms), ngens)
    return acc


@pytest.mark.parametrize("mode", ["symbolic", "2"])
@settings(max_examples=150, deadline=None)
@given(tree=_TREES)
def test_parse_equals_the_tree_value(sys2, mode, tree):
    sys, q = (sys2, Q) if mode == "symbolic" else (SYS2_AT_2, QRat.from_rational(2))
    expected = _value(tree, sys, q)  # first: it rejects a zero divisor
    text = _render(tree)
    assert parse_poly(text, sys) == expected, text


# The fuzz alphabet: every token kind of the grammar, an unknown name and
# character, generator and q-power fragments, digit runs of 1-6 digits and
# a digit run past the interpreter's conversion limit.
_FUZZ_TOKENS = st.one_of(
    st.sampled_from(
        list("+-*/^()[], ")
        + ["q", "z", "w", "!", "q^", "z[1,1]", "z[1,2]", "z[2,1]", "z[2,2]", _LONG]
    ),
    st.text("0123456789", min_size=1, max_size=6),
)


@pytest.mark.parametrize("mode", ["symbolic", "2"])
@settings(max_examples=300, deadline=None)
@given(tokens=st.lists(_FUZZ_TOKENS, max_size=24))
def test_fuzzed_text_raises_only_package_errors(sys2, mode, tokens):
    sys = sys2 if mode == "symbolic" else SYS2_AT_2
    text = "".join(tokens)
    try:
        parse_poly(text, sys)
    except QuantmatError:
        pass
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_command(["nf", "--n", "2", "--q", mode, "--", text])
    assert code in (0, 2, 3), text
    if code:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
