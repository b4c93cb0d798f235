"""The quantized matrix algebra presentation and its quantum determinant."""

import warnings
from fractions import Fraction
from itertools import combinations

import pytest

from quantmat.errors import InvalidSpec
from quantmat.mq import MAX_DIMENSION, MqSpec, build_mq, classify_pair, quantum_determinant
from quantmat.pbw import Monomial, Polynomial, Term
from quantmat.qfield import ONE, Q, QMode, QRat
from quantmat.straighten import quantum_plane, validate_solvability

from oracles import commutator, poly_canonicalize


def _row_col(linear, n):
    return linear // n + 1, linear % n + 1


def _pattern_counts(n):
    counts = {"R1": 0, "R2": 0, "R3": 0, "R4": 0}
    for small, big in combinations(range(n * n), 2):
        counts[classify_pair(_row_col(big, n), _row_col(small, n))] += 1
    return counts


def test_classify_pair_cases():
    assert classify_pair((1, 2), (1, 1)) == "R1"
    assert classify_pair((2, 1), (1, 1)) == "R2"
    assert classify_pair((2, 1), (1, 2)) == "R3"
    assert classify_pair((2, 2), (1, 1)) == "R4"


def test_patterns_partition_all_pairs():
    assert _pattern_counts(2) == {"R1": 2, "R2": 2, "R3": 1, "R4": 1}
    assert _pattern_counts(3) == {"R1": 9, "R2": 9, "R3": 9, "R4": 9}
    for n in (2, 3, 4):
        total = n * n * (n * n - 1) // 2
        assert sum(_pattern_counts(n).values()) == total


def test_table_entries(sys2):
    hook = Q - Q.inv()
    # same row: z11*z12 = q z12 z11
    lam, f = sys2.table[(1, 0)]
    assert lam == Q and f.is_zero()
    # same column: z12*z22 = q z22 z12
    lam, f = sys2.table[(3, 1)]
    assert lam == Q and f.is_zero()
    # antidiagonal: plain commutation
    lam, f = sys2.table[(2, 1)]
    assert lam == ONE and f.is_zero()
    # diagonal: commutation plus hook correction
    lam, f = sys2.table[(3, 0)]
    assert lam == ONE
    assert f.terms == (Term(hook, Monomial((0, 1, 1, 0))),)


def test_built_systems_validate():
    for n in (2, 3, 4):
        sys = build_mq(MqSpec(n))
        assert sys.ngens == n * n
        pairs = validate_solvability(sys.ngens, sys.table, sys.gen_names)
        assert len(pairs) == sys.ngens * (sys.ngens - 1) // 2


def test_generator_names(sys3):
    assert sys3.gen_names[0] == "z[1,1]"
    assert sys3.gen_names[5] == "z[2,3]"
    assert sys3.name == "M_q(3)"


def test_spec_rejects_small_n():
    with pytest.raises(InvalidSpec):
        MqSpec(1)


def test_spec_rejects_n_above_the_bound():
    assert MqSpec(MAX_DIMENSION).n == 16
    with pytest.raises(InvalidSpec, match="must be <= 16, got 17"):
        MqSpec(MAX_DIMENSION + 1)


def test_numeric_q():
    sys = build_mq(MqSpec(2, QMode.numeric(3)))
    lam, f = sys.table[(1, 0)]
    assert lam == QRat.from_rational(3)
    _, diag = sys.table[(3, 0)]
    assert diag.lc() == QRat.from_rational(Fraction(8, 3))  # 3 - 1/3


def test_q_one_commutes_without_warning():
    # q = 1 is a supported specialization: a commutative polynomial ring
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sys = build_mq(MqSpec(2, QMode.numeric(1)))
    assert not caught
    for key, (lam, f) in sys.table.items():
        assert lam.is_one() and f.is_zero()


def test_q_minus_one_anticommutes_without_warning():
    # R1/R2 pairs keep lam = -1, so M_{-1}(2) is not commutative
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sys = build_mq(MqSpec(2, QMode.numeric(-1)))
    assert not caught
    z11, z12 = sys.gen_mono(0), sys.gen_poly(1)
    expect = Polynomial.from_mono(Monomial((1, 1, 0, 0)), -ONE)
    assert sys.mono_mul(z11, z12) == expect


def test_quantum_determinant_2(sys2):
    det = quantum_determinant(sys2)
    expect = poly_canonicalize(
        [
            Term(ONE, Monomial((1, 0, 0, 1))),
            Term(-Q.inv(), Monomial((0, 1, 1, 0))),
        ],
        4,
    )
    assert det == expect


def test_quantum_determinant_2_is_central(sys2):
    det = quantum_determinant(sys2)
    for g in range(4):
        zg = sys2.gen_poly(g)
        assert commutator(sys2, det, zg).is_zero()


def test_quantum_determinant_3_is_central(sys3):
    det = quantum_determinant(sys3)
    assert len(det.terms) == 6
    for g in range(9):
        zg = sys3.gen_poly(g)
        assert commutator(sys3, det, zg).is_zero()


def test_determinant_specializes():
    det_num = quantum_determinant(build_mq(MqSpec(2, QMode.numeric(2))))
    det_sym = quantum_determinant(build_mq(MqSpec(2)))
    mode = QMode.numeric(2)
    spec_terms = tuple(
        Term(c.specialize(mode), m) for c, m in det_sym.terms
    )
    assert det_num == Polynomial(spec_terms, 4)


def test_determinant_rejects_a_non_square_system():
    with pytest.raises(InvalidSpec, match="2 generators, not n\\^2"):
        quantum_determinant(quantum_plane())
