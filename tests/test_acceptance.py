"""Acceptance gate: one test per shipping criterion, exact equality throughout.

Each test prints one ACCEPTANCE line so a log scan shows the verdict per
criterion; the pytest outcome is the same verdict.  Budgeted runtimes are
asserted where the criterion fixes one.
"""

import random
import shutil
import subprocess
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from quantmat.dimension import (
    Staircase,
    eliminate_prefix,
    gk_dimension,
    hilbert_count,
    leading_staircase,
    make_staircase,
)
from quantmat.errors import InvalidSpec
from quantmat.fixtures import quantum_determinant
from quantmat.groebner import buchberger, ideal_member, left_divide, left_spoly
from quantmat.mq import MqSpec, build_mq
from quantmat.pbw import (
    Monomial,
    Polynomial,
    Term,
    compare_monomials,
    mono_sum,
)
from quantmat.qfield import QRat
from quantmat.straighten import (
    CommutationSystem,
    validate_solvability,
)
from quantmat.textio import format_poly, parse_poly

from oracles import (
    binomial_count,
    commutator,
    compare_word_lex,
    growth_degree,
    membership_oracle,
    mono_divides,
    prefix_intersection_found,
    rand_monomial,
    rand_poly,
)

QVALUES = (Fraction(2), Fraction(3), Fraction(5, 2))

# verdict lines; conftest replays these after capture ends so they reach
# the terminal (and any tee) on a plain `pytest -v` run
CRITERION_LINES = []


def _record(line):
    CRITERION_LINES.append(line)
    print(line)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        _record(f"ACCEPTANCE C{number} FAIL: {label}")
        raise
    _record(f"ACCEPTANCE C{number} PASS: {label}")


def test_c01_solvability_certification(sys2, sys3):
    with criterion(1, "solvability certification for n = 2, 3, 4"):
        start = time.perf_counter()
        for sys in (sys2, sys3, build_mq(MqSpec(4))):
            pairs = validate_solvability(sys.ngens, sys.table, sys.gen_names)
            n2 = sys.ngens
            assert len(pairs) == n2 * (n2 - 1) // 2
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"validation took {elapsed:.2f}s"

        # negative controls: a dead scaling and an oversized correction
        # term; the check flags each, and no system is built on either
        table = dict(sys2.table)
        table[(1, 0)] = (QRat((0,)), table[(1, 0)][1])
        with pytest.raises(InvalidSpec, match="lambda = 0"):
            validate_solvability(4, table, sys2.gen_names)
        with pytest.raises(InvalidSpec, match="lambda = 0"):
            CommutationSystem(4, table, gen_names=sys2.gen_names)

        table = dict(sys2.table)
        table[(3, 0)] = (
            table[(3, 0)][0],
            Polynomial.from_mono(Monomial((0, 0, 0, 2))),
        )
        with pytest.raises(InvalidSpec, match="not below"):
            validate_solvability(4, table, sys2.gen_names)
        with pytest.raises(InvalidSpec, match="not below"):
            CommutationSystem(4, table, gen_names=sys2.gen_names)


def test_c02_ordering_equivalence():
    with criterion(2, "ordering comparator matches the word order"):
        start = time.perf_counter()
        rng = random.Random(100)
        pairs = 0
        for ngens, rounds in ((4, 60_000), (9, 50_000)):
            for _ in range(rounds):
                a = rand_monomial(rng, ngens, 12)
                b = rand_monomial(rng, ngens, 12)
                assert compare_monomials(a, b) == compare_word_lex(a, b)
                pairs += 1
        assert pairs >= 100_000

        triples = 0
        for _ in range(10_000):
            a = rand_monomial(rng, 4, 6)
            b = rand_monomial(rng, 4, 6)
            g = rand_monomial(rng, 4, 6)
            # compatibility with multiplication
            assert compare_monomials(mono_sum(a, g), mono_sum(b, g)) == (
                compare_monomials(a, b)
            )
            # divisibility forces comparability
            ab = mono_sum(a, b)
            assert mono_divides(a, ab)
            assert compare_monomials(a, ab) <= 0
            triples += 1
        assert triples >= 10_000
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"ordering checks took {elapsed:.2f}s"


def test_c03_associativity(sys2, sys3):
    with criterion(3, "straightening is associative and degree-homogeneous"):
        start = time.perf_counter()
        rng = random.Random(101)
        for sys, rounds, deg in ((sys2, 10_000, 3), (sys3, 1_000, 2)):
            for _ in range(rounds):
                u = Polynomial.from_mono(rand_monomial(rng, sys.ngens, deg))
                v = Polynomial.from_mono(rand_monomial(rng, sys.ngens, deg))
                w = Polynomial.from_mono(rand_monomial(rng, sys.ngens, deg))
                left = sys.poly_mul(sys.poly_mul(u, v), w)
                right = sys.poly_mul(u, sys.poly_mul(v, w))
                assert left == right
                total = u.degree() + v.degree() + w.degree()
                assert {m.degree for _, m in left.terms} == {total}
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"associativity took {elapsed:.2f}s"


def test_c04_hilbert_series_free_case():
    with criterion(4, "free Hilbert function matches the binomial counts"):
        for n in (2, 3):
            empty = Staircase(n * n, ())
            for d in range(9):
                assert hilbert_count(empty, d) == binomial_count(n * n, d)


def test_c05_domain_evidence(sys2):
    with criterion(5, "leading monomials multiply; no zero divisors found"):
        rng = random.Random(102)
        for _ in range(10_000):
            f = rand_poly(rng, 4, max_degree=2, max_terms=3)
            g = rand_poly(rng, 4, max_degree=2, max_terms=3)
            p = sys2.poly_mul(f, g)
            assert not p.is_zero()
            assert p.lm() == mono_sum(f.lm(), g.lm())


def test_c06_groebner_correctness(sys2):
    with criterion(6, "completed bases certify and membership matches the oracle"):
        start = time.perf_counter()
        G = buchberger([sys2.gen_poly(0), sys2.gen_poly(3)], sys2)
        assert len(G) == 3
        assert {g.lm().exps for g in G} == {
            (1, 0, 0, 0),
            (0, 0, 0, 1),
            (0, 1, 1, 0),
        }

        def spolys_vanish(basis):
            for a in range(len(basis)):
                for b in range(a + 1, len(basis)):
                    s = left_spoly(basis.elements[a], basis.elements[b], sys2)
                    _, r = left_divide(s, basis.elements, sys2)
                    assert r.is_zero()

        spolys_vanish(G)

        rng = random.Random(103)
        ideals = 0
        for _ in range(50):
            gens = [
                rand_poly(rng, 4, max_degree=2, max_terms=2)
                for _ in range(rng.randint(1, 2))
            ]
            basis = buchberger(gens, sys2)
            spolys_vanish(basis)

            # a planted member whose certificate stays within the oracle bound
            planted = Polynomial.zero(4)
            for g in gens:
                h = rand_poly(rng, 4, max_degree=2, max_terms=2, allow_zero=True)
                planted = planted + sys2.poly_mul(h, g)
            if not planted.is_zero():
                assert ideal_member(planted, basis, sys2)
                assert membership_oracle(2, gens, planted, 4, QVALUES)

            for _ in range(3):
                f = rand_poly(rng, 4, max_degree=2, max_terms=2)
                assert ideal_member(f, basis, sys2) == membership_oracle(
                    2, gens, f, 4, QVALUES
                )
            ideals += 1
        assert ideals >= 50
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"Groebner checks took {elapsed:.2f}s"


def test_c07_gk_dimension(sys2):
    with criterion(7, "growth dimension matches the finite-difference oracle"):
        single = buchberger([sys2.gen_poly(0)], sys2)
        diag = buchberger([sys2.gen_poly(0), sys2.gen_poly(3)], sys2)
        fixtures = [
            (leading_staircase(single), 3),
            (leading_staircase(diag), 1),
            (make_staircase(4, [(1, 0, 0, 0), (0, 0, 0, 1), (0, 1, 1, 0)]), 1),
        ]
        for st, expected in fixtures:
            value = gk_dimension(st)
            assert value == expected
            assert value < 4
            counts = [hilbert_count(st, d) for d in range(13)]
            assert growth_degree(counts) == value

        rng = random.Random(104)
        for _ in range(10):
            gens = [rand_poly(rng, 4, max_degree=2, max_terms=2)]
            st = leading_staircase(buchberger(gens, sys2))
            assert gk_dimension(st) < 4


def _prefix_poly(rng, s, ngens):
    p = rand_poly(rng, s, max_degree=2, max_terms=2)
    terms = tuple(Term(c, Monomial(m.exps + (0,) * (ngens - s))) for c, m in p.terms)
    return Polynomial(terms, ngens)


def test_c08_elimination(sys2):
    with criterion(8, "prefix elimination finds planted members and only members"):
        rng = random.Random(105)
        instances = 0
        for _ in range(30):
            s = rng.randint(1, 3)
            planted = _prefix_poly(rng, s, 4)
            extra = rand_poly(rng, 4, max_degree=2, max_terms=2)
            basis = buchberger([planted, extra], sys2)
            kept = eliminate_prefix(basis, s)
            assert kept
            for p in kept:
                assert all(m.top() < s for _, m in p.terms)
                assert ideal_member(p, basis, sys2)
            instances += 1
        assert instances >= 30

        negative = buchberger([sys2.gen_poly(3)], sys2)
        assert eliminate_prefix(negative, 3) == ()
        assert not prefix_intersection_found(2, [sys2.gen_poly(3)], 3, 5, QVALUES)


def test_c09_central_element(sys2, sys3):
    with criterion(9, "quantum determinant is central"):
        start = time.perf_counter()
        det2 = quantum_determinant(sys2)
        for g in range(4):
            assert commutator(sys2, det2, sys2.gen_poly(g)).is_zero()
        elapsed2 = time.perf_counter() - start
        assert elapsed2 < 1.0, f"n = 2 centrality took {elapsed2:.2f}s"

        start = time.perf_counter()
        det3 = quantum_determinant(sys3)
        for g in range(9):
            assert commutator(sys3, det3, sys3.gen_poly(g)).is_zero()
        elapsed3 = time.perf_counter() - start
        assert elapsed3 < 60.0, f"n = 3 centrality took {elapsed3:.2f}s"


CLI_EXAMPLES = [
    (
        ["gb", "--n", "2", "--ideal", "z[1,1]", "--ideal", "z[2,2]"],
        b"z[1,1]\nz[2,1]*z[1,2]\nz[2,2]\n",
    ),
    (
        ["validate", "--n", "2"],
        b"solvability: M_q(2)\npairs checked: 6\nfailures: 0\nverdict: PASS\n",
    ),
    (
        ["hilbert", "--n", "2", "--maxdeg", "4"],
        b"1, 4, 10, 20, 35\n",
    ),
]


def test_c10_cli_contract(sys2, sys3, module_cli):
    with criterion(10, "CLI output is stable and printing round-trips"):
        # the installed script when there is one, else the same main()
        # through the interpreter, so a source checkout is covered too
        exe = shutil.which("mq")
        command, env = ([exe], None) if exe else module_cli
        for argv, expected in CLI_EXAMPLES:
            runs = [
                subprocess.run(
                    command + argv, capture_output=True, timeout=120, env=env
                )
                for _ in range(2)
            ]
            for r in runs:
                assert r.returncode == 0
                assert r.stdout == expected
            assert runs[0].stdout == runs[1].stdout

        rng = random.Random(106)
        rounds = 0
        for sys, count in ((sys2, 700), (sys3, 300)):
            for _ in range(count):
                p = rand_poly(
                    rng, sys.ngens, max_degree=3, max_terms=4, allow_zero=True
                )
                assert parse_poly(format_poly(p, sys.gen_names), sys) == p
                rounds += 1
        assert rounds >= 1_000
