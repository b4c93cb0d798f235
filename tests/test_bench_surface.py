"""The engine names the benchmark in perfbench/ reaches into.

perfbench/tracing.py wraps each TARGETS entry where the engine looks it
up, and perfbench/workloads.py reads results through a fixed set of
fields; a refactor that renames or moves one of them breaks `--trace 1`
or the workloads without failing any other test.
"""

import importlib
import sys
from pathlib import Path

import pytest

from quantmat import CommutationSystem, MqSpec, build_mq, parse_poly
from quantmat import dimension, groebner, mq, pbw, qfield, straighten, textio
from quantmat.errors import PairLimitExceeded

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_trace_targets_resolve(tracing):
    assert tracing.TARGETS
    for name, owner, attr in tracing.TARGETS:
        assert callable(owner.__dict__[attr]), name


def test_traced_names_are_the_engine_lookups(tracing):
    targets = {(owner, attr) for _, owner, attr in tracing.TARGETS}
    for attr in ("__add__", "__sub__", "__mul__", "__truediv__", "inv"):
        assert (qfield.QRat, attr) in targets
    for owner, attr in (
        (qfield, "pgcd"),
        (pbw, "poly_add"),
        (CommutationSystem, "mono_mul"),
        (CommutationSystem, "poly_mul"),
        (groebner, "buchberger"),
        (groebner, "left_spoly"),
        (groebner, "left_divide"),
        (dimension, "hilbert_count"),
        (dimension, "gk_dimension"),
        (textio, "parse_poly"),
        (textio, "format_poly"),
        (mq, "build_mq"),
    ):
        assert (owner, attr) in targets
    assert straighten.CommutationSystem is CommutationSystem


def test_workload_fields():
    assert isinstance(groebner.DEFAULT_MAX_PAIRS, int)
    S = build_mq(MqSpec(2))
    gens = [parse_poly("z[1,1] + z[2,2]", S), parse_poly("z[1,2]*z[2,1] + z[1,1]", S)]
    with pytest.raises(PairLimitExceeded) as exc:
        groebner.buchberger(gens, S, max_pairs=1)
    partial = exc.value.partial
    assert partial.elements
    assert partial.stats.pairs_considered == 1
    assert partial.stats.reductions_to_zero == 0
    info = S.cache_info()
    assert info.hits >= 0 and info.misses > 0 and info.currsize > 0
    term = partial.elements[0].terms[0]
    c = term.coeff
    assert isinstance(c.num, tuple) and isinstance(c.den, tuple)
    assert isinstance(c.is_one(), bool)
    assert isinstance(c.specialize(qfield.QMode.numeric(2)), qfield.QRat)
    assert isinstance(term.mono.exps, tuple)


def test_oracle_imports():
    from oracles import left_multiples_span, specialize_terms

    assert callable(left_multiples_span) and callable(specialize_terms)
