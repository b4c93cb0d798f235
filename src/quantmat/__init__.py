"""Exact computer algebra for quantized matrix algebras.

The engine works in any commutation system whose ascending products
rewrite as lambda*(descending word) plus strictly smaller terms; M_q(n)
is the shipped flagship instance.  Coefficients live in Q(q) (or Q after
specializing q), monomials in the descending PBW basis, and left ideals
are handled through left Groebner bases.
"""

from .errors import (
    DegreeGuardExceeded,
    DimensionMismatch,
    DivisionByZero,
    EmptyBasis,
    EvaluationPole,
    IndexOutOfRange,
    InvalidPrefix,
    InvalidSpec,
    MissingPair,
    NegativeGeneratorPower,
    PairLimitExceeded,
    ParseError,
    QuantmatError,
)
from .qfield import ONE, Q, QMode, QRat, SYMBOLIC, ZERO, format_qrat
from .pbw import (
    Monomial,
    Polynomial,
    Term,
    compare_monomials,
    gen_index,
    mono_lcm,
    mono_sub,
    mono_sum,
)
from .straighten import (
    CommutationSystem,
    quantum_plane,
    scalar_mul,
    validate_solvability,
    weyl_algebra,
)
from .mq import MqSpec, build_mq, classify_pair, quantum_determinant
from .groebner import (
    BasisStats,
    GroebnerBasis,
    buchberger,
    ideal_member,
    left_divide,
    left_spoly,
)
from .dimension import (
    Staircase,
    eliminate_prefix,
    gk_dimension,
    hilbert_count,
    leading_staircase,
    make_staircase,
)
from .textio import (
    IdealFile,
    format_mono,
    format_poly,
    load_ideal,
    parse_poly,
    save_ideal,
)

__version__ = "0.1.0"

__all__ = [
    "BasisStats",
    "CommutationSystem",
    "DegreeGuardExceeded",
    "DimensionMismatch",
    "DivisionByZero",
    "EmptyBasis",
    "EvaluationPole",
    "GroebnerBasis",
    "IdealFile",
    "IndexOutOfRange",
    "InvalidPrefix",
    "InvalidSpec",
    "MissingPair",
    "Monomial",
    "MqSpec",
    "NegativeGeneratorPower",
    "ONE",
    "PairLimitExceeded",
    "ParseError",
    "Polynomial",
    "Q",
    "QMode",
    "QRat",
    "QuantmatError",
    "SYMBOLIC",
    "Staircase",
    "Term",
    "ZERO",
    "buchberger",
    "build_mq",
    "classify_pair",
    "compare_monomials",
    "eliminate_prefix",
    "format_mono",
    "format_poly",
    "format_qrat",
    "gen_index",
    "gk_dimension",
    "hilbert_count",
    "ideal_member",
    "leading_staircase",
    "left_divide",
    "left_spoly",
    "load_ideal",
    "make_staircase",
    "mono_lcm",
    "mono_sub",
    "mono_sum",
    "parse_poly",
    "quantum_determinant",
    "quantum_plane",
    "save_ideal",
    "scalar_mul",
    "validate_solvability",
    "weyl_algebra",
]
