"""Exception hierarchy shared by all quantmat modules."""


class QuantmatError(Exception):
    """Base class for all errors raised by this package."""


class DivisionByZero(QuantmatError, ZeroDivisionError):
    """Inversion or division by the zero element of Q(q)."""


class EvaluationPole(QuantmatError, ZeroDivisionError):
    """Specialization of q at a root of the denominator."""


class IndexOutOfRange(QuantmatError, IndexError):
    """Generator indices outside 1..n."""


class DimensionMismatch(QuantmatError, ValueError):
    """Operands built over different generator sets."""


class DegreeGuardExceeded(QuantmatError):
    """A product would exceed the configured total-degree guard."""


class PairLimitExceeded(QuantmatError):
    """Buchberger exceeded its S-pair budget; ``partial`` holds the basis so far."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class MissingPair(QuantmatError, KeyError):
    """A commutation table lacks an entry for some generator pair."""


class InvalidSpec(QuantmatError, ValueError):
    """Malformed algebra specification (dimension < 2, q = 0, ...)."""


class EmptyBasis(QuantmatError, ValueError):
    """Staircase or dimension query on a basis with no elements."""


class InvalidPrefix(QuantmatError, ValueError):
    """Prefix size outside 1..num_gens-1."""


class ParseError(QuantmatError, ValueError):
    """Syntax error in a polynomial expression; ``position`` is 0-based."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NegativeGeneratorPower(ParseError):
    """Generators admit only nonnegative exponents."""
