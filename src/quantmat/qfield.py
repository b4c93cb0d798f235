"""Exact arithmetic in Q(q), rational functions in the quantum parameter.

A polynomial in q is a tuple of rational coefficients, index k holding the
coefficient of q^k; the trailing entry is nonzero and () is the zero
polynomial.  Coefficients are int where possible and Fraction otherwise
(they compare and hash equal for equal values).  A QRat is a reduced
fraction num/den of two such tuples with monic denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import DivisionByZero, EvaluationPole, InvalidSpec

Coef = Union[int, Fraction]
QPoly = tuple  # tuple[Coef, ...], lowest degree first, trailing entry nonzero

P_ZERO: QPoly = ()
P_ONE: QPoly = (1,)
P_Q: QPoly = (0, 1)


def pstrip(coeffs) -> QPoly:
    """Drop trailing zeros, returning a canonical tuple."""
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def padd(a: QPoly, b: QPoly) -> QPoly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return pstrip(out)


def pneg(a: QPoly) -> QPoly:
    return tuple(-c for c in a)


def pmul(a: QPoly, b: QPoly) -> QPoly:
    if not a or not b:
        return P_ZERO
    if len(a) == 1:
        c = a[0]
        return tuple(c * x for x in b)
    if len(b) == 1:
        c = b[0]
        return tuple(c * x for x in a)
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return pstrip(out)


def pdivmod(a: QPoly, b: QPoly) -> tuple[QPoly, QPoly]:
    """Quotient and remainder of a by b over the rationals."""
    if not b:
        raise DivisionByZero("polynomial division by zero")
    if len(a) < len(b):
        return P_ZERO, a
    rem = list(a)
    lead = Fraction(b[-1]) if not isinstance(b[-1], Fraction) else b[-1]
    quo = [0] * (len(a) - len(b) + 1)
    for k in range(len(a) - len(b), -1, -1):
        c = rem[k + len(b) - 1]
        if c:
            c = c / lead
            quo[k] = c
            for j, cb in enumerate(b):
                rem[k + j] -= c * cb
    return pstrip(quo), pstrip(rem)


def pmonic(a: QPoly) -> QPoly:
    """Scale so the leading coefficient is 1."""
    if not a:
        return a
    lead = a[-1]
    if lead == 1:
        return a
    return tuple(Fraction(c) / lead for c in a[:-1]) + (1,)


def pgcd(a: QPoly, b: QPoly) -> QPoly:
    """Monic gcd over the rationals (monic Euclid)."""
    while b:
        a, b = b, pdivmod(a, b)[1]
        b = pmonic(b)
    return pmonic(a)


def peval(a: QPoly, v: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * v + c
    return acc


def _valuation(a: QPoly) -> int:
    # number of leading zero coefficients; only meaningful for a != 0
    k = 0
    while not a[k]:
        k += 1
    return k


def _is_q_power(a: QPoly) -> bool:
    return bool(a) and all(not c for c in a[:-1])


@dataclass(frozen=True)
class QMode:
    """Base-field instance: symbolic Q(q) or q specialized at a nonzero rational."""

    value: Optional[Fraction] = None

    def __post_init__(self):
        if self.value is not None and self.value == 0:
            raise InvalidSpec("numeric q must be nonzero")

    @property
    def is_symbolic(self) -> bool:
        return self.value is None

    @staticmethod
    def numeric(value) -> "QMode":
        return QMode(Fraction(value))

    def __str__(self):
        return "symbolic" if self.value is None else str(self.value)


SYMBOLIC = QMode(None)


class QRat:
    """Canonical element of Q(q): num/den with gcd 1 and monic den."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=P_ONE, *, _canonical=False):
        if _canonical:
            self.num = num
            self.den = den
            return
        num = pstrip(num)
        den = pstrip(den)
        if not den:
            raise DivisionByZero("zero denominator in Q(q)")
        self.num, self.den = _normalize(num, den)

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(v) -> "QRat":
        v = Fraction(v)
        if not v:
            return ZERO
        c = int(v) if v.denominator == 1 else v
        return QRat((c,), P_ONE, _canonical=True)

    @staticmethod
    def q_power(k: int) -> "QRat":
        """The monomial q^k, k may be negative."""
        if k >= 0:
            return QRat((0,) * k + (1,), P_ONE, _canonical=True)
        return QRat(P_ONE, (0,) * (-k) + (1,), _canonical=True)

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.num == P_ONE and self.den == P_ONE

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "QRat") -> "QRat":
        if not self.num:
            return other
        if not other.num:
            return self
        if self.den == other.den:
            return QRat(padd(self.num, other.num), self.den)
        return QRat(
            padd(pmul(self.num, other.den), pmul(other.num, self.den)),
            pmul(self.den, other.den),
        )

    def __sub__(self, other: "QRat") -> "QRat":
        return self + (-other)

    def __neg__(self) -> "QRat":
        return QRat(pneg(self.num), self.den, _canonical=True)

    def __mul__(self, other: "QRat") -> "QRat":
        if not self.num or not other.num:
            return ZERO
        if self.is_one():
            return other
        if other.is_one():
            return self
        return QRat(pmul(self.num, other.num), pmul(self.den, other.den))

    def __truediv__(self, other: "QRat") -> "QRat":
        return self * other.inv()

    def inv(self) -> "QRat":
        if not self.num:
            raise DivisionByZero("inversion of zero in Q(q)")
        return QRat(self.den, self.num)

    def __pow__(self, k: int) -> "QRat":
        if k < 0:
            return self.inv() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def specialize(self, mode: QMode) -> "QRat":
        """Evaluate at mode's rational q; identity in symbolic mode."""
        if mode.is_symbolic:
            return self
        d = peval(self.den, mode.value)
        if not d:
            raise EvaluationPole(f"denominator vanishes at q = {mode.value}")
        return QRat.from_rational(peval(self.num, mode.value) / d)

    # -- comparisons / hashing ----------------------------------------

    def __eq__(self, other):
        if not isinstance(other, QRat):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def sign(self) -> int:
        """Sign of the leading numerator coefficient (den is monic)."""
        if not self.num:
            return 0
        return 1 if self.num[-1] > 0 else -1

    def __repr__(self):
        return f"QRat({self})"

    def __str__(self):
        from .textio import format_qrat  # cyclic only at call time

        return format_qrat(self)


def _normalize(num: QPoly, den: QPoly) -> tuple[QPoly, QPoly]:
    """Reduce num/den to the canonical representative. den is nonzero."""
    if not num:
        return P_ZERO, P_ONE
    # shared power of q
    vn, vd = _valuation(num), _valuation(den)
    v = vn if vn < vd else vd
    if v:
        num, den = num[v:], den[v:]
    if len(den) == 1:
        c = den[0]
        if c != 1:
            num = tuple(Fraction(x) / c for x in num)
        return num, P_ONE
    if _is_q_power(num) or _is_q_power(den):
        # the shared q-valuation is already removed, so the gcd is trivial
        pass
    else:
        g = pgcd(num, den)
        if len(g) > 1:
            num = pdivmod(num, g)[0]
            den = pdivmod(den, g)[0]
            if len(den) == 1:
                c = den[0]
                if c != 1:
                    num = tuple(Fraction(x) / c for x in num)
                return num, P_ONE
    lead = den[-1]
    if lead != 1:
        num = tuple(Fraction(x) / lead for x in num)
        den = tuple(Fraction(x) / lead for x in den[:-1]) + (1,)
    return num, den


ZERO = QRat(P_ZERO, P_ONE, _canonical=True)
ONE = QRat(P_ONE, P_ONE, _canonical=True)
Q = QRat(P_Q, P_ONE, _canonical=True)
Q_INV = QRat(P_ONE, P_Q, _canonical=True)

