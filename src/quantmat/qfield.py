"""Exact arithmetic in Q(q), rational functions in the quantum parameter.

Only this module reads how an element is stored.  Other modules build
one from `QRat.from_rational`, `QMode.q_power` (q^k in a system's field,
within its size bounds) and arithmetic, and print it with `format_qrat`
or `format_factor`.

A polynomial in q is a tuple of coefficients, index k holding the
coefficient of q^k; the trailing entry is nonzero and () is the zero
polynomial.

A QRat is stored fraction-free and Laurent-normalized, as q^v * n/d:
n and d are integer polynomials with nonzero constant terms (q divides
neither), gcd(n, d) = 1 in Z[q], contents included, and d has a positive
leading coefficient; v is an int, and zero is n = (), d = (1,), v = 0.
The units of Z[q] are +-1, so this form is unique: equality and hashing
compare (n, d, v) directly, and arithmetic stays in the integers.  The
relations of M_q(n) multiply by powers of q, so most coefficients are
Laurent monomials c*q^k: their n and d are constants, and their products
and same-power sums take integer arithmetic only.  A product adds the
powers and cancels n and d crosswise before it multiplies (Henrici 1956),
so it never takes the gcd of the full product; a sum shifts the higher
term's numerator down to the lower power.  A sum whose shift, or a
product whose numerator or denominator, would span more than
``_MAX_QSPAN`` powers of q is refused with `DegreeGuardExceeded`.
Results are reduced with `pgcd`, the gcd in Z[q] by the primitive
polynomial remainder sequence (Collins 1967; Brown 1971), or with the
integer gcd when one side is a constant.

`QRat.num` and `QRat.den` are a read-only view of the same value over the
rationals: coefficients are int where integral and Fraction otherwise
(they compare and hash equal for equal values), and den is monic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Union

from .errors import DegreeGuardExceeded, DivisionByZero, EvaluationPole, InvalidSpec

Coef = Union[int, Fraction]
# tuple[Coef, ...], lowest degree first, trailing entry nonzero; the
# coefficients a QRat stores are int
QPoly = tuple

P_ZERO: QPoly = ()
P_ONE: QPoly = (1,)
P_MINUS_ONE: QPoly = (-1,)


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
    if len(a) == 1:
        return (-a[0],)
    return tuple([-c for c in a])


def pmul(a: QPoly, b: QPoly) -> QPoly:
    if not a or not b:
        return P_ZERO
    if len(a) == 1:
        c = a[0]
        return tuple([c * x for x in b])
    if len(b) == 1:
        c = b[0]
        return tuple([c * x for x in a])
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return pstrip(out)


# -- integer polynomials: exact quotient, remainder, gcd --------------------


def _scale_down(a: QPoly, c: int) -> QPoly:
    return tuple([x // c for x in a])


def _exact_quo(a: QPoly, b: QPoly) -> QPoly:
    """a / b in Z[q], where b divides a."""
    if len(b) == 1:
        return _scale_down(a, b[0])
    rem = list(a)
    lead = b[-1]
    deg = len(b) - 1
    quo = [0] * (len(a) - deg)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + deg]
        if c:
            c //= lead
            quo[k] = c
            for j in range(deg):
                rem[k + j] -= c * b[j]
    return tuple(quo)


def _prem(a: QPoly, b: QPoly) -> QPoly:
    """lead(b)^e * a mod b for some e >= 0, for len(a) >= len(b) >= 2.

    A step scales the remainder by lead(b) only when lead(b) does not
    divide its top coefficient; either way the result differs from the
    remainder of a over the rationals by an integer factor.
    """
    rem = list(a)
    lead = b[-1]
    deg = len(b) - 1
    for top in range(len(rem) - 1, deg - 1, -1):
        c = rem[top]
        if not c:
            continue
        if c % lead:
            for i in range(top):
                rem[i] *= lead
        else:
            c //= lead
        k = top - deg
        for j in range(deg):
            rem[k + j] -= c * b[j]
    return pstrip(rem[:deg])


def pgcd(a: QPoly, b: QPoly) -> QPoly:
    """The gcd in Z[q] of nonzero integer polynomials, leading coefficient > 0.

    The integer gcd of the contents times the gcd of the primitive parts,
    which the primitive polynomial remainder sequence computes: replace
    (a, b) by (b, primitive part of the pseudo-remainder of a by b) until
    the remainder vanishes (then b is the gcd) or is a constant (then the
    primitive parts are coprime).
    """
    ca, cb = gcd(*a), gcd(*b)
    c = gcd(ca, cb)
    if len(a) == 1 or len(b) == 1:
        return (c,)
    if ca != 1:
        a = _scale_down(a, ca)
    if cb != 1:
        b = _scale_down(b, cb)
    if len(a) < len(b):
        a, b = b, a
    while True:
        r = _prem(a, b)
        if not r:
            break
        if len(r) == 1:
            return (c,)
        g = gcd(*r)
        a, b = b, (_scale_down(r, g) if g != 1 else r)
    if b[-1] < 0:
        c = -c
    return b if c == 1 else tuple(c * x for x in b)


def _gcd(a: QPoly, b: QPoly) -> QPoly:
    """gcd(a, b) in Z[q] for nonzero a and b, leading coefficient > 0.

    When either side is a constant, the gcd is the integer gcd of the
    contents and `pgcd` is not needed.
    """
    if len(a) == 1 or len(b) == 1:
        return (gcd(*a, *b),)
    return pgcd(a, b)


def _cancel(a: QPoly, b: QPoly) -> tuple[QPoly, QPoly]:
    """a/g and b/g for g = gcd(a, b); g's lead is positive, so signs stay."""
    g = _gcd(a, b)
    if g == P_ONE:
        return a, b
    return _exact_quo(a, g), _exact_quo(b, g)


def _split(a: QPoly) -> tuple[QPoly, int]:
    """(m, w) with a = q^w * m and m q-free; a is nonzero."""
    w = 0
    while not a[w]:
        w += 1
    return (a[w:], w) if w else (a, 0)


def _horner(a: QPoly, u: int, w: int) -> int:
    """w^(len(a) - 1) * a(u/w), an integer."""
    acc = 0
    wk = 1
    for c in reversed(a):
        acc = acc * u + c * wk
        wk *= w
    return acc


# At numeric q, q^k is an exact rational of about |k| times the bits of q;
# a power beyond this many bits is refused instead of computed.
_MAX_QPOWER_BITS = 1 << 20
# At symbolic q, q^k is kept as its exponent; a larger |k| is refused, so
# no exponent overflows an index.
_MAX_SYMBOLIC_QPOWER = 1 << 31
# A sum of terms whose powers of q lie far apart pads the higher term's
# numerator down to the lower power; it, the numerator or denominator of a
# product, and those of a sum of fractions may span at most this many powers.
_MAX_QSPAN = 1 << 16


@dataclass(frozen=True)
class QMode:
    """Base-field instance: symbolic Q(q) (value None) or q specialized at a
    nonzero int or Fraction, stored as a Fraction."""

    value: Optional[Fraction] = None

    def __post_init__(self):
        v = self.value
        if v is None:
            return
        # a float, str or bool (an int subclass) would fail later, in arithmetic or printing
        if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
            raise InvalidSpec(f"numeric q must be an int or a Fraction, got {v!r}")
        if not v:
            raise InvalidSpec("numeric q must be nonzero")
        if isinstance(v, int):
            object.__setattr__(self, "value", Fraction(v))

    @property
    def is_symbolic(self) -> bool:
        return self.value is None

    def q_power(self, k: int) -> "QRat":
        """q^k in this field, k may be negative; InvalidSpec past the bounds above."""
        q = self.value
        if q is None:
            if abs(k) > _MAX_SYMBOLIC_QPOWER:
                raise InvalidSpec(f"q^{k} exceeds the exponent bound {_MAX_SYMBOLIC_QPOWER}")
            return QRat.q_power(k)
        bits = abs(k) * max(q.numerator.bit_length(), q.denominator.bit_length())
        if bits > _MAX_QPOWER_BITS:
            raise InvalidSpec(f"q^{k} at q = {q} exceeds {_MAX_QPOWER_BITS} bits")
        return QRat.from_rational(q**k)

    @staticmethod
    def numeric(value) -> "QMode":
        try:
            v = Fraction(value)
        except ZeroDivisionError:
            raise InvalidSpec(f"numeric q {value} has a zero denominator") from None
        return QMode(v)

    def __str__(self):
        return "symbolic" if self.value is None else str(self.value)


SYMBOLIC = QMode(None)


def _ratio(x: int, lead: int) -> Coef:
    quo, rem = divmod(x, lead)
    return Fraction(x, lead) if rem else quo


class QRat:
    """Canonical element of Q(q), stored as q^v * n/d.

    n and d are coprime in Z[q], neither is divisible by q, and
    lead(d) > 0; zero is n = (), d = (1,), v = 0.  There is no public
    constructor: values come from `from_rational`, `q_power`,
    `QMode.q_power`, arithmetic and `specialize`.  `num` and `den` read
    the value back over the rationals, with den monic.
    """

    __slots__ = ("_n", "_d", "_v")

    def __new__(cls, *args, **kwargs):
        raise TypeError("QRat has no constructor; use from_rational, q_power, arithmetic")

    def __reduce__(self):  # copy and pickle without the constructor
        return _make, (self._n, self._d, self._v)

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(v) -> "QRat":
        v = Fraction(v)
        if not v:
            return ZERO
        return _make((v.numerator,), (v.denominator,), 0)

    @staticmethod
    def q_power(k: int) -> "QRat":
        """The monomial q^k of Q(q), k may be negative."""
        return _make(P_ONE, P_ONE, k)

    # -- the view over the rationals ------------------------------------

    @property
    def num(self) -> QPoly:
        n, v = self._n, self._v
        if v > 0:
            n = (0,) * v + n
        lead = self._d[-1]
        if lead == 1:
            return n
        return tuple(_ratio(x, lead) for x in n)

    @property
    def den(self) -> QPoly:
        d, v = self._d, self._v
        if v < 0:
            d = (0,) * -v + d
        lead = d[-1]
        if lead == 1:
            return d
        return tuple(_ratio(x, lead) for x in d[:-1]) + (1,)

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self._n

    def is_one(self) -> bool:
        return self._n == P_ONE and self._d == P_ONE and not self._v

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "QRat") -> "QRat":
        a, b, v = self._n, self._d, self._v
        c, d, w = other._n, other._d, other._v
        if not a:
            return other
        if not c:
            return self
        if v != w:
            # bring both terms to the lower power of q; the sum's numerator
            # then keeps the lower term's constant term, so stays q-free
            if v > w:
                a, b, v, c, d, w = c, d, w, a, b, v
            span = w - v + len(c)
            if span > _MAX_QSPAN:
                raise DegreeGuardExceeded(
                    f"sum spans {span} powers of q, past the guard {_MAX_QSPAN}"
                )
            c = (0,) * (w - v) + c
        elif len(a) == len(b) == len(c) == len(d) == 1:
            return _rational(a[0] * d[0] + c[0] * b[0], b[0] * d[0], v)
        if b == d:
            n = padd(a, c)
            if not n:
                return ZERO
            if b != P_ONE:
                n, d = _cancel(n, b)
        else:
            # Henrici: with g = gcd(b, d), the sum is n / (b * d/g) for
            # n = a * d/g + c * b/g, and only g can share a factor with n
            g = _gcd(b, d)
            bg, dg = (b, d) if g == P_ONE else (_exact_quo(b, g), _exact_quo(d, g))
            span = max(len(a) + len(dg), len(c) + len(bg), len(b) + len(dg)) - 1
            if span > _MAX_QSPAN:
                raise DegreeGuardExceeded(
                    f"sum spans {span} powers of q, past the guard {_MAX_QSPAN}"
                )
            n = padd(pmul(a, dg), pmul(c, bg))
            if g != P_ONE:
                h = _gcd(n, g)
                if h != P_ONE:
                    n, b = _exact_quo(n, h), _exact_quo(b, h)
            d = pmul(b, dg)
        if not n[0]:
            # equal powers of q whose constant terms cancelled
            n, k = _split(n)
            v += k
        return _make(n, d, v)

    def __sub__(self, other: "QRat") -> "QRat":
        return self + (-other)

    def __neg__(self) -> "QRat":
        return _make(pneg(self._n), self._d, self._v)

    def __mul__(self, other: "QRat") -> "QRat":
        a, b = self._n, self._d
        c, d = other._n, other._d
        if not a or not c:
            return ZERO
        v = self._v + other._v
        # a factor +-q^k (lambda = q^k, a negated division coefficient)
        # only moves the power and perhaps the sign of the other one
        if b == P_ONE and (a == P_ONE or a == P_MINUS_ONE):
            return _make(c if a == P_ONE else pneg(c), d, v)
        if d == P_ONE and (c == P_ONE or c == P_MINUS_ONE):
            return _make(a if c == P_ONE else pneg(a), b, v)
        if len(a) == len(b) == len(c) == len(d) == 1:
            return _rational(a[0] * c[0], b[0] * d[0], v)
        # a/b and c/d are reduced, so only a, d and c, b can share factors
        if d != P_ONE:
            a, d = _cancel(a, d)
        if b != P_ONE:
            c, b = _cancel(c, b)
        span = max(len(a) + len(c), len(b) + len(d)) - 1
        if span > _MAX_QSPAN:
            raise DegreeGuardExceeded(
                f"product spans {span} powers of q, past the guard {_MAX_QSPAN}"
            )
        return _make(pmul(a, c), pmul(b, d), v)

    def __truediv__(self, other: "QRat") -> "QRat":
        return self * other.inv()

    def inv(self) -> "QRat":
        n, d = self._n, self._d
        if not n:
            raise DivisionByZero("inversion of zero in Q(q)")
        if n[-1] < 0:
            return _make(pneg(d), pneg(n), -self._v)
        return _make(d, n, -self._v)

    def specialize(self, mode: QMode) -> "QRat":
        """Evaluate at mode's rational q; identity in symbolic mode."""
        if mode.is_symbolic:
            return self
        u, w = mode.value.numerator, mode.value.denominator
        n, d, v = self._n, self._d, self._v
        hd = _horner(d, u, w)
        if not hd:
            raise EvaluationPole(f"denominator vanishes at q = {mode.value}")
        if not n:
            return ZERO
        # (u/w)^v * n(u/w) / d(u/w) = u^v * hn * w^(deg(d) - deg(n) - v) / hd
        hn = _horner(n, u, w)
        if v > 0:
            hn *= u**v
        elif v < 0:
            hd *= u**-v
        shift = len(d) - len(n) - v
        if shift > 0:
            hn *= w**shift
        elif shift < 0:
            hd *= w**-shift
        return _rational(hn, hd, 0)

    # -- comparisons / hashing ----------------------------------------

    def __eq__(self, other):
        if not isinstance(other, QRat):
            return NotImplemented
        return self._n == other._n and self._d == other._d and self._v == other._v

    def __hash__(self):
        return hash((self._n, self._d, self._v))

    def sign(self) -> int:
        """Sign of the leading numerator coefficient (lead(d) > 0)."""
        if not self._n:
            return 0
        return 1 if self._n[-1] > 0 else -1

    def __repr__(self):
        return f"QRat({self})"

    def __str__(self):
        return format_qrat(self)


_new = object.__new__


def _make(n: QPoly, d: QPoly, v: int) -> QRat:
    """A QRat from parts already in canonical form."""
    r = _new(QRat)
    r._n = n
    r._d = d
    r._v = v
    return r


def _rational(n: int, d: int, v: int) -> QRat:
    """q^v * n/d for integers n and d, d nonzero."""
    if not n:
        return ZERO
    if d == 1:
        return _make((n,), P_ONE, v)
    g = gcd(n, d)
    if d < 0:
        g = -g
    return _make((n // g,), (d // g,), v)


ZERO = _make(P_ZERO, P_ONE, 0)
ONE = _make(P_ONE, P_ONE, 0)
Q = _make(P_ONE, P_ONE, 1)
Q_INV = _make(P_ONE, P_ONE, -1)


# -- text -----------------------------------------------------------------

# str(int) refuses integers of more than 4,300 digits unless the
# interpreter-wide limit is raised; below this bound it is always safe
_STR_BOUND = 10**4000


def _decimal(n: int) -> str:
    """Decimal text of an integer n >= 0 of any length.

    A long n is split by divmod with a power of ten into halves that are
    rendered the same way, so no single conversion passes the limit.
    """
    if n < _STR_BOUND:
        return str(n)
    k = n.bit_length() * 3 // 20  # about half of n's digits
    hi, lo = divmod(n, 10**k)
    return _decimal(hi) + _decimal(lo).rjust(k, "0")


def _fmt_qpoly(p: QPoly, shift: int, lead: int) -> tuple[str, int]:
    """Render q^shift * p / lead, highest power first; returns (text, #terms).

    p is a nonzero polynomial of integers; a coefficient that lead does
    not divide prints as a reduced fraction.  The shift is added to the
    printed exponents, so q^k is never padded out to a tuple of length k.
    """
    pieces = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if not c:
            continue
        neg = c < 0
        a = -c if neg else c
        if lead != 1:
            a = _ratio(a, lead)
        if isinstance(a, Fraction):
            text = f"{_decimal(a.numerator)}/{_decimal(a.denominator)}"
        else:
            text = _decimal(a)
        k += shift
        if k == 0:
            body = text
        else:
            qs = "q" if k == 1 else f"q^{k}"
            body = qs if a == 1 else f"{text}*{qs}"
        if not pieces:
            pieces.append(("-" if neg else "") + body)
        else:
            pieces.append((" - " if neg else " + ") + body)
    return "".join(pieces), len(pieces)


def _qrat_core(a: QRat) -> tuple[bool, str, bool]:
    """(a < 0, text of |a|, whether that text needs parens before '*') for
    a nonzero a.

    Renders the stored q^v * n/d as num/den over the rationals, with den
    monic and the power of q on whichever side keeps both polynomials:
    the text of ``a.num`` and ``a.den`` without building their padding.
    """
    n, d, v = a._n, a._d, a._v
    neg = n[-1] < 0
    lead = d[-1]
    num_s, num_terms = _fmt_qpoly(pneg(n) if neg else n, max(v, 0), lead)
    if len(d) == 1 and v >= 0:
        return neg, num_s, num_terms > 1
    den_s, den_terms = _fmt_qpoly(d, max(-v, 0), lead)
    nm = f"({num_s})" if num_terms > 1 else num_s
    dn = f"({den_s})" if den_terms > 1 else den_s
    return neg, f"{nm}/{dn}", False


def format_qrat(c: QRat) -> str:
    """Standalone coefficient text, e.g. '-(q^2 - 1)/q'."""
    if c.is_zero():
        return "0"
    neg, core, _ = _qrat_core(c)
    return ("-" + core) if neg else core


def format_factor(c: QRat) -> tuple[bool, str]:
    """(c < 0, text of |c| safe to follow with '*...') for a nonzero c.

    |c| = 1 prints as '1'; a numerator of several terms over no
    denominator is parenthesized, e.g. (True, '(q + 1)') for -q - 1.
    """
    neg, core, needs_parens = _qrat_core(c)
    return neg, (f"({core})" if needs_parens else core)
