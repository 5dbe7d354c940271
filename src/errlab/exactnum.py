"""Exact scalars: affine forms in two series constants, and Gaussian rationals.

``ConstLinear`` does every exact sum and product.  ``GaussianRational`` is a
value type with no arithmetic; ``ConstLinear(z)`` turns it into a form.  A
``ConstLinear`` value means ``c1 + cA2*A2 + cA1*A1`` where ``A2`` and ``A1``
stand for the sums of a(n)/n^2 and a(n)/n of an ambient arithmetical sequence.
Both constants are kept symbolic, so "this identity holds" becomes a decidable
coefficient comparison: the value is zero exactly when all three coefficients
vanish.  The basis {1, A2, A1} is closed under addition and scalar
multiplication but not under general products, and mixed products are a hard
error rather than a silent approximation.

A form is stored flat and in lowest terms: the six integer numerators of the
real and imaginary parts of ``c1``, ``cA2`` and ``cA1`` over one shared
positive denominator that no prime divides together with all six, so equal
forms are stored identically.  Every operation keeps that invariant.  A sum
over equal denominators, and a product by a complex scalar, is divided
through by the gcd of the seven integers.  For a sum over unequal
denominators and a product by a rational, the operands' invariant confines
the common factor to the gcd of the two denominators or to the scalar, so
it is found by gcds with those small numbers alone.  The coefficients are
reduced one by one only where they are observed: ``hash``, ``to_text`` and
the ``c1``/``cA2``/``cA1`` views.
"""

from __future__ import annotations

import numbers
import re
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm

from .errors import FormatError

__all__ = [
    "GaussianRational",
    "ConstLinear",
    "parse_rational",
]

_RAT = r"[+-]?\d+(?:/\d+)?"
_GAUSS_RE = re.compile(rf"^({_RAT})$|^({_RAT})\+({_RAT})\*i$")

_new = object.__new__


# Python's int() refuses a string past sys.get_int_max_str_digits() digits
# (4,300 by default), which guards against the quadratic time of converting
# a huge outside string.  errlab's own dumps hold lcm(1..X) denominators of
# about 0.43 X digits, past that limit from X of about 9,900 on, so
# parse_rational reads a longer integer in pieces of _DIGIT_CHUNK digits (the
# least limit Python accepts) up to a bound of its own, more than twice the
# 43,430 digits of lcm(1..10^5); 10^5 digits take about 0.2 s.
_MAX_DIGITS = 100_000
_DIGIT_CHUNK = 640
_LONG_RATIONAL_RE = re.compile(r"([+-]?)(\d+)(?:/(\d+))?")


def _read_digits(digits: str) -> int:
    """int(digits) of a string of decimal digits, read _DIGIT_CHUNK at a time."""
    value = 0
    for i in range(0, len(digits), _DIGIT_CHUNK):
        chunk = digits[i:i + _DIGIT_CHUNK]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def parse_rational(text: str) -> Fraction:
    """Parse ``p``, ``p/q`` or a plain decimal string into an exact Fraction.

    ``p`` and ``q`` may have up to _MAX_DIGITS digits each; a longer one
    raises FormatError."""
    text = text.strip()
    m = _LONG_RATIONAL_RE.fullmatch(text) if len(text) > _DIGIT_CHUNK else None
    if m is not None:
        sign, p, q = m.groups()
        longest = max(len(p), len(q or ""))
        if longest > _MAX_DIGITS:
            raise FormatError(f"an integer of {longest} digits, more than the "
                              f"{_MAX_DIGITS} errlab reads")
        num, den = _read_digits(p), _read_digits(q) if q else 1
        if den:
            return Fraction(-num if sign == "-" else num, den)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"not a rational number: {text!r}") from exc


def _frac(value) -> Fraction:
    t = type(value)
    if t is Fraction:
        return value
    if t is int:
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass int, Fraction or a p/q string")
    if isinstance(value, numbers.Integral):
        return Fraction(int(value))
    return Fraction(value)


def _gauss(re: Fraction, im: Fraction) -> "GaussianRational":
    """A GaussianRational from two Fractions, without coercion."""
    z = _new(GaussianRational)
    z.re = re
    z.im = im
    return z


class GaussianRational:
    """A complex number with exact rational parts; a value with no arithmetic."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _frac(re)
        self.im = _frac(im)

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (Fraction, numbers.Integral)):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def to_text(self) -> str:
        """Canonical form ``p/q`` or ``p/q+r/s*i``."""
        try:
            return self._text(str)
        except ValueError:
            # an int past sys.get_int_max_str_digits(), the most digits str()
            # writes; a Decimal writes all of them
            return self._text(Decimal)

    def _text(self, digits) -> str:
        re, im = self.re, self.im
        real = f"{digits(re.numerator)}/{digits(re.denominator)}"
        if not im:
            return real
        return f"{real}+{digits(im.numerator)}/{digits(im.denominator)}*i"

    @classmethod
    def from_text(cls, text: str) -> "GaussianRational":
        m = _GAUSS_RE.match(text.strip())
        if not m:
            raise FormatError(f"not a Gaussian rational: {text!r}")
        if m.group(1) is not None:
            return cls(parse_rational(m.group(1)))
        return cls(parse_rational(m.group(2)), parse_rational(m.group(3)))

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"GaussianRational('{self.to_text()}')"


def _scalar_parts(value):
    """``(re, im, den)``, den > 0 and in lowest terms with re and im, of an
    int, a Fraction or a ConstLinear scalar; None for other types."""
    t = type(value)
    if t is Fraction:
        return value.numerator, 0, value.denominator
    if t is int:
        return value, 0, 1
    if t is ConstLinear:
        if not value.is_scalar():
            raise ValueError("a symbolic ConstLinear value is not a scalar")
        return value._n[0], value._n[1], value._d
    if isinstance(value, (numbers.Integral, Fraction)):
        value = Fraction(value)
        return value.numerator, 0, value.denominator
    return None


def _form(n: tuple, d: int) -> "ConstLinear":
    """The form with numerators ``n`` over the positive ``d``, which must
    already be in lowest terms."""
    v = _new(ConstLinear)
    v._n = n
    v._d = d
    return v


def _reduced(n0, n1, n2, n3, n4, n5, d) -> "ConstLinear":
    """The form (n0, .., n5)/d divided through by the gcd of all seven ints."""
    g = gcd(d, n0, n1, n2, n3, n4, n5)
    if g == 1:
        return _form((n0, n1, n2, n3, n4, n5), d)
    return _form((n0 // g, n1 // g, n2 // g, n3 // g, n4 // g, n5 // g), d // g)


def _joined(n0, n1, n2, n3, n4, n5, d, g) -> "ConstLinear":
    """A sum of two forms over d, the lcm of their denominators, whose gcd is g.

    Both terms are in lowest terms.  A prime that divides one denominator to
    a higher power than the other cannot divide every numerator of the sum:
    modulo that prime they are the numerators of the term with the higher
    power times a unit.  So the common factor of the sum divides g.
    """
    if g != 1:
        g = gcd(g, n0, n1, n2, n3, n4, n5)
        if g != 1:
            n0, n1, n2, n3, n4, n5 = n0 // g, n1 // g, n2 // g, n3 // g, n4 // g, n5 // g
            d //= g
    return _form((n0, n1, n2, n3, n4, n5), d)


class ConstLinear:
    """Affine form ``c1 + cA2*A2 + cA1*A1`` over Gaussian rationals.

    ``_n`` holds the numerators (re c1, im c1, re cA2, im cA2, re cA1, im cA1)
    and ``_d`` their shared positive denominator, with gcd(_d, *_n) == 1.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, c1=0, cA2=0, cA1=0):
        """Each coefficient is an int, a Fraction, a GaussianRational or a scalar form."""
        # every coefficient is reduced, so the lcm of their denominators is
        # in lowest terms with the scaled numerators
        if type(c1) is int and type(cA2) is int and type(cA1) is int:
            self._n = (c1, 0, cA2, 0, cA1, 0)
            self._d = 1
            return
        parts = []
        for c in (c1, cA2, cA1):
            if isinstance(c, GaussianRational):
                re, im = c.re, c.im
                s = lcm(re.denominator, im.denominator)
                c = re.numerator * (s // re.denominator), im.numerator * (s // im.denominator), s
            else:
                c = _scalar_parts(c)
                if c is None:
                    raise TypeError("a coefficient must be an exact scalar")
            parts.append(c)
        (p0, q0, s0), (p1, q1, s1), (p2, q2, s2) = parts
        d = lcm(s0, s1, s2)
        f0, f1, f2 = d // s0, d // s1, d // s2
        self._n = (p0 * f0, q0 * f0, p1 * f1, q1 * f1, p2 * f2, q2 * f2)
        self._d = d

    @classmethod
    def scalar(cls, value) -> "ConstLinear":
        return cls(value, 0, 0)

    @classmethod
    def a2(cls, coeff=1) -> "ConstLinear":
        return cls(0, coeff, 0)

    @classmethod
    def a1(cls, coeff=1) -> "ConstLinear":
        return cls(0, 0, coeff)

    @classmethod
    def zero(cls) -> "ConstLinear":
        return cls()

    # -- reduced views ------------------------------------------------------

    def _coeff(self, i: int) -> GaussianRational:
        d = self._d
        return _gauss(Fraction(self._n[i], d), Fraction(self._n[i + 1], d))

    @property
    def c1(self) -> GaussianRational:
        return self._coeff(0)

    @property
    def cA2(self) -> GaussianRational:
        return self._coeff(2)

    @property
    def cA1(self) -> GaussianRational:
        return self._coeff(4)

    def is_zero(self) -> bool:
        return not any(self._n)

    def is_scalar(self) -> bool:
        """True when the symbolic coefficients vanish."""
        _, _, n2, n3, n4, n5 = self._n
        return not (n2 or n3 or n4 or n5)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConstLinear):
            return NotImplemented
        return self._d == other._d and self._n == other._n

    def __hash__(self):
        return hash((self.c1, self.cA2, self.cA1))

    # -- arithmetic ---------------------------------------------------------

    def __neg__(self) -> "ConstLinear":
        n0, n1, n2, n3, n4, n5 = self._n
        return _form((-n0, -n1, -n2, -n3, -n4, -n5), self._d)

    def __add__(self, other):
        if not isinstance(other, ConstLinear):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = ConstLinear(other)
        a0, a1, a2, a3, a4, a5 = self._n
        b0, b1, b2, b3, b4, b5 = other._n
        d, e = self._d, other._d
        if d == e:
            return _reduced(a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4, a5 + b5, d)
        g = gcd(d, e)
        fa, fb = e // g, d // g
        return _joined(a0 * fa + b0 * fb, a1 * fa + b1 * fb, a2 * fa + b2 * fb,
                       a3 * fa + b3 * fb, a4 * fa + b4 * fb, a5 * fa + b5 * fb, d * fa, g)

    def __sub__(self, other):
        if not isinstance(other, ConstLinear):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = ConstLinear(other)
        a0, a1, a2, a3, a4, a5 = self._n
        b0, b1, b2, b3, b4, b5 = other._n
        d, e = self._d, other._d
        if d == e:
            return _reduced(a0 - b0, a1 - b1, a2 - b2, a3 - b3, a4 - b4, a5 - b5, d)
        g = gcd(d, e)
        fa, fb = e // g, d // g
        return _joined(a0 * fa - b0 * fb, a1 * fa - b1 * fb, a2 * fa - b2 * fb,
                       a3 * fa - b3 * fb, a4 * fa - b4 * fb, a5 * fa - b5 * fb, d * fa, g)

    __radd__ = __add__

    def __rsub__(self, other):
        return -self + other

    def _scaled(self, p: int, s: int) -> "ConstLinear":
        """The form times p/s, with s > 0 and gcd(p, s) == 1."""
        if not p:
            return _form((0, 0, 0, 0, 0, 0), 1)
        n0, n1, n2, n3, n4, n5 = self._n
        d = self._d
        # d is coprime to the numerators taken together and p to s, so the
        # common factor of the product is gcd(p, d) * gcd(s, numerators)
        g = gcd(s, n0, n1, n2, n3, n4, n5)
        if g != 1:
            n0, n1, n2, n3, n4, n5 = n0 // g, n1 // g, n2 // g, n3 // g, n4 // g, n5 // g
            s //= g
        g = gcd(p, d)
        if g != 1:
            p //= g
            d //= g
        return _form((n0 * p, n1 * p, n2 * p, n3 * p, n4 * p, n5 * p), d * s)

    def _times(self, p: int, q: int, s: int) -> "ConstLinear":
        """The form times (p + q i)/s, with s > 0."""
        n0, n1, n2, n3, n4, n5 = self._n
        return _reduced(n0 * p - n1 * q, n0 * q + n1 * p, n2 * p - n3 * q,
                        n2 * q + n3 * p, n4 * p - n5 * q, n4 * q + n5 * p, self._d * s)

    def __mul__(self, other):
        t = type(other)
        if t is Fraction:
            return self._scaled(other.numerator, other.denominator)
        if t is int:
            return self._scaled(other, 1)
        if isinstance(other, ConstLinear) and not other.is_scalar():
            # The basis is not closed under multiplication; only a pure scalar
            # factor is meaningful.
            if not self.is_scalar():
                raise ValueError("product of two symbolic ConstLinear values is not "
                                 "representable in the basis {1, A2, A1}")
            self, other = other, self
        parts = _scalar_parts(other)
        if parts is None:
            return NotImplemented
        p, q, s = parts
        if not q:
            # a real scalar in lowest terms has gcd(p, s) == 1
            return self._scaled(p, s)
        return self._times(p, q, s)

    __rmul__ = __mul__

    def __truediv__(self, other):
        parts = _scalar_parts(other)
        if parts is None:
            return NotImplemented
        p, q, s = parts
        if not q:
            if not p:
                raise ZeroDivisionError("division by a zero scalar")
            return self._scaled(s, p) if p > 0 else self._scaled(-s, -p)
        return self._times(p * s, -q * s, p * p + q * q)

    # -- observation --------------------------------------------------------

    def numeric(self, a2: complex, a1: complex) -> complex:
        """Float image under numeric values of the constants.

        Evaluation order is fixed: c1, then the A2 term, then the A1 term.
        Each part is int / int, correctly rounded like float(Fraction).
        """
        n0, n1, n2, n3, n4, n5 = self._n
        d = self._d
        return (complex(n0 / d, n1 / d) + complex(n2 / d, n3 / d) * a2
                + complex(n4 / d, n5 / d) * a1)

    def to_text(self) -> str:
        if self._d == 1 and not any(self._n):
            # the zero form, most of the residuals a verify writes
            return "0/1 + 0/1*A2 + 0/1*A1"
        try:
            return self._text(str)
        except ValueError:   # as in GaussianRational.to_text
            return self._text(Decimal)

    def _text(self, digits) -> str:
        n0, n1, n2, n3, n4, n5 = self._n
        d = self._d
        # every part but re c1 is reduced on its own (0 gives 0/1) ...
        g2, g4 = gcd(n2, d), gcd(n4, d)
        q2, q4 = d // g2, d // g4
        rest = lcm(q2, q4)
        ims = ("", "", "")
        if n1 or n3 or n5:
            ims = []
            for n in (n1, n3, n5):
                g = gcd(n, d)
                rest = lcm(rest, d // g)
                ims.append(f"+{digits(n // g)}/{digits(d // g)}*i" if n else "")
        # ... and in lowest terms d is the lcm of the six reduced denominators,
        # so the factor that re c1 cancels divides rest, the lcm of the others
        g = gcd(rest, n0)
        re1 = (f"{digits(n0)}/{digits(d)}" if g == 1
               else f"{digits(n0 // g)}/{digits(d // g)}")
        return (f"{re1}{ims[0]} + {digits(n2 // g2)}/{digits(q2)}{ims[1]}*A2 + "
                f"{digits(n4 // g4)}/{digits(q4)}{ims[2]}*A1")

    @classmethod
    def from_text(cls, text: str) -> "ConstLinear":
        parts = text.strip().split(" + ")
        if len(parts) != 3 or not parts[1].endswith("*A2") or not parts[2].endswith("*A1"):
            raise FormatError(f"not a ConstLinear value: {text!r}")
        return cls(
            GaussianRational.from_text(parts[0]),
            GaussianRational.from_text(parts[1][:-3]),
            GaussianRational.from_text(parts[2][:-3]),
        )

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"ConstLinear('{self.to_text()}')"
