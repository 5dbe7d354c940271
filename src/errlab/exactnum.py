"""Exact scalars: Gaussian rationals and affine forms in two series constants.

A ``ConstLinear`` value means ``c1 + cA2*A2 + cA1*A1`` where ``A2`` and ``A1``
stand for the sums of a(n)/n^2 and a(n)/n of an ambient arithmetical sequence.
Both constants are kept symbolic, so "this identity holds" becomes a decidable
coefficient comparison: the value is zero exactly when all three coefficients
vanish.  The basis {1, A2, A1} is closed under addition and scalar
multiplication but not under general products, and mixed products are a hard
error rather than a silent approximation.
"""

from __future__ import annotations

import numbers
import re
from fractions import Fraction
from typing import Union

from .errors import FormatError

__all__ = [
    "GaussianRational",
    "ConstLinear",
    "as_gaussian",
    "parse_rational",
]

_RAT = r"[+-]?\d+(?:/\d+)?"
_GAUSS_RE = re.compile(rf"^({_RAT})$|^({_RAT})\+({_RAT})\*i$")

Scalar = Union[int, Fraction, "GaussianRational"]


def parse_rational(text: str) -> Fraction:
    """Parse ``p``, ``p/q`` or a plain decimal string into an exact Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"not a rational number: {text!r}") from exc


def _frac(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass int, Fraction or a p/q string")
    if isinstance(value, numbers.Integral):
        return Fraction(int(value))
    return Fraction(value)


class GaussianRational:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _frac(re)
        self.im = _frac(im)

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def abs2(self) -> Fraction:
        """|z|^2 as an exact rational."""
        return self.re * self.re + self.im * self.im

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        other = as_gaussian(other, strict=False)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __add__(self, other):
        other = as_gaussian(other, strict=False)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = as_gaussian(other, strict=False)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = as_gaussian(other, strict=False)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = as_gaussian(other, strict=False)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_gaussian(other, strict=False)
        if other is None:
            return NotImplemented
        d = other.abs2()
        if not d:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        other = as_gaussian(other, strict=False)
        if other is None:
            return NotImplemented
        return other / self

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def to_text(self) -> str:
        """Canonical form ``p/q`` or ``p/q+r/s*i``."""
        real = f"{self.re.numerator}/{self.re.denominator}"
        if not self.im:
            return real
        return f"{real}+{self.im.numerator}/{self.im.denominator}*i"

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


def as_gaussian(value, strict: bool = True):
    """Coerce int/Fraction/GaussianRational to GaussianRational.

    With ``strict=False`` returns None on unsupported types (operator protocol).
    """
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction, numbers.Integral)):
        return GaussianRational(value)
    if strict:
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")
    return None


_ZERO = GaussianRational(0)


class ConstLinear:
    """Affine form ``c1 + cA2*A2 + cA1*A1`` over Gaussian rationals."""

    __slots__ = ("c1", "cA2", "cA1")

    def __init__(self, c1=0, cA2=0, cA1=0):
        self.c1 = as_gaussian(c1)
        self.cA2 = as_gaussian(cA2)
        self.cA1 = as_gaussian(cA1)

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

    def is_zero(self) -> bool:
        return self.c1.is_zero() and self.cA2.is_zero() and self.cA1.is_zero()

    def is_scalar(self) -> bool:
        """True when the symbolic coefficients vanish."""
        return self.cA2.is_zero() and self.cA1.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConstLinear):
            return NotImplemented
        return self.c1 == other.c1 and self.cA2 == other.cA2 and self.cA1 == other.cA1

    def __hash__(self):
        return hash((self.c1, self.cA2, self.cA1))

    def __neg__(self) -> "ConstLinear":
        return ConstLinear(-self.c1, -self.cA2, -self.cA1)

    def __add__(self, other):
        if not isinstance(other, ConstLinear):
            return NotImplemented
        return ConstLinear(self.c1 + other.c1, self.cA2 + other.cA2, self.cA1 + other.cA1)

    def __sub__(self, other):
        if not isinstance(other, ConstLinear):
            return NotImplemented
        return ConstLinear(self.c1 - other.c1, self.cA2 - other.cA2, self.cA1 - other.cA1)

    def __mul__(self, other):
        if isinstance(other, ConstLinear):
            # The basis is not closed under multiplication; only a pure scalar
            # factor is meaningful.
            if other.is_scalar():
                other = other.c1
            elif self.is_scalar():
                self, other = other, self.c1
            else:
                raise ValueError("product of two symbolic ConstLinear values is not "
                                 "representable in the basis {1, A2, A1}")
        g = as_gaussian(other, strict=False)
        if g is None:
            return NotImplemented
        return ConstLinear(self.c1 * g, self.cA2 * g, self.cA1 * g)

    __rmul__ = __mul__

    def __truediv__(self, other):
        g = as_gaussian(other, strict=False)
        if g is None:
            return NotImplemented
        return ConstLinear(self.c1 / g, self.cA2 / g, self.cA1 / g)

    def numeric(self, a2: complex, a1: complex) -> complex:
        """Float image under numeric values of the constants.

        Evaluation order is fixed: c1, then the A2 term, then the A1 term.
        """
        return complex(self.c1) + complex(self.cA2) * a2 + complex(self.cA1) * a1

    def to_text(self) -> str:
        return f"{self.c1.to_text()} + {self.cA2.to_text()}*A2 + {self.cA1.to_text()}*A1"

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
