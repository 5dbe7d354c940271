"""Shared brute-force oracles, all independent of the library's fast paths:
they add and multiply (re, im) pairs of Fractions, never an errlab scalar."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from errlab.exactnum import ConstLinear, GaussianRational


def mobius_oracle(n: int) -> int:
    """mu(n) by trial factorization."""
    if n == 1:
        return 1
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def mobius_per_prime_sieve(n: int) -> np.ndarray:
    """mu(0..n) as int64 (index 0 is 0), sieving with every prime p <= n:
    flip the sign of the multiples of p, zero the multiples of p^2."""
    prime = np.ones(n + 1, dtype=bool)
    prime[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if prime[p]:
            prime[p * p::p] = False
    mu = np.ones(n + 1, dtype=np.int64)
    mu[0] = 0
    for p in np.flatnonzero(prime).tolist():
        mu[p::p] *= -1
        mu[p * p::p * p] = 0
    return mu


def totient_oracle(n: int) -> int:
    """phi(n) by counting gcds."""
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def gaussian(value) -> GaussianRational:
    """An exact scalar (see _ref_pair) as a GaussianRational."""
    return GaussianRational(*_ref_pair(value))


def weighted_sum(terms) -> GaussianRational:
    """sum value * weight over the (value, weight) pairs of terms, on (re, im)
    Fraction pairs; a value is any exact scalar _ref_pair reads."""
    re = im = Fraction(0)
    for value, weight in terms:
        p, q = _ref_pair(value)
        re += p * weight
        im += q * weight
    return GaussianRational(re, im)


def unit_divisor_sum_oracle(a, n: int) -> GaussianRational:
    """sum_{d|n} a(d) by trial division of n."""
    return weighted_sum((a.value(d), 1) for d in range(1, n + 1) if n % d == 0)


def divisor_sum_oracle(a, n: int) -> GaussianRational:
    """sum_{d|n} a(d) * (n/d) by trial division of n."""
    return weighted_sum((a.value(d), n // d) for d in range(1, n + 1) if n % d == 0)


def floor_identity_oracle(a, x) -> GaussianRational:
    """sum_{d<=x} a(d) * m(m+1)/2 with m = floor(x/d), one term per d."""
    x = Fraction(x)
    return weighted_sum((a.value(d), Fraction(m * (m + 1), 2))
                        for d in range(1, math.floor(x) + 1) for m in [math.floor(x / d)])


def quadratic_residue_character(q: int):
    """The Legendre symbol table mod an odd prime q, by squaring residues."""
    squares = {(x * x) % q for x in range(1, q)}
    return tuple(0 if r % q == 0 else (1 if r in squares else -1) for r in range(q))


def frac_part(x: Fraction) -> Fraction:
    return x - math.floor(x)


def sawtooth_oracle(x: Fraction) -> Fraction:
    x = Fraction(x)
    return Fraction(0) if x.denominator == 1 else Fraction(1, 2) - frac_part(x)


def fracpart_series_finite(a, x: Fraction) -> GaussianRational:
    """The finite part -sum_{n<=x} (a(n)/n) {x/n}, exact."""
    x = Fraction(x)
    return weighted_sum((a.value(n), -frac_part(x / n) / n)
                        for n in range(1, math.floor(x) + 1))


def partial_quadratic_sum(a, m: int) -> GaussianRational:
    """sum_{n<=m} a(n)/n^2, exact."""
    return weighted_sum((a.value(n), Fraction(1, n * n)) for n in range(1, m + 1))


def _ref_pair(value):
    """(re, im) Fractions of an int, a Fraction, a GaussianRational or a
    ConstLinear scalar (a form with no A2 or A1 part), read off its c1 view."""
    if isinstance(value, ConstLinear) and value.is_scalar():
        value = value.c1
    if isinstance(value, GaussianRational):
        return value.re, value.im
    if isinstance(value, (int, Fraction)):
        return Fraction(value), Fraction(0)
    raise TypeError(f"not an exact scalar: {value!r}")


def _ref_rat_text(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


class RefConstLinear:
    """The affine form c1 + cA2*A2 + cA1*A1 kept as three (re, im) pairs of
    Fractions, every operation done coefficient by coefficient: the
    semantics ConstLinear must reproduce."""

    __slots__ = ("c",)

    def __init__(self, c1=0, cA2=0, cA1=0):
        self.c = tuple(_ref_pair(v) for v in (c1, cA2, cA1))

    @classmethod
    def _of(cls, pairs):
        v = cls.__new__(cls)
        v.c = tuple(pairs)
        return v

    def is_zero(self):
        return all(not re and not im for re, im in self.c)

    def is_scalar(self):
        return all(not re and not im for re, im in self.c[1:])

    def __eq__(self, other):
        if not isinstance(other, RefConstLinear):
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash(self.c)

    def __neg__(self):
        return self._of((-re, -im) for re, im in self.c)

    @classmethod
    def _summand(cls, other):
        """A form as it is and an int or a Fraction as a scalar form; None
        for other types."""
        if isinstance(other, RefConstLinear):
            return other
        if isinstance(other, (int, Fraction)):
            return cls(other)
        return None

    def __add__(self, other):
        other = self._summand(other)
        if other is None:
            return NotImplemented
        return self._of((a + c, b + d) for (a, b), (c, d) in zip(self.c, other.c))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._summand(other)
        if other is None:
            return NotImplemented
        return self._of((a - c, b - d) for (a, b), (c, d) in zip(self.c, other.c))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, RefConstLinear):
            if other.is_scalar():
                p, q = other.c[0]
            elif self.is_scalar():
                self, (p, q) = other, self.c[0]
            else:
                raise ValueError("product of two symbolic forms")
        else:
            try:
                p, q = _ref_pair(other)
            except TypeError:
                return NotImplemented
        return self._of((a * p - b * q, a * q + b * p) for a, b in self.c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        try:
            p, q = _ref_pair(other)
        except TypeError:
            return NotImplemented
        m = p * p + q * q
        if not m:
            raise ZeroDivisionError("division by zero")
        return self._of(((a * p + b * q) / m, (b * p - a * q) / m) for a, b in self.c)

    def numeric(self, a2, a1):
        c1, c2, c3 = (complex(float(re), float(im)) for re, im in self.c)
        return c1 + c2 * a2 + c3 * a1

    def to_text(self):
        texts = []
        for re, im in self.c:
            t = _ref_rat_text(re)
            texts.append(f"{t}+{_ref_rat_text(im)}*i" if im else t)
        return f"{texts[0]} + {texts[1]}*A2 + {texts[2]}*A1"


def mixed_file_values(n: int = 36) -> list:
    """a(1..n) for a file that holds ints, Fractions and Gaussian rationals
    side by side, each of modulus at most 2: an int at k = 1 mod 3, a
    Fraction at k = 2 mod 3 and a value off the real axis at k = 0 mod 3."""
    vals = []
    for k in range(1, n + 1):
        j = k // 3
        if k % 3 == 1:
            vals.append(j % 5 - 2)
        elif k % 3 == 2:
            vals.append(Fraction(j % 7 - 3, j % 4 + 2))
        else:
            vals.append(GaussianRational(Fraction((-1) ** j, k), Fraction(1, j % 5 + 2)))
    return vals


def mixed_file_text(n: int = 36) -> str:
    """The ``n,value`` CSV of mixed_file_values(n), each value written as a
    user would: ``p``, ``p/q`` or ``p/q+r/s*i``."""
    def text(v):
        if isinstance(v, GaussianRational):
            return f"{v.re}+{v.im}*i"
        return str(v)
    return "n,value\n" + "".join(f"{k},{text(v)}\n"
                                 for k, v in enumerate(mixed_file_values(n), start=1))
