"""Shared brute-force oracles, all independent of the library's fast paths."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from errlab.exactnum import GaussianRational, as_gaussian


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


def unit_divisor_sum_oracle(a, n: int) -> GaussianRational:
    """sum_{d|n} a(d) by trial division of n."""
    total = GaussianRational(0)
    for d in range(1, n + 1):
        if n % d == 0:
            total = total + as_gaussian(a.value(d))
    return total


def divisor_sum_oracle(a, n: int) -> GaussianRational:
    """sum_{d|n} a(d) * (n/d) by trial division of n."""
    total = GaussianRational(0)
    for d in range(1, n + 1):
        if n % d == 0:
            total = total + as_gaussian(a.value(d)) * (n // d)
    return total


def floor_identity_oracle(a, x) -> GaussianRational:
    """sum_{d<=x} a(d) * m(m+1)/2 with m = floor(x/d), one term per d."""
    x = Fraction(x)
    total = GaussianRational(0)
    for d in range(1, math.floor(x) + 1):
        m = math.floor(x / d)
        total = total + as_gaussian(a.value(d)) * Fraction(m * (m + 1), 2)
    return total


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
    total = GaussianRational(0)
    for n in range(1, math.floor(x) + 1):
        total = total - as_gaussian(a.value(n)) * frac_part(x / n) / n
    return total


def partial_quadratic_sum(a, m: int) -> GaussianRational:
    """sum_{n<=m} a(n)/n^2, exact."""
    total = GaussianRational(0)
    for n in range(1, m + 1):
        total = total + as_gaussian(a.value(n)) / (n * n)
    return total


def _ref_pair(value):
    """(re, im) Fractions of an int, Fraction or GaussianRational."""
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

    def __add__(self, other):
        if not isinstance(other, RefConstLinear):
            return NotImplemented
        return self._of((a + c, b + d) for (a, b), (c, d) in zip(self.c, other.c))

    def __sub__(self, other):
        if not isinstance(other, RefConstLinear):
            return NotImplemented
        return self._of((a - c, b - d) for (a, b), (c, d) in zip(self.c, other.c))

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
