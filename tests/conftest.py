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
