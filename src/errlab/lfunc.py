"""Dirichlet L-values via Hurwitz zeta sums with Euler-Maclaurin tails.

For a real non-principal character chi mod q,

    L(s, chi) = q^(-s) * sum_{r=1}^{q-1} chi(r) * zeta_H(s, r/q).

At s = 1 each Hurwitz term has a simple pole 1/(s-1), but the poles cancel
because sum_r chi(r) = 0, so the formula is evaluated with the deflated
function zeta_H(s, a) - 1/(s-1), whose limit at s = 1 is -digamma(a).
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

__all__ = ["hurwitz_zeta_deflated", "dirichlet_l"]

# Bernoulli numbers B_2 .. B_18 (B_18 is only used for the error bound).
_BERNOULLI = {
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    14: Fraction(7, 6),
    16: Fraction(-3617, 510),
    18: Fraction(43867, 798),
}


def hurwitz_zeta_deflated(s: float, a: float, terms: int = 32, order: int = 8):
    """Return (value, error_bound) for zeta_H(s, a) - 1/(s-1).

    Valid for real s > 0 and a > 0; at s = 1 the returned value is -digamma(a).
    ``terms`` is the number of directly summed terms, ``order`` the number of
    Euler-Maclaurin correction terms.  For a completely monotone integrand the
    truncation error is bounded by the first omitted correction term.
    """
    if s <= 0:
        raise ValueError("requires s > 0")
    if a <= 0:
        raise ValueError("requires a > 0")
    if order < 1 or 2 * (order + 1) not in _BERNOULLI:
        raise ValueError("order must be between 1 and 8")
    m = terms
    x = m + a
    head = math.fsum((k + a) ** (-s) for k in range(m))
    if s == 1.0:
        pole_part = -math.log(x)
    else:
        pole_part = (x ** (1.0 - s) - 1.0) / (s - 1.0)
    value = head + pole_part + 0.5 * x ** (-s)
    # Correction terms B_{2j}/(2j)! * s(s+1)...(s+2j-2) * x^(-s-2j+1).
    poch = 1.0
    power = x ** (-s + 1.0)
    corrections = []
    for j in range(1, order + 2):
        poch *= s + (2 * j - 2)            # now s(s+1)...(s+2j-2)
        power /= x * x                     # x^(-s-2j+1)
        coeff = float(_BERNOULLI[2 * j]) / math.factorial(2 * j)
        term = coeff * poch * power
        if j <= order:
            corrections.append(term)
            poch *= s + (2 * j - 1)        # extend product for the next j
        else:
            bound = abs(term)
    value += math.fsum(corrections)
    # truncation bound plus a few ulps of roundoff allowance
    bound += 16 * sys.float_info.epsilon * (abs(value) + 1.0)
    return value, bound


def dirichlet_l(s: float, chi):
    """Return (value, error_bound) for L(s, chi), real non-principal chi.

    ``chi`` is a CharacterSpec-like object with fields ``q`` and ``table``.
    """
    q = chi.q
    if sum(chi.table) != 0:
        raise ValueError("character must be non-principal for the pole-free evaluation")
    qs = q ** (-float(s))
    total = 0.0
    err = 0.0
    for r in range(1, q):
        c = chi.table[r]
        if not c:
            continue
        val, bound = hurwitz_zeta_deflated(float(s), r / q)
        total += c * val
        err += bound
    return qs * total, qs * err
