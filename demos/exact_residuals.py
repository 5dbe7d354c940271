#!/usr/bin/env python3
"""Walkthrough: the error term, its solution family, and exactly-zero residuals.

The summatory function of b(n) = sum_{d|n} mu(d) (n/d) (the Euler totient)
deviates from its quadratic main term (A2/2) x^2 by an error Er(x).  The
integral equation

    F(x) - integral_0^x F(t)/t dt = Er(x)

is solved by F(x) = (h(x) + A) x for every complex constant A, where h is the
fractional-part series -sum (mu(n)/n) {x/n}.  Everything below is exact: the
series constant A2 = sum mu(n)/n^2 stays symbolic, so each residual collapses
to the zero coefficient vector, not to a small float.
"""

from fractions import Fraction

from errlab import (GaussianRational, Side, build_error_term, build_fracpart_series,
                    make_case, mobius_sieve, residual, solution_family)

X = 30
mu = mobius_sieve(X)

print("=" * 72)
print("1. The pieces")
print("=" * 72)
case = make_case(mu, X)
E = build_error_term(case)
h = build_fracpart_series(case)
for x in (Fraction(1, 2), 1, Fraction(3, 2), Fraction(17, 3)):
    print(f"  Er({x})  = {E.eval_at(x, Side.RIGHT)}")
    print(f"  h({x})   = {h.eval_at(x, Side.RIGHT)}")

print()
print("At integers h jumps by exactly b(N)/N:")
for n in (1, 2, 6, 12):
    jump = h.eval_at(n, Side.RIGHT) - h.eval_at(n, Side.LEFT)
    print(f"  N={n:3d}: jump = {jump}")

print()
print("=" * 72)
print("2. Residuals of the solution family, including a complex constant")
print("=" * 72)
constants = [GaussianRational(0), GaussianRational(-2),
             GaussianRational(Fraction(3, 2), Fraction(1, 2))]
for A in constants:
    R = residual(solution_family(h, A), E)
    worst = max((R.eval_at(Fraction(k, 3)) for k in range(1, 3 * X + 1)),
                key=lambda r: 0 if r.is_zero() else 1)
    status = "all exactly zero" if worst.is_zero() else f"NONZERO: {worst}"
    print(f"  A = {A.to_text():12s} residuals on the grid k/3: {status}")

print()
print("A function outside the family leaves a visible residual:")
from errlab import monomial  # noqa: E402

bad = monomial(X, 2)
print(f"  F(t) = t^2 at x = 1: residual = {residual(bad, E).eval_at(1)}")
