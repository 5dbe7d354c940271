#!/usr/bin/env python3
"""Walkthrough: inverting the equation with the explicit resolvent.

For any admissible right-hand side E (integrable against 1/t^2 at 0+),

    F(x) = E(x) + x * integral_0^x E(t)/t^2 dt + A x

solves F - integral F/t = E.  Applied to the totient error term, the output
minus x times the fractional-part series is a single multiple of x across the
whole grid; that constant-slope gap is the computable face of "the family
(h + A) x exhausts all solutions".
"""

from fractions import Fraction

from errlab import (LogCaseError, Side, build_error_term, build_fracpart_series,
                    make_case, mobius_sieve, monomial, residual, resolvent_function)

print("=" * 72)
print("1. Toy input E(t) = t^2")
print("=" * 72)
toy = resolvent_function(monomial(4, 2))
for x in (Fraction(1, 2), 1, 2, 3):
    print(f"  F({x}) = {toy.eval_at(x, Side.RIGHT)}   (expected 2 x^2)")

print()
print("=" * 72)
print("2. The totient error term")
print("=" * 72)
mu = mobius_sieve(30)
case = make_case(mu, 30)
E = build_error_term(case)
F = resolvent_function(E)
h = build_fracpart_series(case)
R = residual(F, E)
bad = sum(1 for k in range(1, 91) if not R.eval_at(Fraction(k, 3)).is_zero())
print(f"  residuals of the resolvent output on the grid k/3: {bad} nonzero of 90")
slopes = {((F.eval_at(x, Side.RIGHT) - h.eval_at(x, Side.RIGHT) * x) / x).to_text()
          for x in (Fraction(k, 3) for k in range(1, 91))}
print(f"  (F(x) - x h(x)) / x across the grid: {slopes}")
print("  a single constant slope: the solution family has no room left")

print()
print("=" * 72)
print("3. Inadmissible input E(t) = t")
print("=" * 72)
try:
    resolvent_function(monomial(2, 1))
except LogCaseError as exc:
    print(f"  rejected: {exc}")
