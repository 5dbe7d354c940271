#!/usr/bin/env python3
"""Walkthrough: the arithmetic/analytic split, twisted by a real character.

For the twisted totient sum the error term splits, at the midpoint
normalization E1, into x f(x, chi) + g(x, chi)/2 for every x >= 0.  Both
parts carry the conditionally convergent constant A1 = sum mu(d)chi(d)/d,
but its coefficients cancel in the residual, so the identity verifies
exactly without ever knowing A1's numeric value.  The plain (untwisted)
split needs the extra constant 1/2 and holds only from x = 1 on.
"""

from fractions import Fraction

from errlab import (decompose, kronecker_character, make_case, mobius_sieve, split_at,
                    trivial_character_relations, twist, twisted_case, untwisted_case)

print("=" * 72)
print("1. Twisted split for the character of discriminant -3")
print("=" * 72)
chi = kronecker_character(-3)
print(f"  character table mod {chi.q}: {chi.table}")
tc = twisted_case(make_case(twist(mobius_sieve(40), chi), 40))
for x in (Fraction(1, 2), Fraction(7, 2), 5, 12):
    ar, an, res = decompose(tc, Fraction(x))
    print(f"  x = {str(x):5s} E_AR = {ar}")
    print(f"          E_AN = {an}")
    print(f"          residual = {res}   (A1 coefficients cancel)")

print()
print("=" * 72)
print("2. Plain split: exact from x = 1, off by 1/2 below")
print("=" * 72)
uc = untwisted_case(make_case(mobius_sieve(40), 40))
for x in (1, Fraction(3, 2), 2, Fraction(22, 3)):
    ar, an, res = decompose(uc, Fraction(x))
    print(f"  x = {str(x):5s} residual = {res}")
e, ar, an = split_at(uc, Fraction(1, 2))
print(f"  x = 1/2  raw gap  = {e - ar - an}   (the stated domain starts at 1)")

print()
print("=" * 72)
print("3. Trivial character collapses to the plain objects")
print("=" * 72)
# the plain split on [0, 40] above serves the case on [0, 30]
rep = list(trivial_character_relations(make_case(mobius_sieve(30), 30), uc))
print(f"  f(x,triv) = f(x), g(x,triv) = g(x) + 1, floor sum = 1:")
print(f"  {len(rep)} checks on the non-integer grid of [1, 30]: "
      f"{'all exact' if all(r.exact_zero for r in rep) else 'FAILED'}")
