#!/usr/bin/env python3
"""Walkthrough: the opt-in numeric mode.

Exact verification never needs numeric constants, but tables and plots do.
A2 comes from a certified partial sum (tail bound B/M from |a(n)| <= B), A1
from the declared exact value or from 1/L(1, chi) via Hurwitz-zeta sums with
Euler-Maclaurin tails.  The growth statistic max |E(x)|/(x log x) is pinned:
re-runs must reproduce the committed constant bit for bit.
"""

import math
from fractions import Fraction

from errlab import (kronecker_character, make_case, mobius_sieve, numeric_constants,
                    split_at, twist, untwisted_case)
from errlab.decomposition import FROZEN_GROWTH_MAX, growth_max_ratio

print("=" * 72)
print("1. Certified series constants")
print("=" * 72)
mu = mobius_sieve(10 ** 6)
a2, a1, (b2, b1) = numeric_constants(mu, precision_target=1e-6)
print(f"  plain:   a2 = {a2.real:.9f} +/- {b2:.1e}   (6/pi^2 = {6 / math.pi ** 2:.9f})")
print(f"           a1 = {a1.real} exactly (declared)")
chi = kronecker_character(-4)
seq = twist(mobius_sieve(10 ** 5), chi)
a2c, a1c, (b2c, b1c) = numeric_constants(seq, chi, precision_target=1e-4)
print(f"  twisted: a2 = {a2c.real:.9f} +/- {b2c:.1e}   (1/L(2,chi))")
print(f"           a1 = {a1c.real:.9f} +/- {b1c:.1e}   (1/L(1,chi) = 4/pi = {4 / math.pi:.9f})")

print()
print("=" * 72)
print("2. A small numeric table of the split")
print("=" * 72)
dc = untwisted_case(make_case(mobius_sieve(10), 10))
print(f"  {'x':>6} {'E':>12} {'E_AR':>12} {'E_AN':>12}")
for k in range(0, 21):
    x = Fraction(k, 2)
    e, ar, an = (v.numeric(a2, a1).real for v in split_at(dc, x))
    print(f"  {str(x):>6} {e:12.6f} {ar:12.6f} {an:12.6f}")

print()
print("=" * 72)
print("3. Pinned growth statistic")
print("=" * 72)
got = growth_max_ratio()
print(f"  max |E(x)|/(x log x) over x = 10, 20, .., 10^4: {got!r}")
print(f"  committed constant:                            {FROZEN_GROWTH_MAX['mu']!r}")
print(f"  bit-identical: {got == FROZEN_GROWTH_MAX['mu']}")
