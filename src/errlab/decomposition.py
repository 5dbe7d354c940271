"""Arithmetic/analytic decomposition of the error term, plain and twisted.

For the Moebius case the split is

    E(x) = x f(x) + (g(x)/2 + 1/2),   f(x) = -sum (mu(n)/n) {x/n},
                                      g(x) = sum mu(n) {x/n}^2,

valid for x >= 1; on (0, 1) the right side misses E(x) by the constant 1/2
because the floor sum sum_{d<=x} mu(d) floor(x/d) is empty there instead
of 1.  For a real non-principal character chi the twisted split uses the
sawtooth s(y) = 1/2 - {y} (0 at integers),

    E1(x, chi) = x f(x, chi) + g(x, chi)/2,
    f(x, chi)  = sum (mu(d)chi(d)/d) s(x/d),
    g(x, chi)  = sum mu(d)chi(d) {x/d}({x/d} - 1),

where E1 is the midpoint normalization of E at integers; this version holds
for all x >= 0 and both sides are affine in A1 = sum mu(d)chi(d)/d, whose
coefficients cancel identically in the residual.

Series tails over n > x are folded into the symbolic constants, so every
piece is an exact Laurent polynomial with ConstLinear coefficients.  When a
sequence declares an exact A1 (the Moebius function declares 0) the symbol is
replaced by its value, which is what makes the trivial-character relations
f(x, triv) = f(x) and g(x, triv) = g(x) + 1 exact-zero checkable.

Every constructor here takes a VolterraCase from volterra.make_case, so the
sequence is sieved and convolved once, by the caller; the case's ``b`` feeds
the error term and its ``b_true`` feeds the series.  split_at reads E, E_AR
and E_AN at a point under the one breakpoint convention of both splits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import DomainError
from .exactnum import ConstLinear, GaussianRational, as_gaussian
from .piecewise import PiecewiseLaurent, Side
from .report import VerificationReport
from .sequences import (ArithSequence, CharacterSpec, convolve_id, floor_sum,
                        mobius_sieve, totient_sieve, twist)
from .volterra import VolterraCase, build_error_term, build_fracpart_series, make_case

__all__ = [
    "sawtooth",
    "build_fracsquare_series",
    "DecompositionCase",
    "untwisted_case",
    "twisted_case",
    "generic_case",
    "split_at",
    "decompose",
    "trivial_character_relations",
    "growth_max_ratio",
    "GROWTH_SAMPLE_STEP",
    "GROWTH_SAMPLE_END",
    "FROZEN_GROWTH_MAX",
]


def sawtooth(x) -> Fraction:
    """1/2 - {x} away from integers, 0 at integers."""
    x = Fraction(x)
    if x < 0:
        raise DomainError("requires x >= 0")
    if x.denominator == 1:
        return Fraction(0)
    return Fraction(1, 2) - (x - math.floor(x))


def _a1_form(a: ArithSequence) -> ConstLinear:
    """The A1 handle of a sequence: its declared exact value when known,
    else the symbolic constant."""
    if a.known_A1 is not None:
        return ConstLinear(a.known_A1)
    return ConstLinear.a1(1)


def _unit_convolve(a: ArithSequence, upto: int):
    """u(n) = sum_{d|n} a(d) for n <= upto; index 0 is padding."""
    arr = a.int_array()
    if arr is not None:
        out = np.zeros(upto + 1, dtype=np.int64)
        for d in range(1, upto + 1):
            v = int(arr[d])
            if v:
                out[d::d] += v
        return out
    out = [0] * (upto + 1)
    for d in range(1, upto + 1):
        v = a.value(d)
        for m in range(d, upto + 1, d):
            out[m] = out[m] + v
    return out


def build_fracsquare_series(case: VolterraCase, twisted: bool = False) -> PiecewiseLaurent:
    """sum a(n) {x/n}^2 (plain) or sum a(n) {x/n}({x/n} - 1) (twisted).

    Closed piecewise form on (k, k+1): the tail n > x contributes
    x^2 (A2 - partial) and, in the twisted shape, -x (A1 - partial); the
    partial sums cancel against the expanded finite part, leaving

        plain:   A2 x^2 - 2 C_k x + sum_{n<=k} a(n) m_n^2,
        twisted: A2 x^2 - (2 C_k + A1) x + sum_{n<=k} a(n) m_n (m_n + 1),

    with m_n = floor(k/n) and C_k = sum_{n<=k} (a(n)/n) m_n.  The constants
    advance by 2 b(k) - sum_{d|k} a(d) in the plain shape and by 2 b(k) in
    the twisted one, so the case's ``b_true`` and one more divisor pass build
    every piece.  The twisted shape is continuous at integers; the plain one
    is right-continuous.
    """
    kmax = math.floor(case.X)
    u = None if twisted else _unit_convolve(case.a, kmax)
    quad = ConstLinear.a2(1)
    a1_handle = _a1_form(case.a)
    pieces = []
    two_c = GaussianRational(0)   # 2 C_k
    const = GaussianRational(0)   # the pure-rational piece constant
    for k in range(kmax + 1):
        if k:
            bk = as_gaussian(case.b_true.value(k))
            two_c = two_c + (bk / k) * 2
            const = const + bk * 2
            if not twisted:
                const = const - as_gaussian(u[k])
        lin = ConstLinear(-two_c)
        if twisted:
            lin = lin - a1_handle
        pieces.append({2: quad, 1: lin, 0: ConstLinear(const)})
    return PiecewiseLaurent(case.X, pieces)


@dataclass(frozen=True)
class DecompositionCase:
    """Error term with its arithmetic and analytic parts as functions."""

    kind: str                    # "untwisted" | "twisted" | "generic"
    X: Fraction
    error: PiecewiseLaurent
    arithmetic_series: PiecewiseLaurent           # f: E_AR(x) = x * f(x)
    analytic_part: Optional[PiecewiseLaurent]     # E_AN as a function, when defined
    chi: Optional[CharacterSpec] = None


def untwisted_case(case: VolterraCase) -> DecompositionCase:
    """The Moebius/totient decomposition of a Moebius case on [0, X]."""
    g = build_fracsquare_series(case)
    # E_AN = g/2 + 1/2
    half = ConstLinear.scalar(Fraction(1, 2))
    pieces = [{e: c * Fraction(1, 2) for e, c in p.items()} for p in g.pieces]
    for p in pieces:
        p[0] = p.get(0, ConstLinear.zero()) + half
    return DecompositionCase("untwisted", case.X, build_error_term(case),
                             build_fracpart_series(case), PiecewiseLaurent(case.X, pieces))


def _plus_half_a1(h: PiecewiseLaurent, a: ArithSequence) -> PiecewiseLaurent:
    """The sawtooth series sum (a(d)/d) s(x/d), s(y) = 1/2 - {y}, from the
    fractional-part series h of a: h + A1/2 on every piece.

    Midpoint evaluation at integers reproduces the sawtooth normalized to 0
    there; the representation is valid on (0, X] (at 0 itself the series is
    0 by the integer convention while the right limit is A1/2).
    """
    half_a1 = _a1_form(a) * Fraction(1, 2)
    return PiecewiseLaurent(h.X, [{**p, 0: p.get(0, ConstLinear.zero()) + half_a1}
                                  for p in h.pieces])


def twisted_case(chi: CharacterSpec, case: VolterraCase) -> DecompositionCase:
    """The decomposition on [0, X] of a case whose sequence is the Moebius
    function twisted by chi."""
    f = _plus_half_a1(build_fracpart_series(case), case.a)
    g = build_fracsquare_series(case, twisted=True)
    an = PiecewiseLaurent(case.X, [{e: c * Fraction(1, 2) for e, c in p.items()}
                                   for p in g.pieces])
    return DecompositionCase("twisted", case.X, build_error_term(case), f, an, chi=chi)


def generic_case(case: VolterraCase) -> DecompositionCase:
    """Arithmetic part only; no analytic-part claim for a general sequence."""
    return DecompositionCase("generic", case.X, build_error_term(case),
                             build_fracpart_series(case), None)


def _side_for(case: DecompositionCase, x: Fraction) -> Side:
    if case.kind == "twisted":
        return Side.MIDPOINT if (x.denominator == 1 and x > 0) else Side.POINT
    return Side.RIGHT if x.denominator == 1 else Side.POINT


def split_at(case: DecompositionCase, x):
    """Exact (E, E_AR, E_AN) at x, with no domain check.

    Integers take right limits in the plain and generic cases and midpoint
    values (x > 0) in the twisted one.  E_AN is None for a generic case.
    """
    x = Fraction(x)
    side = _side_for(case, x)
    e_ar = case.arithmetic_series.eval_at(x, side) * x
    e_an = None if case.analytic_part is None else case.analytic_part.eval_at(x, side)
    return case.error.eval_at(x, side), e_ar, e_an


def decompose(case: DecompositionCase, x):
    """Exact (E_AR, E_AN, residual) at x; residual = E - E_AR - E_AN.

    The plain decomposition is only claimed for x >= 1 (below 1 it misses by
    the constant 1/2); the twisted one holds for all x >= 0 with midpoint
    values at integers.  A generic case yields the arithmetic part alone and
    (None, None) for the rest.
    """
    x = Fraction(x)
    if case.kind == "untwisted" and x < 1:
        raise DomainError("the plain decomposition is stated for x >= 1")
    if x < 0 or x > case.X:
        raise DomainError(f"point {x} outside [0, {case.X}]")
    e, e_ar, e_an = split_at(case, x)
    if e_an is None:
        return e_ar, None, None
    return e_ar, e_an, e - e_ar - e_an


def trivial_character_relations(X, grid_denominator: int = 3) -> VerificationReport:
    """Exact checks that the all-ones twist collapses to the plain objects.

    With the Moebius declared A1 = 0 folded in, f(x, triv) - f(x) must vanish
    and g(x, triv) - g(x) must equal 1 at every non-integer grid point of
    [1, X]; alongside, sum_{d<=x} mu(d) floor(x/d) = 1 on the same grid.
    """
    X = Fraction(X)
    a = mobius_sieve(math.ceil(X))
    vc = make_case(a, X, 0)
    f_plain = build_fracpart_series(vc)
    f_triv = _plus_half_a1(f_plain, a)
    g_plain = build_fracsquare_series(vc)
    g_triv = build_fracsquare_series(vc, twisted=True)
    one = ConstLinear.scalar(1)
    report = VerificationReport()
    for k in range(grid_denominator, math.floor(X * grid_denominator) + 1):
        x = Fraction(k, grid_denominator)
        if x.denominator == 1:
            continue
        report.add("trivial_f", x, f_triv.eval_at(x) - f_plain.eval_at(x))
        report.add("trivial_g", x, g_triv.eval_at(x) - g_plain.eval_at(x) - one)
        report.add("mertens_floor", x, floor_sum(a, x) - as_gaussian(1))
    return report


# ---------------------------------------------------------------------------
# numeric growth statistic
# ---------------------------------------------------------------------------

GROWTH_SAMPLE_STEP = 10
GROWTH_SAMPLE_END = 10_000

# Pinned reference maxima of |E(x)| / (x log x) over the sample grid,
# computed by this module's deterministic float pipeline and committed so
# re-runs must reproduce them bit for bit.
FROZEN_GROWTH_MAX = {
    "mu": float.fromhex("0x1.b6875272a7c14p-4"),        # 0.10706264692497341
    "mu_chi_-3": float.fromhex("0x1.11fa3b9b682dcp-5"),  # 0.03344451562884895
}


def growth_max_ratio(chi: Optional[CharacterSpec] = None,
                     end: int = GROWTH_SAMPLE_END,
                     step: int = GROWTH_SAMPLE_STEP) -> float:
    """max over x in {step, 2 step, .., end} of |E(x)| / (x log x), in floats.

    Deterministic by construction: the summatory values are exact integers,
    the numeric A2 is the fsum partial sum of a(n)/n^2 over n <= end in
    ascending order, and the untwisted/twisted conventions are the
    right-continuous and midpoint values.
    """
    if chi is None:
        a = mobius_sieve(end)
        b = totient_sieve(end)
    else:
        a = twist(mobius_sieve(end), chi)
        b = convolve_id(a)
    arr = b.int_array()
    csum = np.cumsum(arr[1:], dtype=np.int64)
    a2 = math.fsum(int(v) / (n * n) for n, v in enumerate(a.int_array()[1:], start=1))
    best = 0.0
    for x in range(step, end + 1, step):
        s = float(csum[x - 1])
        if chi is not None:
            s -= 0.5 * float(arr[x])   # midpoint value at the integer x
        e = s - 0.5 * a2 * (float(x) * float(x))
        ratio = abs(e) / (x * math.log(x))
        if ratio > best:
            best = ratio
    return best
