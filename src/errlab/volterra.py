"""Error terms, solution families and residuals of the integral equation

    F(x) - integral_0^x F(t)/t dt = Er(x),

where Er(x) = sum_{n<=x} b(n) - (A2/2) x^2 for b(n) = sum_{d|n} a(d) (n/d)
and A2 = sum a(n)/n^2 carried symbolically.  The general solution is
F(x) = (h(x) + A) x with the fractional-part series

    h(x) = -sum_{n>=1} (a(n)/n) {x/n} = -(A2) x + sum_{n<=x} (a(n)/n) floor(x/n),

which is piecewise linear with slope -A2 and jumps b(N)/N at integers.  The
resolvent form F(x) = E(x) + x * integral_0^x E(t)/t^2 dt + A x inverts the
equation for any admissible right-hand side.  The homogeneous equation
(Er = 0) is the same family over the zero function: its solutions are A x.

Everything here is exact; residuals are ConstLinear values whose zero test is
a decidable coefficient comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import DomainError
from .exactnum import ConstLinear, GaussianRational, as_gaussian
from .piecewise import PiecewiseLaurent, Side
from .sequences import ArithSequence, convolve_id

__all__ = [
    "VolterraCase",
    "make_case",
    "build_error_term",
    "build_fracpart_series",
    "solution_family",
    "residual",
    "remainder_integral_residual",
    "resolvent_function",
]


@dataclass(frozen=True)
class VolterraCase:
    """A sequence, its convolution against Id and a domain end.

    ``b_true`` is convolve_id(a), computed once per case; ``b`` is the
    convolution the error term is built from, which is ``b_true`` unless a
    supplied b overrides it.  The series built from ``a`` read ``b_true``, so
    an override that is not the true convolution shows up as a nonzero
    residual.  The free constant A of a solution is an argument of
    solution_family and resolvent_function, not part of the case.
    """

    a: ArithSequence
    b: ArithSequence
    b_true: ArithSequence
    X: Fraction


def make_case(a: ArithSequence, X, *, b: Optional[ArithSequence] = None) -> VolterraCase:
    """Assemble a case; b defaults to convolve_id(a) and a supplied b is
    spot-checked against the convolution on small indices."""
    X = Fraction(X)
    if X <= 0:
        raise ValueError("domain end must be positive")
    if X > a.N:
        raise DomainError(f"domain end {X} exceeds the sieve range {a.N}")
    b_true = convolve_id(a)
    if b is None:
        b = b_true
    else:
        if b.N < math.floor(X):
            raise DomainError(f"supplied b covers only 1..{b.N} < {math.floor(X)}")
        for n in range(1, min(8, b.N) + 1):
            if as_gaussian(b.value(n)) != as_gaussian(b_true.value(n)):
                raise ValueError(f"supplied b({n}) does not match the convolution")
    return VolterraCase(a, b, b_true, X)


def build_error_term(case: VolterraCase) -> PiecewiseLaurent:
    """Er as a piecewise function: constant sum_{n<=k} b(n) on (k, k+1) plus
    the -(A2/2) t^2 main term, right-continuous at integers."""
    a2coeff = ConstLinear.a2(Fraction(-1, 2))
    pieces = []
    for k in range(math.floor(case.X) + 1):
        pieces.append({0: ConstLinear(case.b.prefix_sum(k)), 2: a2coeff})
    return PiecewiseLaurent(case.X, pieces)


def build_fracpart_series(case: VolterraCase) -> PiecewiseLaurent:
    """The series -sum (a(n)/n) {t/n} in closed piecewise form.

    On (k, k+1) the floors are frozen, giving slope -A2 and the constant
    sum_{n<=k} (a(n)/n) floor(k/n); the constant advances by b(k)/k at k,
    with the case's ``b_true`` so the piece data depends on a alone.
    """
    slope = ConstLinear.a2(-1)
    pieces = []
    const = GaussianRational(0)
    for k in range(math.floor(case.X) + 1):
        if k:
            const = const + as_gaussian(case.b_true.value(k)) / k
        pieces.append({1: slope, 0: ConstLinear(const)})
    return PiecewiseLaurent(case.X, pieces)


def solution_family(h: PiecewiseLaurent, A=0) -> PiecewiseLaurent:
    """F(x) = (h(x) + A) x with h = build_fracpart_series(case); F(0) = 0.

    A is a Gaussian rational or a ConstLinear form, so the free constant may
    itself be symbolic (the twisted split's arithmetic part is A = A1/2).
    Over the zero function h = monomial(X, 0, 0) it is A x, the solution of
    the homogeneous equation.
    """
    if not isinstance(A, ConstLinear):
        A = ConstLinear(A)
    pieces = []
    for piece in h.pieces:
        # t * (h + A) lifts each exponent e onto e + 1 and A onto 1
        out = {e + 1: c for e, c in piece.items()}
        out[1] = out[1] + A if 1 in out else A
        pieces.append(out)
    return PiecewiseLaurent(h.X, pieces)


def residual(F: PiecewiseLaurent, E: PiecewiseLaurent, x) -> ConstLinear:
    """F(x) - integral_0^x F(t)/t dt - E(x), exact.

    Zero exactly when the integral equation holds at x.  Values are taken by
    Side.POINT: right limits at interior breakpoints, matching the
    right-continuous error term, and the last piece at an uncovered domain
    end.
    """
    x = Fraction(x)
    return F.eval_at(x) - F.integrate(x, "1/t") - E.eval_at(x)


def remainder_integral_residual(E: PiecewiseLaurent, h: PiecewiseLaurent, x) -> ConstLinear:
    """Residual of the identity Er(x) - x h(x) = -integral_0^x h(t) dt.

    E and h are build_error_term and build_fracpart_series of one case.
    Returns (Er(x) - x h(x)) + integral_0^x h, which is exactly zero for
    every positive x; x = 0 returns zero by the convention Er(0) = 0.
    """
    x = Fraction(x)
    if x < 0:
        raise DomainError("requires x >= 0")
    if x == 0:
        return ConstLinear.zero()
    r = E.eval_at(x, Side.RIGHT) - h.eval_at(x, Side.RIGHT) * x
    return r + h.integrate(x, "1")


def resolvent_function(E: PiecewiseLaurent, A=0) -> PiecewiseLaurent:
    """F(x) = E(x) + x * integral_0^x E(t)/t^2 dt + A x as a piecewise function.

    Requires the weighted integrand E(t)/t^2 to be integrable at 0+, which is
    the admissibility condition for the inversion formula.
    """
    A = ConstLinear(A)
    _, blocker, prims = E._prefix(-2)
    if blocker is not None:
        raise blocker[1]
    pieces = []
    for piece, prim in zip(E.pieces, prims):
        # t * prim lifts each exponent e - 1 back onto e, the constant onto 1
        out = {e + 1: c for e, c in prim.items()}
        out[1] = out[1] + A
        for e, c in piece.items():
            out[e] = out[e] + c if e in out else c
        pieces.append(out)
    return PiecewiseLaurent(E.X, pieces)

