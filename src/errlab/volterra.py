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

Everything here is exact; a residual is a piecewise function whose
coefficients are ConstLinear forms, zero exactly when every piece is empty.
Each builder is the list of one private piece generator, which a consumer
that needs no whole function (the streamed split of ``table``) reads directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Iterator, Optional

from .errors import DomainError
from .exactnum import ConstLinear
from .piecewise import PiecewiseLaurent, _combination, _combine
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
            if ConstLinear(b.value(n)) != ConstLinear(b_true.value(n)):
                raise ValueError(f"supplied b({n}) does not match the convolution")
    return VolterraCase(a, b, b_true, X)


def _error_pieces(case: VolterraCase) -> Iterator[dict]:
    a2coeff = ConstLinear.a2(Fraction(-1, 2))
    for k in range(math.floor(case.X) + 1):
        yield {0: ConstLinear(case.b.prefix_sum(k)), 2: a2coeff}


def build_error_term(case: VolterraCase) -> PiecewiseLaurent:
    """Er as a piecewise function: constant sum_{n<=k} b(n) on (k, k+1) plus
    the -(A2/2) t^2 main term, right-continuous at integers."""
    return PiecewiseLaurent(case.X, _error_pieces(case))


def _fracpart_pieces(case: VolterraCase) -> Iterator[dict]:
    slope = ConstLinear.a2(-1)
    const = ConstLinear.zero()
    yield {1: slope, 0: const}
    for k in range(1, math.floor(case.X) + 1):
        const = const + ConstLinear(case.b_true.value(k)) / k
        yield {1: slope, 0: const}


def build_fracpart_series(case: VolterraCase) -> PiecewiseLaurent:
    """The series -sum (a(n)/n) {t/n} in closed piecewise form.

    On (k, k+1) the floors are frozen, giving slope -A2 and the constant
    sum_{n<=k} (a(n)/n) floor(k/n); the constant advances by b(k)/k at k,
    with the case's ``b_true`` so the piece data depends on a alone.
    """
    return PiecewiseLaurent(case.X, _fracpart_pieces(case))


def _solution_pieces(h_pieces, A: ConstLinear) -> Iterator[dict]:
    return _combine((1, 1, h_pieces), (1, 1, repeat({0: A})))


def solution_family(h: PiecewiseLaurent, A=0) -> PiecewiseLaurent:
    """F(x) = (h(x) + A) x with h = build_fracpart_series(case); F(0) = 0.

    A is a Gaussian rational or a ConstLinear form, so the free constant may
    itself be symbolic (the twisted split's arithmetic part is A = A1/2).
    Over the zero function h = monomial(X, 0, 0) it is A x, the solution of
    the homogeneous equation.
    """
    if not isinstance(A, ConstLinear):
        A = ConstLinear(A)
    return PiecewiseLaurent(h.X, _solution_pieces(h.pieces, A))


def residual(F: PiecewiseLaurent, E: PiecewiseLaurent) -> PiecewiseLaurent:
    """F(t) - integral_0^t F(s)/s ds - E(t) as a piecewise function, exact.

    Built piece by piece on [0, min(F.X, E.X)], so a piece is empty exactly
    when the integral equation holds on all of it.  Its POINT values are
    right limits at interior breakpoints, matching the right-continuous
    error term.  Raises where F(t)/t has no antiderivative on that domain
    (LogCaseError, DivergentAtZeroError); E.pieces precedes the
    antiderivatives so that none is computed past its end.
    """
    return _combination(min(F.X, E.X), (1, 0, F.pieces), (-1, 0, E.pieces),
                        (-1, 0, F._prefix(-1)))


def remainder_integral_residual(E: PiecewiseLaurent, h: PiecewiseLaurent) -> PiecewiseLaurent:
    """Residual of the identity Er(t) - t h(t) = -integral_0^t h(s) ds.

    E and h are build_error_term and build_fracpart_series of one case.
    Returns the piecewise function Er(t) - t h(t) + integral_0^t h, which is
    empty on every piece; its value at 0 is zero by the convention Er(0) = 0.
    """
    return _combination(min(E.X, h.X), (1, 0, E.pieces), (-1, 1, h.pieces), (1, 0, h._prefix(0)))


def resolvent_function(E: PiecewiseLaurent, A=0) -> PiecewiseLaurent:
    """F(x) = E(x) + x * integral_0^x E(t)/t^2 dt + A x as a piecewise function.

    Requires the weighted integrand E(t)/t^2 to be integrable at 0+, which is
    the admissibility condition for the inversion formula.
    """
    A = ConstLinear(A)
    return _combination(E.X, (1, 0, E.pieces), (1, 1, E._prefix(-2)), (1, 1, repeat({0: A})))
