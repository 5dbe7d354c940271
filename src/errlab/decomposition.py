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

The arithmetic part x f is the Volterra solution solution_family(h, A) of
the fractional-part series h at A = 0 (plain) or A = A1/2 (twisted).
Series tails over n > x are folded into the symbolic constants, so every
piece is an exact Laurent polynomial with ConstLinear coefficients.  When a
sequence declares an exact A1 (the Moebius function declares 0) the symbol is
replaced by its value, which is what makes the trivial-character relations
f(x, triv) = f(x) and g(x, triv) = g(x) + 1 exact-zero checkable.

Every constructor here takes a VolterraCase from volterra.make_case, so the
sequence is sieved and convolved once, by the caller; the case's ``b`` feeds
the error term and its ``b_true`` feeds the series.  A split keeps the series
h that E_AR and E_AN are built from (g is a piece map of h), and verify_suites
reads E and h from it.  split_at reads E, E_AR and E_AN at a point under the
one breakpoint convention of both splits, and the growth statistic reads E.
``table`` builds no split: _split_pieces yields each piece of E, E_AR and
E_AN from the builders' generators, and _split_grid reads them on a grid in
lockstep under the same convention, holding two pieces of each part.

verify_suites builds the residual function of every exact identity suite of
a case once, then yields the suites' rows on a grid one at a time;
``verify`` and the acceptance gate read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from itertools import accumulate, chain, repeat, tee
from typing import Iterator, Optional, Sequence

from .errors import DomainError
from .exactnum import ConstLinear, GaussianRational
from .piecewise import PiecewiseLaurent, Side, _combination, _combine, _walk, monomial
from .report import ReportRow
from .sequences import (ArithSequence, CharacterSpec, _divisor_pass, _partial_a2,
                        floor_sum, mobius_sieve, summatory,
                        summatory_via_floor_identity, twist)
from .volterra import (VolterraCase, _error_pieces, _fracpart_pieces, _solution_pieces,
                       build_error_term, build_fracpart_series, make_case,
                       remainder_integral_residual, residual, resolvent_function,
                       solution_family)

__all__ = [
    "build_fracsquare_series",
    "DecompositionCase",
    "untwisted_case",
    "twisted_case",
    "split_at",
    "decompose",
    "trivial_character_relations",
    "verify_suites",
    "growth_max_ratio",
    "GROWTH_SAMPLE_STEP",
    "GROWTH_SAMPLE_END",
    "FROZEN_GROWTH_MAX",
]


def _a1_form(a: ArithSequence) -> ConstLinear:
    """The A1 handle of a sequence: its declared exact value when known,
    else the symbolic constant."""
    if a.known_A1 is not None:
        return ConstLinear(a.known_A1)
    return ConstLinear.a1(1)


def build_fracsquare_series(case: VolterraCase, h: PiecewiseLaurent,
                            twisted: bool = False) -> PiecewiseLaurent:
    """sum a(n) {x/n}^2 (plain) or sum a(n) {x/n}({x/n} - 1) (twisted), as a
    piece map of the fractional-part series h = build_fracpart_series(case).

    Closed piecewise form on (k, k+1): the tail n > x contributes
    x^2 (A2 - partial) and, in the twisted shape, -x (A1 - partial); the
    partial sums cancel against the expanded finite part, leaving

        plain:   A2 x^2 - 2 C_k x + 2 B(k) - U(k),
        twisted: A2 x^2 - (2 C_k + A1) x + 2 B(k),

    with C_k = sum_{n<=k} (a(n)/n) floor(k/n) the constant of h on (k, k+1),
    B(k) the prefix sum of the case's ``b_true`` and U(k) that of the unit
    divisor sum sum_{d|m} a(d).  The twisted shape is continuous at
    integers; the plain one is right-continuous.
    """
    return PiecewiseLaurent(case.X, _fracsquare_pieces(case, h.pieces, twisted))


def _fracsquare_pieces(case: VolterraCase, h_pieces, twisted: bool) -> Iterator[dict]:
    quad = ConstLinear.a2(1)
    zero = ConstLinear.zero()
    a1_term = _a1_form(case.a) if twisted else zero
    if twisted:
        units = repeat(0)
    else:
        units = accumulate(_divisor_pass(case.a, [1] * (math.floor(case.X) + 1)))
    for k, (piece, U) in enumerate(zip(h_pieces, units)):
        lin = piece.get(0, zero) * -2 - a1_term
        yield {2: quad, 1: lin, 0: ConstLinear(case.b_true.prefix_sum(k) * 2 - U)}


@dataclass(frozen=True)
class DecompositionCase:
    """A split: E, E_AR and E_AN as functions, and the h they are built from."""

    twisted: bool
    error: PiecewiseLaurent
    fracpart: PiecewiseLaurent            # h = build_fracpart_series(case)
    arithmetic_part: PiecewiseLaurent     # E_AR = solution_family(h, A)
    analytic_part: PiecewiseLaurent       # E_AN as a function


def _split_constants(case: VolterraCase, twisted: bool):
    """(A, c) of a split, E_AR = solution_family(h, A) and E_AN = g/2 + c:
    A = 0 and c = 1/2 in the plain shape, A = A1/2 and c = 0 in the twisted
    one."""
    half = Fraction(1, 2)
    if twisted:
        return _a1_form(case.a) * half, ConstLinear.zero()
    return ConstLinear.zero(), ConstLinear.scalar(half)


def _analytic_pieces(g_pieces, c: ConstLinear):
    return _combine((Fraction(1, 2), 0, g_pieces), (1, 0, repeat({0: c})))


def _parts(case: VolterraCase, h: PiecewiseLaurent, twisted: bool):
    """(E_AR, E_AN) on [0, X] from the case's fractional-part series h,
    built through the public builders; g dies on return."""
    A, c = _split_constants(case, twisted)
    an = PiecewiseLaurent(case.X, _analytic_pieces(
        build_fracsquare_series(case, h, twisted).pieces, c))
    return solution_family(h, A), an


def untwisted_case(case: VolterraCase) -> DecompositionCase:
    """The Moebius/totient decomposition of a Moebius case on [0, X]."""
    h = build_fracpart_series(case)
    return DecompositionCase(False, build_error_term(case), h, *_parts(case, h, False))


def twisted_case(case: VolterraCase) -> DecompositionCase:
    """The decomposition on [0, X] of a Moebius case twisted by a character."""
    h = build_fracpart_series(case)
    return DecompositionCase(True, build_error_term(case), h, *_parts(case, h, True))


def _split_pieces(case: VolterraCase, twisted: bool) -> Iterator[tuple]:
    """Yield the split's pieces (E_k, E_AR_k, E_AN_k) for k = 0..floor(X), as
    the builders' generators make them; _parts builds the same functions.

    E_AR and E_AN read one stream of h's pieces through tee, so each piece
    of h is made once and, drawn in lockstep, held for one step.
    """
    A, c = _split_constants(case, twisted)
    h_ar, h_an = tee(_fracpart_pieces(case))
    yield from zip(_error_pieces(case), _solution_pieces(h_ar, A),
                   _analytic_pieces(_fracsquare_pieces(case, h_an, twisted), c))


def _side_for(twisted: bool, x: Fraction) -> Side:
    """MIDPOINT at a positive integer of the twisted split, else POINT:
    every part of a split has floor(X) + 1 pieces, so POINT reads the right
    limit at each integer of [0, X]."""
    if twisted and x.denominator == 1 and x.numerator > 0:
        return Side.MIDPOINT
    return Side.POINT


def split_at(case: DecompositionCase, x):
    """Exact (E, E_AR, E_AN) at x, with no domain check.

    Integers take right limits in the plain case and midpoint values (x > 0)
    in the twisted one.
    """
    if type(x) is not Fraction:
        x = Fraction(x)
    side = _side_for(case.twisted, x)
    return (case.error.eval_at(x, side), case.arithmetic_part.eval_at(x, side),
            case.analytic_part.eval_at(x, side))


def _split_grid(case: VolterraCase, twisted: bool, grid_denominator: int):
    """Yield (x, (E, E_AR, E_AN)) at x = k/grid_denominator for k = 0, 1, ..
    up to X, the values split_at gives, from the split's pieces as they are
    made: two pieces of each part are held at a time, and no function."""
    return _walk(case.X, grid_denominator, _split_pieces(case, twisted),
                 partial(_side_for, twisted))


def _split_start(case: DecompositionCase) -> int:
    """Where a split is claimed from: the plain one misses E by 1/2 below 1."""
    return 0 if case.twisted else 1


def decompose(case: DecompositionCase, x):
    """Exact (E_AR, E_AN, residual) at x; residual = E - E_AR - E_AN.

    The plain decomposition is only claimed for x >= 1 (below 1 it misses by
    the constant 1/2); the twisted one holds for all x >= 0 with midpoint
    values at integers.
    """
    x = Fraction(x)
    start = _split_start(case)
    X = case.error.X
    if x < start or x > X:
        raise DomainError(f"point {x} outside [{start}, {X}], where the "
                          f"{'' if case.twisted else 'un'}twisted decomposition is stated")
    e, e_ar, e_an = split_at(case, x)
    return e_ar, e_an, e - e_ar - e_an


def _row(identity: str, x: Fraction, res) -> ReportRow:
    return ReportRow(identity, x, res, res.is_zero())


def trivial_character_relations(case: VolterraCase, plain: DecompositionCase,
                                grid_denominator: int = 3) -> Iterator[ReportRow]:
    """Exact checks that the all-ones twist collapses to the plain objects.

    ``case`` is a case of the Moebius function and ``plain`` its plain split
    on [0, X'] for some X' >= case.X: a piece of a split does not depend on
    the domain end, so the twisted parts (with the Moebius declared A1 = 0)
    are built here from the plain h cut to case.X.  At every non-integer grid
    point of [1, case.X], (E_AR,triv - E_AR)/x = f(x, triv) - f(x) and
    2 (E_AN,triv - E_AN) = g(x, triv) - g(x) - 1 must vanish; alongside,
    sum_{d<=x} mu(d) floor(x/d) = 1 on the same grid.  f and g are built by
    this call; the rows are computed as the returned iterator is read.
    """
    X, a = case.X, case.a
    h = PiecewiseLaurent(X, plain.fracpart.pieces[:math.floor(X) + 1])
    ar_triv, an_triv = _parts(case, h, True)
    f = _combination(X, (1, -1, ar_triv.pieces), (-1, -1, plain.arithmetic_part.pieces))
    g = _combination(X, (2, 0, an_triv.pieces), (-2, 0, plain.analytic_part.pieces))

    def rows():
        for k in range(grid_denominator, math.floor(X * grid_denominator) + 1):
            x = Fraction(k, grid_denominator)
            if x.denominator == 1:
                continue
            yield _row("trivial_f", x, f.eval_at(x))
            yield _row("trivial_g", x, g.eval_at(x))
            # the row keeps floor_sum's GaussianRational, written as its repr
            yield _row("mertens_floor", x, (ConstLinear(floor_sum(a, x)) - 1).c1)
    return rows()


# ---------------------------------------------------------------------------
# the identity suites
# ---------------------------------------------------------------------------

# verify_suites keeps no row, so the cap bounds the run time, about 12 rows
# a point, and the list of grid points it holds, about 100 bytes a point
_MAX_GRID_POINTS = 100_000


def _grid_top(X, grid_denominator: int) -> int:
    """The number of grid points k/grid_denominator on (0, X]; DomainError when
    it is 0 or above _MAX_GRID_POINTS.  The CLI checks it before it builds a case."""
    top = math.floor(X * grid_denominator)
    if not top:
        raise DomainError(f"the grid k/{grid_denominator} on (0, {X}] is empty")
    if top > _MAX_GRID_POINTS:
        raise DomainError(f"the grid k/{grid_denominator} on (0, {X}] has {top} points, "
                          f"more than the {_MAX_GRID_POINTS} a run may hold")
    return top


def verify_suites(case: VolterraCase, grid_denominator: int,
                  A_list: Sequence[GaussianRational],
                  split: Optional[DecompositionCase] = None) -> Iterator[ReportRow]:
    """The rows of every exact identity suite of a case on the grid
    k/grid_denominator of (0, X], in this order: ``volterra[A=..]`` per A in
    A_list, ``remainder_integral``, ``homogeneous[A=..]`` (the solutions A t
    of the zero right side) for A in {0, 1, i},
    ``resolvent``, ``uniqueness_surrogate``, ``floor_summatory``, then
    ``jump[n]`` and ``remainder_continuity[n]`` per integer n <= X.  A split
    (the plain or twisted case of the same sequence, or None) adds
    ``decomposition`` wherever decompose claims it, and the plain one the
    trivial-character relations on [1, min(X, 100)]; its ``error`` and
    ``fracpart`` are the E and h of every suite, built here when there is no
    split.  ``case.b`` may be an override, which the suites expose.

    Every residual function is built by this call, so a grid or builder
    error is raised here; each row is computed as the returned iterator
    reaches it, and none is kept.
    """
    X = case.X
    top = _grid_top(X, grid_denominator)
    E, h = ((build_error_term(case), build_fracpart_series(case)) if split is None
            else (split.error, split.fracpart))
    families = [(f"volterra[A={A.to_text()}]", residual(solution_family(h, A), E))
                for A in A_list]
    families.append(("remainder_integral", remainder_integral_residual(E, h)))
    zero = monomial(X, 0, 0)
    families += [(f"homogeneous[A={A.to_text()}]", residual(solution_family(zero, A), zero))
                 for A in (GaussianRational(0), GaussianRational(1), GaussianRational(0, 1))]
    resolvent = resolvent_function(E, 0)
    families.append(("resolvent", residual(resolvent, E)))
    # (F - t h)/t is one constant for every solution F
    slope = _combination(X, (1, -1, resolvent.pieces), (-1, 0, h.pieces))
    if split is not None:
        start = _split_start(split)
        split_residual = _combination(X, (1, 0, E.pieces), (-1, 0, split.arithmetic_part.pieces),
                                      (-1, 0, split.analytic_part.pieces))
        trivial = (() if split.twisted else
                   trivial_character_relations(replace(case, X=min(X, Fraction(100))), split,
                                               grid_denominator))

    def rows():
        grid = [Fraction(k, grid_denominator) for k in range(1, top + 1)]
        for tag, f in families:
            for x in grid:
                yield _row(tag, x, f.eval_at(x))
        c_ref = slope.eval_at(grid[0])
        for x in grid:
            yield _row("uniqueness_surrogate", x, slope.eval_at(x) - c_ref)

        for x in grid:
            yield _row("floor_summatory", x, ConstLinear(summatory_via_floor_identity(case.a, x))
                       - ConstLinear(summatory(case.b, x)))

        for n in range(1, math.floor(X) + 1):
            jump = h.eval_at(n, Side.RIGHT) - h.eval_at(n, Side.LEFT)
            expect = ConstLinear(case.b.value(n)) / n
            yield _row(f"jump[{n}]", Fraction(n), jump - expect)
            r_right = E.eval_at(n, Side.RIGHT) - h.eval_at(n, Side.RIGHT) * n
            r_left = E.eval_at(n, Side.LEFT) - h.eval_at(n, Side.LEFT) * n
            yield _row(f"remainder_continuity[{n}]", Fraction(n), r_right - r_left)

        if split is not None:
            for x in chain([Fraction(0)], grid):
                if x >= start:
                    yield _row("decomposition", x,
                               split_residual.eval_at(x, _side_for(split.twisted, x)))
            yield from trivial
    return rows()


# ---------------------------------------------------------------------------
# numeric growth statistic
# ---------------------------------------------------------------------------

GROWTH_SAMPLE_STEP = 10
GROWTH_SAMPLE_END = 10_000

# Pinned reference maxima of |E(x)| / (x log x) over the sample grid,
# computed by growth_max_ratio's deterministic float pipeline and committed
# so re-runs must reproduce them bit for bit.
FROZEN_GROWTH_MAX = {
    "mu": float.fromhex("0x1.b6875272a7c14p-4"),        # 0.10706264692497341
    "mu_chi_-3": float.fromhex("0x1.11fa3b9b682dcp-5"),  # 0.03344451562884895
}


def growth_max_ratio(chi: Optional[CharacterSpec] = None) -> float:
    """max over x in {step, 2 step, .., end} of |E(x)| / (x log x), in floats,
    with step = GROWTH_SAMPLE_STEP and end = GROWTH_SAMPLE_END.

    Deterministic by construction: ConstLinear.numeric reads the exact E at
    right limits (untwisted) or midpoints (twisted), with A2 the ascending
    fsum partial sum of a(n)/n^2 over n <= end.
    """
    a = mobius_sieve(GROWTH_SAMPLE_END)
    if chi is not None:
        a = twist(a, chi)
    a2 = _partial_a2(a).real
    E = build_error_term(make_case(a, GROWTH_SAMPLE_END))
    side = Side.RIGHT if chi is None else Side.MIDPOINT
    return max(abs(E.eval_at(x, side).numeric(a2, 0.0).real) / (x * math.log(x))
               for x in range(GROWTH_SAMPLE_STEP, GROWTH_SAMPLE_END + 1, GROWTH_SAMPLE_STEP))
