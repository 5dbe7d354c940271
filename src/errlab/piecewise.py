"""Exact piecewise Laurent polynomials on [0, X] with integer breakpoints.

A function is stored per unit interval (k, k+1) as a sparse map from
exponents in {-2, .., 3} to ConstLinear coefficients.  All functions in scope
jump only at integers, so arbitrary rational evaluation points and exact
power-rule integration against the weights 1, 1/t and 1/t^2 suffice.  A t^-1
term in a weighted integrand has no power-rule antiderivative and is raised
as an error: the operators under study never produce one on valid inputs, so
it only flags malformed data.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from fractions import Fraction
from itertools import islice, repeat
from typing import Dict, Iterator, List, Optional

from .errors import DivergentAtZeroError, DomainError, FormatError, LogCaseError
from .exactnum import ConstLinear, parse_rational

__all__ = [
    "EXP_MIN",
    "EXP_MAX",
    "Side",
    "PiecewiseLaurent",
    "monomial",
]

EXP_MIN = -2
EXP_MAX = 3

_WEIGHT_SHIFT = {"1": 0, 1: 0, "1/t": -1, "1/t^2": -2}


class Side(Enum):
    """Convention for evaluating at a breakpoint."""

    LEFT = "left_limit"
    RIGHT = "right_limit"
    POINT = "point"
    MIDPOINT = "midpoint"


def _min_pieces(x: Fraction) -> int:
    # enough unit intervals to cover (0, X]
    return math.ceil(x)


def _full_pieces(x: Fraction) -> int:
    # one more piece at an integer domain end, so right limits exist at every
    # breakpoint of [0, X]; equals _min_pieces for non-integer X
    return math.floor(x) + 1


def _value(piece: Dict[int, ConstLinear], p: int, s: int) -> ConstLinear:
    """sum_e c_e x^e over an exponent -> coefficient map at x = p/s, exact.

    x = p/s is in lowest terms with p >= 0 and s > 0, so x^e is p^e/s^e and
    x^-e is s^e/p^e.  Powers of coprime integers are coprime, which is the
    form ConstLinear._scaled takes, so no Fraction is built.
    """
    total = None
    for e, c in piece.items():
        if e > 0:
            c = c._scaled(p ** e, s ** e)
        elif e < 0:
            if not p:
                raise DomainError("negative exponent evaluated at 0")
            c = c._scaled(s ** -e, p ** -e)
        total = c if total is None else total + c
    return ConstLinear.zero() if total is None else total


def _checked(piece) -> Dict[int, ConstLinear]:
    """A piece as a function stores it: exponents in [EXP_MIN, EXP_MAX],
    coefficients ConstLinear, zero coefficients dropped."""
    cur: Dict[int, ConstLinear] = {}
    for e, c in piece.items():
        if not EXP_MIN <= e <= EXP_MAX:
            raise ValueError(f"exponent {e} outside [{EXP_MIN}, {EXP_MAX}]")
        if not isinstance(c, ConstLinear):
            c = ConstLinear.scalar(c)
        if not c.is_zero():
            cur[e] = c
    return cur


def _at_integer(left, right, k: int, side: Side) -> ConstLinear:
    """The value at the integer k from the pieces on (k-1, k) and (k, k+1).

    left is unread at k = 0, and right is None past the last piece, where
    POINT reads the last piece and RIGHT and MIDPOINT have no value.  A
    MIDPOINT whose two limits agree is that limit, with no sum formed.
    """
    if not k:
        if side in (Side.LEFT, Side.MIDPOINT):
            raise DomainError("no left limit at 0")
        return _value(right, 0, 1)
    if side is Side.LEFT or (right is None and side is Side.POINT):
        return _value(left, k, 1)
    if right is None:
        raise DomainError(f"no right limit at the domain end {k}")
    value = _value(right, k, 1)
    if side is Side.MIDPOINT:
        before = _value(left, k, 1)
        if before != value:
            value = (before + value) / 2
    return value


class PiecewiseLaurent:
    """f(t) = sum_e c_{k,e} t^e on (k, k+1), coefficients ConstLinear."""

    __slots__ = ("X", "pieces", "_int_cache")

    def __init__(self, X, pieces):
        X = Fraction(X)
        if X <= 0:
            raise ValueError("domain end must be positive")
        cleaned = [_checked(piece) for piece in pieces]
        if len(cleaned) < _min_pieces(X):
            raise ValueError(f"need {_min_pieces(X)} pieces to cover [0, {X}]")
        self.X = X
        self.pieces = cleaned
        # always empty; only bench/layers.py reads it, for prefix_hit_ratio
        self._int_cache = {}

    @property
    def npieces(self) -> int:
        return len(self.pieces)

    def __eq__(self, other):
        if not isinstance(other, PiecewiseLaurent):
            return NotImplemented
        return self.X == other.X and self.pieces == other.pieces

    def __repr__(self):
        return f"PiecewiseLaurent(X={self.X}, npieces={self.npieces})"

    # -- evaluation ---------------------------------------------------------

    def eval_at(self, x, side: Side = Side.POINT) -> ConstLinear:
        """Exact value at rational x using the requested breakpoint convention.

        The stored pieces are the right-continuous representatives, so POINT
        agrees with RIGHT at interior breakpoints and extends continuously at
        an uncovered domain end.
        """
        if type(x) is not Fraction:
            x = Fraction(x)
        p, s = self._in_domain(x, "evaluation point")
        k = p // s
        pieces = self.pieces
        if s != 1:
            return _value(pieces[k], p, s)
        return _at_integer(pieces[k - 1] if k else None,
                           pieces[k] if k < len(pieces) else None, k, side)

    def _in_domain(self, x: Fraction, what: str):
        """(p, s) of x = p/s, checked against [0, X] on the integers: x > X
        is p*S > P*s for X = P/S."""
        p, s = x.numerator, x.denominator
        X = self.X
        if p < 0 or p * X.denominator > X.numerator * s:
            raise DomainError(f"{what} {x} outside [0, {X}]")
        return p, s

    # -- integration --------------------------------------------------------

    def _prefix(self, shift: int):
        """Yield the power-rule antiderivative of f * t^shift on each piece.

        Piece k's map holds c/(m+1) at exponent m+1 for each term c t^m, plus
        the constant that makes it equal integral_0^t on [k, k+1].  Raises on
        reaching a piece that has none: LogCaseError for a t^-1 term,
        DivergentAtZeroError for a lower exponent on the first piece.
        """
        total = ConstLinear.zero()  # the integral over (0, k)
        for k, piece in enumerate(self.pieces):
            prim = {}
            for e, c in sorted(piece.items()):
                m = e + shift
                if m == -1:
                    raise LogCaseError(k)
                if k == 0 and m < -1:
                    raise DivergentAtZeroError(m)
                prim[m + 1] = c / (m + 1)
            # m + 1 == 0 is the log case, so exponent 0 holds only the constant
            prim[0] = total - _value(prim, k, 1) if k else total
            yield prim
            total = _value(prim, k + 1, 1)

    def integrate(self, x, weight="1") -> ConstLinear:
        """Exact integral of f(t) * w(t) over (0, x), w in {1, 1/t, 1/t^2}.

        Improper at 0+: the weighted integrand must have exponents >= 0 on the
        first interval.  A t^-1 term on any interval meeting (0, x) raises
        LogCaseError; lower exponents on the first interval raise
        DivergentAtZeroError.  Costs one antiderivative per piece below x.
        """
        if weight not in _WEIGHT_SHIFT:
            raise ValueError(f"weight must be one of 1, 1/t, 1/t^2, not {weight!r}")
        if type(x) is not Fraction:
            x = Fraction(x)
        p, s = self._in_domain(x, "integration endpoint")
        if not p:
            return ConstLinear.zero()
        # x lies in the piece (k, k+1], k = ceil(x) - 1
        k = (p - 1) // s
        return _value(next(islice(self._prefix(_WEIGHT_SHIFT[weight]), k, None)), p, s)

    # -- text dump ----------------------------------------------------------

    def dumps(self) -> str:
        lines = [f"X: {self.X}"]
        for k, piece in enumerate(self.pieces):
            entries = "; ".join(f"e{e}={piece[e].to_text()}" for e in sorted(piece))
            lines.append(f"{k}: {entries}" if entries else f"{k}:")
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> "PiecewiseLaurent":
        x_end: Optional[Fraction] = None
        pieces: List[Dict[int, ConstLinear]] = []
        entry_re = re.compile(r"^e(-?\d+)=(.*)$")
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            head, _, rest = line.partition(":")
            head = head.strip()
            if head == "X":
                if x_end is not None:
                    raise FormatError(f"line {lineno}: a second X: header")
                x_end = parse_rational(rest.strip())
                continue
            try:
                k = int(head)
            except ValueError as exc:
                raise FormatError(f"line {lineno}: expected a piece index") from exc
            if k != len(pieces):
                raise FormatError(f"line {lineno}: pieces must be listed in order from 0")
            piece: Dict[int, ConstLinear] = {}
            rest = rest.strip()
            if rest:
                for entry in rest.split(";"):
                    m = entry_re.match(entry.strip())
                    if not m:
                        raise FormatError(f"line {lineno}: bad entry {entry.strip()!r}")
                    e = int(m.group(1))
                    if e in piece:
                        raise FormatError(f"line {lineno}: exponent {e} given twice")
                    piece[e] = ConstLinear.from_text(m.group(2))
            pieces.append(piece)
        if not pieces:
            raise FormatError("no pieces found")
        if x_end is None:
            x_end = Fraction(len(pieces))
        try:
            return cls(x_end, pieces)
        except ValueError as exc:
            raise FormatError(str(exc)) from exc


def _combine(*terms) -> Iterator[Dict[int, ConstLinear]]:
    """Yield the pieces of the sum of c * t^m * g over the terms (c, m, g).

    Each g is an iterable of exponent -> coefficient maps, such as a
    function's pieces, a builder's piece stream or the antiderivatives a
    _prefix yields, and c an int or a Fraction.  The pieces run to the end
    of the shortest g, and no g after the first exhausted one is drawn from
    again.  A yielded piece may hold zero coefficients; _checked drops them.
    """
    for group in zip(*(g for _, _, g in terms)):
        out: Dict[int, ConstLinear] = {}
        for (c, m, _), piece in zip(terms, group):
            for e, v in piece.items():
                v = v if c == 1 else -v if c == -1 else v * c
                e += m
                out[e] = out[e] + v if e in out else v
        yield out


def _combination(X, *terms) -> PiecewiseLaurent:
    """The sum of c * t^m * g over the terms (c, m, g) on [0, X] (_combine)."""
    return PiecewiseLaurent(X, _combine(*terms))


def _walk(X, denom: int, rows, side) -> Iterator[tuple]:
    """Yield (x, values) at x = k/denom for k = 0..floor(X*denom), where
    values holds the value at x of each function whose pieces rows yields
    together: one tuple of pieces per unit interval (j, j+1), from j = 0.

    Each piece passes the check PiecewiseLaurent stores pieces under, and
    two tuples are held: those of the intervals on either side of the last
    integer reached.  A non-integer x reads the piece that holds it and an
    integer x takes _at_integer's value under side(x), so the values are
    those eval_at gives.  Raises ValueError when rows ends before it covers
    [0, X], as PiecewiseLaurent does for too few pieces.
    """
    X = Fraction(X)
    need = _min_pieces(X)
    rows = iter(rows)
    left = right = None   # the tuples on (j-1, j) and (j, j+1)
    drawn = 0             # the tuples drawn so far, j + 1
    for k in range(math.floor(X * denom) + 1):
        x = Fraction(k, denom)
        p, s = x.numerator, x.denominator
        j = p // s
        while drawn <= j:
            row = next(rows, None)
            if row is not None:
                row = tuple(map(_checked, row))
            elif drawn < need:
                raise ValueError(f"need {need} pieces to cover [0, {X}]")
            else:
                row = (None,) * len(right)   # past an integer domain end
            left, right = right, row
            drawn += 1
        if s != 1:
            yield x, tuple(_value(piece, p, s) for piece in right)
        else:
            at = side(x)
            yield x, tuple(_at_integer(before, after, j, at)
                           for before, after in zip(left or repeat(None), right))


def monomial(X, exponent: int, coeff=1) -> PiecewiseLaurent:
    """c * t^exponent on all of (0, X]."""
    X = Fraction(X)
    c = coeff if isinstance(coeff, ConstLinear) else ConstLinear.scalar(coeff)
    return PiecewiseLaurent(X, [{exponent: c} for _ in range(_full_pieces(X))])
