"""Piecewise Laurent calculus: evaluation conventions, exact integration,
linear combination, exponent shifts and the text dump."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import RefConstLinear
from errlab.errors import DivergentAtZeroError, DomainError, FormatError, LogCaseError
from errlab.exactnum import ConstLinear, GaussianRational
from errlab.piecewise import (EXP_MAX, EXP_MIN, PiecewiseLaurent, Side, _combination,
                              _walk, monomial)
from errlab.sequences import mobius_sieve
from errlab.volterra import build_fracpart_series, make_case

A2 = ConstLinear.a2


def mu_series(X=6):
    return build_fracpart_series(make_case(mobius_sieve(X), X))


# -- strategies -------------------------------------------------------------

small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
coeffs = st.builds(ConstLinear, small_fracs, small_fracs, small_fracs)


def piece(allowed):
    return st.dictionaries(st.sampled_from(allowed), coeffs, max_size=3)


@st.composite
def laurents(draw, exps=(-2, 0, 1, 2, 3)):
    n = draw(st.integers(min_value=1, max_value=4))
    first = draw(piece([e for e in exps if e >= 0]))
    rest = [draw(piece(list(exps))) for _ in range(n)]
    return PiecewiseLaurent(Fraction(n), [first] + rest)


interior = st.fractions(min_value=Fraction(1, 40), max_value=1, max_denominator=40)


# -- evaluation -------------------------------------------------------------

class TestEval:
    def test_single_piece_square(self):
        f = monomial(2, 2)
        for side in Side:
            assert f.eval_at(Fraction(3, 2), side) == ConstLinear.scalar(Fraction(9, 4))

    def test_series_on_first_interval(self):
        h = mu_series()
        assert h.eval_at(Fraction(1, 2)) == A2(Fraction(-1, 2))

    def test_jump_at_one(self):
        h = mu_series()
        jump = h.eval_at(1, Side.RIGHT) - h.eval_at(1, Side.LEFT)
        assert jump == ConstLinear.scalar(1)  # b(1)/1

    def test_midpoint_is_average(self):
        h = mu_series()
        for n in range(1, 6):
            left = h.eval_at(n, Side.LEFT)
            right = h.eval_at(n, Side.RIGHT)
            assert h.eval_at(n, Side.MIDPOINT) == (left + right) / 2

    @given(laurents())
    @settings(max_examples=40)
    def test_midpoint_average_random(self, f):
        for n in range(1, f.npieces):
            mid = f.eval_at(n, Side.MIDPOINT)
            avg = (f.eval_at(n, Side.LEFT) + f.eval_at(n, Side.RIGHT)) / 2
            assert mid == avg

    def test_domain_errors(self):
        f = monomial(2, 2)
        with pytest.raises(DomainError):
            f.eval_at(Fraction(5, 2))
        with pytest.raises(DomainError):
            f.eval_at(0, Side.LEFT)
        g = PiecewiseLaurent(2, [{0: ConstLinear.scalar(1)}, {-1: ConstLinear.scalar(1)}])
        assert g.eval_at(0) == ConstLinear.scalar(1)

    def test_negative_exponent_at_zero(self):
        f = monomial(2, -1)
        with pytest.raises(DomainError):
            f.eval_at(0)


    def test_midpoint_of_equal_limits_forms_no_sum(self, monkeypatch):
        def no_mean(*args):
            raise AssertionError("a mean of two equal limits was formed")
        monkeypatch.setattr(ConstLinear, "__truediv__", no_mean)
        assert monomial(3, 2).eval_at(2, Side.MIDPOINT) == ConstLinear.scalar(4)


# -- the grid walk over piece streams ----------------------------------------

def _point_then(side):
    """POINT at 0 and `side` at every positive integer, as a split reads them."""
    return lambda x: side if x else Side.POINT


class TestWalk:
    @given(laurents(), st.integers(min_value=1, max_value=4),
           st.sampled_from([Side.POINT, Side.MIDPOINT]))
    @settings(max_examples=60, deadline=None)
    def test_values_are_eval_at(self, f, denom, side):
        g = _combination(f.X, (-3, 0, f.pieces), (1, 0, reversed(f.pieces)))
        at = _point_then(side)
        walk = _walk(f.X, denom, zip(f.pieces, g.pieces), at)
        for k in range(math.floor(f.X * denom) + 1):
            x = Fraction(k, denom)
            try:
                expect = (f.eval_at(x, at(x)), g.eval_at(x, at(x)))
            except DomainError as exc:
                with pytest.raises(DomainError) as got:
                    next(walk)
                assert str(got.value) == str(exc)
                return
            assert next(walk) == (x, expect)
        assert next(walk, None) is None

    def test_uncovered_domain_end(self):
        # two pieces on [0, 2]: POINT extends the last one to 2, MIDPOINT has
        # no right limit there
        rows = [({0: ConstLinear(1)},), ({1: ConstLinear(2)},)]
        assert list(_walk(2, 1, rows, _point_then(Side.POINT)))[-1] == (
            Fraction(2), (ConstLinear(4),))
        with pytest.raises(DomainError, match="no right limit at the domain end 2"):
            list(_walk(2, 1, rows, _point_then(Side.MIDPOINT)))

    def test_pieces_are_checked(self):
        walk = _walk(1, 2, [({0: 3, 1: ConstLinear.zero()},)], _point_then(Side.POINT))
        assert [v for _, (v,) in walk] == [ConstLinear(3)] * 3
        with pytest.raises(ValueError, match="exponent 4 outside"):
            list(_walk(1, 1, [({4: ConstLinear(1)},)], _point_then(Side.POINT)))

    def test_short_stream_raises(self):
        with pytest.raises(ValueError, match=r"need 3 pieces to cover \[0, 5/2\]"):
            list(_walk(Fraction(5, 2), 1, [({},), ({},)], _point_then(Side.POINT)))


# -- construction guards ----------------------------------------------------

class TestConstruction:
    def test_exponent_range(self):
        with pytest.raises(ValueError):
            monomial(1, 4)
        with pytest.raises(ValueError):
            monomial(1, -3)

    def test_zero_coefficients_dropped(self):
        f = PiecewiseLaurent(1, [{0: ConstLinear.zero(), 1: ConstLinear.scalar(1)}])
        assert f.pieces[0] == {1: ConstLinear.scalar(1)}

    def test_needs_enough_pieces(self):
        with pytest.raises(ValueError):
            PiecewiseLaurent(Fraction(5, 2), [{}, {}])


# -- integration ------------------------------------------------------------

class TestIntegrate:
    def test_weighted_square(self):
        f = monomial(2, 2)
        assert f.integrate(2, "1/t^2") == ConstLinear.scalar(2)

    def test_series_integral(self):
        h = mu_series()
        # integral over (0, 1) of -A2 t plus (1, 3/2) of -A2 t + 1
        assert h.integrate(Fraction(3, 2), "1") == \
            ConstLinear(Fraction(1, 2), Fraction(-9, 8), 0)

    def test_log_case(self):
        f = monomial(1, 1)
        with pytest.raises(LogCaseError):
            f.integrate(1, "1/t^2")

    def test_log_case_interior(self):
        f = PiecewiseLaurent(2, [{0: ConstLinear.scalar(1)},
                                 {-1: ConstLinear.scalar(1)}])
        with pytest.raises(LogCaseError) as err:
            f.integrate(Fraction(3, 2), "1")
        assert err.value.piece == 1
        # up to the bad piece everything is fine
        assert f.integrate(1, "1") == ConstLinear.scalar(1)

    def test_divergent_at_zero(self):
        f = PiecewiseLaurent(1, [{-2: ConstLinear.scalar(1)}])
        with pytest.raises(DivergentAtZeroError):
            f.integrate(1, "1")

    def test_weight_strings(self):
        f = monomial(1, 2)
        assert f.integrate(1, 1) == f.integrate(1, "1")
        with pytest.raises(ValueError):
            f.integrate(1, "1/t^3")

    @given(laurents())
    @example(monomial(3, 3))
    @settings(max_examples=40)
    def test_integer_endpoints_against_whole_piece_sums(self, f):
        # t^3 pieces give t^4 primitives, outside the stored exponent range,
        # and t^-2 pieces t^-1 ones
        total = ConstLinear.zero()
        assert f.integrate(0, "1") == total
        for k in range(f.npieces - 1):
            for e, c in f.pieces[k].items():
                lo = Fraction(k) ** (e + 1) if k else 0
                total = total + c * ((Fraction(k + 1) ** (e + 1) - lo) / (e + 1))
            assert f.integrate(k + 1, "1") == total, k + 1

    @given(laurents(exps=(-2, 0, 1, 2, 3)), interior, interior)
    @settings(max_examples=40)
    def test_additivity_against_direct_formula(self, f, u, v):
        # pick a segment inside the last covered piece, compare with the power rule
        k = f.npieces - 2
        x1 = k + min(u, v)
        x2 = k + max(u, v)
        seg = f.integrate(x2, "1") - f.integrate(x1, "1")
        direct = ConstLinear.zero()
        for e, c in f.pieces[k].items():
            direct = direct + c * ((x2 ** (e + 1) - x1 ** (e + 1)) / Fraction(e + 1))
        assert seg == direct

    @given(laurents(exps=(0, 1, 2)))
    @settings(max_examples=40)
    def test_kernel_identity(self, h):
        # integral of (t*h(t))/t equals the plain integral of h
        th = PiecewiseLaurent(h.X, [{e + 1: c for e, c in p.items()} for p in h.pieces])
        x = h.X - Fraction(1, 2)
        assert th.integrate(x, "1/t") == h.integrate(x, "1")

    @given(laurents(exps=(0, 1, 2, 3)))
    @settings(max_examples=40)
    def test_antiderivative_differentiates_back(self, f):
        # d/dx integral_0^x f = f at non-breakpoints, via a symmetric exact check:
        # the slope of the quadratic Taylor model must match term evaluation
        x = f.X - Fraction(1, 2)
        eps = Fraction(1, 7)
        lo, hi = x - eps, x + eps
        avg_slope = (f.integrate(hi, "1") - f.integrate(lo, "1")) / (2 * eps)
        # for piecewise polynomials of degree <= 3 the centered difference equals
        # f(x) + f''(x) eps^2/6; compute the correction exactly
        piece = f.pieces[f.npieces - 2]
        second = ConstLinear.zero()
        for e, c in piece.items():
            if e >= 2:
                second = second + c * (e * (e - 1)) * x ** (e - 2)
        assert avg_slope == f.eval_at(x) + second * (eps * eps / 6)


# -- linear combinations -----------------------------------------------------

@st.composite
def combination_terms(draw):
    """(X, terms): one to three functions on [0, X] with a shared piece count
    (X or X + 1), each with an int or Fraction factor and a shift in {-1, 0, 1}."""
    n = draw(st.integers(1, 4))
    npieces = draw(st.sampled_from([n, n + 1]))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        g = PiecewiseLaurent(n, [draw(piece([-1, 0, 1, 2])) for _ in range(npieces)])
        c = draw(st.one_of(st.sampled_from([1, -1, 2, -3]), small_fracs))
        terms.append((c, draw(st.integers(-1, 1)), g))
    return n, terms


class TestCombination:
    @given(combination_terms(),
           st.lists(st.fractions(min_value=Fraction(1, 12), max_value=4, max_denominator=12),
                    max_size=4))
    @settings(max_examples=60)
    def test_equals_pointwise_combination(self, case, points):
        X, terms = case
        f = _combination(X, *((c, m, g.pieces) for c, m, g in terms))
        for x in [x for x in points if x <= X] + list(range(1, X + 1)):
            x = Fraction(x)
            for side in Side:
                try:
                    expect = sum((g.eval_at(x, side) * c * x ** m for c, m, g in terms),
                                 ConstLinear.zero())
                except DomainError:
                    with pytest.raises(DomainError):
                        f.eval_at(x, side)
                    continue
                assert f.eval_at(x, side) == expect, (x, side)


# -- the integer evaluation kernel against a Fraction oracle ------------------

# Rationals over ~1 kbit denominators, the divisors lcm(1..700)/k, next to
# small ones; coefficients are real or complex
LCM_700 = math.lcm(*range(1, 701))
kernel_rationals = st.one_of(
    small_fracs, st.builds(lambda n, k: Fraction(n, LCM_700 // k),
                           st.integers(-LCM_700, LCM_700), st.integers(1, 700)))
kernel_scalars = st.one_of(kernel_rationals,
                           st.builds(GaussianRational, kernel_rationals, kernel_rationals))
kernel_coeffs = st.tuples(kernel_scalars, kernel_scalars, kernel_scalars)


@st.composite
def kernel_cases(draw):
    """(f, reference pieces, x): pieces with exponents in [-2, 3], a domain
    end that may or may not be covered by a piece, and a point of [0, X]."""
    n = draw(st.integers(1, 4))
    pieces, ref_pieces = [], []
    for _ in range(n):
        terms = draw(st.dictionaries(st.integers(EXP_MIN, EXP_MAX), kernel_coeffs, max_size=3))
        pieces.append({e: ConstLinear(*c) for e, c in terms.items()})
        ref_pieces.append({e: RefConstLinear(*c) for e, c in terms.items()})
    X = draw(st.sampled_from([Fraction(n), Fraction(n - 1), n - Fraction(1, 3)]).filter(bool))
    s = draw(st.sampled_from([1, 1, 2, 3, 7, 12, 10 ** 20 + 39]))
    x = Fraction(draw(st.integers(0, math.floor(X * s))), s)
    return PiecewiseLaurent(X, pieces), ref_pieces, x


def _ref_piece_value(piece, x):
    total = RefConstLinear()
    for e, c in piece.items():
        if c.is_zero():
            continue
        if e < 0 and not x:
            raise DomainError("negative exponent evaluated at 0")
        total = total + c * x ** e
    return total


def ref_eval(ref_pieces, x, side):
    """The breakpoint conventions read off their definitions."""
    k = math.floor(x)
    if x.denominator != 1:
        return _ref_piece_value(ref_pieces[k], x)
    if side is Side.MIDPOINT:
        return (ref_eval(ref_pieces, x, Side.LEFT) + ref_eval(ref_pieces, x, Side.RIGHT)) / 2
    if side is Side.LEFT:
        if k == 0:
            raise DomainError("no left limit at 0")
        return _ref_piece_value(ref_pieces[k - 1], x)
    if side is Side.RIGHT and k >= len(ref_pieces):
        raise DomainError(f"no right limit at the domain end {x}")
    return _ref_piece_value(ref_pieces[min(k, len(ref_pieces) - 1)], x)


def ref_integrate(ref_pieces, x, shift):
    """integral_0^x f(t) t^shift dt, unit interval by unit interval."""
    total = RefConstLinear()
    for j in range(math.ceil(x)):
        a, b = Fraction(j), min(Fraction(j + 1), x)
        for e, c in sorted(ref_pieces[j].items()):
            if c.is_zero():
                continue
            m = e + shift
            if m == -1:
                raise LogCaseError(j)
            if j == 0 and m < -1:
                raise DivergentAtZeroError(m)
            total = total + c * (b ** (m + 1) - a ** (m + 1)) / (m + 1)
    return total


def assert_stored_as(got, ref):
    """got holds the value of ref in lowest terms: the very numerators and
    denominator the constructor stores for it."""
    expect = ConstLinear(*(GaussianRational(re, im) for re, im in ref.c))
    assert (got._n, got._d) == (expect._n, expect._d)
    assert math.gcd(got._d, *got._n) == 1


def assert_same_outcome(run, ref_run):
    """run() returns what ref_run() returns, or raises the same type and message."""
    try:
        ref = ref_run()
    except ValueError as exc:
        with pytest.raises(type(exc)) as got:
            run()
        assert str(got.value) == str(exc)
        return
    assert_stored_as(run(), ref)


class TestIntegerKernel:
    @given(kernel_cases())
    @settings(max_examples=150, deadline=None)
    def test_eval_at_against_fraction_oracle(self, case):
        f, ref_pieces, x = case
        for side in Side:
            assert_same_outcome(lambda: f.eval_at(x, side),
                                lambda: ref_eval(ref_pieces, x, side))
        if x.denominator == 1:
            # an int point reads the same as its Fraction
            assert_same_outcome(lambda: f.eval_at(int(x)),
                                lambda: ref_eval(ref_pieces, x, Side.POINT))

    @given(kernel_cases())
    @settings(max_examples=150, deadline=None)
    def test_integrate_against_fraction_oracle(self, case):
        f, ref_pieces, x = case
        for weight, shift in (("1", 0), ("1/t", -1), ("1/t^2", -2)):
            assert_same_outcome(lambda: f.integrate(x, weight),
                                lambda: ref_integrate(ref_pieces, x, shift))

    @pytest.mark.parametrize("call, message", [
        (lambda: monomial(2, -1).eval_at(0), "negative exponent evaluated at 0"),
        (lambda: monomial(2, -2).eval_at(0, Side.RIGHT), "negative exponent evaluated at 0"),
        (lambda: monomial(2, 2).eval_at(0, Side.LEFT), "no left limit at 0"),
        (lambda: monomial(2, 2).eval_at(0, Side.MIDPOINT), "no left limit at 0"),
        (lambda: PiecewiseLaurent(2, [{0: ConstLinear(1)}, {1: ConstLinear(2)}]).eval_at(
            2, Side.RIGHT), "no right limit at the domain end 2"),
        (lambda: PiecewiseLaurent(2, [{0: ConstLinear(1)}, {1: ConstLinear(2)}]).eval_at(
            2, Side.MIDPOINT), "no right limit at the domain end 2"),
        (lambda: monomial(Fraction(5, 2), 1).eval_at(Fraction(-1, 3)),
         "evaluation point -1/3 outside [0, 5/2]"),
        (lambda: monomial(Fraction(5, 2), 1).eval_at(Fraction(18, 7)),
         "evaluation point 18/7 outside [0, 5/2]"),
        (lambda: monomial(Fraction(5, 2), 1).integrate(Fraction(-1, 3)),
         "integration endpoint -1/3 outside [0, 5/2]"),
        (lambda: monomial(Fraction(5, 2), 1).integrate(3, "1/t"),
         "integration endpoint 3 outside [0, 5/2]"),
    ], ids=["negative exponent at 0", "negative exponent at 0 right", "left at 0",
            "midpoint at 0", "right at uncovered end", "midpoint at uncovered end",
            "eval below 0", "eval above X", "integrate below 0", "integrate above X"])
    def test_error_cases(self, call, message):
        with pytest.raises(DomainError) as got:
            call()
        assert type(got.value) is DomainError and str(got.value) == message


# -- text dump ----------------------------------------------------------------

class TestDump:
    def test_roundtrip(self):
        h = mu_series()
        again = PiecewiseLaurent.loads(h.dumps())
        assert again == h

    def test_header_optional(self):
        f = PiecewiseLaurent.loads("0: e1=0/1 + -1/1*A2 + 0/1*A1\n")
        assert f.X == 1 and f.pieces[0] == {1: A2(-1)}

    def test_malformed_inputs(self):
        with pytest.raises(FormatError):
            PiecewiseLaurent.loads("")
        with pytest.raises(FormatError):
            PiecewiseLaurent.loads("1: e0=1/1 + 0/1*A2 + 0/1*A1\n")  # must start at 0
        with pytest.raises(FormatError):
            PiecewiseLaurent.loads("0: e9=1/1 + 0/1*A2 + 0/1*A1\n")  # exponent range
        # t^-1 on (0, 1) is a function, not malformed text: it round-trips, and
        # integrating it raises (TestIntegrate)
        assert PiecewiseLaurent.loads(monomial(1, -1).dumps()) == monomial(1, -1)
        with pytest.raises(FormatError):
            PiecewiseLaurent.loads("X: 1/0\n0: e0=1/1 + 0/1*A2 + 0/1*A1\n")

    def test_repeated_exponent_rejected(self):
        # keeping either coefficient would drop the other silently
        with pytest.raises(FormatError, match="line 2: exponent 2 given twice"):
            PiecewiseLaurent.loads("X: 1\n0: e2=1/1 + 0/1*A2 + 0/1*A1; "
                                   "e02=5/1 + 0/1*A2 + 0/1*A1\n")

    def test_repeated_domain_end_rejected(self):
        with pytest.raises(FormatError, match="line 3: a second X: header"):
            PiecewiseLaurent.loads("X: 2\n0: e2=1/1 + 0/1*A2 + 0/1*A1\nX: 1\n")
