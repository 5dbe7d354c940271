"""Error terms, solution families and exact residuals of the integral equation."""

import gc
import math
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (divisor_sum_oracle, floor_identity_oracle, fracpart_series_finite,
                      gaussian, mixed_file_text, mixed_file_values, partial_quadratic_sum,
                      weighted_sum)
from errlab.errors import DomainError, LogCaseError
from errlab.exactnum import ConstLinear, GaussianRational
from errlab.piecewise import PiecewiseLaurent, Side, monomial
from errlab.sequences import (ArithSequence, convolve_id, floor_sum, kronecker_character,
                              mobius_sieve, numeric_constants, read_sequence_csv, summatory,
                              summatory_via_floor_identity, twist)
from errlab.volterra import (build_error_term, build_fracpart_series, make_case,
                             remainder_integral_residual, residual, resolvent_function,
                             solution_family)

A2 = ConstLinear.a2
GRID_THIRDS = [Fraction(k, 3) for k in range(1, 37)]

small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
coeffs = st.builds(ConstLinear, small_fracs, small_fracs, small_fracs)


@st.composite
def resolvable(draw):
    """E with E(t)/t^2 integrable at 0+ and no t^-1 term in it anywhere."""
    n = draw(st.integers(min_value=1, max_value=4))
    pieces = [draw(st.dictionaries(st.sampled_from(exps), coeffs, max_size=3))
              for exps in [(2, 3)] + [(-2, 0, 2, 3)] * n]
    return PiecewiseLaurent(n, pieces)


def weighted_integral_oracle(E, x):
    """integral_0^x E(t)/t^2 dt, term by term with the power rule."""
    total = ConstLinear.zero()
    for k in range(math.ceil(x)):
        hi = Fraction(min(x, k + 1))
        for e, c in E.pieces[k].items():
            lo = Fraction(k) ** (e - 1) if k else 0
            total = total + c * ((hi ** (e - 1) - lo) / (e - 1))
    return total


def mu_case(X=12):
    return make_case(mobius_sieve(X), X)


def complex_file_sequence(n=36):
    # deterministic small Gaussian rationals with |a| <= 2
    vals = [GaussianRational(Fraction((-1) ** k, k), Fraction(1, k + 2))
            for k in range(1, n + 1)]
    return ArithSequence("zfile", vals, magnitude_bound=Fraction(2))


def mixed_file_sequence(n=36):
    # ints, Fractions and Gaussian rationals in one sequence, |a| <= 2
    return ArithSequence("mixed", mixed_file_values(n), magnitude_bound=Fraction(2))


class TestMixedFileSequence:
    """A sequence holding ints, Fractions and complex values, through every
    sequence operation, against the (re, im)-pair oracles."""

    X_GRID = [Fraction(k, 4) for k in range(0, 4 * 36 + 1, 3)]

    def test_file_holds_the_same_values(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text(mixed_file_text())
        a, b = read_sequence_csv(path)
        assert b is None and a.N == 36
        assert [gaussian(a.value(n)) for n in range(1, 37)] == [
            gaussian(v) for v in mixed_file_values()]

    def test_convolution_prefix_sums_and_summatory(self):
        a = mixed_file_sequence()
        b = convolve_id(a)
        for n in range(1, a.N + 1):
            assert gaussian(b.value(n)) == divisor_sum_oracle(a, n), n
        for k in range(a.N + 1):
            prefix = weighted_sum((a.value(n), 1) for n in range(1, k + 1))
            assert gaussian(a.prefix_sum(k)) == prefix, k
        for x in self.X_GRID:
            expect = weighted_sum((divisor_sum_oracle(a, n), 1)
                                  for n in range(1, math.floor(x) + 1))
            assert summatory(b, x) == expect, x

    def test_floor_sums(self):
        a = mixed_file_sequence()
        for x in self.X_GRID:
            assert summatory_via_floor_identity(a, x) == floor_identity_oracle(a, x), x
            expect = weighted_sum((a.value(d), math.floor(x / d))
                                  for d in range(1, math.floor(x) + 1))
            assert floor_sum(a, x) == expect, x

    def test_twist(self):
        a, chi = mixed_file_sequence(), kronecker_character(5)
        t = twist(a, chi)
        assert t.magnitude_bound == a.magnitude_bound
        for n in range(1, a.N + 1):
            assert gaussian(t.value(n)) == weighted_sum([(a.value(n), chi.chi(n))]), n

    def test_a2_bit_for_bit(self):
        # the float a2 of the mixed sequence and of its twist, pinned bit for bit
        a, chi = mixed_file_sequence(), kronecker_character(5)
        got = [numeric_constants(s, chi, precision_target=0.1)[0] for s in (a, twist(a, chi))]
        assert [(z.real.hex(), z.imag.hex()) for z in got] == [
            ("-0x1.3e181fe2388b9p+1", "0x1.b2a3361767ba0p-5"),
            ("-0x1.ac2223b23c6c0p+0", "-0x1.df0669b4c0349p-6")]

    def test_spot_check(self):
        # the convolution as Gaussian rationals passes the spot check; the
        # same with b(5) off by one does not
        a = mixed_file_sequence()
        same = [divisor_sum_oracle(a, n) for n in range(1, a.N + 1)]
        b = ArithSequence("same", same)
        assert make_case(a, a.N, b=b).b is b
        z = same[4]
        same[4] = GaussianRational(z.re + 1, z.im)
        with pytest.raises(ValueError):
            make_case(a, a.N, b=ArithSequence("bad", same))


class TestCaseAssembly:
    def test_rejects_large_domain(self):
        with pytest.raises(DomainError):
            make_case(mobius_sieve(10), 11)

    def test_spot_check_rejects_obvious_tamper(self):
        mu = mobius_sieve(20)
        b = convolve_id(mu)
        bad = ArithSequence("bad", [b.value(n) + (1 if n == 2 else 0)
                                    for n in range(1, 21)])
        with pytest.raises(ValueError):
            make_case(mu, 20, b=bad)

    def test_spot_check_compares_values_not_types(self):
        # the convolution of the sieve holds ints; the same values as
        # Fractions or Gaussian rationals pass
        mu = mobius_sieve(20)
        b = convolve_id(mu)
        for kind in (Fraction, GaussianRational):
            same = ArithSequence("same", [kind(b.value(n)) for n in range(1, 21)])
            assert make_case(mu, 20, b=same).b is same

    def test_b_is_keyword_only(self):
        # b is keyword-only, so a stray positional argument cannot bind it
        with pytest.raises(TypeError):
            make_case(mobius_sieve(12), 12, 0)


class TestErrorTerm:
    def test_values(self):
        E = build_error_term(mu_case())
        assert E.eval_at(1, Side.RIGHT) == ConstLinear(1, Fraction(-1, 2), 0)
        assert E.eval_at(Fraction(1, 2)) == A2(Fraction(-1, 8))
        assert E.eval_at(Fraction(3, 2)) == ConstLinear(1, Fraction(-9, 8), 0)


class TestFracpartSeries:
    def test_values(self):
        h = build_fracpart_series(mu_case())
        assert h.eval_at(Fraction(1, 2)) == A2(Fraction(-1, 2))
        assert h.eval_at(1, Side.RIGHT) == ConstLinear(1, -1, 0)
        jump2 = h.eval_at(2, Side.RIGHT) - h.eval_at(2, Side.LEFT)
        assert jump2 == ConstLinear.scalar(Fraction(1, 2))  # b(2)/2

    def test_slope_is_minus_a2_on_every_piece(self):
        h = build_fracpart_series(mu_case(30))
        for piece in h.pieces:
            assert piece[1] == A2(-1)

    def test_constants_against_direct_floor_sums(self):
        # the piece constant is sum_{n<=k} (a(n)/n) floor(k/n), rebuilt here
        # longhand in Gaussian rationals instead of through the convolution
        # recurrence, for int, Gaussian and Fraction values
        fractions = ArithSequence("q", [Fraction((-1) ** n * n, n + 1) for n in range(1, 37)])
        for a in (twist(mobius_sieve(60), kronecker_character(-3)),
                  complex_file_sequence(), fractions):
            h = build_fracpart_series(make_case(a, a.N))
            for k in range(0, a.N + 1, 7):
                direct = weighted_sum((a.value(n), Fraction(k // n, n)) for n in range(1, k + 1))
                assert h.pieces[k].get(0, ConstLinear.zero()) == ConstLinear(direct), (a, k)

    def test_closed_form_equals_series_plus_tail(self):
        # representation value = finite fractional-part sum - x * (A2 - partial)
        mu = mobius_sieve(40)
        h = build_fracpart_series(make_case(mu, 40))
        for x in (Fraction(5, 2), Fraction(17, 3), Fraction(31, 4), 7):
            finite = fracpart_series_finite(mu, Fraction(x))
            tail = A2(-1) + ConstLinear(partial_quadratic_sum(mu, int(x)))
            expect = ConstLinear(finite) + tail * Fraction(x)
            assert h.eval_at(x, Side.RIGHT) == expect, x

    def test_jump_relation_against_divisor_oracle(self):
        a = complex_file_sequence()
        h = build_fracpart_series(make_case(a, a.N))
        for n in range(1, a.N + 1):
            jump = h.eval_at(n, Side.RIGHT) - h.eval_at(n, Side.LEFT)
            assert jump == ConstLinear(weighted_sum([(divisor_sum_oracle(a, n), Fraction(1, n))])), n


class TestSolutionFamily:
    def test_values(self):
        h = build_fracpart_series(mu_case())
        assert solution_family(h).eval_at(1, Side.RIGHT) == ConstLinear(1, -1, 0)
        assert solution_family(h, 1).eval_at(Fraction(1, 2)) == \
            ConstLinear(Fraction(1, 2), Fraction(-1, 4), 0)
        assert solution_family(h, 5).eval_at(0) == ConstLinear.zero()

    def test_solution_build_example(self):
        h = build_fracpart_series(mu_case())
        F = solution_family(h, 1)
        assert F.eval_at(1, Side.RIGHT) == ConstLinear(2, -1, 0)

    @pytest.mark.parametrize("A", [0, -2, GaussianRational(Fraction(3, 2), Fraction(1, 2))])
    @pytest.mark.parametrize("seq", [mobius_sieve(12), complex_file_sequence()],
                             ids=["mu", "zfile"])
    def test_equals_closed_form(self, seq, A):
        # F = (h + A) x at every point k/3 of [0, 12] and at both one-sided
        # limits at each integer
        h = build_fracpart_series(make_case(seq, 12))
        F = solution_family(h, A)
        A = ConstLinear(A)
        for x in (Fraction(k, 3) for k in range(37)):
            assert F.eval_at(x) == (h.eval_at(x) + A) * x, x
        for n in range(13):
            sides = (Side.LEFT, Side.RIGHT) if n else (Side.RIGHT,)
            for side in sides:
                assert F.eval_at(n, side) == (h.eval_at(n, side) + A) * n, (n, side)


class TestResidual:
    def test_zero_for_solutions(self):
        case = mu_case()
        E = build_error_term(case)
        h = build_fracpart_series(case)
        assert residual(solution_family(h), E).eval_at(1).is_zero()
        big = solution_family(h, GaussianRational(Fraction(3, 2), Fraction(1, 2)))
        assert residual(big, E).eval_at(Fraction(17, 3)).is_zero()

    def test_nonzero_for_non_solutions(self):
        case = mu_case()
        E = build_error_term(case)
        F = monomial(case.X, 2)
        assert not residual(F, E).eval_at(1).is_zero()

    @pytest.mark.parametrize("A", [0, 1, -2,
                                   GaussianRational(Fraction(3, 2), Fraction(1, 2))])
    def test_grid(self, A):
        case = mu_case()
        E = build_error_term(case)
        F = solution_family(build_fracpart_series(case), A)
        for x in GRID_THIRDS:
            assert residual(F, E).eval_at(x).is_zero(), x

    @pytest.mark.parametrize("A", [ConstLinear.a1(Fraction(1, 2)), A2(Fraction(-7, 3))],
                             ids=["half_A1", "A2_multiple"])
    @pytest.mark.parametrize("d", [None, -3], ids=["mu", "mu_chi_-3"])
    def test_symbolic_free_constant_grid(self, A, d):
        # the twisted split's arithmetic part is solution_family(h, A1/2)
        a = mobius_sieve(30)
        if d is not None:
            a = twist(a, kronecker_character(d))
        case = make_case(a, 30)
        E = build_error_term(case)
        h = build_fracpart_series(case)
        F = solution_family(h, A)
        assert F.eval_at(Fraction(7, 3)) - solution_family(h).eval_at(Fraction(7, 3)) \
            == A * Fraction(7, 3)
        for k in range(1, 91):
            x = Fraction(k, 3)
            assert residual(F, E).eval_at(x).is_zero(), x

    def test_user_file_sequence_grid(self):
        a = complex_file_sequence()
        case = make_case(a, 12)
        E = build_error_term(case)
        F = solution_family(build_fracpart_series(case), GaussianRational(0, 1))
        for x in GRID_THIRDS:
            assert residual(F, E).eval_at(x).is_zero(), x

    def test_tampered_b_detected(self):
        mu = mobius_sieve(30)
        b = convolve_id(mu)
        bad = ArithSequence("bad", [b.value(n) + (1 if n == 17 else 0)
                                    for n in range(1, 31)])
        case = make_case(mu, 30, b=bad)
        E = build_error_term(case)
        F = solution_family(build_fracpart_series(case))
        assert residual(F, E).eval_at(10).is_zero()
        assert not residual(F, E).eval_at(20).is_zero()

    def test_unequal_domains_stop_at_the_shorter(self):
        # F(t)/t has a t^-1 term only on (2, 3), past [0, min(F.X, E.X)] = [0, 2]
        F = PiecewiseLaurent(3, [{1: 1}, {1: 1}, {0: 1}])
        E = PiecewiseLaurent(2, [{}, {}])
        R = residual(F, E)
        assert (R.X, R.pieces) == (2, [{}, {}])
        # inside the domain a t^-1 term still raises, with the same message
        inside = PiecewiseLaurent(3, [{1: 1}, {0: 1}, {1: 1}])
        with pytest.raises(LogCaseError, match=re.escape(str(LogCaseError(1)))):
            residual(inside, E)


class TestBuildMemory:
    def test_builds_retain_no_antiderivatives(self):
        # the antiderivatives a builder reads are consumed as they are made,
        # so nothing but its result outlives it; caching them kept 2.9 MB
        case = make_case(mobius_sieve(1000), 1000)
        E = build_error_term(case)
        h = build_fracpart_series(case)
        gc.collect()
        tracemalloc.start()
        try:
            R = remainder_integral_residual(E, h)
            F = resolvent_function(E)
            S = residual(F, E)
            assert R.pieces == S.pieces == [{}] * 1001
            del R, F, S
            gc.collect()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 500_000 and peak < 2_500_000, (retained, peak)


class TestRemainderIntegral:
    def test_hand_values(self):
        case = mu_case()
        E = build_error_term(case)
        h = build_fracpart_series(case)
        # Er(3/2) = 1 - (9/8) A2, x h = 3/2 - (9/4) A2, integral = 1/2 - (9/8) A2
        r = E.eval_at(Fraction(3, 2)) - h.eval_at(Fraction(3, 2)) * Fraction(3, 2)
        assert r == ConstLinear(Fraction(-1, 2), Fraction(9, 8), 0)
        assert h.integrate(Fraction(3, 2), "1") == ConstLinear(Fraction(1, 2), Fraction(-9, 8), 0)
        assert remainder_integral_residual(E, h).eval_at(Fraction(3, 2)).is_zero()
        assert remainder_integral_residual(E, h).eval_at(1).is_zero()
        assert remainder_integral_residual(E, h).eval_at(0).is_zero()

    def test_grid(self):
        case = mu_case()
        E = build_error_term(case)
        h = build_fracpart_series(case)
        for x in GRID_THIRDS:
            assert remainder_integral_residual(E, h).eval_at(x).is_zero(), x

    def test_remainder_continuous_at_integers(self):
        case = mu_case(20)
        E = build_error_term(case)
        h = build_fracpart_series(case)
        for n in range(1, 21):
            right = E.eval_at(n, Side.RIGHT) - h.eval_at(n, Side.RIGHT) * n
            left = E.eval_at(n, Side.LEFT) - h.eval_at(n, Side.LEFT) * n
            assert right == left, n


def homogeneous(A, X):
    """The solution A t of the homogeneous equation on [0, X] and the zero
    right side it solves."""
    zero = monomial(X, 0, 0)
    return solution_family(zero, A), zero


class TestHomogeneous:
    @pytest.mark.parametrize("A,x", [(1, 5), (GaussianRational(0, 1), Fraction(1, 3)),
                                     (0, Fraction(22, 7)), (0, 0)])
    def test_zero(self, A, x):
        G, zero = homogeneous(A, x or 1)
        assert residual(G, zero).eval_at(x).is_zero()


class TestHomogeneousFunction:
    A_VALUES = (0, 1, GaussianRational(0, 1), GaussianRational(Fraction(3, 2), Fraction(-1, 2)))

    @pytest.mark.parametrize("A", A_VALUES)
    def test_prebuilt_matches_fresh(self, A):
        G, zero = homogeneous(A, 12)
        for x in GRID_THIRDS:
            expect = ConstLinear(weighted_sum([(A, x)]))
            assert G.eval_at(x, Side.RIGHT) == expect, x
            assert G.integrate(x, "1/t") == expect, x
            got = residual(G, zero).eval_at(x)
            fresh = residual(*homogeneous(A, x)).eval_at(x)
            assert got.is_zero() and got == fresh, x

    def test_prebuilt_g_is_used(self):
        # t^2 is not homogeneous: x^2 - x^2/2 remains
        x = Fraction(7, 3)
        assert residual(monomial(12, 2), monomial(12, 0, 0)).eval_at(x) == \
            ConstLinear.scalar(x * x / 2)

    def test_point_beyond_prebuilt_domain(self):
        G, zero = homogeneous(1, 12)
        assert residual(G, zero).eval_at(12).is_zero()
        with pytest.raises(DomainError):
            residual(G, zero).eval_at(Fraction(37, 3))


class TestResolvent:
    def test_square_toy(self):
        E = monomial(2, 2)
        F = resolvent_function(E)
        assert F.eval_at(2, Side.RIGHT) == ConstLinear.scalar(8)
        for x in (Fraction(1, 2), 1, Fraction(7, 4)):
            assert F.eval_at(x, Side.RIGHT) == ConstLinear.scalar(2 * Fraction(x) ** 2)
            assert residual(F, E).eval_at(x).is_zero()

    def test_linear_is_log_case(self):
        E = monomial(2, 1)
        with pytest.raises(LogCaseError):
            resolvent_function(E).eval_at(1, Side.RIGHT)
        with pytest.raises(LogCaseError):
            resolvent_function(E)

    def test_solves_equation_for_error_term(self):
        case = mu_case()
        E = build_error_term(case)
        F = resolvent_function(E)
        for x in GRID_THIRDS:
            assert residual(F, E).eval_at(x).is_zero(), x

    def test_uniqueness_surrogate(self):
        case = mu_case()
        E = build_error_term(case)
        h = build_fracpart_series(case)
        F = resolvent_function(E)
        c_ref = (F.eval_at(1, Side.RIGHT) - h.eval_at(1, Side.RIGHT)) / 1
        for x in GRID_THIRDS:
            c = (F.eval_at(x, Side.RIGHT) - h.eval_at(x, Side.RIGHT) * x) / x
            assert c == c_ref, x

    @given(resolvable(), small_fracs, st.integers(min_value=0, max_value=3),
           st.fractions(min_value=Fraction(1, 40), max_value=Fraction(39, 40),
                        max_denominator=40))
    @settings(max_examples=40)
    def test_pieces_against_power_rule(self, E, A, k, u):
        # t^-2 terms of E give t^-3 primitives, which t lifts back to t^-2
        F = resolvent_function(E, A)
        k = min(k, E.npieces - 2)
        for x in (Fraction(k + 1), k + u):
            integral = weighted_integral_oracle(E, x)
            expect = E.eval_at(x, Side.RIGHT) + (integral + ConstLinear.scalar(A)) * x
            assert F.eval_at(x, Side.RIGHT) == expect, x
            assert residual(F, E).eval_at(x).is_zero(), x

    def test_free_constant_shifts_linearly(self):
        case = mu_case()
        E = build_error_term(case)
        FA = resolvent_function(E, GaussianRational(2))
        F0 = resolvent_function(E, 0)
        x = Fraction(7, 3)
        assert FA.eval_at(x) - F0.eval_at(x) == ConstLinear.scalar(2 * x)


class TestTruncationIdentity:
    def test_truncated_series_differs_by_exact_tail(self):
        # cutting the series at M changes the value by exactly x*(A2 - partial_M)
        M = 300
        mu = mobius_sieve(M)
        h = build_fracpart_series(make_case(mu, 40))
        partial = partial_quadratic_sum(mu, M)
        for x in (Fraction(5, 2), Fraction(17, 3), 25):
            x = Fraction(x)
            truncated = weighted_sum(
                (mu.value(n), -(x / n - x.numerator // (n * x.denominator)) / n)
                for n in range(1, M + 1))
            diff = h.eval_at(x, Side.RIGHT) - ConstLinear(truncated)
            expect = (A2(-1) + ConstLinear(partial)) * x
            assert diff == expect, x
