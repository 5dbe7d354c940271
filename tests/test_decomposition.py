"""Arithmetic/analytic split of the error term, plain and twisted."""

import math
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import frac_part, sawtooth_oracle, weighted_sum
from errlab import decomposition
from errlab.decomposition import (FROZEN_GROWTH_MAX, build_fracsquare_series,
                                  decompose, growth_max_ratio, split_at,
                                  trivial_character_relations, twisted_case,
                                  untwisted_case, verify_suites)
from errlab.errors import DomainError
from errlab.exactnum import ConstLinear, GaussianRational
from errlab.piecewise import PiecewiseLaurent, Side
from errlab.sequences import (ArithSequence, convolve_id, kronecker_character,
                              mobius_sieve, twist)
from errlab.volterra import build_fracpart_series, make_case

A2 = ConstLinear.a2
A1 = ConstLinear.a1


def case_of(a, X=None):
    return make_case(a, a.N if X is None else X)


def g_of(case, twisted=False):
    """g of a case, mapped from the case's own fractional-part series."""
    return build_fracsquare_series(case, build_fracpart_series(case), twisted)


def plain(X):
    return untwisted_case(case_of(mobius_sieve(X)))


def twisted(chi, X):
    return twisted_case(case_of(twist(mobius_sieve(X), chi)))


def sawtooth_series(chi, X):
    """E_AR(x, chi) = x f(x, chi), f(x, chi) = sum (mu(d)chi(d)/d) s(x/d)."""
    return twisted(chi, X).arithmetic_part


class TestFracsquareSeries:
    def test_values_plain(self):
        mu = mobius_sieve(12)
        g = g_of(case_of(mu))
        assert g.eval_at(Fraction(1, 2)) == A2(Fraction(1, 4))
        assert g.eval_at(Fraction(3, 2)) == ConstLinear(-2, Fraction(9, 4), 0)

    def test_values_twisted_tail_only(self):
        a = twist(mobius_sieve(12), kronecker_character(-3))
        g = g_of(case_of(a), twisted=True)
        assert g.eval_at(Fraction(1, 2)) == A2(Fraction(1, 4)) + A1(Fraction(-1, 2))

    def test_plain_constants_against_direct_floor_sums(self):
        mu = mobius_sieve(40)
        g = g_of(case_of(mu))
        for k in range(0, 41, 5):
            direct = 0
            for n in range(1, k + 1):
                direct += mu.value(n) * (k // n) ** 2
            assert g.pieces[k].get(0, ConstLinear.zero()) == ConstLinear.scalar(direct), k

    def test_twisted_constants_against_direct_floor_sums(self):
        a = twist(mobius_sieve(40), kronecker_character(-4))
        g = g_of(case_of(a), twisted=True)
        for k in range(0, 41, 5):
            direct = 0
            for n in range(1, k + 1):
                m = k // n
                direct += a.value(n) * m * (m + 1)
            assert g.pieces[k].get(0, ConstLinear.zero()) == ConstLinear.scalar(direct), k

    def test_closed_form_equals_series_plus_tail(self):
        # value = finite sum + x^2 (A2 - partial2) [- x (A1 - partial1) twisted]
        a = twist(mobius_sieve(30), kronecker_character(-3))
        g2 = g_of(case_of(a), twisted=True)
        for x in (Fraction(7, 2), Fraction(22, 3)):
            ns = range(1, math.floor(x) + 1)
            finite = weighted_sum((a.value(n), frac_part(x / n) * (frac_part(x / n) - 1))
                                  for n in ns)
            p1 = weighted_sum((a.value(n), Fraction(1, n)) for n in ns)
            p2 = weighted_sum((a.value(n), Fraction(1, n * n)) for n in ns)
            expect = (ConstLinear(finite)
                      + (A2(1) - ConstLinear(p2)) * (x * x)
                      - (A1(1) - ConstLinear(p1)) * x)
            assert g2.eval_at(x) == expect, x

    def test_twisted_continuous_at_integers(self):
        a = twist(mobius_sieve(25), kronecker_character(-3))
        g = g_of(case_of(a), twisted=True)
        for n in range(1, 25):
            assert g.eval_at(n, Side.LEFT) == g.eval_at(n, Side.RIGHT), n


def rational_list_sequence(n=30):
    return ArithSequence("qfile", [Fraction((-1) ** k * (k % 5), k % 7 + 1)
                                   for k in range(1, n + 1)])


def complex_list_sequence(n=30):
    return ArithSequence("zfile", [GaussianRational(Fraction((-1) ** k, k), Fraction(1, k + 2))
                                   for k in range(1, n + 1)])


class TestFracsquareListPath:
    """The list-backed (non-integer) sequences against the defining series."""

    @pytest.mark.parametrize("make", [rational_list_sequence, complex_list_sequence])
    @pytest.mark.parametrize("twisted", [False, True])
    def test_against_brute_force_series(self, make, twisted):
        a = make()
        X = 12
        g = g_of(case_of(a, X), twisted)
        for k in range(1, 3 * X + 1):
            x = Fraction(k, 3)
            ns = range(1, math.floor(x) + 1)
            finite = weighted_sum(
                (a.value(n), frac_part(x / n) * (frac_part(x / n) - (1 if twisted else 0)))
                for n in ns)
            p1 = weighted_sum((a.value(n), Fraction(1, n)) for n in ns)
            p2 = weighted_sum((a.value(n), Fraction(1, n * n)) for n in ns)
            # the tail n > x has {x/n} = x/n
            expect = ConstLinear(finite) + (A2(1) - ConstLinear(p2)) * (x * x)
            if twisted:
                expect = expect - (A1(1) - ConstLinear(p1)) * x
            assert g.eval_at(x) == expect, x

    @pytest.mark.parametrize("make", [rational_list_sequence, complex_list_sequence])
    @pytest.mark.parametrize("twisted", [False, True])
    def test_tampered_b_leaves_g_unchanged(self, make, twisted):
        # g reads b_true, so an override of b past the spot-checked indices
        # reaches only the error term
        a = make()
        b = convolve_id(a)
        bad = ArithSequence("bad", [b.value(n) + (1 if n == 17 else 0)
                                    for n in range(1, a.N + 1)])
        tampered = make_case(a, a.N, b=bad)
        assert g_of(tampered, twisted) == g_of(case_of(a), twisted)


class TestSawtoothSeries:
    def test_tail_only_value(self):
        f = sawtooth_series(kronecker_character(-4), 12)
        x = Fraction(1, 2)
        assert f.eval_at(x) / x == A1(Fraction(1, 2)) + A2(Fraction(-1, 2))

    def test_integer_midpoint_matches_normalized_sawtooth(self):
        # at integers the divisor terms drop out (s vanishes there); the
        # midpoint value must equal the finite normalized sum plus the tail
        a = twist(mobius_sieve(30), kronecker_character(-3))
        f = sawtooth_series(kronecker_character(-3), 30)
        for x in (6, 12, 17):
            ns = range(1, x + 1)
            finite = weighted_sum((a.value(n), sawtooth_oracle(Fraction(x, n)) / n) for n in ns)
            p1 = weighted_sum((a.value(n), Fraction(1, n)) for n in ns)
            p2 = weighted_sum((a.value(n), Fraction(1, n * n)) for n in ns)
            expect = (ConstLinear(finite)
                      + (A1(1) - ConstLinear(p1)) * Fraction(1, 2)
                      - (A2(1) - ConstLinear(p2)) * x)
            assert f.eval_at(x, Side.MIDPOINT) / x == expect, x

    def test_differs_from_fracpart_series_by_half_a1(self):
        a = twist(mobius_sieve(20), kronecker_character(-3))
        f = sawtooth_series(kronecker_character(-3), 20)
        h = build_fracpart_series(case_of(a))
        for k in range(1, 60):
            x = Fraction(k, 3)
            if x.denominator == 1:
                continue
            assert f.eval_at(x) / x - h.eval_at(x) == A1(Fraction(1, 2)), x

    def test_mobius_known_a1_folds_to_fracpart_series(self):
        case = case_of(mobius_sieve(20))
        f = twisted_case(case).arithmetic_part
        h = build_fracpart_series(case)
        x = Fraction(7, 3)
        assert f.eval_at(x) / x == h.eval_at(x)


class TestDecompose:
    def test_untwisted_hand_values(self):
        dc = plain(12)
        ar, an, res = decompose(dc, Fraction(3, 2))
        assert ar == ConstLinear(Fraction(3, 2), Fraction(-9, 4), 0)
        assert an == ConstLinear(Fraction(-1, 2), Fraction(9, 8), 0)
        assert res.is_zero()

    def test_untwisted_integer(self):
        dc = plain(12)
        ar, an, res = decompose(dc, 2)
        assert res.is_zero()
        assert ar == ConstLinear(3, -4, 0)
        assert an == ConstLinear(-1, 2, 0)

    def test_untwisted_grid(self):
        dc = plain(60)
        for k in range(3, 181):
            assert decompose(dc, Fraction(k, 3))[2].is_zero(), k

    def test_untwisted_domain_guard_and_half_gap(self):
        dc = plain(12)
        with pytest.raises(DomainError):
            decompose(dc, Fraction(1, 2))
        # below 1 the split misses by the constant 1/2
        e, e_ar, e_an = split_at(dc, Fraction(1, 2))
        assert e - e_ar - e_an == ConstLinear.scalar(Fraction(-1, 2))

    @pytest.mark.parametrize("d", [-3, -4])
    def test_twisted_hand_value_and_grid(self, d):
        chi = kronecker_character(d)
        dc = twisted(chi, 40)
        ar, an, res = decompose(dc, Fraction(1, 2))
        assert ar == A1(Fraction(1, 4)) + A2(Fraction(-1, 4))
        assert res.is_zero()
        for k in range(0, 121):
            x = Fraction(k, 3)
            ar, an, res = decompose(dc, x)
            assert res.is_zero(), x

    def test_twisted_a1_cancels_but_is_present(self):
        dc = twisted(kronecker_character(-3), 20)
        x = Fraction(7, 2)
        ar, an, res = decompose(dc, x)
        assert not ar.cA1.is_zero()
        assert not an.cA1.is_zero()
        assert res.is_zero()

    def test_twisted_arithmetic_part_shifts_fracpart_solution_by_half_a1_x(self):
        chi = kronecker_character(-4)
        dc = twisted(chi, 20)
        h = build_fracpart_series(case_of(twist(mobius_sieve(20), chi)))
        for k in range(1, 60):
            x = Fraction(k, 3)
            if x.denominator == 1:
                continue
            ar = decompose(dc, x)[0]
            assert ar - h.eval_at(x) * x == A1(Fraction(1, 2) * x), x


def _split_case(seq, X):
    """The case of mu, or of mu twisted by the character of discriminant seq."""
    a = mobius_sieve(math.ceil(X))
    return make_case(a if seq == "mu" else twist(a, kronecker_character(seq)), X)


SPLITS = ["mu", -3, -4, 5, 8]


class TestStreamedSplit:
    """The table's streamed split against the point API on built functions."""

    @pytest.mark.parametrize("seq", SPLITS)
    @pytest.mark.parametrize("X", [Fraction(12), Fraction(37, 3)], ids=["12", "37/3"])
    @pytest.mark.parametrize("denom", [1, 3, 7])
    def test_grid_equals_split_at(self, seq, X, denom):
        case = _split_case(seq, X)
        twisted = seq != "mu"
        dc = (twisted_case if twisted else untwisted_case)(case)
        got = list(decomposition._split_grid(case, twisted, denom))
        assert [x for x, _ in got] == [Fraction(k, denom)
                                       for k in range(math.floor(X * denom) + 1)]
        for x, values in got:
            assert values == split_at(dc, x), x

    @pytest.mark.parametrize("seq", SPLITS)
    def test_pieces_equal_the_built_parts(self, seq):
        X = Fraction(37, 3)
        case = _split_case(seq, X)
        twisted = seq != "mu"
        dc = (twisted_case if twisted else untwisted_case)(case)
        streams = zip(*decomposition._split_pieces(case, twisted))
        for stream, built in zip(streams, (dc.error, dc.arithmetic_part, dc.analytic_part)):
            assert PiecewiseLaurent(X, stream) == built


class TestTrivialCharacter:
    def test_relations_hold(self):
        case = case_of(mobius_sieve(40))
        rep = list(trivial_character_relations(case, untwisted_case(case)))
        assert len(rep) > 0 and all(r.exact_zero for r in rep)
        # a plain split on a longer domain serves a shorter case unchanged
        short = case_of(mobius_sieve(40), Fraction(29, 2))
        rows = list(trivial_character_relations(short, untwisted_case(case)))
        assert rows and rows == list(trivial_character_relations(short, untwisted_case(short)))

    def test_relations_read_the_plain_h(self, monkeypatch):
        case = case_of(mobius_sieve(20))
        plain = untwisted_case(case)
        calls = []
        monkeypatch.setattr(decomposition, "build_fracpart_series",
                            lambda case: calls.append(case) or build_fracpart_series(case))
        rows = list(trivial_character_relations(case, plain))
        assert rows and all(r.exact_zero for r in rows) and calls == []

    def test_g_relation_is_exactly_one(self):
        case = case_of(mobius_sieve(12))
        g_plain = g_of(case)
        g_triv = g_of(case, twisted=True)
        x = Fraction(3, 2)
        assert g_triv.eval_at(x) - g_plain.eval_at(x) == ConstLinear.scalar(1)

    def test_relation_fails_below_one(self):
        case = case_of(mobius_sieve(4))
        g_plain = g_of(case)
        g_triv = g_of(case, twisted=True)
        x = Fraction(1, 2)
        assert g_triv.eval_at(x) - g_plain.eval_at(x) != ConstLinear.scalar(1)


class TestVerifySuites:
    def test_no_pointwise_integration(self, monkeypatch):
        # every family reads a residual function built once per family
        calls = []
        integrate = PiecewiseLaurent.integrate
        monkeypatch.setattr(PiecewiseLaurent, "integrate",
                            lambda f, *args: calls.append(args) or integrate(f, *args))
        case = case_of(mobius_sieve(30))
        rows = list(verify_suites(case, 3, [GaussianRational(0)], untwisted_case(case)))
        assert all(r.exact_zero for r in rows) and calls == []
        # every row's x is a Fraction, the integer points of jump[n] too
        assert all(type(r.x) is Fraction for r in rows)

    def test_grid_cap(self, monkeypatch):
        # the cap counts the points k/denom of (0, X] and is checked before
        # any point is built
        monkeypatch.setattr(decomposition, "_MAX_GRID_POINTS", 30)
        case = case_of(mobius_sieve(10))
        assert all(r.exact_zero for r in verify_suites(case, 3, [GaussianRational(0)]))
        with pytest.raises(DomainError, match="has 31 points, more than the 30"):
            verify_suites(replace(case, X=Fraction(31, 3)), 3, [])
        with pytest.raises(DomainError, match="has 40 points"):
            verify_suites(case, 4, [])

    @pytest.mark.parametrize("d", [None, -3], ids=["plain", "twisted_-3"])
    def test_decomposition_rows_match_decompose(self, d):
        # a tampered b(17) makes the rows from 17 on nonzero
        a = mobius_sieve(30) if d is None else twist(mobius_sieve(30), kronecker_character(d))
        b = convolve_id(a)
        bad = ArithSequence("bad", [b.value(n) + (1 if n == 17 else 0) for n in range(1, 31)])
        case = make_case(a, 30, b=bad)
        split = untwisted_case(case) if d is None else twisted_case(case)
        rows = [r for r in verify_suites(case, 3, [], split) if r.identity == "decomposition"]
        start = 1 if d is None else 0
        assert [r.x for r in rows] == [Fraction(k, 3) for k in range(3 * start, 91)]
        for r in rows:
            assert r.residual == decompose(split, r.x)[2], r.x
        assert {r.x for r in rows if not r.exact_zero} == {r.x for r in rows if r.x >= 17}


class TestGrowth:
    def test_frozen_constants_reproduce(self):
        assert growth_max_ratio() == FROZEN_GROWTH_MAX["mu"]
        assert growth_max_ratio(kronecker_character(-3)) == \
            FROZEN_GROWTH_MAX["mu_chi_-3"]

    def test_values_are_sane(self):
        assert 0 < FROZEN_GROWTH_MAX["mu"] < 1
        assert 0 < FROZEN_GROWTH_MAX["mu_chi_-3"] < 1
