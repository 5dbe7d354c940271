"""Sieves, characters, convolution, summatory sums and numeric constants."""

import itertools
import math
import random
import re
import time
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (divisor_sum_oracle, floor_identity_oracle, gaussian, mobius_oracle,
                      mobius_per_prime_sieve, quadratic_residue_character, totient_oracle,
                      unit_divisor_sum_oracle)
from errlab.errors import (CapacityError, DomainError, FormatError, PrecisionError,
                           UncertifiableSeriesError)
from errlab.exactnum import GaussianRational
from errlab.sequences import (_A2_CHUNK, _A2_HALF, _SIEVE_BLOCK, _WHEEL, MAX_SIEVE,
                              ArithSequence, CharacterSpec, _a2_bins, _divisor_pass,
                              _partial_a2, convolve_id, floor_sum,
                              is_fundamental_discriminant, kronecker_character,
                              kronecker_symbol, mobius_constants, mobius_sieve,
                              numeric_constants, read_character_csv, read_sequence_csv,
                              summatory, summatory_via_floor_identity, totient_sieve, twist,
                              write_character_csv, write_sequence_csv)


class TestSieves:
    def test_mobius_against_trial_factorization(self):
        mu = mobius_sieve(2000)
        for n in range(1, 2001):
            assert mu.value(n) == mobius_oracle(n), n

    def test_mobius_every_small_range(self):
        # N < 4 sieves no prime; N = p^2 - 1 and p^2 bracket each new sieving prime
        for N in range(1, 131):
            mu = mobius_sieve(N)
            assert mu.N == N
            assert [mu.value(n) for n in range(1, N + 1)] == \
                [mobius_oracle(n) for n in range(1, N + 1)], N

    def test_mobius_against_per_prime_sieve(self):
        N = 10 ** 5
        assert np.array_equal(mobius_sieve(N).int_array(), mobius_per_prime_sieve(N))

    @pytest.mark.parametrize("N", [_SIEVE_BLOCK - 1, _SIEVE_BLOCK, _SIEVE_BLOCK + 1,
                                   _SIEVE_BLOCK + 2, 2 * _SIEVE_BLOCK + 1,
                                   1, 6, 48, 49, _WHEEL - 1, _WHEEL, _WHEEL + 1,
                                   _SIEVE_BLOCK + _WHEEL + 1])
    def test_mobius_block_edges(self, N):
        # blocks start at m = 1, so N = k * block is the last entry of block k;
        # 48 and 49 bracket 7^2 with no prime above 7 sieved, and a block past
        # _SIEVE_BLOCK + _WHEEL copies a wrap of the wheel in its middle
        mu = mobius_sieve(N).int_array()
        assert mu.dtype == np.int8
        assert np.array_equal(mu, mobius_per_prime_sieve(N))

    def test_mobius_block_opening_on_a_square_multiple(self):
        # the first block start 1 + k * block that some p^2 divides (9 | 8 * 2**18 + 1)
        lo, p = next((lo, p) for lo in range(1 + _SIEVE_BLOCK, MAX_SIEVE, _SIEVE_BLOCK)
                     for p in (3, 5, 7, 11, 13) if lo % (p * p) == 0)
        N = lo + 2 * p * p
        mu = mobius_sieve(N).int_array()
        assert mu[lo] == 0 and mu.dtype == np.int8
        assert np.array_equal(mu, mobius_per_prime_sieve(N))

    def test_mobius_prime_product_fits_int32(self):
        # mobius_sieve keeps the product of the small primes of m <= MAX_SIEVE
        # in int32; a larger budget would overflow it silently
        assert MAX_SIEVE < 2 ** 31

    def test_mobius_examples(self):
        mu = mobius_sieve(12)
        assert mu.value(1) == 1
        assert mu.value(6) == 1
        assert mu.value(12) == 0
        assert mu.magnitude_bound == 1
        assert mu.known_A1 == GaussianRational(0)

    def test_totient_against_gcd_count(self):
        phi = totient_sieve(300)
        for n in range(1, 301):
            assert phi.value(n) == totient_oracle(n), n

    def test_totient_examples(self):
        phi = totient_sieve(10)
        assert phi.value(1) == 1
        assert phi.value(10) == 4
        assert phi.prefix_sum(10) == 32

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            mobius_sieve(1 << 30)


class TestCharacters:
    def test_kronecker_minus4(self):
        chi = kronecker_character(-4)
        assert chi.chi(1) == 1 and chi.chi(3) == -1 and chi.chi(2) == 0

    def test_kronecker_minus3(self):
        chi = kronecker_character(-3)
        assert chi.chi(2) == -1 and chi.chi(3) == 0

    @pytest.mark.parametrize("d", [-3, -4, 5, 8, -7, 12, -8, 13])
    def test_invariants_and_qr_tables(self, d):
        chi = kronecker_character(d)
        chi.validate()
        assert sum(chi.table) == 0
        q = abs(d)
        if q in (3, 5, 7, 13):  # odd prime modulus: must match the Legendre table
            expect = quadratic_residue_character(q)
            # (d|.) and the Legendre symbol agree up to the sign pattern of d;
            # for d = -3, 5, 13, -7 the tables coincide exactly
            if d in (-3, 5, 13, -7):
                assert chi.table == expect

    @pytest.mark.parametrize("d", [0, 1, -1, 2, 3, 4, 9, -6, 18])
    def test_non_fundamental_rejected(self, d):
        assert not is_fundamental_discriminant(d)
        with pytest.raises(ValueError):
            kronecker_character(d)

    def test_large_modulus_table_is_linear_time(self):
        # 100001 = 11 * 9091 is 1 mod 4; an O(q^2) check of the table would
        # take minutes here
        d = 100001
        start = time.perf_counter()
        chi = kronecker_character(d)
        assert time.perf_counter() - start < 10
        assert chi.q == d and sum(chi.table) == 0
        rng = random.Random(0)
        for r in [0, 1, 2, 11, 9091, d - 1] + [rng.randrange(d) for _ in range(300)]:
            assert chi.chi(r) == kronecker_symbol(d, r), r

    def test_kronecker_symbol_completely_multiplicative(self):
        for d in (-4, 5, -3):
            for m in range(1, 40):
                for n in range(1, 40):
                    assert kronecker_symbol(d, m * n) == \
                        kronecker_symbol(d, m) * kronecker_symbol(d, n)

    def test_validate_large_modulus_is_fast(self):
        chi = kronecker_character(100001)
        start = time.perf_counter()
        chi.validate()
        assert time.perf_counter() - start < 5
        t = list(chi.table)
        flipped = t.copy()
        flipped[2] = -t[2]
        u, v = t.index(1, 2), t.index(-1)   # two units with opposite values
        swapped = t.copy()
        swapped[u], swapped[v] = t[v], t[u]
        for bad in (flipped, swapped):
            with pytest.raises(ValueError, match="multiplicativity fails at") as exc:
                CharacterSpec(chi.q, tuple(bad)).validate()
            a, b = map(int, re.findall(r"\d+", str(exc.value)))
            assert bad[a * b % chi.q] != bad[a] * bad[b]

    @pytest.mark.parametrize("q", range(3, 14))
    def test_validate_against_quadratic_definition(self, q):
        # every +-1 table on the units mod q, against the check of all pairs
        units = [n for n in range(q) if math.gcd(n, q) == 1]
        for signs in itertools.product((-1, 1), repeat=len(units)):
            t = [0] * q
            for n, sign in zip(units, signs):
                t[n] = sign
            multiplicative = all(t[a * b % q] == t[a] * t[b] for a in range(q) for b in range(q))
            try:
                CharacterSpec(q, tuple(t)).validate()
                verdict = "valid"
            except ValueError as exc:
                verdict = str(exc)
            assert verdict.startswith("multiplicativity") != multiplicative, (t, verdict)
            if not multiplicative:
                a, b = map(int, re.findall(r"\d+", verdict))
                assert t[a * b % q] != t[a] * t[b], (t, verdict)

    def test_custom_table_validation(self):
        CharacterSpec(4, (0, 1, 0, -1)).validate()
        with pytest.raises(ValueError):
            CharacterSpec(4, (0, 1, 0, 1)).validate()      # principal
        with pytest.raises(ValueError):
            CharacterSpec(4, (0, 1, 1, -1)).validate()     # nonzero at gcd > 1
        with pytest.raises(ValueError):
            CharacterSpec(2, (0, 1)).validate()            # modulus too small


class TestTwistAndConvolution:
    def test_twist_examples(self):
        mu = mobius_sieve(10)
        chi = kronecker_character(-3)
        t = twist(mu, chi)
        assert t.value(2) == 1       # mu(2) = -1, chi(2) = -1
        assert t.value(3) == 0       # chi vanishes on the modulus
        assert t.value(4) == 0       # mu vanishes on squares
        assert t.magnitude_bound == 1
        assert t.known_A1 is None

    @pytest.mark.parametrize("D", [-3, -4, 5, 8])
    def test_twist_array_matches_pointwise(self, D):
        chi = kronecker_character(D)
        # N + 1 = 101 is a multiple of no modulus here; 96 is one of 3, 4 and 8
        for a in (mobius_sieve(100), totient_sieve(100), mobius_sieve(95)):
            t = twist(a, chi)
            assert t.N == a.N and t.int_array() is not None
            # the twist multiplies in the sieve's own dtype
            assert t.int_array().dtype == a.int_array().dtype == \
                (np.int8 if a.name == "mu" else np.int64)
            assert [t.value(n) for n in range(1, a.N + 1)] == \
                [chi.chi(n) * a.value(n) for n in range(1, a.N + 1)]

    @pytest.mark.parametrize("D", [-3, 5, -163])
    def test_twist_across_blocks(self, D):
        # the twist multiplies _SIEVE_BLOCK entries at a time, and q divides
        # no block start here, so each block's table offset differs
        chi = kronecker_character(D)
        N = 2 * _SIEVE_BLOCK + 1
        for a in (mobius_sieve(N), totient_sieve(N)):
            t = twist(a, chi)
            assert [t.value(n) for n in range(1, N + 1)] == \
                [a.value(n) * chi.chi(n) for n in range(1, N + 1)]

    def test_convolution_is_totient(self):
        mu = mobius_sieve(500)
        phi = totient_sieve(500)
        b = convolve_id(mu)
        assert all(b.value(n) == phi.value(n) for n in range(1, 501))
        assert b.value(6) == 2

    def test_convolution_identity_sequence(self):
        e = ArithSequence("unit", [1] + [0] * 49)
        b = convolve_id(e)
        assert all(b.value(n) == n for n in range(1, 51))

    def test_twisted_totient_product_formula(self):
        chi = kronecker_character(-3)
        a = twist(mobius_sieve(30), chi)
        b = convolve_id(a)
        assert b.value(5) == 6  # 5 * (1 - chi(5)/5) with chi(5) = -1
        for n in range(1, 31):
            assert gaussian(b.value(n)) == divisor_sum_oracle(a, n)

    def test_non_integer_array_rejected(self):
        with pytest.raises(TypeError):
            ArithSequence("f", np.array([0, 0.5, 1.5]))
        with pytest.raises(TypeError):
            ArithSequence("b", np.array([False, True]))
        assert ArithSequence("i", np.array([0, 2, -1], dtype=np.int32)).value(2) == -1

    def test_convolution_generic_values(self):
        a = ArithSequence("z", [GaussianRational(1, 1), Fraction(1, 2), 0, 1])
        b = convolve_id(a)
        assert gaussian(b.value(4)) == divisor_sum_oracle(a, 4)


def _int_backed(name, N):
    """An integer-backed sequence: a sieve, or a sieve twisted by chi_D."""
    sieve = {"mu": mobius_sieve, "phi": totient_sieve}[name.split("*")[0]]
    seq = sieve(N)
    if "*" in name:
        seq = twist(seq, kronecker_character(int(name.split("*")[1])))
    return seq


def _ones(N):
    """Unit weights for _divisor_pass: the unit divisor sum up to N."""
    return [1] * (N + 1)


def _consumer_outputs(seq, chi):
    """What every consumer of a sequence makes of seq, as Python values."""
    N = seq.N
    t = twist(seq, chi)
    b = convolve_id(seq)
    points = [Fraction(k, 3) for k in range(3 * N + 1)]
    return {
        "value": [seq.value(n) for n in range(1, N + 1)],
        "prefix_sum": [seq.prefix_sum(k) for k in range(N + 1)],
        "convolve_id": [b.value(n) for n in range(1, N + 1)],
        "unit divisor sum": _divisor_pass(seq, _ones(N))[1:],
        "twist": [t.value(n) for n in range(1, N + 1)],
        "_partial_a2": _partial_a2(seq).real.hex(),
        "_partial_a2 of twist": _partial_a2(t).real.hex(),
        "floor_sum": [floor_sum(seq, x) for x in points],
        "floor identity": [summatory_via_floor_identity(seq, x) for x in points],
    }


def _narrow_arrays():
    """Narrow integer arrays (index 0 padding) holding their dtype's extremes."""
    rng = np.random.default_rng(7)
    extremes = rng.choice([-128, 127, -1, 0, 1], size=61)
    extremes[:4] = [0, 127, -128, -128]     # chi(2) = -1 for D = -3 and 5, chi(3) for -4
    return {
        "int8 extremes": extremes.astype(np.int8),
        "int8 mu": mobius_sieve(60).int_array(),
        "uint8": rng.choice([0, 1, 127, 128, 200, 255], size=61).astype(np.uint8),
        "int16 extremes": rng.choice([-2 ** 15, 2 ** 15 - 1, -3, 0], size=61).astype(np.int16),
    }


class TestIntArrayPaths:
    """Sieve-backed sequences against a list-backed copy and the oracles, and
    narrow user arrays against an int64 copy."""

    @pytest.mark.parametrize("D", [-3, -4, 5])
    @pytest.mark.parametrize("name", list(_narrow_arrays()))
    def test_narrow_dtype_matches_int64(self, name, D):
        arr = _narrow_arrays()[name]
        narrow = ArithSequence("narrow", arr)
        wide = ArithSequence("wide", arr.astype(np.int64))
        chi = kronecker_character(D)
        got, expect = _consumer_outputs(narrow, chi), _consumer_outputs(wide, chi)
        for key in expect:
            assert got[key] == expect[key], key
        assert expect["twist"] == [int(arr[n]) * chi.chi(n) for n in range(1, len(arr))]

    def test_twist_keeps_int8_and_widens_only_past_negation(self):
        chi = kronecker_character(-3)
        low = ArithSequence("s", np.array([0, 1, -128], dtype=np.int8))
        assert twist(low, chi).value(2) == 128
        top = np.iinfo(np.int64)
        edge = ArithSequence("s", np.array([0, top.max, top.min], dtype=np.int64))
        assert [twist(edge, chi).value(n) for n in (1, 2)] == [top.max, -top.min]

    @pytest.mark.parametrize("N", [1, 2, 95, 100, 300])
    @pytest.mark.parametrize("name", ["mu", "phi"] + [f"{s}*{D}" for s in ("mu", "phi")
                                                      for D in (-3, -4, 5, 8)])
    def test_against_list_copy_and_oracles(self, name, N):
        seq = _int_backed(name, N)
        listed = ArithSequence("list", [seq.value(n) for n in range(1, N + 1)])
        assert seq.int_array() is not None and listed.int_array() is None

        prefix = [0]
        for n in range(1, N + 1):
            prefix.append(prefix[-1] + seq.value(n))
        assert [seq.prefix_sum(k) for k in range(N + 1)] == prefix
        assert [listed.prefix_sum(k) for k in range(N + 1)] == prefix

        b, b_list = convolve_id(seq), convolve_id(listed)
        assert b.N == b_list.N == N
        for n in range(1, N + 1):
            assert b.value(n) == b_list.value(n)
            assert gaussian(b.value(n)) == divisor_sum_oracle(seq, n)

        u, u_list = _divisor_pass(seq, _ones(N)), _divisor_pass(listed, _ones(N))
        for n in range(1, N + 1):
            assert u[n] == u_list[n]
            assert gaussian(u[n]) == unit_divisor_sum_oracle(seq, n)

    def test_int64_overflow_takes_python_ints(self):
        arr = np.array([0, 2 ** 63 - 1, 1])
        seq, listed = ArithSequence("s", arr), ArithSequence("s", arr[1:].tolist())
        assert convolve_id(seq).value(2) == convolve_id(listed).value(2) == 2 ** 64 - 1
        prefix = [0, 2 ** 63 - 1, 2 ** 63]
        assert [seq.prefix_sum(k) for k in range(3)] == prefix
        assert [listed.prefix_sum(k) for k in range(3)] == prefix
        assert _divisor_pass(seq, _ones(2))[2] == _divisor_pass(listed, _ones(2))[2] == 2 ** 63

    def test_only_sieves_keep_arrays(self):
        # a user array is copied to Python ints, whatever its dtype; only the
        # sieves and their twists keep an array, with values within [-N, N]
        # for N <= MAX_SIEVE, and their prefix sums are Python ints too
        assert MAX_SIEVE ** 2 < 2 ** 63
        chi = kronecker_character(-4)
        for dtype in (np.int8, np.uint8, np.int16, np.int64):
            info = np.iinfo(dtype)
            vals = [v for v in (-128, 255, 2 ** 63 - 1, -(2 ** 63 - 1))
                    if info.min <= v <= info.max] + [1]
            seq = ArithSequence("user", np.array([0] + vals, dtype=dtype))
            assert all(s.int_array() is None for s in (seq, convolve_id(seq), twist(seq, chi)))
            got = _consumer_outputs(seq, chi)
            assert got == _consumer_outputs(ArithSequence("list", vals), chi), dtype
            for key in ("value", "prefix_sum", "convolve_id", "twist"):
                assert all(type(v) is int for v in got[key]), (dtype, key)
            assert got["value"] == vals
        mu, phi = mobius_sieve(10), totient_sieve(10)
        for s in (mu, phi, twist(mu, chi), twist(phi, chi)):
            assert s.int_array() is not None
            assert all(type(s.prefix_sum(k)) is int for k in range(s.N + 1))


class TestSummatory:
    def test_examples(self):
        mu = mobius_sieve(10)
        phi = totient_sieve(10)
        assert summatory(phi, 10) == GaussianRational(32)
        assert summatory(phi, Fraction(1, 2)) == GaussianRational(0)
        assert summatory(phi, Fraction(7, 2)) == GaussianRational(4)
        assert summatory_via_floor_identity(mu, 3) == GaussianRational(4)
        assert summatory_via_floor_identity(mu, 10) == GaussianRational(32)
        assert summatory_via_floor_identity(mu, Fraction(1, 2)) == GaussianRational(0)

    def test_range_errors(self):
        phi = totient_sieve(10)
        with pytest.raises(DomainError):
            summatory(phi, 11)
        with pytest.raises(DomainError):
            summatory_via_floor_identity(phi, Fraction(21, 2))

    def test_floor_identity_matches_summatory(self):
        for seq in (mobius_sieve(60),
                    twist(mobius_sieve(60), kronecker_character(-3)),
                    twist(mobius_sieve(60), kronecker_character(-4))):
            b = convolve_id(seq)
            for k in range(1, 181):
                x = Fraction(k, 3)
                assert summatory_via_floor_identity(seq, x) == summatory(b, x), x

    def test_mertens_floor_sum(self):
        mu = mobius_sieve(400)
        for k in range(2, 801):
            x = Fraction(k, 2)
            assert floor_sum(mu, x) == GaussianRational(1), x
        # a numerator beyond int64
        assert floor_sum(mu, Fraction(10 ** 20 - 1, 10 ** 19)) == GaussianRational(1)

    def test_floor_sum_int_array_matches_list_path(self):
        rng = random.Random(0)
        seqs = [mobius_sieve(60), totient_sieve(60)]
        lists = [ArithSequence("list", [s.value(n) for n in range(1, 61)]) for s in seqs]
        assert all(s.int_array() is None for s in lists)
        large = 0
        for _ in range(300):
            q = rng.randrange(1, 10 ** rng.choice((1, 3, 12, 19, 22)))
            x = Fraction(rng.randrange(0, 60 * q + 1), q)
            large += x.numerator > np.iinfo(np.int64).max
            for seq, listed in zip(seqs, lists):
                assert floor_sum(seq, x) == floor_sum(listed, x), x
        assert large > 50


def _points(n_max):
    """A sequence length N and a rational x in [0, N], by numerator and denominator."""
    return st.integers(1, n_max).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, 12).flatmap(
            lambda q: st.builds(Fraction, st.integers(0, n * q), st.just(q)))))


_values = st.one_of(
    st.integers(-50, 50),
    st.fractions(min_value=-20, max_value=20, max_denominator=9),
    st.builds(GaussianRational,
              st.fractions(min_value=-5, max_value=5, max_denominator=7),
              st.fractions(min_value=-5, max_value=5, max_denominator=7)))


class TestFloorIdentityOracle:
    """The blocked floor identity against the one-term-per-d oracle."""

    @settings(max_examples=150, deadline=None)
    @given(sieve=st.sampled_from([mobius_sieve, totient_sieve]), point=_points(120))
    @example(sieve=mobius_sieve, point=(120, Fraction(120)))
    @example(sieve=totient_sieve, point=(97, Fraction(97)))
    @example(sieve=mobius_sieve, point=(5, Fraction(2, 3)))
    @example(sieve=totient_sieve, point=(30, Fraction(59, 2)))
    def test_int_arrays(self, sieve, point):
        n, x = point
        seq = sieve(n)
        listed = ArithSequence("list", [seq.value(d) for d in range(1, n + 1)])
        expect = floor_identity_oracle(seq, x)
        assert summatory_via_floor_identity(seq, x) == expect
        assert summatory_via_floor_identity(listed, x) == expect

    @settings(max_examples=150, deadline=None)
    @given(values=st.lists(_values, min_size=1, max_size=60), data=st.data())
    def test_lists(self, values, data):
        n = len(values)
        q = data.draw(st.integers(1, 12), label="denominator")
        x = data.draw(st.sampled_from([Fraction(n), Fraction(1, q + 1)])
                      | st.builds(Fraction, st.integers(0, n * q), st.just(q)), label="x")
        seq = ArithSequence("list", values)
        assert summatory_via_floor_identity(seq, x) == floor_identity_oracle(seq, x)


class TestNumericConstants:
    def test_mobius_constants(self):
        mu = mobius_sieve(10 ** 6)
        a2, a1, (b2, b1) = numeric_constants(mu, precision_target=1e-6)
        assert abs(a2 - 6 / math.pi ** 2) <= 1e-6
        assert a1 == 0
        assert b2 <= 1e-6 and b1 == 0.0

    def test_twisted_constants_against_l_values(self):
        chi = kronecker_character(-4)
        seq = twist(mobius_sieve(10 ** 5), chi)
        a2, a1, (b2, b1) = numeric_constants(seq, chi, precision_target=1e-4)
        catalan = float(mpmath.catalan)          # L(2, chi_-4)
        assert abs(a2 - 1 / catalan) <= b2 + 1e-12
        assert abs(a1 - 4 / math.pi) <= b1 + 1e-12   # 1/L(1, chi_-4) = 4/pi
        assert b2 <= 1e-4 and b1 <= 1e-4

    def test_chi3_a1(self):
        chi = kronecker_character(-3)
        seq = twist(mobius_sieve(10 ** 5), chi)
        _, a1, _ = numeric_constants(seq, chi, precision_target=1e-4)
        assert abs(a1 - 3 * math.sqrt(3) / math.pi) <= 1e-12

    def test_partial_a2_bit_exact(self):
        mu = mobius_sieve(10 ** 5)
        seqs = [mu, twist(mu, kronecker_character(-3)), twist(mu, kronecker_character(-4)),
                totient_sieve(10 ** 5),
                # values beyond 2**53 are not exact in float64
                ArithSequence("big", np.array([0, 3, 2 ** 53 + 1, -(2 ** 53) - 1, 7],
                                              dtype=np.int64))]
        for seq in seqs:
            expect = math.fsum([seq.value(n) / (n * n) for n in range(1, seq.N + 1)])
            assert _partial_a2(seq).real.hex() == expect.hex(), seq

    @settings(max_examples=80, deadline=None)
    @given(dtype=st.sampled_from([np.int8, np.int64]),
           N=st.integers(1, 300) | st.sampled_from([_A2_CHUNK - 1, _A2_CHUNK, _A2_CHUNK + 1,
                                                    2 * _A2_CHUNK + 3]),
           bits=st.integers(0, 53), density=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_partial_a2_kernel_against_fsum(self, dtype, N, bits, density, seed):
        rng = np.random.default_rng(seed)
        info = np.iinfo(dtype)
        low, high = max(-(2 ** bits), info.min), min(2 ** bits, info.max)
        vals = rng.integers(low, high, size=N, endpoint=True)
        vals[rng.random(N) < 0.05] = low
        vals[rng.random(N) < 0.05] = high
        vals[rng.random(N) >= density] = 0
        arr = np.concatenate(([0], vals)).astype(dtype)
        expect = math.fsum([int(arr[n]) / (n * n) for n in range(1, N + 1)])
        assert _partial_a2(ArithSequence("r", arr)).real.hex() == expect.hex()
        if bits <= 24:
            # within the kernel's limits, where a sieve's array is summed
            assert _a2_bins([(1, arr[1:])]).hex() == expect.hex()

    @settings(max_examples=60, deadline=None)
    @given(starts=st.lists(st.tuples(st.integers(1, 25), st.integers(-40, 40),
                                     st.integers(0, 2 * _A2_CHUNK + 3)), max_size=3),
           dtype=st.sampled_from([np.int32, np.int64]), seed=st.integers(0, 2 ** 32 - 1))
    @example(starts=[(13, 0, 0)], dtype=np.int32, seed=0)
    @example(starts=[(13, -5, _A2_CHUNK + 9), (25, -(2 * _A2_CHUNK), 2 * _A2_CHUNK + 3)],
             dtype=np.int64, seed=1)
    def test_a2_bins_against_fsum(self, starts, dtype, seed):
        # blocks start near 2**j, with chunks cut across it, and take values
        # up to the limit 2**24 in magnitude; n stays below 2**26
        rng = np.random.default_rng(seed)
        blocks = []
        for j, offset, size in starts:
            start = max(1, 2 ** j + offset)
            vals = rng.integers(-(2 ** 24), 2 ** 24, size=size, endpoint=True)
            vals[rng.random(size) < 0.05] = 2 ** 24
            vals[rng.random(size) < 0.05] = -(2 ** 24)
            vals[rng.random(size) < 0.3] = 0
            blocks.append((start, vals.astype(dtype)))
        expect = math.fsum([int(v) / (n * n) for start, block in blocks
                            for n, v in enumerate(block.tolist(), start=start)])
        assert _a2_bins(blocks).hex() == expect.hex()

    @pytest.mark.parametrize("v", [2 ** 24, -(2 ** 24)])
    def test_a2_bins_full_chunk_at_limit(self, v):
        # the chunk n = 2**13 .. 2**14 - 1 scales its first term to 2**54 * v,
        # the largest high half the kernel allows, in every one of its terms
        block = np.full(_A2_CHUNK, v, dtype=np.int64)
        expect = math.fsum([v / (n * n) for n in range(_A2_CHUNK, 2 * _A2_CHUNK)])
        assert _a2_bins([(_A2_CHUNK, block)]).hex() == expect.hex()

    def test_a2_kernel_limits_hold(self):
        # t * 2**k is at most 2**(54 + 24): each chunk's high and low sums must
        # stay below 2**53, and mobius_constants sends n <= MAX_SIEVE; every
        # phi(n) <= n <= MAX_SIEVE stays within the kernel's |v| <= 2**24
        assert _A2_CHUNK * 2 ** (54 + 24 - _A2_HALF) < 2 ** 53
        assert _A2_CHUNK * 2 ** _A2_HALF < 2 ** 53
        assert MAX_SIEVE < 2 ** 26
        assert MAX_SIEVE <= 2 ** 24

    @pytest.mark.parametrize("tail", [4, 12, -4, -12, 0])
    def test_partial_a2_kernel_rounds_ties_to_even(self, tail):
        # 2**53 + 1 and 2**53 + 3 lie halfway between two floats; below 2**53 the
        # sum is exact
        arr = np.array([0, 2 ** 53, tail], dtype=np.int64)
        assert _partial_a2(ArithSequence("tie", arr)).real == \
            math.fsum([2.0 ** 53, tail / 4])

    def test_certified_constants_memory(self):
        # no array wider than int8 spans the 10^7-term range (about 160 MB
        # when the sieve, its twist and the nonzero indices were int64)
        chi = kronecker_character(-3)
        tracemalloc.start()
        try:
            numeric_constants(twist(mobius_sieve(10 ** 7), chi), chi, 1e-7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 48 * 10 ** 6, peak

    @pytest.mark.parametrize("N", [1, 2, _SIEVE_BLOCK - 1, _SIEVE_BLOCK, _SIEVE_BLOCK + 1,
                                   2 * _SIEVE_BLOCK + 1, 10 ** 6 + 3])
    def test_streamed_constants_match_array_path(self, N):
        # q = 3, 5 and 163 divide no block start, so a wrong table offset in a
        # later block changes a2
        mu = mobius_sieve(N)
        for D in (None, -3, -4, 5, 8, -163):
            chi = None if D is None else kronecker_character(D)
            seq = mu if chi is None else twist(mu, chi)
            got = mobius_constants(N, chi, 1.0)
            assert got[0].real.hex() == _partial_a2(seq).real.hex(), D
            assert got == numeric_constants(seq, chi, 1.0), D

    def test_streamed_constants_memory(self):
        # nothing on the streamed path spans the 10^7-term range: the int8
        # sieve alone would take 10 MB
        chi = kronecker_character(-3)
        tracemalloc.start()
        try:
            mobius_constants(10 ** 7, chi, 1e-7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 10 ** 6, peak

    def test_streamed_constants_errors(self):
        with pytest.raises(PrecisionError):
            mobius_constants(100, None, 1e-9)
        with pytest.raises(CapacityError):
            mobius_constants(MAX_SIEVE + 1, None, 1.0)
        with pytest.raises(ValueError):
            mobius_constants(100, None, 0.0)

    def test_missing_bound_errors(self):
        bare = ArithSequence("bare", [1, 2, 3])
        with pytest.raises(UncertifiableSeriesError):
            numeric_constants(bare, precision_target=0.5)

    def test_character_is_no_magnitude_bound(self):
        # |5 chi(n)| <= 5: a bound of 1 read off the character would certify
        # the a2 tail to 1e-4 where the true tail bound is 5e-4
        chi = kronecker_character(-4)
        scaled = ArithSequence("s", [5 * chi.chi(n) for n in range(1, 10 ** 4 + 1)])
        with pytest.raises(UncertifiableSeriesError):
            numeric_constants(scaled, chi, precision_target=1e-3)

    def test_a1_uncertifiable(self):
        bounded = ArithSequence("bounded", [1, -1, 1, -1], magnitude_bound=Fraction(1))
        with pytest.raises(UncertifiableSeriesError):
            numeric_constants(bounded, precision_target=0.5)

    def test_precision_unattainable(self):
        mu = mobius_sieve(100)
        with pytest.raises(PrecisionError):
            numeric_constants(mu, precision_target=1e-9)


class TestCsv:
    def test_sequence_roundtrip(self, tmp_path):
        a = ArithSequence("t", [1, Fraction(-1, 2), GaussianRational(0, Fraction(2, 3)), 0])
        path = tmp_path / "seq.csv"
        write_sequence_csv(path, a)
        back, pair = read_sequence_csv(path)
        assert pair is None
        assert back.N == 4
        for n in range(1, 5):
            assert gaussian(back.value(n)) == gaussian(a.value(n))

    def test_pair_layout(self, tmp_path):
        path = tmp_path / "pair.csv"
        path.write_text("n,a,b\n1,1/1,1/1\n2,-1/1,1/1\n")
        a, b = read_sequence_csv(path)
        assert a.value(2) == -1 and b.value(2) == 1

    def test_bad_headers_and_gaps(self, tmp_path):
        p1 = tmp_path / "h.csv"
        p1.write_text("idx,val\n1,1\n")
        with pytest.raises(FormatError):
            read_sequence_csv(p1)
        p2 = tmp_path / "g.csv"
        p2.write_text("n,value\n1,1/1\n3,1/1\n")
        with pytest.raises(FormatError):
            read_sequence_csv(p2)
        p3 = tmp_path / "z.csv"
        p3.write_text("n,value\n1,1/1\nz,1/1\n")
        with pytest.raises(FormatError, match=re.escape(f"{p3}: row 2")):
            read_sequence_csv(p3)

    def test_character_roundtrip(self, tmp_path):
        chi = kronecker_character(5)
        path = tmp_path / "chi.csv"
        write_character_csv(path, chi)
        assert read_character_csv(path).table == chi.table

    def test_invalid_character_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("residue,value\n0,0\n1,1\n2,1\n3,1\n")
        with pytest.raises(FormatError):
            read_character_csv(path)
        half = tmp_path / "half.csv"
        half.write_text("residue,value\n0,0\n1,1/2\n2,-1\n")
        with pytest.raises(FormatError, match=re.escape(f"{half}: row 2")):
            read_character_csv(half)
