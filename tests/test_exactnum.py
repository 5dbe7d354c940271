"""Gaussian rationals, affine forms and their text format."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import RefConstLinear
from errlab.decomposition import build_fracsquare_series
from errlab.errors import FormatError
from errlab import exactnum
from errlab.exactnum import ConstLinear, GaussianRational, parse_rational
from errlab.piecewise import PiecewiseLaurent
from errlab.sequences import kronecker_character, mobius_sieve, twist
from errlab.volterra import (build_error_term, build_fracpart_series, make_case,
                             resolvent_function)

fractions = st.fractions(min_value=-10, max_value=10, max_denominator=12)
gaussians = st.builds(GaussianRational, fractions, fractions)
forms = st.builds(ConstLinear, gaussians, gaussians, gaussians)

# Rationals of modulus <= 700 over ~1 kbit denominators, the divisors
# lcm(1..700)/k, next to small ones, so that sums meet both equal and
# unequal shared denominators.
LCM_700 = math.lcm(*range(1, 701))
big_fractions = st.builds(lambda n, k: Fraction(n, LCM_700 // k),
                          st.integers(-LCM_700, LCM_700), st.integers(1, 700))
rationals = st.one_of(st.integers(-30, 30), fractions, big_fractions)
real_gaussians = st.builds(GaussianRational, rationals)
complex_gaussians = st.builds(GaussianRational, rationals, rationals.filter(bool))
# the operands of * and /: ints, Fractions and ConstLinear scalars, real or not
scalars = st.one_of(st.integers(-30, 30), fractions, big_fractions,
                    st.builds(ConstLinear, real_gaussians),
                    st.builds(ConstLinear, complex_gaussians))
coefficients = st.one_of(st.just(0), scalars, real_gaussians, complex_gaussians)
OPS = ("add", "sub", "neg", "mul", "rmul", "mul_form", "div", "add_rational")
# (a2, a1) pairs for numeric(): float and complex constants
NUMERIC_AT = ((6 / math.pi ** 2, 0.0), (complex(0.5, 0.25), -1.25))


class TestGaussianRational:
    def test_reduction_invariant(self):
        z = GaussianRational(Fraction(2, 4), Fraction(-6, 9))
        assert (z.re.numerator, z.re.denominator) == (1, 2)
        assert (z.im.numerator, z.im.denominator) == (-2, 3)
        assert z.re.denominator > 0 and z.im.denominator > 0

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            GaussianRational(0.5)

    def test_value_type_has_no_arithmetic(self):
        # ConstLinear(z) does the arithmetic of a Gaussian rational z
        for op in ("abs2", "__neg__", "__add__", "__radd__", "__sub__", "__rsub__",
                   "__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
            assert op not in vars(GaussianRational), op
        z, form = GaussianRational(1), ConstLinear(1)
        for apply in (lambda: z + 1, lambda: 1 - z, lambda: z * z, lambda: -z,
                      lambda: form + z, lambda: z + form, lambda: form * z,
                      lambda: z * form, lambda: form / z):
            with pytest.raises(TypeError):
                apply()
        # a Gaussian rational equals an int or a Fraction, never a form
        assert z == 1 and GaussianRational(Fraction(1, 2)) == Fraction(1, 2)
        assert z != form and form != z and hash(z) != hash(form)

    def test_equality_with_exact_scalars_only(self):
        z = GaussianRational(Fraction(3, 2), 1)
        assert z != Fraction(3, 2) and GaussianRational(Fraction(3, 2)) == Fraction(3, 2)
        assert GaussianRational(3) == np.int64(3) and GaussianRational(1) == True
        for other in (1.5, "3/2", complex(1.5, 1), None):
            assert z.__eq__(other) is NotImplemented
            assert z != other

    @given(gaussians)
    def test_text_roundtrip(self, z):
        assert GaussianRational.from_text(z.to_text()) == z

    def test_parse_forms(self):
        assert GaussianRational.from_text("5") == GaussianRational(5)
        assert GaussianRational.from_text("-9/8") == GaussianRational(Fraction(-9, 8))
        assert GaussianRational.from_text("3/2+-1/3*i") == GaussianRational(
            Fraction(3, 2), Fraction(-1, 3))
        with pytest.raises(FormatError):
            GaussianRational.from_text("1 + 2i")


class TestConstLinear:
    def test_combine_examples(self):
        u = ConstLinear(1, 0, 0)
        v = ConstLinear(0, 1, 0)
        assert u * 2 + v * 3 == ConstLinear(2, 3, 0)

        w = ConstLinear(Fraction(1, 2), Fraction(-1, 2), 0)
        assert (w * 1 + w * -1).is_zero()

        i = GaussianRational(0, 1)
        u2 = ConstLinear(1, 0, 0)
        v2 = ConstLinear(0, 0, 1)
        assert u2 * ConstLinear(i) + v2 * ConstLinear(i) == ConstLinear(i, 0, i)

    def test_rationals_on_either_side_of_a_sum(self):
        u = ConstLinear(Fraction(1, 2), 1, 0)
        assert 0 + u == u + 0 == u - 0 == u
        assert 1 - u == ConstLinear(Fraction(1, 2), -1, 0)
        assert u - Fraction(1, 2) == ConstLinear.a2(1)
        assert sum([u, u, ConstLinear.a1(1)]) == ConstLinear(1, 2, 1)

    def test_scalar_form_as_coefficient(self):
        z = ConstLinear(GaussianRational(Fraction(1, 3), -2))
        assert ConstLinear(z) == z
        assert ConstLinear(1, z, z) == ConstLinear(1, GaussianRational(Fraction(1, 3), -2),
                                                   GaussianRational(Fraction(1, 3), -2))
        with pytest.raises(ValueError):
            ConstLinear(ConstLinear.a2(1))

    def test_is_zero_examples(self):
        assert ConstLinear(0, 0, 0).is_zero()
        assert not ConstLinear(0, Fraction(1, 10 ** 9), 0).is_zero()
        assert not ConstLinear(1, -1, 0).is_zero()

    @given(forms, forms, forms)
    def test_combine_associative_commutative(self, u, v, w):
        assert (u + v) + w == u + (v + w)
        assert u + v == v + u
        assert (u * 1 + u * -1).is_zero()

    @given(forms, gaussians, gaussians)
    def test_combine_linearity(self, u, s, t):
        s, t = ConstLinear(s), ConstLinear(t)
        assert u * s + u * t == u * (s + t)

    def test_numeric_examples(self):
        assert ConstLinear(1, 0, 0).numeric(123.0, 456.0) == 1.0
        a2 = 6 / math.pi ** 2
        assert ConstLinear(0, 1, 0).numeric(a2, 0.0) == pytest.approx(0.6079271, abs=1e-6)
        assert ConstLinear(0, Fraction(-1, 2), 0).numeric(0.6079271, 0.0) == \
            pytest.approx(-0.3039636, abs=1e-6)

    @given(fractions)
    def test_numeric_rational_roundtrip(self, q):
        # an all-rational form maps to the float image of its constant exactly
        v = ConstLinear(q, 0, 0)
        assert v.numeric(0.123, 4.56) == float(q)

    def test_product_rejection(self):
        a2 = ConstLinear.a2(1)
        with pytest.raises(ValueError):
            a2 * a2
        with pytest.raises(ValueError):
            ConstLinear(1, 1, 0) * ConstLinear(0, 0, 1)
        # scalar factors stay legal from either side
        assert a2 * ConstLinear.scalar(2) == ConstLinear.a2(2)
        assert ConstLinear.scalar(2) * a2 == ConstLinear.a2(2)
        # a divisor must be a scalar too
        assert a2 / ConstLinear.scalar(Fraction(1, 2)) == ConstLinear.a2(2)
        with pytest.raises(ValueError):
            ConstLinear.scalar(1) / a2

    @given(forms)
    def test_text_roundtrip(self, v):
        assert ConstLinear.from_text(v.to_text()) == v

    def test_serialization_shape(self):
        v = ConstLinear(Fraction(1, 2), Fraction(-9, 8), 0)
        assert v.to_text() == "1/2 + -9/8*A2 + 0/1*A1"
        z = ConstLinear(GaussianRational(Fraction(1, 2), Fraction(1, 3)), 0, 1)
        assert ConstLinear.from_text(z.to_text()) == z

    def test_zero_form_text(self):
        # to_text writes the zero form without formatting its ints
        for zero in (ConstLinear.zero(), ConstLinear(Fraction(1, 3)) - Fraction(1, 3),
                     -ConstLinear.a2(0)):
            assert zero.to_text() == zero._text(str) == "0/1 + 0/1*A2 + 0/1*A1"


def _numeric_bits(v, a2, a1):
    try:
        z = v.numeric(a2, a1)
    except OverflowError:
        return "overflow"
    return z.real.hex(), z.imag.hex()


def _assert_same(new, ref):
    assert new.to_text() == ref.to_text()
    assert hash(new) == hash(ref)
    assert new.is_zero() == ref.is_zero()
    assert new.is_scalar() == ref.is_scalar()
    for a2, a1 in NUMERIC_AT:
        assert _numeric_bits(new, a2, a1) == _numeric_bits(ref, a2, a1)


class TestFlatKernel:
    """ConstLinear against the coefficient-by-coefficient reference."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_chains_match_reference(self, data):
        pool = []
        for _ in range(3):
            c = data.draw(st.tuples(coefficients, coefficients, coefficients), label="form")
            pool.append((ConstLinear(*c), RefConstLinear(*c)))
            _assert_same(*pool[-1])
        for _ in range(data.draw(st.integers(1, 12), label="length")):
            op = data.draw(st.sampled_from(OPS), label="op")
            (u, ru), (v, rv) = (pool[data.draw(st.integers(0, len(pool) - 1))]
                                for _ in range(2))
            s = data.draw(scalars, label="scalar")
            if op == "add":
                new, ref = u + v, ru + rv
                assert new - v == u
            elif op == "sub":
                new, ref = u - v, ru - rv
                assert new + v == u
            elif op == "neg":
                new, ref = -u, -ru
            elif op == "add_rational":
                r = data.draw(rationals, label="rational")
                side = data.draw(st.sampled_from(("u+r", "r+u", "u-r", "r-u")), label="side")
                new, ref = {"u+r": lambda: (u + r, ru + r), "r+u": lambda: (r + u, r + ru),
                            "u-r": lambda: (u - r, ru - r), "r-u": lambda: (r - u, r - ru)}[side]()
            elif op == "mul":
                new, ref = u * s, ru * s
            elif op == "rmul":
                new, ref = s * u, s * ru
            elif op == "mul_form":
                if not (u.is_scalar() or v.is_scalar()):
                    with pytest.raises(ValueError):
                        u * v
                    with pytest.raises(ValueError):
                        ru * rv
                    continue
                new, ref = u * v, ru * rv
            else:
                if s.is_zero() if isinstance(s, ConstLinear) else not s:
                    with pytest.raises(ZeroDivisionError):
                        u / s
                    with pytest.raises(ZeroDivisionError):
                        ru / s
                    continue
                new, ref = u / s, ru / s
            _assert_same(new, ref)
            # every form is stored in lowest terms
            assert math.gcd(new._d, *new._n) == 1
            for w, rw in pool:
                assert (new == w) == (ref == rw)
            pool.append((new, ref))

    @pytest.mark.parametrize("zero", [0, Fraction(0), ConstLinear.zero()])
    def test_zero_divisor(self, zero):
        for v in (ConstLinear(1, Fraction(1, LCM_700), 0), RefConstLinear(1, 2, 3),
                  ConstLinear.zero()):
            with pytest.raises(ZeroDivisionError):
                v / zero

    def test_floats_rejected(self):
        for v in (ConstLinear(Fraction(1, 3), 0, 1), RefConstLinear(Fraction(1, 3), 0, 1)):
            for apply in (lambda: v * 0.5, lambda: 0.5 * v, lambda: v / 0.5,
                          lambda: v + 0.5, lambda: v - 0.5):
                with pytest.raises(TypeError):
                    apply()
        with pytest.raises(TypeError):
            ConstLinear(0.5)

    def test_views_are_reduced_gaussians(self):
        z = GaussianRational(Fraction(2, 4), Fraction(-1, 6))
        v = ConstLinear(z, Fraction(3, 9), 0) * 2
        assert isinstance(v.c1, GaussianRational) and isinstance(v.c1.re, Fraction)
        assert (v.c1.re, v.c1.im, v.cA2.re, v.cA2.im, v.cA1.re, v.cA1.im) == (
            1, Fraction(-1, 3), Fraction(2, 3), 0, 0, 0)
        assert v._d == 3
        # the operators are class attributes, so they can be wrapped in place
        for op in ("__add__", "__sub__", "__mul__", "__rmul__", "__truediv__",
                   "__neg__", "to_text"):
            assert op in vars(ConstLinear)

    def test_equal_values_stored_identically(self):
        # a sum over equal denominators is reduced like every other result
        half = ConstLinear(Fraction(1, 2), Fraction(1, 8))
        w, u = half + half, ConstLinear(1, Fraction(1, 4))
        assert (w._n, w._d) == (u._n, u._d) == ((4, 0, 1, 0, 0, 0), 4)
        assert w == u and hash(w) == hash(u)
        assert w.to_text() == u.to_text() == "1/1 + 1/4*A2 + 0/1*A1"
        assert (w * Fraction(2, 3))._d == 6

    def test_denominator_growth_at_x_1000(self):
        # piece constants at X = 1000 have lcm(1..1000)-type denominators; the
        # shared denominator must stay near that size
        X = 1000
        limit = math.lcm(*range(1, X + 1)).bit_length() + 64
        case = make_case(twist(mobius_sieve(X), kronecker_character(-3)), X)
        E = build_error_term(case)
        h = build_fracpart_series(case)
        built = [E, h, build_fracsquare_series(case, h, twisted=True), resolvent_function(E)]
        consts = [c for f in built for piece in f.pieces for c in piece.values()]
        consts += [c for prim in E._prefix(-2) for c in prim.values()]
        assert len(consts) > 10000
        assert max(c._d.bit_length() for c in consts) <= limit


def _with_digit_limit(limit, f):
    """f() with sys.get_int_max_str_digits() set to limit, restored after."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        return f()
    finally:
        sys.set_int_max_str_digits(old)


class TestLongIntegers:
    """Text of ints longer than the 4,300 digits str() writes by default,
    such as the lcm(1..X) denominators of piece constants at X = 10^4."""

    def test_text_past_the_digit_limit(self):
        den = 10 ** 5000 + 7
        z = GaussianRational(Fraction(-(10 ** 4999) - 1, den), Fraction(1, 3))
        v = ConstLinear(z, Fraction(2, den), GaussianRational(Fraction(-1, 3), Fraction(5, den)))

        def texts():
            return v.to_text(), z.to_text(), repr(z), str(v)

        limited = _with_digit_limit(4300, texts)
        assert limited == _with_digit_limit(0, texts)
        assert len(limited[0]) > 3 * 5000
        # reading takes the long ints in pieces, under the same limit
        assert _with_digit_limit(4300, lambda: ConstLinear.from_text(limited[0])) == v
        assert _with_digit_limit(4300, lambda: GaussianRational.from_text(limited[1])) == z
        f = PiecewiseLaurent(Fraction(5, 2), [{0: v}, {}, {2: v, -1: ConstLinear(z)}])
        assert _with_digit_limit(4300, lambda: PiecewiseLaurent.loads(f.dumps())) == f

    def test_digit_bound(self):
        # errlab reads integers up to a bound of its own, and past it says
        # how long the integer is without quoting it
        top = "9" * exactnum._MAX_DIGITS
        assert parse_rational(f"-{top}/7") == Fraction(-(10 ** exactnum._MAX_DIGITS - 1), 7)
        for text in (f"1/{top}1", f"{top}1", f"{top}1/7+1/2*i"):
            with pytest.raises(FormatError, match=f"{exactnum._MAX_DIGITS + 1} digits") as info:
                GaussianRational.from_text(text)
            assert len(str(info.value)) < 100

    def test_dump_at_x_10000(self):
        h = build_fracpart_series(make_case(mobius_sieve(10 ** 4), 10 ** 4))
        text = _with_digit_limit(4300, h.dumps)
        assert text.count("\n") == 10 ** 4 + 2
        assert _with_digit_limit(4300, lambda: PiecewiseLaurent.loads(text)) == h
