"""Gaussian rationals, affine forms and their text format."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from errlab.errors import FormatError
from errlab.exactnum import ConstLinear, GaussianRational

fractions = st.fractions(min_value=-10, max_value=10, max_denominator=12)
gaussians = st.builds(GaussianRational, fractions, fractions)
forms = st.builds(ConstLinear, gaussians, gaussians, gaussians)


class TestGaussianRational:
    def test_reduction_invariant(self):
        z = GaussianRational(Fraction(2, 4), Fraction(-6, 9))
        assert (z.re.numerator, z.re.denominator) == (1, 2)
        assert (z.im.numerator, z.im.denominator) == (-2, 3)
        assert z.re.denominator > 0 and z.im.denominator > 0

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            GaussianRational(0.5)

    @given(gaussians, gaussians)
    def test_field_ops_roundtrip(self, a, b):
        assert a + b - b == a
        if not b.is_zero():
            assert (a * b) / b == a

    def test_division(self):
        i = GaussianRational(0, 1)
        assert 1 / i == -i
        assert GaussianRational(1, 1) / GaussianRational(1, -1) == i
        with pytest.raises(ZeroDivisionError):
            GaussianRational(1) / GaussianRational(0)

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
        assert u2 * i + v2 * i == ConstLinear(i, 0, i)

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

    @given(forms)
    def test_text_roundtrip(self, v):
        assert ConstLinear.from_text(v.to_text()) == v

    def test_serialization_shape(self):
        v = ConstLinear(Fraction(1, 2), Fraction(-9, 8), 0)
        assert v.to_text() == "1/2 + -9/8*A2 + 0/1*A1"
        z = ConstLinear(GaussianRational(Fraction(1, 2), Fraction(1, 3)), 0, 1)
        assert ConstLinear.from_text(z.to_text()) == z
