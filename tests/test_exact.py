from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from greenquadrics.errors import LiteralParseError
from greenquadrics.exact import (
    QuadExt,
    Rational,
    SQRT2,
    format_quadext,
    format_rational,
    parse_quadext,
    parse_rational,
    to_float,
)
from greenquadrics.exact import _from_ints

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4).map(
    lambda f: Rational(f.numerator, f.denominator)
)
quadexts = st.tuples(rationals, rationals).map(lambda ab: QuadExt(ab[0], ab[1]))


class TestFromInts:
    @given(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30).filter(bool))
    def test_matches_fraction(self, num, den):
        got, want = _from_ints(num, den), Fraction(num, den)
        assert type(got) is Fraction
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert got == want and hash(got) == hash(want)
        assert got + 1 == want + 1 and format_rational(got) == format_rational(want)


class TestRationalText:
    @pytest.mark.parametrize(
        "text,num,den",
        [("3", 3, 1), ("-3", -3, 1), ("1/2", 1, 2), ("-7/3", -7, 3), ("0", 0, 1)],
    )
    def test_parse(self, text, num, den):
        r = parse_rational(text)
        assert (r.numerator, r.denominator) == (num, den)

    @pytest.mark.parametrize("bad", ["", "1/0", "1//2", "a", "1/-2", "+3", "2/", "/3", "²", "٣", "1/²"])
    def test_rejects(self, bad):
        with pytest.raises(LiteralParseError):
            parse_rational(bad)

    @given(rationals)
    def test_roundtrip(self, r):
        assert parse_rational(format_rational(r)) == r


class TestQuadExt:
    def test_conjugate_product(self):
        # (1 + sqrt2)(1 - sqrt2) = -1
        p = QuadExt(1, 1)
        q = QuadExt(1, -1)
        assert p * q == QuadExt(-1, 0)

    @pytest.mark.parametrize("bad", [0.1, "1/3", Decimal("0.5")], ids=repr)
    def test_rejects_inexact_parts(self, bad):
        with pytest.raises(TypeError):
            QuadExt(bad)
        with pytest.raises(TypeError):
            QuadExt(1, bad)

    def test_inverse_of_sqrt2(self):
        assert SQRT2.inverse() == QuadExt(0, Rational(1, 2))
        assert SQRT2 * SQRT2.inverse() == QuadExt(1)

    def test_sign_near_zero(self):
        # -3 + 2 sqrt2 < 0 because 9 > 8
        assert QuadExt(-3, 2).sign() == -1
        assert QuadExt(3, -2).sign() == 1
        assert QuadExt(0, 0).sign() == 0
        assert QuadExt(-4, 3).sign() == 1  # 18 > 16

    @given(quadexts, quadexts, quadexts)
    def test_ring_axioms(self, p, q, r):
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + q == q + p

    @given(quadexts)
    def test_multiplicative_inverse(self, p):
        if p:
            assert p * p.inverse() == QuadExt(1)
        else:
            with pytest.raises(ZeroDivisionError):
                p.inverse()

    @given(quadexts)
    def test_sign_matches_float(self, p):
        f = to_float(p)
        if abs(f) > 1e-6:
            assert p.sign() == (1 if f > 0 else -1)

    @given(quadexts)
    def test_text_roundtrip(self, p):
        assert parse_quadext(format_quadext(p)) == p

    @pytest.mark.parametrize(
        "text,a,b",
        [
            ("sqrt2", 0, 1),
            ("-sqrt2", 0, -1),
            ("1/2 + 3*sqrt2", Fraction(1, 2), 3),
            ("1/2-1/3*sqrt2", Fraction(1, 2), Fraction(-1, 3)),
            ("-2", -2, 0),
            ("5*sqrt2", 0, 5),
        ],
    )
    def test_parse_forms(self, text, a, b):
        p = parse_quadext(text)
        assert p == QuadExt(Rational(a.numerator, a.denominator) if isinstance(a, Fraction) else a,
                            Rational(b.numerator, b.denominator) if isinstance(b, Fraction) else b)


class TestToFloat:
    def test_spec_values(self):
        assert to_float(Rational(1, 2)) == 0.5
        assert to_float(QuadExt(0, 1)) == 1.4142135623730951
        assert to_float(Rational(7, 3)) == 2.3333333333333335

    @given(rationals)
    def test_rational_nearest(self, r):
        assert to_float(r) == r.numerator / r.denominator
