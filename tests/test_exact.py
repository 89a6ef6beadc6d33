from decimal import Decimal
from fractions import Fraction
from math import gcd, isqrt

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


def _bracket_sign(a, b) -> int:
    """Sign of a + b*sqrt2 from ever tighter rational brackets lo < sqrt2 < hi.

    Independent of `QuadExt.sign` (which compares a^2 with 2 b^2): for b != 0
    the value is irrational, so some bracket has both ends of one sign.
    """
    if b == 0:
        return (a > 0) - (a < 0)
    digits = 20
    while True:
        lo = Fraction(isqrt(2 * 10 ** (2 * digits)), 10**digits)
        ends = (a + b * lo, a + b * (lo + Fraction(1, 10**digits)))
        if all(v > 0 for v in ends):
            return 1
        if all(v < 0 for v in ends):
            return -1
        digits *= 2


# the pre-integer-content QuadExt formulas on pairs (a, b) of Fractions
def _ref_mul(x, y):
    a, b = x
    c, d = y
    return a * c + 2 * b * d, a * d + b * c


def _ref_inverse(x):
    a, b = x
    norm = a * a - 2 * b * b
    return a / norm, -b / norm


_REF_OPS = {
    "add": lambda x, y: (x[0] + y[0], x[1] + y[1]),
    "sub": lambda x, y: (x[0] - y[0], x[1] - y[1]),
    "mul": _ref_mul,
    "div": lambda x, y: _ref_mul(x, _ref_inverse(y)),
}
_QE_OPS = {
    "add": lambda p, q: p + q,
    "sub": lambda p, q: p - q,
    "mul": lambda p, q: p * q,
    "div": lambda p, q: p / q,
}


def assert_canonical(x):
    """One storage form: int content over a positive denominator, gcd 1."""
    assert not hasattr(x, "__dict__") and not hasattr(x, "_a") and not hasattr(x, "_b")
    assert type(x._p) is int and type(x._q) is int and type(x._d) is int
    assert x._d > 0 and gcd(x._p, x._q, x._d) == 1


def _pair(x):
    return x.rat_part, x.root2_part


def _as_pair(x):
    return _pair(x) if isinstance(x, QuadExt) else (Fraction(x), Fraction(0))


class TestQuadExtCanonical:
    @given(quadexts)
    def test_constructor_is_canonical(self, p):
        assert_canonical(p)
        assert_canonical(-p)
        if p:
            assert_canonical(p.inverse())
            assert p.inverse() == QuadExt(*_ref_inverse(_pair(p)))

    @pytest.mark.parametrize("op", sorted(_REF_OPS))
    @given(p=quadexts, q=quadexts, r=rationals, n=st.integers(-10**6, 10**6))
    def test_every_result_is_canonical_and_matches_fraction_formula(self, op, p, q, r, n):
        f, ref = _QE_OPS[op], _REF_OPS[op]
        pairs = [(p, q), (p, r), (r, p), (p, n), (n, p)]
        for x, y in pairs:
            if op == "div" and not y:
                with pytest.raises(ZeroDivisionError):
                    f(x, y)
                continue
            got = f(x, y)
            assert type(got) is QuadExt
            assert_canonical(got)
            want = ref(_as_pair(x), _as_pair(y))
            assert _pair(got) == want

    @given(quadexts, quadexts, quadexts)
    def test_equal_values_have_equal_content_and_hash(self, p, q, r):
        routes = [(p + q) * r, p * r + q * r, r * q + r * p - QuadExt(0), (p + q) * r * 1]
        if r:
            routes.append((p + q) * r * r / r)
        for v in routes:
            assert (v._p, v._q, v._d) == (routes[0]._p, routes[0]._q, routes[0]._d)
            assert v == routes[0] and hash(v) == hash(routes[0])

    @given(rationals, st.integers(-10**40, 10**40))
    def test_rational_elements_hash_and_compare_as_fractions(self, x, n):
        for v in (x, n, Fraction(n, 7)):
            assert QuadExt(v) == v and v == QuadExt(v)
            assert hash(QuadExt(v)) == hash(v)
            assert hash(QuadExt(v) + SQRT2 - SQRT2) == hash(v)
        assert len({QuadExt(x), x}) == 1

    @given(rationals, rationals)
    def test_parts_match_the_reference(self, a, b):
        p = QuadExt(a, b)
        assert type(p.rat_part) is Fraction and type(p.root2_part) is Fraction
        assert (p.rat_part, p.root2_part) == (a, b)
        for got, want in zip(_pair(p * p), _ref_mul((a, b), (a, b))):
            assert type(got) is Fraction and got == want

    def test_zero_and_integer_content(self):
        z = QuadExt(0) * SQRT2
        assert (z._p, z._q, z._d) == (0, 0, 1) and z.sign() == 0 and not z
        x = QuadExt(Fraction(1, 6), Fraction(3, 4))
        assert (x._p, x._q, x._d) == (2, 9, 12)
        assert repr(x) == "QuadExt(Fraction(1, 6), Fraction(3, 4))"


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
            expected = 1 if f > 0 else -1
        else:
            expected = _bracket_sign(p.rat_part, p.root2_part)
        assert p.sign() == expected

    @pytest.mark.parametrize(
        "a,b",
        [(0, 0), (Fraction(577, 408), -1), (-Fraction(577, 408), 1), (-99, 70), (99, -70), (0, Fraction(1, 10**30))],
    )
    def test_sign_at_and_near_zero(self, a, b):
        p = QuadExt(a, b)
        assert p.sign() == _bracket_sign(Fraction(a), Fraction(b))
        assert (p.sign() == 0) == (a == 0 and b == 0)

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
