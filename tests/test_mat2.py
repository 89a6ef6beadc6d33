from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from greenquadrics import checks
from greenquadrics.errors import LiteralParseError, SingularMatrixError
from greenquadrics.exact import Rational
from greenquadrics.mat2 import (
    IDENTITY,
    Mat2,
    ZERO,
    det_polar,
    format_mat2,
    inner,
    inverse_mat,
    outer,
    parse_mat2,
    primitive_direction,
    proportional,
)

entries = st.fractions(min_value=-100, max_value=100, max_denominator=20)
mats = st.tuples(entries, entries, entries, entries).map(
    lambda t: Mat2(*(Rational(f.numerator, f.denominator) for f in t))
)

E = Mat2(1, 0, 0, 0)

small = st.fractions(min_value=-20, max_value=20, max_denominator=12)
small_mats = st.tuples(small, small, small, small).map(lambda t: Mat2(*t))
nonzero_small = small.filter(bool)


def assert_canonical(m):
    """One storage form: int content over a positive denominator, gcd 1."""
    assert all(type(v) is int for v in m._n) and type(m._d) is int
    assert m._d > 0 and gcd(*m._n, m._d) == 1
    if m.is_zero():
        assert (m._n, m._d) == ((0, 0, 0, 0), 1)


class TestCanonicalForm:
    @given(small_mats, small_mats, nonzero_small)
    def test_every_result_is_canonical(self, a, b, s):
        for m in (a, a @ b, a + b, a - b, -a, a * s, s * a, a / s, a.transpose(),
                  a * 0, a - a, inverse_mat(a) if a.det() else a):
            assert_canonical(m)
        if not a.is_zero():
            assert_canonical(primitive_direction(a))

    @given(small_mats, small_mats, small_mats, nonzero_small)
    def test_equal_values_compare_and_hash_equal(self, a, b, c, s):
        pairs = [
            ((a @ b) @ c, a @ (b @ c)),
            (a * 2 / 2, a),
            (a * s / s, a),
            ((a + b) - b, a),
            (a @ b + a @ c, a @ (b + c)),
        ]
        for x, y in pairs:
            assert x == y and hash(x) == hash(y)
            assert (x._n, x._d) == (y._n, y._d)

    def test_same_value_from_different_literals(self):
        routes = [
            Mat2(Fraction(1, 2), 1, Fraction(3, 2), 2),
            Mat2(2, 4, 6, 8) / 4,
            Mat2(Fraction(2, 4), Fraction(6, 6), Fraction(9, 6), Fraction(8, 4)),
            Mat2(1, 2, 3, 4) * Fraction(1, 2),
            parse_mat2("[2/4,3/3;6/4,4/2]"),
        ]
        for m in routes:
            assert m == routes[0] and hash(m) == hash(routes[0])
            assert (m._n, m._d) == ((1, 2, 3, 4), 2)

    @given(small_mats, small_mats, nonzero_small)
    def test_entries_match_fraction_formulas(self, a, b, s):
        x, y = a.entries, b.entries
        assert all(type(v) is Fraction for v in x)
        assert (a.x1, a.x2, a.x3, a.x4) == x
        assert (a @ b).entries == (
            x[0] * y[0] + x[1] * y[2],
            x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2],
            x[2] * y[1] + x[3] * y[3],
        )
        assert (a + b).entries == tuple(p + q for p, q in zip(x, y))
        assert (a - b).entries == tuple(p - q for p, q in zip(x, y))
        assert (-a).entries == tuple(-p for p in x)
        assert (a * s).entries == (s * a).entries == tuple(p * s for p in x)
        assert (a / s).entries == tuple(p / s for p in x)
        assert a.transpose().entries == (x[0], x[2], x[1], x[3])
        assert a.det() == x[0] * x[3] - x[1] * x[2]
        assert a.trace() == x[0] + x[3]
        assert a.norm_sq() == sum(p * p for p in x)
        assert inner(a, b) == sum(p * q for p, q in zip(x, y))
        assert det_polar(a, b) == (a + b).det() - a.det() - b.det()
        for v in (a.det(), a.trace(), a.norm_sq(), inner(a, b)):
            assert type(v) is Fraction

    @given(st.tuples(small, small, small, small))
    def test_entries_roundtrip(self, t):
        assert Mat2(*t).entries == t


class TestArithmetic:
    def test_products(self):
        assert E @ Mat2(0, 1, 0, 0) == Mat2(0, 1, 0, 0)
        n = Mat2(0, 1, 0, 0)
        assert (n @ n).is_zero()
        assert Mat2(1, 2, 3, 4).transpose() == Mat2(1, 3, 2, 4)

    def test_mul_add_det_trace(self):
        a = Mat2(1, 2, 3, 4)
        b = Mat2(0, Rational(1, 2), Rational(-1, 3), 5)
        assert a @ b == Mat2(Rational(-2, 3), Rational(21, 2), Rational(-4, 3), Rational(43, 2))
        assert (a.det(), a.trace(), a.norm_sq(), inner(a, a)) == (-2, 5, 30, 30)
        assert (a + -a).is_zero()
        assert a - a == a + -a
        assert (a * Rational(1, 2)).x4 == 2

    def test_scalar_ops(self):
        a = Mat2(1, 2, 3, 4)
        assert 2 * a == Mat2(2, 4, 6, 8) == a * 2
        assert a / 2 == Mat2(Rational(1, 2), 1, Rational(3, 2), 2)
        assert a - a == ZERO
        assert -a + a == ZERO

    @pytest.mark.parametrize("bad", [0.1, "1/3", Decimal("0.5")], ids=repr)
    @pytest.mark.parametrize(
        "build",
        [
            lambda x: Mat2(x, 0, 0, 1),
            lambda x: Mat2(1, 0, 0, x),
            lambda x: Mat2(1, 2, 3, 4) * x,
            lambda x: x * Mat2(1, 2, 3, 4),
            lambda x: Mat2(1, 2, 3, 4) / x,
        ],
        ids=["entry-first", "entry-last", "mul", "rmul", "div"],
    )
    def test_rejects_inexact_scalars(self, build, bad):
        with pytest.raises(TypeError):
            build(bad)

    # the properties of `gq check`, on this module's wider entries
    @given(mats, mats)
    def test_det_trace_laws(self, a, b):
        assert checks.det_trace_laws_hold(a, b)

    @given(mats)
    def test_cayley_hamilton(self, a):
        assert checks.cayley_hamilton_holds(a)

    @given(mats, mats)
    def test_inner_equals_trace_form(self, x, y):
        assert checks.inner_is_trace_form(x, y)


class TestScalarMaps:
    @pytest.mark.parametrize(
        "m,trace,det,rank,norm_sq",
        [
            (IDENTITY, 2, 1, 2, 2),
            (Mat2(0, 1, 0, 0), 0, 0, 1, 1),
            (Mat2(2, 0, 3, 0), 2, 0, 1, 13),
            (ZERO, 0, 0, 0, 0),
            # det 40 / 25 and 4 / 4: reduced by gcd(num, d), then by gcd(num / g, d)
            (Mat2(6, 4, 2, 8) / 5, Rational(14, 5), Rational(8, 5), 2, Rational(24, 5)),
            (Mat2(1, 1, 1, 5) / 2, 3, 1, 2, 7),
        ],
    )
    def test_summary(self, m, trace, det, rank, norm_sq):
        assert (m.trace(), m.det(), m.rank(), m.norm_sq()) == (trace, det, rank, norm_sq)

    def test_inner_examples(self):
        assert inner(IDENTITY, IDENTITY) == 2
        assert inner(Mat2(1, 2, 3, 4), Mat2(1, 2, 3, 4)) == 30
        assert inner(E, Mat2(0, 0, 0, 1)) == 0

    def test_det_polar_is_bilinear_part(self):
        a, b = Mat2(1, 2, 3, 4), Mat2(0, 1, 1, 0)
        s, t = Rational(3), Rational(-2)
        combo = a * s + b * t
        assert combo.det() == s * s * a.det() + s * t * det_polar(a, b) + t * t * b.det()


class TestOuter:
    @given(st.lists(st.one_of(st.integers(-10**20, 10**20), small), min_size=4, max_size=4))
    def test_matches_entrywise_products(self, v):
        c1, c2, r1, r2 = v
        got = outer((c1, c2), (r1, r2))
        assert_canonical(got)
        assert got == Mat2(c1 * r1, c1 * r2, c2 * r1, c2 * r2)

    @pytest.mark.parametrize(
        "col,row",
        [((1, 2), (3, 4)), ((Fraction(1, 2), Fraction(-2, 3)), (Fraction(3, 5), 7)), ((0, 0), (1, 1))],
    )
    def test_examples(self, col, row):
        c1, c2 = col
        r1, r2 = row
        assert outer(col, row) == Mat2(c1 * r1, c1 * r2, c2 * r1, c2 * r2)

    @pytest.mark.parametrize("bad", [0.5, "1", Decimal("0.5")], ids=repr)
    def test_rejects_inexact_entries(self, bad):
        with pytest.raises(TypeError):
            outer((1, bad), (1, 1))
        with pytest.raises(TypeError):
            outer((1, 1), (bad, 1))


class TestInverse:
    def test_examples(self):
        assert inverse_mat(IDENTITY) == IDENTITY
        assert inverse_mat(Mat2(2, 0, 0, Rational(1, 2))) == Mat2(Rational(1, 2), 0, 0, 2)
        assert inverse_mat(Mat2(1, 1, 0, 1)) == Mat2(1, -1, 0, 1)
        # content 2, and content 2 over a denominator 5 that divides det 10
        assert inverse_mat(Mat2(6, 4, 2, 8)) == Mat2(8, -4, -2, 6) / 40
        assert inverse_mat(Mat2(6, 4, 2, 8) / 5) == Mat2(8, -4, -2, 6) / 8

    def test_singular_raises(self):
        # the zero matrix has content gcd(0, 0, 0, 0) = 0, nothing to divide by
        for a in (E, ZERO):
            with pytest.raises(SingularMatrixError):
                inverse_mat(a)

    @given(mats)
    def test_two_sided(self, a):
        if a.det() == 0:
            return
        inv = inverse_mat(a)
        assert a @ inv == IDENTITY and inv @ a == IDENTITY


class TestHelpers:
    def test_primitive_direction(self):
        assert primitive_direction(Mat2(Rational(1, 2), 0, Rational(3, 2), 0)) == Mat2(1, 0, 3, 0)
        assert primitive_direction(Mat2(-2, 0, -4, 0)) == Mat2(1, 0, 2, 0)
        with pytest.raises(ValueError):
            primitive_direction(ZERO)

    def test_proportional(self):
        assert proportional(Mat2(2, 4, 6, 8), Mat2(1, 2, 3, 4))
        assert proportional(Mat2(1, 2, 3, 4), Mat2(Rational(-1, 3), Rational(-2, 3), -1, Rational(-4, 3)))
        assert not proportional(Mat2(1, 0, 0, 0), Mat2(0, 1, 0, 0))
        assert not proportional(ZERO, IDENTITY)


class TestLiterals:
    @pytest.mark.parametrize(
        "text,expect",
        [
            ("[1,0;0,0]", E),
            ("[1/2, -3; 0, 2]", Mat2(Rational(1, 2), -3, 0, 2)),
            (" [ 1 , 0 ; 0 , 1 ] ", IDENTITY),
        ],
    )
    def test_parse(self, text, expect):
        assert parse_mat2(text) == expect

    def test_arity_error(self):
        with pytest.raises(LiteralParseError):
            parse_mat2("[1,0;0]")

    @pytest.mark.parametrize("bad", ["", "[1,0;0,0", "1,0;0,0]", "[1,0,0,0]", "[1,0;0,1/0]", "[1,0;0,1] x"])
    def test_bad_literals(self, bad):
        with pytest.raises(LiteralParseError):
            parse_mat2(bad)

    def test_error_position(self):
        with pytest.raises(LiteralParseError) as exc:
            parse_mat2("[1,0;0]")
        assert exc.value.position == 6

    @given(mats)
    def test_roundtrip(self, a):
        assert parse_mat2(format_mat2(a)) == a


# 2^12 3^8 5^5 7^4 11^3 13^2: a random int shares one of these primes with it
# more often than not, so a denominator carrying it shares factors with det A
SMOOTH = 2**12 * 3**8 * 5**5 * 7**4 * 11**3 * 13**2
# a search for one example that reaches a branch: seeded, no shrinking, no database
REACH = settings(database=None, derandomize=True, phases=[Phase.generate])


@st.composite
def factored_mats(draw, bits):
    """Matrices k A / d with `bits`-bit entries in A, built so that the
    numerators often carry a common factor k and the denominator d often
    shares factors with det A."""
    n = draw(st.lists(st.integers(-(2**bits), 2**bits), min_size=4, max_size=4))
    k = draw(st.sampled_from([1, 6, SMOOTH]) | st.integers(1, 2 ** (bits // 2)))
    det = n[0] * n[3] - n[1] * n[2]
    shared = draw(st.sampled_from([1, gcd(det, SMOOTH), abs(det)]))
    d = draw(st.integers(1, 2**bits)) * (shared or 1)
    return Mat2(*(Fraction(k * v, d) for v in n))


def _content_det(a):
    a1, a2, a3, a4 = a._n
    return a1 * a4 - a2 * a3


def _primitive_det(a):
    c = gcd(*a._n)
    a1, a2, a3, a4 = (v // c for v in a._n)
    return a1 * a4 - a2 * a3


# the gcds `inverse_mat` and `det` reduce by; each test below must reach
# every one of them at a value other than 1
REDUCTION_BRANCHES = {
    "inverse-content": lambda a: _content_det(a) != 0 and gcd(*a._n) > 1,
    "inverse-gcd-d-det": lambda a: _content_det(a) != 0 and gcd(a._d, _primitive_det(a)) > 1,
    "det-gcd-num-d": lambda a: gcd(_content_det(a), a._d) > 1,
    "det-gcd-num/g-d": lambda a: (g := gcd(_content_det(a), a._d)) > 1 and gcd(_content_det(a) // g, a._d) > 1,
}


class TestReductionByFactors:
    """`inverse_mat` and `det` reduce by gcds of known factors, not one gcd
    of the products: each result must still be canonical and equal to its
    `Fraction` formula."""

    @pytest.mark.parametrize("bits", [64, 256])
    @pytest.mark.parametrize("branch", sorted(REDUCTION_BRANCHES))
    def test_strategy_reaches_branch(self, bits, branch):
        find(factored_mats(bits), REDUCTION_BRANCHES[branch], settings=REACH)

    @given(st.sampled_from([64, 256]).flatmap(factored_mats))
    def test_det_and_inverse_match_fraction_formulas(self, a):
        x1, x2, x3, x4 = a.entries
        det = x1 * x4 - x2 * x3
        got = a.det()
        assert type(got) is Fraction and got.denominator > 0
        assert gcd(got.numerator, got.denominator) == 1
        assert (got.numerator, got.denominator) == (det.numerator, det.denominator)
        if det == 0:
            with pytest.raises(SingularMatrixError):
                inverse_mat(a)
            return
        inv = inverse_mat(a)
        assert_canonical(inv)
        assert inv.entries == (x4 / det, -x2 / det, -x3 / det, x1 / det)
