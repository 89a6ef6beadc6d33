from fractions import Fraction
from functools import partial
from math import gcd, lcm

import pytest
from hypothesis import find, given
from hypothesis import strategies as st
from draws import wide
from test_linear import reference_solve
from test_mat2 import REACH, SMOOTH, assert_canonical

from greenquadrics import checks, semigroup
from greenquadrics.errors import (
    DegeneratePairingError,
    NotRankOneError,
    NotRankOneIdempotentError,
    SingularMatrixError,
)
from greenquadrics.exact import Rational
from greenquadrics.green import ProjLine, colspace, rowspace
from greenquadrics.mat2 import IDENTITY, Mat2, ZERO, _trace_of_product_is, inner, inverse_mat, outer
from greenquadrics.sampling import (
    CERTIFICATE_VALUES,
    grid_matrices,
    grid_values,
    rand_idempotent_rank1,
    rand_invertible,
    rand_nonzero_rational,
    rand_rank1,
    rand_rational,
    rand_singular_with_trace,
    rand_wide_rational,
    rng_for,
)
from greenquadrics.sections import Hyperplane, membership, section_membership
from greenquadrics.semigroup import (
    GeneratorLine,
    InverseChart,
    chart_eval,
    generator_line,
    idempotent_from_spaces,
    inverse_chart,
    inverse_membership,
    is_idempotent,
    is_inverse_pair,
    is_nilpotent,
    line_meet,
    minus_le,
    natural_le,
    order_section_report,
)

E = Mat2(1, 0, 0, 0)
N = Mat2(0, 1, 0, 0)
HALF = Rational(1, 2)


class TestPredicates:
    def test_idempotent_examples(self):
        assert is_idempotent(E)
        assert is_idempotent(Mat2(HALF, HALF, HALF, HALF))
        assert is_idempotent(IDENTITY) and is_idempotent(ZERO)
        assert not is_idempotent(Mat2(1, 1, 0, 1))

    def test_nilpotent_examples(self):
        assert is_nilpotent(Mat2(1, 1, -1, -1))
        assert is_nilpotent(N) and is_nilpotent(ZERO)
        assert not is_nilpotent(E)


class TestInversePairs:
    def test_examples(self):
        assert is_inverse_pair(IDENTITY, IDENTITY)
        assert is_inverse_pair(N, Mat2(0, 0, 1, 0))
        assert not is_inverse_pair(N, N)

    def test_membership_examples(self):
        assert inverse_membership(E, Mat2(1, 2, 3, 6))
        assert not inverse_membership(E, IDENTITY)
        assert inverse_membership(N, Mat2(5, 10, 1, 2))

    def test_membership_requires_rank1(self):
        with pytest.raises(NotRankOneError):
            inverse_membership(IDENTITY, E)
        with pytest.raises(NotRankOneError):
            inverse_membership(ZERO, E)

    def test_membership_iff_inverse_pair(self):
        for i in range(100):
            rng = rng_for(23, i)
            a = rand_rank1(rng)
            chart = inverse_chart(a)
            x = chart_eval(chart, rand_rational(rng), rand_rational(rng))
            assert inverse_membership(a, x) and is_inverse_pair(a, x)
            y = rand_rank1(rng)
            assert inverse_membership(a, y) == is_inverse_pair(a, y)


class TestCharts:
    def test_chart_of_e(self):
        chart = inverse_chart(E)
        s, t = Rational(5), Rational(-3)
        assert chart_eval(chart, s, t) == Mat2(1, t, s, s * t)

    def test_chart_of_nilpotent(self):
        chart = inverse_chart(N)
        s, t = Rational(2), Rational(7)
        assert chart_eval(chart, s, t) == Mat2(s, s * t, 1, t)
        assert chart_eval(chart, Rational(0), Rational(0)) == Mat2(0, 0, 1, 0)

    def test_normalizations(self):
        for i in range(200):
            a = rand_rank1(rng_for(31, i))
            c, r = rank1_factor_on_fractions(a)
            chart = inverse_chart(a)
            assert r[0] * chart.d0[0] + r[1] * chart.d0[1] == 1
            assert r[0] * chart.d1[0] + r[1] * chart.d1[1] == 0
            assert c[0] * chart.q0[0] + c[1] * chart.q0[1] == 1
            assert c[0] * chart.q1[0] + c[1] * chart.q1[1] == 0

    def test_bijectivity(self):
        for i in range(200):
            rng = rng_for(37, i)
            a = rand_rank1(rng)
            chart = inverse_chart(a)
            s1, t1 = rand_rational(rng, 5, 3), rand_rational(rng, 5, 3)
            s2, t2 = rand_rational(rng, 5, 3), rand_rational(rng, 5, 3)
            assert (chart_eval(chart, s1, t1) == chart_eval(chart, s2, t2)) == (
                (s1, t1) == (s2, t2)
            )

    def test_every_inverse_is_hit(self):
        # every inverse of a = c r^T is x = u v^T / tr(a u v^T) for some u, v
        # with tr(a u v^T) = (r.u)(v.c) != 0: draw one off the chart (redrawing
        # u, v while that trace is 0), read its (s, t) through the chart's
        # vectors, and the chart returns it there
        for i in range(300):
            rng = rng_for(41, i)
            a = rand_rank1(rng)
            k = 0
            while k == 0:
                u = (rand_rational(rng, 5, 3), rand_rational(rng, 5, 3))
                v = (rand_rational(rng, 5, 3), rand_rational(rng, 5, 3))
                k = (a @ outer(u, v)).trace()
            x = outer(u, v) / k
            assert is_inverse_pair(a, x)
            chart = inverse_chart(a)
            s, t = (inner(x, m) / m.norm_sq() for m in (outer(chart.d1, chart.q0), outer(chart.d0, chart.q1)))
            assert chart_eval(chart, s, t) == x


class TestGeneratorLines:
    def test_examples(self):
        g = generator_line("L1", E)
        assert g.base == E and g.direction == Mat2(0, 0, 1, 0)
        assert g.point(Rational(7)) == Mat2(1, 0, 7, 0)
        g = generator_line("L2", E)
        assert g.direction == Mat2(0, 1, 0, 0)

    def test_rejects_non_idempotent(self):
        with pytest.raises(NotRankOneIdempotentError):
            generator_line("L1", IDENTITY)
        with pytest.raises(NotRankOneIdempotentError):
            generator_line("L2", Mat2(2, 0, 0, 0))

    def test_symbolic_idempotency(self):
        # (e + t d)^2 = e + t d for all t reduces to: d e + e d = d and d^2 = 0
        for i in range(100):
            e = rand_idempotent_rank1(rng_for(47, i))
            for family in ("L1", "L2"):
                d = generator_line(family, e).direction
                assert (d @ e + e @ d) == d
                assert (d @ d).is_zero()


class TestLineMeet:
    def test_examples(self):
        f = Mat2(0, 0, 0, 1)
        assert line_meet(generator_line("L1", E), generator_line("L2", E)) == E
        assert line_meet(generator_line("L1", E), generator_line("L1", f)) is None
        # the exceptional opposite-family pair
        assert line_meet(generator_line("L1", E), generator_line("L2", f)) is None

    def test_matches_fraction_solve(self):
        # pairs from both families, small entries so that lines of one class
        # and degenerate pairings occur; every other trial scales a direction
        # by a rational, which leaves the line as it is but its content not 1
        met = missed = 0
        for i in range(300):
            rng = rng_for(59, i)
            e, f = rand_idempotent_rank1(rng, span=2), rand_idempotent_rank1(rng, span=2)
            for fam1, fam2 in (("L1", "L1"), ("L1", "L2"), ("L2", "L1"), ("L2", "L2")):
                g1, g2 = generator_line(fam1, e), generator_line(fam2, f)
                if i % 2:
                    g1 = GeneratorLine(g1.base, g1.direction * rand_nonzero_rational(rng), fam1)
                got = line_meet(g1, g2)
                assert got == line_meet_on_fractions(g1, g2), (g1, g2)
                met += got is not None
                missed += got is None
        assert met > 100 and missed > 100


def line_meet_on_fractions(g1, g2):
    """The meet by `reference_solve` on `Fraction` entries; None when the
    directions are proportional (no unique meet) or the lines miss."""
    a, b = g1.direction.entries, g2.direction.entries
    if all(a[i] * b[j] == a[j] * b[i] for i in range(4) for j in range(i + 1, 4)):
        return None
    diff = [q - p for p, q in zip(g1.base.entries, g2.base.entries)]
    sol = reference_solve([[a[i], -b[i]] for i in range(4)], diff)
    return None if sol is None else g1.point(sol[0])


class TestIdempotentFromSpaces:
    def test_examples(self):
        line = lambda p, q: ProjLine(Rational(p), Rational(q))
        assert idempotent_from_spaces(line(1, 0), line(1, 0)) == E
        assert idempotent_from_spaces(line(1, 1), line(1, 0)) == Mat2(1, 0, 1, 0)
        with pytest.raises(DegeneratePairingError):
            idempotent_from_spaces(line(1, 0), line(0, 1))

    def test_output_contract(self):
        for i in range(200):
            rng = rng_for(59, i)
            e = rand_idempotent_rank1(rng)
            rebuilt = idempotent_from_spaces(colspace(e), rowspace(e))
            assert rebuilt == e  # the H-class determines its idempotent


class TestNaturalOrder:
    def test_examples(self):
        assert natural_le(ZERO, Mat2(3, 1, -2, 7))
        assert natural_le(E, IDENTITY)
        assert not natural_le(Mat2(HALF, 0, 0, 0), Mat2(2, 0, 0, HALF))
        assert natural_le(Mat2(2, 0, 0, 0), Mat2(2, 0, 0, HALF))

    def test_reflexive_and_antisymmetric_cases(self):
        a = Mat2(1, 2, 3, 4)
        assert natural_le(a, a)
        assert not natural_le(IDENTITY, IDENTITY * 2)

    def test_equals_minus_order_randomized(self):
        for i in range(2000):
            rng = rng_for(61, i)
            mode = i % 4
            if mode == 0:
                x, y = rand_rank1(rng), rand_invertible(rng)
            elif mode == 1:
                y = rand_invertible(rng)
                x = rand_idempotent_rank1(rng) @ y
            elif mode == 2:
                y = rand_rank1(rng)
                x = y * rand_rational(rng, 3, 2)
            else:
                x, y = rand_rank1(rng), rand_rank1(rng)
            assert natural_le(x, y) == minus_le(x, y)


class TestOrderSectionReport:
    def test_identity_columns_agree(self):
        report = order_section_report(IDENTITY, 60, seed=1)
        assert report.agree_le_vs_inv_section == 60
        assert report.agree_le_vs_section == 60
        assert report.counterexamples == []

    def test_diagonal_example(self):
        a = Mat2(2, 0, 0, HALF)
        x = Mat2(2, 0, 0, 0)
        assert natural_le(x, a)
        assert (a @ x).trace() != 1  # not in SP(a;1)
        from greenquadrics.mat2 import inverse_mat

        assert (inverse_mat(a) @ x).trace() == 1 and x.det() == 0
        y = Mat2(HALF, 0, 0, 0)
        assert not natural_le(y, a)
        assert (a @ y).trace() == 1 and y.det() == 0

    def test_report_generic(self):
        for i in range(3):
            a = rand_invertible(rng_for(67, i))
            report = order_section_report(a, 90, seed=2 + i)
            assert report.agree_le_vs_inv_section == 90
            assert not report.counterexamples
            payload = report._asdict()
            assert set(payload) >= {
                "trials",
                "agree_le_vs_inv_section",
                "agree_le_vs_section",
                "counterexamples",
            }

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            order_section_report(E, 10, seed=0)

    def test_deterministic(self):
        a = Mat2(2, 1, 1, 1)
        r1 = order_section_report(a, 30, seed=9)
        r2 = order_section_report(a, 30, seed=9)
        assert r1._asdict() == r2._asdict()


class TestNilpotentCone:
    def test_cone_identity(self):
        for i in range(300):
            x = rand_singular_with_trace(rng_for(71, i), Fraction(0))
            assert (x.x2 - x.x3) ** 2 == inner(x, x)


class TestOrderStress:
    def test_minus_equivalence_large_entries(self):
        # larger numerators/denominators: exercises intermediate blow-up
        for i in range(800):
            rng = rng_for(137, i)
            mode = i % 4
            if mode == 0:
                x, y = rand_rank1(rng, span=30), rand_invertible(rng, 25, 12)
            elif mode == 1:
                y = rand_invertible(rng, 25, 12)
                x = rand_idempotent_rank1(rng, span=20) @ y
            elif mode == 2:
                y = rand_rank1(rng, span=30)
                x = y * rand_rational(rng, 15, 11)
            else:
                from greenquadrics.sampling import rand_mat

                x, y = rand_mat(rng, 20, 15), rand_mat(rng, 20, 15)
            assert natural_le(x, y) == minus_le(x, y)

    def test_transitivity_on_constructed_chains(self):
        for i in range(300):
            rng = rng_for(139, i)
            y = rand_invertible(rng)
            x = rand_idempotent_rank1(rng) @ y
            if natural_le(x, y):
                assert natural_le(ZERO, x) and natural_le(ZERO, y)
                assert natural_le(x, x)


class TestOrderAxioms:
    def _grid(self):
        vals = (Rational(-1), Rational(0), Rational(1))
        return list(grid_matrices(vals))

    def test_antisymmetry(self):
        mats = self._grid()[::5]
        for x in mats:
            for y in mats:
                if natural_le(x, y) and natural_le(y, x):
                    assert x == y

    def test_transitivity(self):
        mats = self._grid()[::6]
        below = {
            i: [j for j, y in enumerate(mats) if natural_le(mats[i], y)]
            for i in range(len(mats))
        }
        for i, ups in below.items():
            for j in ups:
                for k in below[j]:
                    assert k in below[i], (mats[i], mats[j], mats[k])


def _first_nonzero_col(e):
    return (e[0], e[2]) if e[0] or e[2] else (e[1], e[3])


def natural_le_on_fractions(x, y):
    """`natural_le` as it was before integer content: the factor c . r^T read
    from the `Fraction` entries (r = 1 at the pivot), the column spaces
    compared by a cross product, and the system y^T w = r, c.w = 1 solved
    by the `Fraction` Gauss-Jordan reference of the solver tests."""
    if x == y or x.is_zero():
        return True
    if x.rank() == 2:
        return False
    ry = y.rank()
    if ry == 0:
        return False
    x1, x2, x3, x4 = x.entries
    c = _first_nonzero_col(x.entries)
    if ry == 1:
        u, v = _first_nonzero_col(y.entries)
        if c[0] * v != c[1] * u:
            return False
    if x1 or x3:
        r = (Fraction(1), x2 / x1 if x1 else x4 / x3)
    else:
        r = (Fraction(0), Fraction(1))
    y1, y2, y3, y4 = y.entries
    return reference_solve([[y1, y3], [y2, y4], list(c)], [r[0], r[1], Fraction(1)]) is not None


class TestOrderOnIntegerContent:
    def test_span1_grid_matches_fraction_solve(self):
        grid = list(grid_matrices(grid_values(span=1)))
        assert len(grid) == 81
        for x in grid:
            for y in grid:
                assert natural_le(x, y) == natural_le_on_fractions(x, y), (x, y)

    @pytest.mark.parametrize(
        "zero_c0,zero_r0",
        [(False, False), (True, False), (False, True), (True, True)],
        ids=["X1", "X3", "X2", "X4"],
    )
    def test_256_bit_pivot_branches(self, zero_c0, zero_r0):
        # x = c r^T: c0 = 0 moves the pivot down, r0 = 0 moves it right
        outcomes = set()
        for i in range(12):
            rng = rng_for(211, i)
            c = (Fraction(0) if zero_c0 else wide(rng), wide(rng))
            r = (Fraction(0) if zero_r0 else wide(rng), wide(rng))
            x = Mat2(c[0] * r[0], c[0] * r[1], c[1] * r[0], c[1] * r[1])
            m = Mat2(*(wide(rng) for _ in range(4)))
            k = (inverse_mat(m) @ x).trace()
            # x <= y for invertible y iff tr(y^-1 x) = 1: y = k m is above x
            ys = [m * k, m * (k + 1), m]
            # rank-1 y: the same column space as x (with and without x <= y) or another
            ys += [x * 1, Mat2(c[0] * r[1], c[0], c[1] * r[1], c[1]), Mat2(wide(rng), wide(rng), 0, 0)]
            for y in ys:
                got = natural_le(x, y)
                assert got == natural_le_on_fractions(x, y) == minus_le(x, y), (x, y)
                outcomes.add((y.rank(), got))
        assert outcomes == {(2, True), (2, False), (1, True), (1, False)}


def chart_eval_on_fractions(chart, s, t):
    """(d0 + s d1)(q0 + t q1)^T on the chart's public `Fraction` vectors."""
    d = (chart.d0[0] + s * chart.d1[0], chart.d0[1] + s * chart.d1[1])
    q = (chart.q0[0] + t * chart.q1[0], chart.q0[1] + t * chart.q1[1])
    return Mat2(d[0] * q[0], d[0] * q[1], d[1] * q[0], d[1] * q[1])


def rank1_factor_on_fractions(a):
    """Vectors (c, r) with a = c . r^T, for rank-1 `a`: c is the first
    nonzero column of `a` and r has 1 at the pivot."""
    x1, x2, x3, x4 = a.entries
    if x1 or x3:
        return (x1, x3), (Fraction(1), x2 / x1 if x1 else x4 / x3)
    return (x2, x4), (Fraction(0), Fraction(1))


def chart_vectors_on_fractions(a):
    """d0, d1, q0, q1 of `inverse_chart` as they were computed on `Fraction`s."""
    c, r = rank1_factor_on_fractions(a)
    rdot, cdot = r[0] ** 2 + r[1] ** 2, c[0] ** 2 + c[1] ** 2

    def perp(v):
        return tuple(Fraction(u) for u in ProjLine(v[0], v[1]).perp().direction)

    return (r[0] / rdot, r[1] / rdot), perp(r), (c[0] / cdot, c[1] / cdot), perp(c)


class TestChartOnIntegerContent:
    @pytest.mark.parametrize("bits", [None, 256], ids=["small", "256-bit"])
    @pytest.mark.parametrize("kind", ["int", "fraction", "mixed"])
    def test_matches_fraction_formula(self, bits, kind):
        for i in range(30):
            rng = rng_for(223, i)
            if bits is None:
                a = rand_rank1(rng)
                s, t = rand_rational(rng, 6, 4), rand_rational(rng, 6, 4)
            else:
                c = (wide(rng, bits // 2), wide(rng, bits // 2))
                r = (wide(rng, bits // 2), wide(rng, bits // 2))
                if i % 3 == 1:
                    c = (Fraction(0), c[1])
                elif i % 3 == 2:
                    r = (Fraction(0), r[1])
                a = Mat2(c[0] * r[0], c[0] * r[1], c[1] * r[0], c[1] * r[1])
                s, t = wide(rng, bits), wide(rng, bits)
            if kind == "int":
                s, t = s.numerator, t.numerator
            elif kind == "mixed":
                s = s.numerator
            chart = inverse_chart(a)
            assert (chart.d0, chart.d1, chart.q0, chart.q1) == chart_vectors_on_fractions(a)
            assert all(type(v) is Fraction for v in chart.d0 + chart.d1 + chart.q0 + chart.q1)
            assert chart_eval(chart, s, t) == chart_eval_on_fractions(chart, s, t)


def _pair(bits):
    ints = st.integers(-(2**bits), 2**bits)
    return st.tuples(ints, ints).filter(any)


def _scale(bits):
    return st.sampled_from([1, 6, SMOOTH]) | st.integers(1, 2 ** (bits // 2))


@st.composite
def factored_rank1(draw, bits):
    """Rank-1 matrices (k c)(m r)^T / d with `bits`-bit c and r, built so
    that the row and column factors often carry common factors and d often
    shares factors with |c|^2."""
    (c0, c1), (r0, r1) = draw(_pair(bits)), draw(_pair(bits))
    k, m = draw(_scale(bits)), draw(_scale(bits))
    shared = draw(st.sampled_from([1, SMOOTH, c0 * c0 + c1 * c1]))
    d = draw(st.integers(1, 2**bits)) * shared
    return Mat2(*(Fraction(k * u * m * v, d) for u in (c0, c1) for v in (r0, r1)))


@st.composite
def chart_params(draw, bits):
    """A chart parameter: an int, or a `bits`-bit fraction whose
    denominator often carries the small primes of `SMOOTH`."""
    num = draw(st.integers(-(2**bits), 2**bits))
    if draw(st.booleans()):
        return num
    return Fraction(num, draw(st.integers(1, 2**bits)) * draw(st.sampled_from([1, SMOOTH])))


def chart_cases(bits):
    return st.tuples(factored_rank1(bits), chart_params(bits), chart_params(bits))


def _first_nonzero(*vectors):
    return next(v for v in vectors if any(v))


def _factor_gcds(a):
    """gcd(R), gcd(C) and gcd(d, gcd(C) |C'|^2) of `inverse_chart`, for the
    first nonzero row R and column C of the content of `a`."""
    n1, n2, n3, n4 = a._n
    r = _first_nonzero((n1, n2), (n3, n4))
    c = _first_nonzero((n1, n3), (n2, n4))
    m = gcd(*c)
    return gcd(*r), m, gcd(a._d, m * ((c[0] // m) ** 2 + (c[1] // m) ** 2))


def _eval_gcds(a, s, t):
    """gcd(x, den) and gcd(y, den / gcd(x, den)) of `chart_eval`: x and y are
    the point's two factors d0 + s d1 and q0 + t q1 over E sd and F td."""
    chart = inverse_chart(a)
    s, t = Fraction(s), Fraction(t)
    e, f = chart.content[2], chart.content[6]
    den = e * s.denominator * f * t.denominator
    x = [v * e * s.denominator for v in (chart.d0[0] + s * chart.d1[0], chart.d0[1] + s * chart.d1[1])]
    y = [v * f * t.denominator for v in (chart.q0[0] + t * chart.q1[0], chart.q0[1] + t * chart.q1[1])]
    gx = gcd(*(int(v) for v in x), den)
    return gx, gcd(*(int(v) for v in y), den // gx)


# the gcds `inverse_chart` and `chart_eval` reduce by; each must be reached
# at a value other than 1
CHART_BRANCHES = {
    "chart-gcd-R": lambda case: _factor_gcds(case[0])[0] > 1,
    "chart-gcd-C": lambda case: _factor_gcds(case[0])[1] > 1,
    "chart-gcd-d-C": lambda case: _factor_gcds(case[0])[2] > 1,
    "eval-gcd-x": lambda case: _eval_gcds(*case)[0] > 1,
    "eval-gcd-y": lambda case: _eval_gcds(*case)[1] > 1,
    "eval-gcd-x-and-y": lambda case: min(_eval_gcds(*case)) > 1,
}


def _lowest_content(v):
    """A `Fraction` 2-vector as ints over one denominator, in lowest terms."""
    den = lcm(v[0].denominator, v[1].denominator)
    return int(v[0] * den), int(v[1] * den), den


class TestChartReductionByFactors:
    """`inverse_chart` and `chart_eval` reduce by gcds of the chart's and
    the point's factors, not of their products: the content must still be
    in lowest terms and every point canonical and equal to its `Fraction`
    formula."""

    @pytest.mark.parametrize("bits", [64, 256])
    @pytest.mark.parametrize("branch", sorted(CHART_BRANCHES))
    def test_strategy_reaches_branch(self, bits, branch):
        find(chart_cases(bits), CHART_BRANCHES[branch], settings=REACH)

    @given(st.sampled_from([64, 256]).flatmap(chart_cases))
    def test_content_and_points_match_fraction_formulas(self, case):
        a, s, t = case
        chart = inverse_chart(a)
        d0, d1, q0, q1 = chart_vectors_on_fractions(a)
        assert chart.content == (*_lowest_content(d0), tuple(map(int, d1)), *_lowest_content(q0), tuple(map(int, q1)))
        x = chart_eval(chart, s, t)
        assert_canonical(x)
        assert x == chart_eval_on_fractions(chart, s, t)
        assert is_inverse_pair(a, x)


class TestChartSurface:
    def _charts(self):
        for i in range(20):
            yield inverse_chart(rand_rank1(rng_for(227, i)))

    def test_equal_a_give_equal_charts(self):
        for chart in self._charts():
            twin = inverse_chart(Mat2(*chart.a.entries))
            assert twin == chart and hash(twin) == hash(chart)
            assert len({chart, twin}) == 1
            # reading the vectors of one side changes neither equality nor hash
            assert chart.d0 and twin == chart and hash(twin) == hash(chart)

    def test_different_a_give_unequal_charts(self):
        charts = list(self._charts())
        for chart in charts:
            other = inverse_chart(chart.a * 2)
            assert other != chart and other.q0 != chart.q0
        assert len(set(charts)) == len({c.a for c in charts})
        assert inverse_chart(E) != E

    @pytest.mark.parametrize("name", ["a", "d0", "d1", "q0", "q1", "_ints", "extra"])
    def test_fields_cannot_be_assigned(self, name):
        chart = inverse_chart(N)
        with pytest.raises(AttributeError):
            setattr(chart, name, None)
        with pytest.raises(AttributeError):
            delattr(chart, name)
        assert chart.a == N and chart_eval(chart, 2, 7) == Mat2(2, 14, 1, 7)

    def test_chart_and_eval_build_no_fraction(self, monkeypatch):
        def refuse(num, den):
            raise AssertionError("a Fraction was built")

        inputs = []
        for i in range(30):
            rng = rng_for(229, i)
            inputs.append((rand_rank1(rng), rand_rational(rng, 6, 4), rand_rational(rng, 6, 4)))
        expected = [chart_eval(inverse_chart(a), s, t) for a, s, t in inputs]
        monkeypatch.setattr(semigroup, "_from_ints", refuse)
        got = [chart_eval(inverse_chart(a), s, t) for a, s, t in inputs]
        assert got == expected
        assert isinstance(inverse_chart(E), InverseChart)
        with pytest.raises(AssertionError, match="Fraction was built"):
            inverse_chart(E).d0


def minus_le_by_difference(x, y):
    """The minus order read off its definition: the rank of y - x."""
    return (y - x).rank() == y.rank() - x.rank()


class TestMinusOrderOnIntegerContent:
    def test_span1_grid(self):
        grid = list(grid_matrices(grid_values(span=1)))
        assert len(grid) == 81
        for x in grid:
            for y in grid:
                assert minus_le(x, y) == minus_le_by_difference(x, y), (x, y)

    def test_half_grid(self):
        vals = (Rational(0), HALF, -HALF, Rational(1), Rational(-1))
        grid = list(grid_matrices(vals))
        assert len(grid) == 625
        bad = [(x, y) for x in grid for y in grid if minus_le(x, y) != minus_le_by_difference(x, y)]
        assert not bad, bad[:5]

    def test_seeded_strata(self):
        # every branch: k <= 0 (equal and unequal), zero x, and the
        # determinant identity both ways
        outcomes = set()
        for i in range(1500):
            rng = rng_for(233, i)
            mode = i % 6
            if mode == 0:
                x, y = rand_rank1(rng), rand_invertible(rng)
            elif mode == 1:
                y = rand_invertible(rng)
                x = rand_idempotent_rank1(rng) @ y
            elif mode == 2:
                y = rand_rank1(rng) if i % 12 == 2 else rand_invertible(rng)
                x = y * rand_rational(rng, 3, 2)
            elif mode == 3:
                y = rand_rank1(rng) if i % 12 == 3 else rand_invertible(rng)
                x = Mat2(*y.entries)
            elif mode == 4:
                x, y = ZERO, rand_rank1(rng) if i % 12 == 4 else rand_invertible(rng)
            else:
                x, y = rand_rank1(rng) if i % 12 == 5 else rand_invertible(rng), ZERO
            got = minus_le(x, y)
            assert got == minus_le_by_difference(x, y), (x, y)
            outcomes.add((x.rank(), y.rank(), got))
        assert outcomes >= {
            (1, 2, True), (1, 2, False), (2, 2, True), (2, 2, False), (1, 1, True), (1, 1, False),
            (0, 1, True), (0, 2, True), (1, 0, False), (2, 0, False),
        }

    def test_256_bit_pairs(self):
        outcomes = set()
        for i in range(40):
            rng = rng_for(239, i)
            c, r = (wide(rng), wide(rng)), (wide(rng), wide(rng))
            x = Mat2(c[0] * r[0], c[0] * r[1], c[1] * r[0], c[1] * r[1])
            m = Mat2(*(wide(rng) for _ in range(4)))
            k = (inverse_mat(m) @ x).trace()
            # for invertible y, x <= y iff tr(y^-1 x) = 1: k m is above x
            for y in (m * k, m, x * wide(rng), Mat2(*(wide(rng) for _ in range(4)))):
                got = minus_le(x, y)
                assert got == minus_le_by_difference(x, y), (x, y)
                outcomes.add((y.rank(), got))
        assert outcomes == {(2, True), (2, False), (1, False)}


# --- the content predicates against their definitions ---------------------


def is_idempotent_by_product(x):
    return x @ x == x


def is_nilpotent_by_product(x):
    return (x @ x).is_zero()


def is_inverse_pair_by_products(a, x):
    ax = a @ x
    return ax @ a == a and x @ ax == x


def inverse_membership_by_trace(a, x):
    return (a @ x).trace() == 1 and x.det() == 0


def order_section_report_by_trace(a, trials, seed):
    """`order_section_report` with its section columns read as tr(m x) = 1
    and det x = 0 through `@`, `trace()` and `det()`."""
    ainv = inverse_mat(a)
    agree_inv = agree = 0
    counterexamples = []
    for i in range(trials):
        rng = rng_for(seed, i)
        if i % 3 == 0:
            x = rand_rank1(rng)
        else:
            x = (ainv if i % 3 == 1 else a) @ rand_idempotent_rank1(rng)
        le = natural_le(x, a)
        in_section = (a @ x).trace() == 1 and x.det() == 0
        in_inv_section = (ainv @ x).trace() == 1 and x.det() == 0
        if le == in_inv_section:
            agree_inv += 1
        elif len(counterexamples) < 10:
            counterexamples.append({"x": x, "natural_le": le, "in_section": in_section, "in_inv_section": in_inv_section})
        agree += le == in_section
    return semigroup.OrderSectionReport(a, trials, seed, agree_inv, agree, counterexamples)


HALF_GRID = tuple(grid_matrices(grid_values(span=2, dens=(1, 2))))


def _near_misses(x, step):
    """`x` with one entry moved by +-step, for each of its four entries."""
    e = x.entries
    return [Mat2(*(v + s if j == k else v for j, v in enumerate(e))) for k in range(4) for s in (step, -step)]


def _and_near_misses(points, step):
    return [y for x in points for y in (x, *_near_misses(x, step))]


def _wide_draws(bits, count=30):
    """(idempotent, nilpotent, rank-1 a, a point of the inverse chart of a,
    unrelated matrix) per draw, with `bits`-bit entries: `rand_wide_rational`
    at 64 bits, `draws.wide` at 256."""
    for i in range(count):
        rng = rng_for(251, i)
        scalar = rand_wide_rational if bits == 64 else partial(wide, bits=bits)
        u, v, c, r = ((scalar(rng), scalar(rng)) for _ in range(4))
        k, p, q, s, t = (scalar(rng) for _ in range(5))
        e = outer(u, v) / (u[0] * v[0] + u[1] * v[1])
        n = Mat2(k * p * q, -k * p * p, k * q * q, -k * p * q)
        a = outer(c, r)
        other = Mat2(*(scalar(rng) for _ in range(4)))
        yield e, n, a, chart_eval(inverse_chart(a), s, t), other


def _assert_singles_match(points):
    """Both single-matrix predicates and both characterizations equal their
    definitions at every point; return the outcomes seen."""
    seen = set()
    for x in points:
        idem, nil = is_idempotent_by_product(x), is_nilpotent_by_product(x)
        assert is_idempotent(x) == idem and is_nilpotent(x) == nil, x
        assert checks.idempotent_characterization_holds(x) == (
            (idem and x.rank() == 1) == (x.trace() == 1 and x.det() == 0)
        ), x
        assert checks.nilpotent_characterization_holds(x) == (nil == (x.trace() == 0 and x.det() == 0)), x
        seen.add((idem, nil))
    return seen


def _assert_pairs_match(pairs):
    """Both pair predicates equal their definitions at every (a, x), a of
    rank 1 for the membership test; return the outcomes seen."""
    seen = set()
    for a, x in pairs:
        pair = is_inverse_pair_by_products(a, x)
        assert is_inverse_pair(a, x) == pair, (a, x)
        if a.rank() == 1:
            member = inverse_membership_by_trace(a, x)
            assert inverse_membership(a, x) == member, (a, x)
            seen.add(("member", member))
        seen.add(("pair", pair))
    return seen


# the levels of the sections P(a; lam) of `_assert_sections_match`
LEVELS = (Rational(0), Rational(1), Rational(-3, 2), rand_wide_rational(rng_for(269, 0)))


def _assert_sections_match(pairs):
    """`_trace_of_product_is`, `membership` and `section_membership` equal
    tr(a x) == lam through `@` and `trace()`, and det x == 0 through `det()`,
    at each of `LEVELS`: at x, and at x scaled onto P(a; lam) where
    tr(a x) != 0.  Return the (lam, on the plane, in the section) seen."""
    seen = set()
    for a, x in pairs:
        t = (a @ x).trace()
        for lam in LEVELS:
            h = Hyperplane(a, lam)
            for y in (x, x * (lam / t)) if t else (x,):
                on = (a @ y).trace() == lam
                member = on and y.det() == 0
                assert _trace_of_product_is(a, y, lam.numerator, lam.denominator) == on, (a, y, lam)
                assert membership(h, y) == on and section_membership(h, y) == member, (a, y, lam)
                seen.add((lam, on, member))
    return seen


# every level sees a point off its plane, and points on it in and off the section
EVERY_LEVEL = {(lam, on, member) for lam in LEVELS for on, member in ((True, True), (True, False), (False, False))}


class TestContentPredicatesMatchDefinitions:
    """Each predicate decided on content equals its definition through `@`,
    `trace()` and `det()`: on the span-2 grid with denominators (1, 2), on
    the idempotent, nilpotent and inverse charts and their one-entry near
    misses, and on 64- and 256-bit draws.  The section tests of `mat2` and
    `sections` are asked at the levels 0, 1, -3/2 and one 64-bit level."""

    def test_half_grid(self):
        assert len(HALF_GRID) == 7**4
        assert _assert_singles_match(HALF_GRID) == {(True, False), (False, True), (False, False), (True, True)}
        # every 37th grid matrix as a, with 0, E and N, against the whole grid
        sample = (*HALF_GRID[::37], ZERO, E, N, Mat2(HALF, 1, HALF, 1))
        assert {a.rank() for a in sample} == {0, 1, 2}
        seen = _assert_pairs_match((a, x) for a in sample for x in HALF_GRID)
        assert seen == {("pair", True), ("pair", False), ("member", True), ("member", False)}
        assert _assert_sections_match((a, x) for a in sample[::3] for x in HALF_GRID[::7]) == EVERY_LEVEL

    def test_charts_and_near_misses(self):
        idempotents, nilpotents = checks._idempotent_charts(), checks._nilpotent_chart()
        singles = _and_near_misses((*idempotents, *nilpotents), HALF) + _near_misses(ZERO, 1)
        assert _assert_singles_match(singles) >= {(True, False), (False, True), (False, False)}
        pairs = []
        for i in range(12):
            a = rand_rank1(rng_for(257, i))
            chart = inverse_chart(a)
            points = [chart_eval(chart, s, t) for s in CERTIFICATE_VALUES[2] for t in CERTIFICATE_VALUES[2]]
            pairs += [(a, x) for x in _and_near_misses(points, HALF)]
            pairs += [(x, a) for x in points]  # the pair relation is symmetric
            pairs += [(a, x) for x in idempotents[::7]]
        seen = _assert_pairs_match(pairs)
        assert seen == {("pair", True), ("pair", False), ("member", True), ("member", False)}
        assert _assert_sections_match(pairs[::5]) == EVERY_LEVEL

    @pytest.mark.parametrize("bits", [64, 256])
    def test_wide_draws(self, bits):
        seen_singles, seen_pairs, seen_sections = set(), set(), set()
        for e, n, a, x, other in _wide_draws(bits):
            assert e.rank() == a.rank() == 1 and max(v.bit_length() for v in x._n) > bits
            seen_singles |= _assert_singles_match((e, n, other, *_near_misses(e, 1), *_near_misses(n, 1)))
            pairs = [(a, x), (x, a), (a, other), (other, a), (a, e), (e, e)]
            seen_pairs |= _assert_pairs_match(pairs + [(a, y) for y in _near_misses(x, 1)])
            # tr(a x) = 1, so other - tr(a other) x is a point of P(a; 0), nonsingular as a rule
            seen_sections |= _assert_sections_match(pairs + [(a, other - x * (a @ other).trace())])
        assert seen_singles == {(True, False), (False, True), (False, False)}
        assert seen_pairs == {("pair", True), ("pair", False), ("member", True), ("member", False)}
        assert seen_sections == EVERY_LEVEL

    def test_order_section_report(self):
        draws = [rand_invertible(rng_for(263, i)) for i in range(4)]
        for a in (IDENTITY, Mat2(2, 1, 1, 3), *draws):
            assert order_section_report(a, 60, 5) == order_section_report_by_trace(a, 60, 5), a
