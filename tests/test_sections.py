from decimal import Decimal
from math import gcd
from typing import NamedTuple

import pytest

from draws import randint, wide
from greenquadrics import checks
from greenquadrics.errors import NotOnHyperplaneError, ZeroCoefficientError
from greenquadrics.exact import QuadExt, Rational
from greenquadrics.green import ProjLine, class_plane, green_eq, rowspace
from greenquadrics.mat2 import IDENTITY, Mat2, ZERO, det_polar, inner, inverse_mat, outer
from greenquadrics.quadrics import QuadricClass
from greenquadrics.sampling import (
    rand_idempotent_rank1,
    rand_invertible,
    rand_rank1,
    rand_rational,
    rng_for,
)
from greenquadrics.sections import (
    BellPoint,
    Hyperplane,
    QuadMat2,
    SectionClass,
    bell_residual,
    classify_affine_quadric,
    classify_section,
    from_bell,
    hyperboloid_metrics,
    membership,
    quadric_on_chart,
    restrict_quadric,
    section_membership,
    to_bell,
)
from greenquadrics.surfaces import sample_surface
from test_quadrics import _old_classify_quadric, eigen_sign_counts

R = Rational
E = Mat2(1, 0, 0, 0)
HALF = R(1, 2)
LEVELS = (R(0), R(1), R(-1), R(3, 2), R(-3, 2), R(7, 2))


class TestMembership:
    def test_examples(self):
        h = Hyperplane(IDENTITY, R(1))
        assert section_membership(h, Mat2(HALF, HALF, HALF, HALF))
        assert not membership(h, IDENTITY)
        assert section_membership(Hyperplane(E, R(1)), Mat2(1, 2, 3, 6))


class TestBell:
    def test_center_maps_to_origin(self):
        for lam in LEVELS:
            p = to_bell(IDENTITY * (lam * HALF), lam)
            assert p.X == QuadExt(0) and p.Y == QuadExt(0) and p.Z == QuadExt(0)

    def test_point_a_has_unit_x(self):
        for lam in (R(0), R(1), R(5, 3)):
            half = QuadExt(lam * HALF)
            inv_sqrt2 = QuadExt(0, HALF)  # 1/sqrt2 = sqrt2/2
            A = QuadMat2(half + inv_sqrt2, QuadExt(0), QuadExt(0), half - inv_sqrt2)
            p = to_bell(A, lam)
            assert p.X == QuadExt(1) and p.Y == QuadExt(0) and p.Z == QuadExt(0)

    def test_idempotent_coordinates(self):
        p = to_bell(E, R(1))
        assert p.X == QuadExt(0, HALF)  # 1/sqrt2
        assert p.Y == QuadExt(0) and p.Z == QuadExt(0)
        # satisfies X^2+Y^2-Z^2 = 1/2
        assert p.X * p.X + p.Y * p.Y - p.Z * p.Z == QuadExt(HALF)

    def test_requires_trace_level(self):
        with pytest.raises(NotOnHyperplaneError):
            to_bell(E, R(2))

    def test_roundtrip_both_ways(self):
        for i in range(200):
            rng = rng_for(83, i)
            lam = rand_rational(rng, 4, 3)
            assert checks.frame_roundtrip_holds(lam, rand_rank1(rng))
            # frame -> ambient -> frame
            q = BellPoint(
                QuadExt(rand_rational(rng), rand_rational(rng)),
                QuadExt(rand_rational(rng), rand_rational(rng)),
                QuadExt(rand_rational(rng), rand_rational(rng)),
                lam,
            )
            assert to_bell(from_bell(q), lam) == q


def _draws(i, rng):
    """Small entries on even i, 256-bit entries on odd i."""
    if i % 2:
        return lambda: wide(rng)
    return lambda: rand_rational(rng, 4, 3)


def _old_bell_residual(x):
    # the Fraction formula the integer version replaced
    x1, x2, x3, x4 = x.entries
    d1, s23, d32, lam = x1 - x4, x2 + x3, x3 - x2, x1 + x4
    return (d1 * d1 + s23 * s23 - d32 * d32 - lam * lam) * HALF


class TestFrameFromIntegerContent:
    def test_to_bell_matches_the_quadmat2_branch(self):
        for i in range(120):
            rng = rng_for(211, i)
            draw = _draws(i, rng)
            x = Mat2(*(draw() for _ in range(4)))
            lam = x.trace()
            p = to_bell(x, lam)
            q = to_bell(QuadMat2(*(QuadExt(v) for v in x.entries)), lam)
            assert p == q
            for v in (p.X, p.Y, p.Z):
                assert v.rat_part == 0 and v._d > 0 and gcd(v._p, v._q, v._d) == 1
            assert from_bell(p).to_mat2() == x
            with pytest.raises(NotOnHyperplaneError):
                to_bell(x, lam + R(1, 3))

    def test_bell_residual_matches_fraction_formula(self):
        for i in range(200):
            rng = rng_for(223, i)
            draw = _draws(i, rng)
            x = Mat2(*(draw() for _ in range(4))) if i % 4 < 2 else rand_rank1(rng) * draw()
            got = bell_residual(x)
            assert type(got) is R and got == _old_bell_residual(x)


def _old_evaluate(aq, t):
    # the Fraction loop `evaluate` replaced
    acc = aq.c
    for i in range(3):
        acc = acc + aq.b[i] * t[i]
        for j in range(3):
            acc = acc + aq.Q[i][j] * t[i] * t[j]
    return acc


def _old_point(aq, t):
    # the Mat2 loop `point` replaced
    m = aq.origin
    for i in range(3):
        m = m + aq.basis[i] * t[i]
    return m


def _chart_coordinates(rng, draw):
    """int, Fraction, mixed and common-denominator coordinate triples."""
    return [
        [randint(rng, -9, 9) for _ in range(3)],
        [draw() for _ in range(3)],
        [randint(rng, -9, 9), draw(), randint(rng, -9, 9)],
        [draw(), 0, R(-1, 3)],
        [R(k, 7) for k in (randint(rng, -9, 9), 3, -5)],
    ]


def _chart_hyperplanes():
    """80 hyperplanes of rank 1 and 2, small and 256-bit, at level 0 and not,
    each with its generator and draw."""
    for i in range(80):
        rng = rng_for(227, i)
        draw = _draws(i, rng)
        if i % 2 == 0:
            a = rand_invertible(rng) if i % 4 == 0 else rand_rank1(rng)
        elif i % 4 == 1:
            a = Mat2(*(draw() for _ in range(4)))
        else:
            a = outer((draw(), draw()), (draw(), draw()))
        lam = R(0) if i % 3 == 0 else draw()
        yield rng, draw, Hyperplane(a, lam)


_UNIT = (Mat2(1, 0, 0, 0), Mat2(0, 1, 0, 0), Mat2(0, 0, 1, 0), Mat2(0, 0, 0, 1))


def trace_functional(a):
    """Coefficients w with tr(a x) = w . (x1, x2, x3, x4), read off the entries."""
    e = a.entries
    return (e[0], e[2], e[1], e[3])


def reference_quadric_on_chart(origin, basis):
    """(Q, b, c) of det(origin + sum t_i basis_i) by polarization on
    `Fraction`s: the expansion `quadric_on_chart` replaced."""
    c = origin.det()
    b = tuple(det_polar(origin, v) for v in basis)
    Q = tuple(
        tuple(basis[i].det() if i == j else det_polar(basis[i], basis[j]) * HALF for j in range(3))
        for i in range(3)
    )
    return Q, b, c


class FractionChart(NamedTuple):
    """A chart and the restriction of det to it, as `Fraction`s and `Mat2`s."""

    Q: tuple
    b: tuple
    c: Rational
    origin: Mat2
    basis: tuple


def _fraction_chart(origin, basis):
    return FractionChart(*reference_quadric_on_chart(origin, basis), origin, basis)


def _matches(aq, ref):
    """Whether `aq` holds the reference chart and M times its polynomial,
    M > 0 the multiplier of `aq._poly`, all of it as ints."""
    m, c, b, s = aq._poly
    (q11, q12, q13), (_, q22, q23), (_, _, q33) = ref.Q
    ref_s = (q11, q22, q33, 2 * q12, 2 * q13, 2 * q23)
    return (
        all(type(v) is int for v in (m, c, *b, *s))
        and m > 0
        and (c, b, s) == (ref.c * m, tuple(v * m for v in ref.b), tuple(v * m for v in ref_s))
        and (aq.origin, aq.basis) == (ref.origin, ref.basis)
    )


def _form(aq):
    """M Q of `aq`'s content as a symmetric matrix: the signature of Q."""
    _, _, _, (s11, s22, s33, s12, s13, s23) = aq._poly
    q12, q13, q23 = (R(v, 2) for v in (s12, s13, s23))
    return ((R(s11), q12, q13), (q12, R(s22), q23), (q13, q23, R(s33)))


def _old_restrict_quadric(h):
    # the Fraction chart and polarization `restrict_quadric` replaced
    w = trace_functional(h.a)
    pivot = next((i for i in range(4) if w[i] != 0), None)
    if pivot is None:
        raise ZeroCoefficientError("zero coefficient matrix has no hyperplane chart")
    origin = _UNIT[pivot] * (h.lam / w[pivot])
    basis = tuple(
        _UNIT[j] - _UNIT[pivot] * (w[j] / w[pivot]) for j in range(4) if j != pivot
    )
    return _fraction_chart(origin, basis)


def _invertible_mix(draw):
    """A 3x3 matrix of draws with nonzero determinant, redrawn until it has one."""
    while True:
        T = [[draw() for _ in range(3)] for _ in range(3)]
        det3 = (
            T[0][0] * (T[1][1] * T[2][2] - T[1][2] * T[2][1])
            - T[0][1] * (T[1][0] * T[2][2] - T[1][2] * T[2][0])
            + T[0][2] * (T[1][0] * T[2][1] - T[1][1] * T[2][0])
        )
        if det3 != 0:
            return T


def _mixed(basis, T):
    return tuple(basis[0] * T[0][j] + basis[1] * T[1][j] + basis[2] * T[2][j] for j in range(3))


class TestChartOnIntegerContent:
    def test_evaluate_and_point_match_fraction_loops(self):
        for rng, draw, h in _chart_hyperplanes():
            aq, ref = restrict_quadric(h), _old_restrict_quadric(h)
            for t in _chart_coordinates(rng, draw):
                value, pt = aq.evaluate(t), aq.point(t)
                assert type(value) is R and value == _old_evaluate(ref, t)
                assert pt == _old_point(ref, t) and membership(h, pt)
                assert pt.det() == value

    def test_fields_match_the_fraction_chart(self):
        for rng, draw, h in _chart_hyperplanes():
            aq, ref = restrict_quadric(h), _old_restrict_quadric(h)
            assert _matches(aq, ref)
            assert classify_affine_quadric(aq) == _old_classify_quadric(ref.Q, ref.b, ref.c)
            for t in _chart_coordinates(rng, draw):
                assert aq.evaluate(t) == _old_evaluate(ref, t)
                assert aq.point(t) == _old_point(ref, t)

    def test_quadric_on_chart_matches_the_fraction_polarization(self):
        # the chart of each plane, and the plane recharted: a new origin on
        # it and an invertible mix of the basis, small and 256-bit
        for rng, draw, h in _chart_hyperplanes():
            aq = restrict_quadric(h)
            shifted = aq.point([draw() for _ in range(3)])
            for origin, basis in ((aq.origin, aq.basis), (shifted, _mixed(aq.basis, _invertible_mix(draw)))):
                got, ref = quadric_on_chart(origin, basis), _fraction_chart(origin, basis)
                assert _matches(got, ref)
                assert classify_affine_quadric(got) == _old_classify_quadric(ref.Q, ref.b, ref.c)
                for t in _chart_coordinates(rng, draw):
                    assert got.evaluate(t) == _old_evaluate(ref, t)
                    assert got.point(t) == _old_point(ref, t)

    def test_fraction_fields_are_built_on_first_read(self):
        # the polynomial stays content; only the chart has `Mat2` fields
        aq = restrict_quadric(Hyperplane(IDENTITY, R(3)))
        assert type(aq).__slots__ == ("_poly", "_chart", "_origin", "_basis")
        classify_affine_quadric(aq)
        aq.evaluate([1, 2, 3])
        aq.point([1, 2, 3])
        assert aq._origin is None and aq._basis is None
        origin = aq.origin
        assert aq._origin is origin and aq.origin is origin and aq._basis is None
        assert aq.basis is aq._basis is not None

    def test_chart_coordinates_are_strict(self):
        aq = restrict_quadric(Hyperplane(IDENTITY, R(1)))
        for bad in ([0.5, 0, 0], [0, "1", 0], [0, 0, Decimal("0.5")]):
            with pytest.raises(TypeError):
                aq.evaluate(bad)
            with pytest.raises(TypeError):
                aq.point(bad)


class TestBellResidual:
    def test_examples(self):
        assert bell_residual(E) == 0
        assert bell_residual(IDENTITY) == -2
        assert bell_residual(Mat2(0, 1, 0, 0)) == 0

    def test_residual_is_minus_two_det(self):
        for i in range(300):
            rng = rng_for(89, i)
            from greenquadrics.sampling import rand_mat

            x = rand_mat(rng)
            assert bell_residual(x) == -2 * x.det()

    def test_exactness_per_level(self):
        for li, lam in enumerate(LEVELS):
            for i in range(100):
                rng = rng_for(97, li * 100 + i)
                assert bell_residual(rand_rank1(rng)) == 0
                assert bell_residual(rand_invertible(rng)) != 0


class TestRestriction:
    def test_identity_coefficient_signature(self):
        for lam in (R(1), R(-2), R(7, 2)):
            aq = restrict_quadric(Hyperplane(IDENTITY, lam))
            np_, nm, nz = eigen_sign_counts(_form(aq))
            assert nz == 0 and {np_, nm} == {1, 2}

    def test_chart_at_a_unit_pivot_is_in_lowest_terms(self):
        # W_p = 1 at a = I: the chart's denominator stays positive
        aq = restrict_quadric(Hyperplane(IDENTITY, R(1)))
        assert aq.origin == Mat2(1, 0, 0, 0)
        assert aq.basis == (Mat2(0, 1, 0, 0), Mat2(0, 0, 1, 0), Mat2(-1, 0, 0, 1))

    def test_rank1_level1_is_paraboloid_chart(self):
        aq = restrict_quadric(Hyperplane(E, R(1)))
        np_, nm, nz = eigen_sign_counts(_form(aq))
        assert (np_, nm, nz) == (1, 1, 1)
        assert any(aq._poly[2])
        assert classify_affine_quadric(aq) == QuadricClass.HYPERBOLIC_PARABOLOID

    def test_rank1_level0_is_plane_pair(self):
        aq = restrict_quadric(Hyperplane(E, R(0)))
        assert classify_affine_quadric(aq) == QuadricClass.INTERSECTING_PLANES

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ZeroCoefficientError):
            restrict_quadric(Hyperplane(ZERO, R(1)))

    def test_restriction_identity(self):
        for i in range(60):
            rng = rng_for(101, i)
            a = rand_invertible(rng) if i % 2 else rand_rank1(rng)
            lam = rand_rational(rng, 3, 2)
            aq = restrict_quadric(Hyperplane(a, lam))
            for _ in range(40):
                t = [rand_rational(rng, 4, 3) for _ in range(3)]
                pt = aq.point(t)
                assert membership(Hyperplane(a, lam), pt)
                assert pt.det() == aq.evaluate(t)

    def test_affine_invariance(self):
        for i in range(60):
            rng = rng_for(103, i)
            a = rand_invertible(rng) if i % 2 else rand_rank1(rng)
            lam = rand_rational(rng, 3, 2) if i % 3 else R(0)
            aq = restrict_quadric(Hyperplane(a, lam))
            base = classify_affine_quadric(aq)
            T = _invertible_mix(lambda: rand_rational(rng, 2, 2))
            origin = aq.point([rand_rational(rng, 2, 2) for _ in range(3)])
            # the centre-solve classifier on the Fraction polarization: a
            # route independent of the content the package classifies
            Q, b, c = reference_quadric_on_chart(origin, _mixed(aq.basis, T))
            assert _old_classify_quadric(Q, b, c) == base


class TestClassifySection:
    def test_table_examples(self):
        assert classify_section(IDENTITY, R(1)).kind == SectionClass.HYPERBOLOID_ONE_SHEET
        assert classify_section(IDENTITY, R(0)).kind == SectionClass.CONE
        assert classify_section(E, R(1)).kind == SectionClass.HYPERBOLIC_PARABOLOID
        assert classify_section(ZERO, R(0)).kind == SectionClass.FULL_VARIETY
        assert classify_section(ZERO, R(3)).kind == SectionClass.EMPTY

    def test_two_planes_reps(self):
        v = classify_section(E, R(0))
        assert v.kind == SectionClass.TWO_PUNCTURED_PLANES
        assert rowspace(v.l_rep).direction == (0, 1)
        from greenquadrics.green import colspace

        assert colspace(v.r_rep).direction == (0, 1)
        # both representatives genuinely lie in the slice
        h = Hyperplane(E, R(0))
        assert section_membership(h, v.l_rep) and section_membership(h, v.r_rep)

    def test_two_planes_cover_slice(self):
        for i in range(100):
            rng = rng_for(107, i)
            a = rand_rank1(rng)
            v = classify_section(a, R(0))
            h = Hyperplane(a, R(0))
            lb = class_plane("L", v.l_rep)
            rb = class_plane("R", v.r_rep)
            s, t = rand_rational(rng, 4, 3), rand_rational(rng, 4, 3)
            assert section_membership(h, lb[0] * s + lb[1] * t)
            assert section_membership(h, rb[0] * s + rb[1] * t)
            # and a generic slice member lands in one of the two classes
            x = rand_rank1(rng)
            if section_membership(h, x):
                assert green_eq("L", x, v.l_rep) or green_eq("R", x, v.r_rep)

    def test_inverse_image_law(self):
        for i in range(200):
            rng = rng_for(109, i)
            a = rand_invertible(rng)
            x = inverse_mat(a) @ rand_idempotent_rank1(rng) if i % 2 else rand_rank1(rng)
            in_section = section_membership(Hyperplane(a, R(1)), x)
            ax = a @ x
            assert in_section == (ax.trace() == 1 and ax.det() == 0 and not ax.is_zero())


class TestMetrics:
    def test_examples(self):
        m = hyperboloid_metrics(R(1))
        assert m.center == Mat2(HALF, 0, 0, HALF)
        assert m.radius_sq == HALF
        assert hyperboloid_metrics(R(0)).radius_sq == 0
        assert (
            hyperboloid_metrics(R(3)).asymptotic_form
            == hyperboloid_metrics(R(5)).asymptotic_form
        )

    def test_centers_collinear(self):
        for lam in LEVELS:
            c = hyperboloid_metrics(lam).center
            assert c.x2 == 0 and c.x3 == 0 and c.x1 == c.x4  # on the scalar line

    def test_axis_is_skew_direction(self):
        m = hyperboloid_metrics(R(2))
        assert m.axis_dir == Mat2(0, 1, -1, 0)
        assert m.axis_dir.transpose() == -m.axis_dir

    def test_symmetric_slice_circle(self):
        center = hyperboloid_metrics(R(1)).center
        for i in range(200):
            rng = rng_for(113, i)
            while True:
                u = (randint(rng, -6, 6), randint(rng, -6, 6))
                if u != (0, 0):
                    break
            from greenquadrics.mat2 import outer

            x = outer(u, u) / (u[0] * u[0] + u[1] * u[1])
            assert x == x.transpose()
            d = x - center
            assert inner(d, d) == HALF
            assert to_bell(x, R(1)).Z == QuadExt(0)


@pytest.mark.parametrize("bad", [0.1, "0", Decimal("0.5")], ids=repr)
@pytest.mark.parametrize(
    "build",
    [
        lambda lam: Hyperplane(IDENTITY, lam),
        lambda lam: classify_section(IDENTITY, lam),
        lambda lam: to_bell(E, lam),
        hyperboloid_metrics,
        lambda lam: sample_surface("section", 1, 0, a=IDENTITY, lam=lam),
    ],
    ids=["Hyperplane", "classify_section", "to_bell", "hyperboloid_metrics", "sample_surface"],
)
def test_level_rejects_inexact_values(build, bad):
    with pytest.raises(TypeError):
        build(bad)


_ROOT2 = QuadExt(0, 1)


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: IDENTITY / 0, ZeroDivisionError, "Mat2 division by zero"),
        (lambda: QuadMat2(_ROOT2, QuadExt(0), QuadExt(0), QuadExt(1)).to_mat2(), ValueError,
         "entries carry sqrt2 parts"),
        (lambda: to_bell(QuadMat2(_ROOT2, QuadExt(0), QuadExt(0), -_ROOT2), R(1)), NotOnHyperplaneError,
         "trace differs from the frame level"),
    ],
    ids=["Mat2-by-zero", "to_mat2-of-sqrt2", "to_bell-of-QuadMat2-off-level"],
)
def test_error_paths_say_one_line(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def _two_plane_inputs():
    """Rank-1 coefficient matrices: small draws, then 256-bit outer products
    with a zero first row on every third and a zero first column on the next."""
    for i in range(150):
        rng = rng_for(149, i)
        yield rng, rand_rank1(rng)
    for i in range(6):
        rng = rng_for(151, i)
        c, r = (wide(rng), wide(rng)), (wide(rng), wide(rng))
        if i % 3 == 1:
            c = (R(0), c[1])
        elif i % 3 == 2:
            r = (R(0), r[1])
        yield rng, outer(c, r)


class TestTwoPlanesAreExactlyTheSlice:
    def test_constructed_members_land_in_the_classes(self):
        from test_semigroup import rank1_factor_on_fractions

        for rng, a in _two_plane_inputs():
            v = classify_section(a, R(0))
            c, r = rank1_factor_on_fractions(a)
            # the representative as built from the rank factorization
            ref = outer(ProjLine(*r).perp().direction, ProjLine(*c).perp().direction)
            assert v.l_rep == v.r_rep == ref
            r_perp = (-r[1], r[0])
            c_perp = (-c[1], c[0])

            w = (rand_rational(rng, 4, 3), rand_rational(rng, 4, 3))
            if w == (R(0), R(0)):
                continue
            # column factor orthogonal to r: the R-class plane
            x = outer(r_perp, w)
            if not x.is_zero():
                assert section_membership(Hyperplane(a, R(0)), x)
                assert green_eq("R", x, v.r_rep)
            # row factor orthogonal to c: the L-class plane
            y = outer(w, c_perp)
            if not y.is_zero():
                assert section_membership(Hyperplane(a, R(0)), y)
                assert green_eq("L", y, v.l_rep)
