from decimal import Decimal

import pytest

from greenquadrics.errors import NotAQuadricError
from greenquadrics.exact import Rational
from greenquadrics.quadrics import QuadricClass, classify_quadric, inertia
from greenquadrics.sampling import rng_for

R = Rational
Z3 = (R(0), R(0), R(0))


def diag(a, b, c):
    return ((R(a), R(0), R(0)), (R(0), R(b), R(0)), (R(0), R(0), R(c)))


class TestInertia:
    def test_examples(self):
        assert inertia(diag(1, 1, -1)) == (2, 1, 0)
        assert inertia(diag(0, 0, 0)) == (0, 0, 3)
        assert inertia(diag(5, 0, -2)) == (1, 1, 1)

    def test_off_diagonal_pivot(self):
        # the form 2xy has inertia (1, 1)
        Q = ((R(0), R(1), R(0)), (R(1), R(0), R(0)), (R(0), R(0), R(0)))
        assert inertia(Q) == (1, 1, 1)

    def test_congruence_invariance(self):
        # inertia is invariant under T^T Q T for invertible T
        for i in range(100):
            rng = rng_for(73, i)
            Q = [[R(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)]
            for r in range(3):
                for c in range(r + 1, 3):
                    Q[c][r] = Q[r][c]
            Q = tuple(tuple(row) for row in Q)
            while True:
                T = [[R(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
                det3 = (
                    T[0][0] * (T[1][1] * T[2][2] - T[1][2] * T[2][1])
                    - T[0][1] * (T[1][0] * T[2][2] - T[1][2] * T[2][0])
                    + T[0][2] * (T[1][0] * T[2][1] - T[1][1] * T[2][0])
                )
                if det3 != 0:
                    break
            QT = [[sum(T[k][i] * Q[k][l] * T[l][j] for k in range(3) for l in range(3))
                   for j in range(3)] for i in range(3)]
            assert inertia(tuple(tuple(row) for row in QT)) == inertia(Q)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            inertia(((R(0), R(1), R(0)), (R(2), R(0), R(0)), (R(0), R(0), R(0))))

    @pytest.mark.parametrize("bad", [0.5, "1/2", Decimal("0.5")], ids=repr)
    def test_rejects_inexact_entries(self, bad):
        with pytest.raises(TypeError):
            inertia(((R(1), R(0), R(0)), (R(0), bad, R(0)), (R(0), R(0), R(1))))


class TestClassifyQuadric:
    def test_central_types(self):
        # X^2+Y^2-Z^2 = 1/2: hyperboloid of one sheet
        assert classify_quadric(diag(1, 1, -1), Z3, R(-1, 2)) == QuadricClass.HYPERBOLOID_ONE_SHEET
        assert classify_quadric(diag(1, 1, -1), Z3, R(0)) == QuadricClass.CONE
        assert classify_quadric(diag(1, 1, -1), Z3, R(1, 2)) == QuadricClass.HYPERBOLOID_TWO_SHEETS
        assert classify_quadric(diag(1, 1, 1), Z3, R(-1)) == QuadricClass.ELLIPSOID
        assert classify_quadric(diag(1, 1, 1), Z3, R(0)) == QuadricClass.POINT
        assert classify_quadric(diag(1, 1, 1), Z3, R(1)) == QuadricClass.EMPTY
        assert classify_quadric(diag(-1, -1, -1), Z3, R(1)) == QuadricClass.ELLIPSOID

    def test_paraboloids(self):
        # XY = Z
        Q = ((R(0), R(1, 2), R(0)), (R(1, 2), R(0), R(0)), (R(0), R(0), R(0)))
        b = (R(0), R(0), R(-1))
        assert classify_quadric(Q, b, R(0)) == QuadricClass.HYPERBOLIC_PARABOLOID
        # X^2 + Y^2 = Z
        assert classify_quadric(diag(1, 1, 0), b, R(0)) == QuadricClass.ELLIPTIC_PARABOLOID

    def test_cylinders_and_planes(self):
        assert classify_quadric(diag(1, 1, 0), Z3, R(-1)) == QuadricClass.ELLIPTIC_CYLINDER
        assert classify_quadric(diag(1, -1, 0), Z3, R(1)) == QuadricClass.HYPERBOLIC_CYLINDER
        assert classify_quadric(diag(1, -1, 0), Z3, R(0)) == QuadricClass.INTERSECTING_PLANES
        assert classify_quadric(diag(1, 0, 0), (R(0), R(0), R(1)), R(0)) == QuadricClass.PARABOLIC_CYLINDER
        assert classify_quadric(diag(1, 0, 0), Z3, R(-4)) == QuadricClass.PARALLEL_PLANES
        assert classify_quadric(diag(1, 0, 0), Z3, R(0)) == QuadricClass.COINCIDENT_PLANES
        assert classify_quadric(diag(1, 0, 0), Z3, R(1)) == QuadricClass.EMPTY
        assert classify_quadric(diag(0, 0, 0), (R(1), R(0), R(0)), R(5)) == QuadricClass.SINGLE_PLANE
        assert classify_quadric(diag(1, 1, 0), Z3, R(0)) == QuadricClass.LINE

    @pytest.mark.parametrize("bad", [-0.25, "-1/4", Decimal("-0.25")], ids=repr)
    @pytest.mark.parametrize("where", ["Q", "b", "c"])
    def test_rejects_inexact_coefficients(self, where, bad):
        Q, b, c = [list(row) for row in diag(1, 1, -1)], list(Z3), R(-1, 4)
        if where == "Q":
            Q[2][2] = bad
        elif where == "b":
            b[0] = bad
        else:
            c = bad
        with pytest.raises(TypeError):
            classify_quadric(Q, b, c)

    def test_degenerate(self):
        assert classify_quadric(diag(0, 0, 0), Z3, R(3)) == QuadricClass.EMPTY
        with pytest.raises(NotAQuadricError):
            classify_quadric(diag(0, 0, 0), Z3, R(0))

    def test_scaling_invariance(self):
        # multiplying the polynomial by any nonzero rational keeps the class
        cases = [
            (diag(1, 1, -1), Z3, R(-1, 2)),
            (diag(1, -1, 0), Z3, R(1)),
            (((R(0), R(1, 2), R(0)), (R(1, 2), R(0), R(0)), (R(0), R(0), R(0))),
             (R(0), R(0), R(-1)), R(0)),
        ]
        for Q, b, c in cases:
            base = classify_quadric(Q, b, c)
            for s in (R(3), R(-2), R(5, 7), R(-1, 9)):
                Qs = tuple(tuple(v * s for v in row) for row in Q)
                bs = tuple(v * s for v in b)
                assert classify_quadric(Qs, bs, c * s) == base


def eigen_sign_counts(Q):
    """Independent oracle: count eigenvalue signs via Descartes' rule on the
    characteristic polynomial (exact here because all roots are real)."""
    (a, b, c), (_, e, f), (_, _, i) = Q
    tr = a + e + i
    minors = (a * e - b * b) + (a * i - c * c) + (e * i - f * f)
    det = a * (e * i - f * f) - b * (b * i - f * c) + c * (b * f - e * c)
    coeffs = [R(1), -tr, minors, -det]  # descending powers of the variable
    n_zero = 0
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
        n_zero += 1

    def sign_changes(cs):
        signs = [1 if v > 0 else -1 for v in cs if v != 0]
        return sum(1 for x, y in zip(signs, signs[1:]) if x != y)

    n_pos = sign_changes(coeffs)
    degree_parity = [(-1) ** (len(coeffs) - 1 - k) for k in range(len(coeffs))]
    n_neg = sign_changes([v * p for v, p in zip(coeffs, degree_parity)])
    return n_pos, n_neg, n_zero


class TestInertiaOracle:
    def test_matches_descartes_counts(self):
        for i in range(400):
            rng = rng_for(127, i)
            vals = [R(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(6)]
            a, b, c, e, f, g = vals
            Q = ((a, b, c), (b, e, f), (c, f, g))
            assert inertia(Q) == eigen_sign_counts(Q), Q

    def test_matches_on_rank_deficient(self):
        # force singular forms: outer squares u u^T have inertia (1,0,2)
        for i in range(100):
            rng = rng_for(131, i)
            u = [R(rng.randint(-5, 5)) for _ in range(3)]
            if not any(u):
                continue
            Q = tuple(tuple(u[r] * u[s] for s in range(3)) for r in range(3))
            assert inertia(Q) == eigen_sign_counts(Q) == (1, 0, 2)
