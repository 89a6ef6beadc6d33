"""The quadric classifier `classify_content` and its elimination kernel.

The tests reach the classifier through its one entry: a rational (Q, b, c)
is cleared to integer content by `_content`.  The references share no
kernel with it: `_old_classify_quadric` solves for the centre with
`reference_solve` and reads the signature of Q from `eigen_sign_counts`
(Descartes' rule on the characteristic polynomial), and `_eliminate`'s
pass over Q alone (`_q_inertia`) is checked against the same rule.
"""

from decimal import Decimal
from math import lcm

import pytest

from draws import randint
from greenquadrics import quadrics
from greenquadrics.errors import NotAQuadricError
from greenquadrics.exact import Rational, _as_rational, rational_sign
from greenquadrics.quadrics import QuadricClass, _eliminate, classify_content
from greenquadrics.sampling import rng_for
from test_checks import _mutant
from test_linear import reference_solve

R = Rational
Z3 = (R(0), R(0), R(0))


def diag(a, b, c):
    return ((R(a), R(0), R(0)), (R(0), R(b), R(0)), (R(0), R(0), R(c)))


def _content(Q, b, c):
    """(c, b, s) of t^T Q t + b^T t + c times the lcm of its denominators,
    with s = (Q11, Q22, Q33, 2 Q12, 2 Q13, 2 Q23): the content
    `classify_content` takes.  Q is read from its upper triangle."""
    flat = [Q[0][0], Q[1][1], Q[2][2], 2 * Q[0][1], 2 * Q[0][2], 2 * Q[1][2], *b, c]
    m = lcm(*(R(v).denominator for v in flat))
    s11, s22, s33, s12, s13, s23, b1, b2, b3, cc = (int(v * m) for v in flat)
    return cc, (b1, b2, b3), (s11, s22, s33, s12, s13, s23)


def classify(Q, b, c):
    return classify_content(*_content(Q, b, c))


def _q_inertia(Q):
    """(n_plus, n_minus, n_zero) from `_eliminate`'s pass over a symmetric
    Q cleared to integers (a positive factor, which keeps the inertia)."""
    m = lcm(*(R(v).denominator for row in Q for v in row))
    n_pos, n_neg, rest = _eliminate([[int(v * m) for v in row] for row in Q], 3)
    return n_pos, n_neg, len(rest)


class TestInertia:
    def test_examples(self):
        assert _q_inertia(diag(1, 1, -1)) == (2, 1, 0)
        assert _q_inertia(diag(0, 0, 0)) == (0, 0, 3)
        assert _q_inertia(diag(5, 0, -2)) == (1, 1, 1)

    def test_off_diagonal_pivot(self):
        # the form 2xy has inertia (1, 1)
        Q = ((R(0), R(1), R(0)), (R(1), R(0), R(0)), (R(0), R(0), R(0)))
        assert _q_inertia(Q) == (1, 1, 1)

    def test_congruence_invariance(self):
        # inertia is invariant under T^T Q T for invertible T
        for i in range(100):
            rng = rng_for(73, i)
            Q = [[R(randint(rng, -4, 4)) for _ in range(3)] for _ in range(3)]
            for r in range(3):
                for c in range(r + 1, 3):
                    Q[c][r] = Q[r][c]
            Q = tuple(tuple(row) for row in Q)
            while True:
                T = [[R(randint(rng, -3, 3)) for _ in range(3)] for _ in range(3)]
                det3 = (
                    T[0][0] * (T[1][1] * T[2][2] - T[1][2] * T[2][1])
                    - T[0][1] * (T[1][0] * T[2][2] - T[1][2] * T[2][0])
                    + T[0][2] * (T[1][0] * T[2][1] - T[1][1] * T[2][0])
                )
                if det3 != 0:
                    break
            QT = [[sum(T[k][i] * Q[k][l] * T[l][j] for k in range(3) for l in range(3))
                   for j in range(3)] for i in range(3)]
            assert _q_inertia(tuple(tuple(row) for row in QT)) == _q_inertia(Q)


class TestClassifyQuadric:
    def test_central_types(self):
        # X^2+Y^2-Z^2 = 1/2: hyperboloid of one sheet
        assert classify(diag(1, 1, -1), Z3, R(-1, 2)) == QuadricClass.HYPERBOLOID_ONE_SHEET
        assert classify(diag(1, 1, -1), Z3, R(0)) == QuadricClass.CONE
        assert classify(diag(1, 1, -1), Z3, R(1, 2)) == QuadricClass.HYPERBOLOID_TWO_SHEETS
        assert classify(diag(1, 1, 1), Z3, R(-1)) == QuadricClass.ELLIPSOID
        assert classify(diag(1, 1, 1), Z3, R(0)) == QuadricClass.POINT
        assert classify(diag(1, 1, 1), Z3, R(1)) == QuadricClass.EMPTY
        assert classify(diag(-1, -1, -1), Z3, R(1)) == QuadricClass.ELLIPSOID

    def test_paraboloids(self):
        # XY = Z
        Q = ((R(0), R(1, 2), R(0)), (R(1, 2), R(0), R(0)), (R(0), R(0), R(0)))
        b = (R(0), R(0), R(-1))
        assert classify(Q, b, R(0)) == QuadricClass.HYPERBOLIC_PARABOLOID
        # X^2 + Y^2 = Z
        assert classify(diag(1, 1, 0), b, R(0)) == QuadricClass.ELLIPTIC_PARABOLOID

    def test_cylinders_and_planes(self):
        assert classify(diag(1, 1, 0), Z3, R(-1)) == QuadricClass.ELLIPTIC_CYLINDER
        assert classify(diag(1, -1, 0), Z3, R(1)) == QuadricClass.HYPERBOLIC_CYLINDER
        assert classify(diag(1, -1, 0), Z3, R(0)) == QuadricClass.INTERSECTING_PLANES
        assert classify(diag(1, 0, 0), (R(0), R(0), R(1)), R(0)) == QuadricClass.PARABOLIC_CYLINDER
        assert classify(diag(1, 0, 0), Z3, R(-4)) == QuadricClass.PARALLEL_PLANES
        assert classify(diag(1, 0, 0), Z3, R(0)) == QuadricClass.COINCIDENT_PLANES
        assert classify(diag(1, 0, 0), Z3, R(1)) == QuadricClass.EMPTY
        assert classify(diag(0, 0, 0), (R(1), R(0), R(0)), R(5)) == QuadricClass.SINGLE_PLANE
        assert classify(diag(1, 1, 0), Z3, R(0)) == QuadricClass.LINE

    @pytest.mark.parametrize("bad", [-0.25, "-1/4", Decimal("-0.25")], ids=repr)
    @pytest.mark.parametrize("where", ["Q", "b", "c"])
    def test_rejects_inexact_coefficients(self, where, bad):
        # the content of X^2 + Y^2 - Z^2 - 1/4, one entry replaced
        c, b, s = -1, [0, 0, 0], [4, 4, -4, 0, 0, 0]
        if where == "Q":
            s[2] = bad
        elif where == "b":
            b[0] = bad
        else:
            c = bad
        with pytest.raises(TypeError):
            classify_content(c, b, s)

    def test_degenerate(self):
        assert classify(diag(0, 0, 0), Z3, R(3)) == QuadricClass.EMPTY
        with pytest.raises(NotAQuadricError):
            classify(diag(0, 0, 0), Z3, R(0))

    def test_scaling_invariance(self):
        # multiplying the polynomial by any nonzero rational keeps the class
        cases = [
            (diag(1, 1, -1), Z3, R(-1, 2)),
            (diag(1, -1, 0), Z3, R(1)),
            (((R(0), R(1, 2), R(0)), (R(1, 2), R(0), R(0)), (R(0), R(0), R(0))),
             (R(0), R(0), R(-1)), R(0)),
        ]
        for Q, b, c in cases:
            base = classify(Q, b, c)
            for s in (R(3), R(-2), R(5, 7), R(-1, 9)):
                Qs = tuple(tuple(v * s for v in row) for row in Q)
                bs = tuple(v * s for v in b)
                assert classify(Qs, bs, c * s) == base


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
            vals = [R(randint(rng, -9, 9), randint(rng, 1, 4)) for _ in range(6)]
            a, b, c, e, f, g = vals
            Q = ((a, b, c), (b, e, f), (c, f, g))
            assert _q_inertia(Q) == eigen_sign_counts(Q), Q

    def test_matches_on_rank_deficient(self):
        # force singular forms: outer squares u u^T have inertia (1,0,2)
        for i in range(100):
            rng = rng_for(131, i)
            u = [R(randint(rng, -5, 5)) for _ in range(3)]
            if not any(u):
                continue
            Q = tuple(tuple(u[r] * u[s] for s in range(3)) for r in range(3))
            assert _q_inertia(Q) == eigen_sign_counts(Q) == (1, 0, 2)


def _old_classify_quadric(Q, b, c):
    # the centre-solve classifier the bordered elimination replaced, with
    # the signature of Q from Descartes' rule: no step of it is `_eliminate`
    b = [_as_rational(v) for v in b]
    c = _as_rational(c)
    n_pos, n_neg, _ = eigen_sign_counts(Q)
    center = reference_solve([list(row) for row in Q], [-v / 2 for v in b])
    if center is None:
        rank = n_pos + n_neg
        if rank == 2:
            if (n_pos, n_neg) in ((1, 1),):
                return QuadricClass.HYPERBOLIC_PARABOLOID
            return QuadricClass.ELLIPTIC_PARABOLOID
        if rank == 1:
            return QuadricClass.PARABOLIC_CYLINDER
        return QuadricClass.SINGLE_PLANE
    k = c
    for bi, ti in zip(b, center):
        k = k + bi * ti / 2
    if n_neg > n_pos:
        n_pos, n_neg, k = n_neg, n_pos, -k
    sk = rational_sign(k)
    sig = (n_pos, n_neg)
    if sig == (3, 0):
        return (
            QuadricClass.ELLIPSOID
            if sk < 0
            else QuadricClass.POINT
            if sk == 0
            else QuadricClass.EMPTY
        )
    if sig == (2, 1):
        if sk < 0:
            return QuadricClass.HYPERBOLOID_ONE_SHEET
        if sk == 0:
            return QuadricClass.CONE
        return QuadricClass.HYPERBOLOID_TWO_SHEETS
    if sig == (2, 0):
        return (
            QuadricClass.ELLIPTIC_CYLINDER
            if sk < 0
            else QuadricClass.LINE
            if sk == 0
            else QuadricClass.EMPTY
        )
    if sig == (1, 1):
        return (
            QuadricClass.INTERSECTING_PLANES if sk == 0 else QuadricClass.HYPERBOLIC_CYLINDER
        )
    if sig == (1, 0):
        return (
            QuadricClass.PARALLEL_PLANES
            if sk < 0
            else QuadricClass.COINCIDENT_PLANES
            if sk == 0
            else QuadricClass.EMPTY
        )
    if sk == 0:
        raise NotAQuadricError("identically zero polynomial")
    return QuadricClass.EMPTY


def _random_polynomial(rng):
    """(Q, b, c) with numerators of span 1-3, about a third of the entries
    forced to zero, half of the draws with denominators up to 3."""
    span = randint(rng, 1, 3)
    dens = randint(rng, 1, 3) if rng.uniform(0.0, 1.0) < 0.5 else 1

    def entry():
        if rng.uniform(0.0, 1.0) < 1 / 3:
            return R(0)
        return R(randint(rng, -span, span), randint(rng, 1, dens))

    q11, q22, q33, q12, q13, q23 = (entry() for _ in range(6))
    Q = ((q11, q12, q13), (q12, q22, q23), (q13, q23, q33))
    return Q, tuple(entry() for _ in range(3)), entry()


def _random_polynomial(rng):
    """(Q, b, c) with numerators of span 1-3, about a third of the entries
    forced to zero, half of the draws with denominators up to 3."""
    span = randint(rng, 1, 3)
    dens = randint(rng, 1, 3) if rng.uniform(0.0, 1.0) < 0.5 else 1

    def entry():
        if rng.uniform(0.0, 1.0) < 1 / 3:
            return R(0)
        return R(randint(rng, -span, span), randint(rng, 1, dens))

    q11, q22, q33, q12, q13, q23 = (entry() for _ in range(6))
    Q = ((q11, q12, q13), (q12, q22, q23), (q13, q23, q33))
    return Q, tuple(entry() for _ in range(3)), entry()


class TestBorderedAgainstCentreSolve:
    def test_agrees_on_random_polynomials(self):
        seen = set()
        for i in range(20_000):
            Q, b, c = _random_polynomial(rng_for(331, i))
            try:
                expected = _old_classify_quadric(Q, b, c)
            except NotAQuadricError:
                with pytest.raises(NotAQuadricError):
                    classify(Q, b, c)
                continue
            assert classify(Q, b, c) == expected, (Q, b, c)
            seen.add(expected)
        assert seen == set(QuadricClass)

    def test_zero_polynomial(self):
        for Q, b, c in ((diag(0, 0, 0), Z3, R(0)), (diag(0, 0, 0), (0, 0, 0), 0)):
            with pytest.raises(NotAQuadricError):
                classify(Q, b, c)
            with pytest.raises(NotAQuadricError):
                _old_classify_quadric(Q, b, c)

    def test_content_is_the_cleared_polynomial(self):
        # s holds Q_ii and 2 Q_ij; any positive multiple of the content keeps the class
        for i in range(500):
            Q, b, c = _random_polynomial(rng_for(347, i))
            k = 1 + i % 3
            cc, bs, s = _content(Q, b, c)
            scaled = (k * cc, tuple(k * v for v in bs), tuple(k * v for v in s))
            try:
                expected = _old_classify_quadric(Q, b, c)
            except NotAQuadricError:
                with pytest.raises(NotAQuadricError):
                    classify_content(*scaled)
                continue
            assert classify_content(*scaled) == expected

    @pytest.mark.parametrize("bad", [R(1, 2), R(1), 0.5, True], ids=repr)
    def test_content_takes_only_ints(self, bad):
        with pytest.raises(TypeError):
            classify_content(-1, (0, 0, 0), (1, 1, bad, 0, 0, 0))

    def test_reference_shares_no_kernel(self, monkeypatch):
        # an elimination that counts each pivot into the other sign would
        # agree with a reference whose signature came from `_eliminate`; the
        # Descartes signature of `_old_classify_quadric` tells them apart
        mutant = _mutant(_eliminate, "if d > 0:", "if d < 0:")
        monkeypatch.setattr(quadrics, "_eliminate", mutant)
        for i in range(20_000):
            Q, b, c = _random_polynomial(rng_for(331, i))
            try:
                if classify(Q, b, c) != _old_classify_quadric(Q, b, c):
                    return
            except NotAQuadricError:
                continue
        pytest.fail("the swapped pivot signs agree with the reference on every draw")


def _det(m):
    # Laplace expansion along the first row, on ints
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


class TestBareissDivision:
    def test_last_entry_is_the_determinant(self):
        # with the leading block eliminated, the last entry is D times the
        # Schur complement det(m) / D, D the signed product of the pivots: an
        # inexact division would miss it
        repaired_first = 0
        for i in range(3000):
            rng = rng_for(337, i)
            n = 3 + i % 3
            m = [[0] * n for _ in range(n)]
            for r in range(n):
                for c in range(r, n):
                    if rng.uniform(0.0, 1.0) >= 1 / 3:
                        m[r][c] = m[c][r] = randint(rng, -9, 9) * 2 ** randint(rng, 0, 40)
            work = [row[:] for row in m]
            n_pos, n_neg, rest = _eliminate(work, n - 1)
            if rest:
                continue
            # a block with no diagonal pivot starts with the rank-2 repair
            repaired_first += all(m[r][r] == 0 for r in range(n - 1))
            assert work[n - 1][n - 1] * (-1) ** n_neg == _det(m), m
        assert repaired_first > 50
