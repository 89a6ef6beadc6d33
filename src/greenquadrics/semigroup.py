"""Semigroup structure of 2x2 matrices: idempotents, nilpotents, inverse
elements and their exact parametrization, the generating lines of the
idempotent surface, and the natural partial order.

The inverse set of a rank-1 matrix is charted bilinearly: fixing a rank
factorization a = c . r^T, the inverses are exactly the products
(d0 + s d1)(q0 + t q1)^T with r.d0 = q0.c = 1 and r.d1 = q1.c = 0, one per
parameter pair (s, t).

The predicates decide values on content, cross-multiplied (Knuth, TAOCP
Vol. 2, 4.5.1): with x = X / d, x x = x is X X = d X and x x = 0 is X X = 0;
with a = A / da, a x a = a and x a x = x are A X A = da dx A and
X A X = da dx X.  The section test tr(a x) = 1, det x = 0 of
`inverse_membership` and of both columns of `order_section_report` calls
`mat2._trace_of_product_is` and `mat2._det_is`; the oracles (the
predicates above and the two orders) call neither.  None builds a `Mat2` product, a canonical form or a `Fraction`,
so they see values, not storage: a matrix in the right value but not in
lowest terms passes them, and the chart check of `gq check` tests the
lowest terms of each chart point itself.

The order, chart and line paths compute on the integer content of a
`Mat2` (`_n` over `_d`), not on `Fraction` entries.  A rank-1 content X
factors through its pivot P = X[i][j], the first nonzero entry of its
first nonzero column j: X = C . R^T / P with C column j and R row i of X
(`_factor`).  `natural_le` builds a 3x2 integer system from C, R and P
and decides whether it has a solution from its minors, without solving
it.  `minus_le` decides rank(y - x) = rank y - rank x by cases on the
two ranks, with one determinant identity on the content of x and y and
no `Mat2` for y - x.  `inverse_chart` keeps the chart as integer
content, put in lowest terms by the gcds of R and C alone, and
`chart_eval` reduces its outer product by gcds of its two factors, never
of the four products: a result whose factors are known is reduced by gcds
of those factors.  The chart's `Fraction` vectors are built only when
read.  `line_meet` decides whether two lines meet by the 3x3 minors of
their integer system and reads the meet off a 2x2 minor by Cramer's rule.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd
from typing import NamedTuple

from greenquadrics.errors import (
    DegeneratePairingError,
    NotRankOneError,
    NotRankOneIdempotentError,
    SingularMatrixError,
)
from greenquadrics.exact import Rational, _from_ints, _parts
from greenquadrics.green import ProjLine
from greenquadrics.mat2 import (
    IDENTITY,
    Mat2,
    _det_is,
    _polar,
    _raw,
    _trace_of_product_is,
    inverse_mat,
    outer,
    primitive_direction,
    proportional,
)
from greenquadrics.sampling import rand_idempotent_rank1, rand_rank1, strata_draws

__all__ = [
    "is_idempotent",
    "is_nilpotent",
    "is_inverse_pair",
    "inverse_membership",
    "InverseChart",
    "inverse_chart",
    "chart_eval",
    "GeneratorLine",
    "generator_line",
    "line_meet",
    "idempotent_from_spaces",
    "natural_le",
    "minus_le",
    "OrderSectionReport",
    "order_section_report",
]


def is_idempotent(x: Mat2) -> bool:
    """x x = x, decided as X X = d X on the content x = X / d."""
    x1, x2, x3, x4 = x._n
    d = x._d
    t = x1 + x4
    return x1 * x1 + x2 * x3 == d * x1 and x2 * t == d * x2 and x3 * t == d * x3 and x2 * x3 + x4 * x4 == d * x4


def is_nilpotent(x: Mat2) -> bool:
    """x x = 0, decided as X X = 0 on the content x = X / d."""
    x1, x2, x3, x4 = x._n
    t = x1 + x4
    return x1 * x1 + x2 * x3 == 0 and x2 * t == 0 and x3 * t == 0 and x2 * x3 + x4 * x4 == 0


def is_inverse_pair(a: Mat2, x: Mat2) -> bool:
    """Semigroup inverses: a x a = a and x a x = x.

    On the content a = A / da and x = X / dx these read A X A = k A and
    X A X = k X with k = da dx, both off the integer product P = A X.
    """
    a1, a2, a3, a4 = a._n
    x1, x2, x3, x4 = x._n
    k = a._d * x._d
    p1, p2, p3, p4 = a1 * x1 + a2 * x3, a1 * x2 + a2 * x4, a3 * x1 + a4 * x3, a3 * x2 + a4 * x4
    if not (
        p1 * a1 + p2 * a3 == k * a1
        and p1 * a2 + p2 * a4 == k * a2
        and p3 * a1 + p4 * a3 == k * a3
        and p3 * a2 + p4 * a4 == k * a4
    ):
        return False
    return (
        x1 * p1 + x2 * p3 == k * x1
        and x1 * p2 + x2 * p4 == k * x2
        and x3 * p1 + x4 * p3 == k * x3
        and x3 * p2 + x4 * p4 == k * x4
    )


def inverse_membership(a: Mat2, x: Mat2) -> bool:
    """Section test tr(a x) = 1 and det(x) = 0 for rank-1 `a`.

    Equivalent to `is_inverse_pair(a, x)`; the equivalence is a tested
    theorem, not assumed here.
    """
    if a.rank() != 1:
        raise NotRankOneError("inverse-set membership is for rank-1 matrices")
    return _trace_of_product_is(a, x, 1, 1) and _det_is(x, 0, 1)


def _factor(n: tuple) -> tuple[tuple[int, int], tuple[int, int], int]:
    """(C, R, P) for nonzero rank-1 content n: the pivot P = n[i][j] is the
    first nonzero entry of the first nonzero column j, C is column j and R
    row i, so that n = C . R^T / P (R is also the first nonzero row)."""
    n1, n2, n3, n4 = n
    if n1:
        return (n1, n3), (n1, n2), n1
    if n3:
        return (n1, n3), (n3, n4), n3
    if n2:
        return (n2, n4), (n1, n2), n2
    return (n2, n4), (n3, n4), n4


def _perp(u: int, v: int) -> tuple[int, int]:
    """The direction (-v, u) perpendicular to a primitive (u, v), first
    nonzero entry positive: the `ProjLine` direction of that line."""
    return (v, -u) if v > 0 or (v == 0 and u < 0) else (-v, u)


class InverseChart(NamedTuple):
    """Bilinear chart (s, t) -> (d0 + s d1)(q0 + t q1)^T of the inverses of `a`.

    A record of `a` and the chart's integer content: `content` is
    (D0, D1, E, d1, G0, G1, F, q1) with d0 = (D0, D1) / E and
    q0 = (G0, G1) / F; d1 and q1 are integer vectors already.  The public
    `Fraction` vectors `d0`, `d1`, `q0`, `q1` are built from it on each
    read; `chart_eval` never needs them.  Since `a` determines the content,
    charts are equal (and hash alike) when their `a` are.
    """

    a: Mat2
    content: tuple

    @property
    def d0(self) -> tuple[Rational, Rational]:
        dd0, dd1, e = self.content[:3]
        return _from_ints(dd0, e), _from_ints(dd1, e)

    @property
    def d1(self) -> tuple[Rational, Rational]:
        u0, u1 = self.content[3]
        return Rational(u0), Rational(u1)

    @property
    def q0(self) -> tuple[Rational, Rational]:
        g0, g1, f = self.content[4:7]
        return _from_ints(g0, f), _from_ints(g1, f)

    @property
    def q1(self) -> tuple[Rational, Rational]:
        v0, v1 = self.content[7]
        return Rational(v0), Rational(v1)


def inverse_chart(a: Mat2) -> InverseChart:
    """The chart of rank-1 `a` for its factorization c = C / d, r = R / P:
    d0 = r / |r|^2 = R P / |R|^2, q0 = c / |c|^2 = C d / |C|^2.

    Both are put in lowest terms through the gcds of R and C.  With
    R = k R' and C = m C' for primitive R', C': P is an entry of R, so
    d0 = R' (P / k) / |R'|^2 with P / k an entry of R', prime to |R'|^2;
    and q0 = C' d / (m |C'|^2), reduced by h = gcd(d, m |C'|^2).
    """
    if a.rank() != 1:
        raise NotRankOneError("inverse charts exist for rank-1 matrices only")
    (c0, c1), (r0, r1), p = _factor(a._n)
    k = gcd(r0, r1)
    r0, r1, p = r0 // k, r1 // k, p // k
    m = gcd(c0, c1)
    c0, c1 = c0 // m, c1 // m
    f = m * (c0 * c0 + c1 * c1)
    d = a._d
    h = gcd(d, f)
    if h != 1:
        d, f = d // h, f // h
    return InverseChart(
        a, (r0 * p, r1 * p, r0 * r0 + r1 * r1, _perp(r0, r1), c0 * d, c1 * d, f, _perp(c0, c1))
    )


def chart_eval(chart: InverseChart, s, t) -> Mat2:
    """The inverse (d0 + s d1)(q0 + t q1)^T at chart parameters (s, t).

    With s = sn / sd and t = tn / td, d = (D sd + E sn d1) / (E sd) and
    q = (G td + F tn q1) / (F td): the point is the outer product x y^T of
    two integer vectors over one denominator.  The gcd of its four entries
    is gcd(x) gcd(y), so the point is reduced by gcd(den, gcd(x) gcd(y)),
    taken as gcd(x, den) and then gcd(y, den / gcd(x, den)).
    """
    dd0, dd1, e, (u0, u1), g0, g1, f, (v0, v1) = chart.content
    sn, sd = _parts(s)
    tn, td = _parts(t)
    es, ft = e * sn, f * tn
    x0, x1 = dd0 * sd + es * u0, dd1 * sd + es * u1
    y0, y1 = g0 * td + ft * v0, g1 * td + ft * v1
    den = (e * sd) * (f * td)
    g = gcd(x0, x1, den)
    if g != 1:
        x0, x1, den = x0 // g, x1 // g, den // g
    g = gcd(y0, y1, den)
    if g != 1:
        y0, y1, den = y0 // g, y1 // g, den // g
    return _raw((x0 * y0, x0 * y1, x1 * y0, x1 * y1), den)


class GeneratorLine(NamedTuple):
    """A line base + t . direction of rank-1 idempotents on the idempotent
    surface; family L1 stays inside the L-class of the base, L2 inside the
    R-class."""

    base: Mat2
    direction: Mat2
    family: str  # "L1" | "L2"

    def point(self, t) -> Mat2:
        return self.base + self.direction * t


_ELEMENTARY = (Mat2(1, 0, 0, 0), Mat2(0, 1, 0, 0), Mat2(0, 0, 1, 0), Mat2(0, 0, 0, 1))


def generator_line(family: str, e: Mat2) -> GeneratorLine:
    """Generating line of the idempotent surface through the idempotent `e`.

    L1 direction spans (I - e) M e, L2 direction spans e M (I - e); both
    spaces are one-dimensional for rank-1 idempotent e, and every point of
    the line is again a rank-1 idempotent.
    """
    if family not in ("L1", "L2"):
        raise ValueError("family must be 'L1' or 'L2'")
    if e.rank() != 1 or not is_idempotent(e):
        raise NotRankOneIdempotentError("base must be a rank-1 idempotent")
    comp = IDENTITY - e
    for m in _ELEMENTARY:
        d = (comp @ m @ e) if family == "L1" else (e @ m @ comp)
        if not d.is_zero():
            return GeneratorLine(e, primitive_direction(d), family)
    raise AssertionError("generator direction space was zero")


def line_meet(g1: GeneratorLine, g2: GeneratorLine) -> Mat2 | None:
    """Unique common point of two generator lines, or None.

    Coincident lines also return None: they have no unique meet.  The meet
    solves s d1 - t d2 = b2 - b1 on content, with d1 = D1 / e, d2 = D2 / e'
    and b2 - b1 = N / n: once the directions are not proportional, [D1 | D2]
    has rank 2, so the integer system [D1 | D2 | N] is consistent iff its
    four 3x3 minors vanish (Rouche-Capelli), and s = e S / n for the S that
    Cramer's rule reads off the first nonzero 2x2 minor of [D1 | D2].
    """
    if proportional(g1.direction, g2.direction):
        return None
    diff = g2.base - g1.base
    rows = tuple(zip(g1.direction._n, g2.direction._n, diff._n))
    for k in range(4):
        (p1, q1, r1), (p2, q2, r2), (p3, q3, r3) = rows[:k] + rows[k + 1 :]
        if p1 * (q2 * r3 - q3 * r2) - p2 * (q1 * r3 - q3 * r1) + p3 * (q1 * r2 - q2 * r1):
            return None
    for (p1, q1, r1), (p2, q2, r2) in combinations(rows, 2):
        m = p1 * q2 - p2 * q1
        if m:
            return g1.point(_from_ints((r1 * q2 - r2 * q1) * g1.direction._d, m * diff._d))
    raise AssertionError("directions that are not proportional have a nonzero 2x2 minor")


def idempotent_from_spaces(col: ProjLine, row: ProjLine) -> Mat2:
    """The unique idempotent with the given column and row spaces.

    Raises DegeneratePairingError when the pairing row . col vanishes: that
    H-class contains no idempotent.
    """
    u = col.direction
    v = row.direction
    pairing = u[0] * v[0] + u[1] * v[1]
    if pairing == 0:
        raise DegeneratePairingError("orthogonal column/row pairing")
    return outer(u, v) / pairing


def natural_le(x: Mat2, y: Mat2) -> bool:
    """Natural partial order: x = f y for an idempotent f whose column space
    is that of x, with the column space of x inside that of y.

    Coincides with the minus order rank(y - x) = rank(y) - rank(x); the
    agreement is property-tested.  The implementation decides whether an
    integer system built from the content of x and y has a solution, by
    its 2x2 and 3x3 minors (Rouche-Capelli): no elimination, no rank of
    y - x, no trace test.
    """
    if x == y:
        return True
    if x.is_zero():
        return True
    if x.rank() == 2:
        return False
    # x = c r^T with c = C and r = R / (P dx); f = c w^T is idempotent iff
    # w.c = 1, and f y = x reduces to y^T w = r.  With y = Y / dy and w
    # rescaled by P dx, the rows (Y1, Y3 | b1), (Y2, Y4 | b2), (C0, C1 | b3)
    # of Y^T w = dy R, C.w = P dx are all ints.
    (c0, c1), (r0, r1), p = _factor(x._n)
    y1, y2, y3, y4 = y._n
    b1, b2, b3 = y._d * r0, y._d * r1, p * x._d
    m12 = y1 * y4 - y3 * y2
    if m12:
        # y invertible: the first two rows have rank 2, so the system is
        # consistent iff the 3x3 augmented determinant vanishes
        return b1 * (y2 * c1 - y4 * c0) - b2 * (y1 * c1 - y3 * c0) + b3 * m12 == 0
    # y of rank <= 1: both its columns must lie on C (the column spaces
    # agree), so every row is a multiple of (C0, C1 | b3), and the system is
    # consistent iff each right-hand side is the same multiple, read off a
    # nonzero entry of C.  A zero y fails here too, since dy R is nonzero.
    if c0 * y3 != c1 * y1 or c0 * y4 != c1 * y2:
        return False
    u, v, w = (y1, y2, c0) if c0 else (y3, y4, c1)
    return u * b3 == b1 * w and v * b3 == b2 * w


def minus_le(x: Mat2, y: Mat2) -> bool:
    """Minus order: rank(y - x) = rank(y) - rank(x), decided on content.

    With k = rank y - rank x: k <= 0 needs y - x = 0, and a zero x is below
    every y.  Otherwise rank y = 2, rank x = 1, and y - x = (dx Y - dy X) /
    (dx dy) has rank 1 iff det(dx Y - dy X) = dx^2 det Y - dx dy polar(X, Y)
    + dy^2 det X vanishes; with det X = 0 that is dx det Y = dy polar(X, Y).
    No idempotent and no system of `natural_le`: the orders stay independent.
    """
    rx = x.rank()
    k = y.rank() - rx
    if k <= 0:
        return k == 0 and x == y
    if rx == 0:
        return True
    y1, y2, y3, y4 = y._n
    return x._d * (y1 * y4 - y2 * y3) == y._d * _polar(x._n, y._n)


class OrderSectionReport(NamedTuple):
    """Per-trial agreement between the natural order below a nonsingular `a`
    and membership in the two trace-1 sections (of a and of its inverse).
    `order_section_report` builds it once, from its counts; the list of
    counterexamples (each a dict of its `Mat2` x and three verdicts) keeps
    it unhashable.  The CLI writes it as text."""

    a: Mat2
    trials: int
    seed: int
    agree_le_vs_inv_section: int
    agree_le_vs_section: int
    counterexamples: list


def order_section_report(a: Mat2, trials: int, seed: int) -> OrderSectionReport:
    """Sample nonzero singular x and tabulate natural_le(x, a) against the
    memberships x in SP(a;1) and x in SP(inv(a);1).

    Trials are stratified by i % 3: unconstrained rank-1 draws, points of
    SP(a;1) (inv(a) times an idempotent) and points of SP(inv(a);1) (a
    times an idempotent), so both section columns are exercised.  Trial i
    draws from the stream keyed (seed, i), through the lanes of
    `sampling.strata_draws`.
    """
    if a.rank() != 2:
        raise SingularMatrixError("order/section report needs a nonsingular a")
    ainv = inverse_mat(a)
    agree_inv = agree = 0
    counterexamples = []
    strata = (
        ((rand_rank1,), lambda x: x),
        ((rand_idempotent_rank1,), lambda e: ainv @ e),
        ((rand_idempotent_rank1,), lambda e: a @ e),
    )
    for x in strata_draws(seed, trials, strata):
        le = natural_le(x, a)
        singular = _det_is(x, 0, 1)
        in_section = singular and _trace_of_product_is(a, x, 1, 1)
        in_inv_section = singular and _trace_of_product_is(ainv, x, 1, 1)
        if le == in_inv_section:
            agree_inv += 1
        elif len(counterexamples) < 10:
            counterexamples.append(
                {
                    "x": x,
                    "natural_le": le,
                    "in_section": in_section,
                    "in_inv_section": in_inv_section,
                }
            )
        if le == in_section:
            agree += 1
    return OrderSectionReport(a, trials, seed, agree_inv, agree, counterexamples)
