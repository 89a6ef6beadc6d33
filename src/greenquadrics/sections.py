"""Hyperplane sections of the singular variety det = 0.

The hyperplane P(a; lam) is {x : tr(a x) = lam}; its slice of the variety
is a quadric surface whose affine type depends only on the rank of `a` and
whether lam vanishes.  Two classification routes are provided: the
theorem-level table (`classify_section`) and the generic pipeline
(`restrict_quadric` + `classify_affine_quadric`), and the test suite pins
their agreement.  `membership`, `section_membership` and the level test of
`to_bell` call the content comparisons of `mat2` (no product, no `Fraction`).

Inside P(I; lam) the orthonormal frame with origin (lam/2) I turns the
slice into X^2 + Y^2 - Z^2 = lam^2 / 2; those coordinates live in Q(sqrt 2)
and `to_bell`/`from_bell` convert exactly.  For a rational `Mat2` with
content n / d, `to_bell` reads X = ((n1 - n4) / 2d) sqrt2 (and likewise Y,
Z) straight from the ints, and `bell_residual` evaluates the frame's four
squares on the ints with one gcd.

`restrict_quadric` charts the hyperplane and restricts det to it on the
ints of `a` and lam, `quadric_on_chart` expands det on any other chart by
polarization of its ints, and `AffineQuadric3` stores that integer
content: the polynomial over one positive multiplier and the chart over
one denominator.  `classify_affine_quadric` hands the polynomial's content
to `quadrics.classify_content`; `evaluate` and `point` clear the chart
coordinates t to one denominator and run on the same ints.
The public `origin` and `basis` are built as `Mat2`s on first read.

Levels lam are `int` or `Fraction`; a float, a string or a `Decimal`
raises `TypeError`.
"""

from __future__ import annotations

from enum import Enum
from math import lcm
from typing import NamedTuple

from greenquadrics.errors import NotOnHyperplaneError, ZeroCoefficientError
from greenquadrics.exact import QuadExt, Rational, SQRT2, _as_rational, _from_ints, _parts, _quadext
from greenquadrics.green import colspace, rowspace
from greenquadrics.mat2 import IDENTITY, Mat2, _canon, _det_is, _polar, _trace_is, _trace_of_product_is, outer
from greenquadrics.quadrics import QuadricClass, classify_content

__all__ = [
    "Hyperplane",
    "BellPoint",
    "QuadMat2",
    "SectionClass",
    "SectionVerdict",
    "AffineQuadric3",
    "membership",
    "section_membership",
    "to_bell",
    "from_bell",
    "bell_residual",
    "chart_pivot",
    "quadric_on_chart",
    "restrict_quadric",
    "classify_affine_quadric",
    "classify_section",
    "HyperboloidMetrics",
    "hyperboloid_metrics",
]

_HALF = Rational(1, 2)


class Hyperplane:
    """The affine 3-space {x : tr(a x) = lam}; `lam` is coerced to a
    `Rational` (an int or `Fraction`, never a float).  Immutable; equal
    when `a` and `lam` are."""

    __slots__ = ("a", "lam")

    def __init__(self, a: Mat2, lam):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "lam", _as_rational(lam))

    def __setattr__(self, name, value):
        raise AttributeError(f"Hyperplane is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Hyperplane is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.a == other.a and self.lam == other.lam

    def __hash__(self):
        return hash((self.a, self.lam))

    def __repr__(self):
        return f"Hyperplane(a={self.a!r}, lam={self.lam!r})"


def membership(h: Hyperplane, x: Mat2) -> bool:
    return _trace_of_product_is(h.a, x, *_parts(h.lam))


def section_membership(h: Hyperplane, x: Mat2) -> bool:
    return _det_is(x, 0, 1) and membership(h, x)


class BellPoint(NamedTuple):
    """Coordinates in the orthonormal frame of P(I; lam); exact in Q(sqrt2)."""

    X: QuadExt
    Y: QuadExt
    Z: QuadExt
    lam: Rational


class QuadMat2(NamedTuple):
    """A 2x2 matrix with entries in Q(sqrt 2); the image of `from_bell`."""

    x1: QuadExt
    x2: QuadExt
    x3: QuadExt
    x4: QuadExt

    def trace(self) -> QuadExt:
        return self.x1 + self.x4

    def is_rational(self) -> bool:
        return all(v.is_rational() for v in self)

    def to_mat2(self) -> Mat2:
        if not self.is_rational():
            raise ValueError("entries carry sqrt2 parts")
        return Mat2(*(v.rat_part for v in self))


def to_bell(x, lam) -> BellPoint:
    """Frame coordinates of a point of P(I; lam); exact in Q(sqrt 2).

    Accepts a rational Mat2 or a QuadMat2 (so frame points with sqrt2
    coordinates round-trip).
    """
    lam = _as_rational(lam)
    if isinstance(x, Mat2):
        if not _trace_is(x, *_parts(lam)):
            raise NotOnHyperplaneError("trace differs from the frame level")
        # (x1 - x4)/sqrt2 = ((n1 - n4) / 2d) sqrt2, and likewise Y and Z
        n1, n2, n3, n4 = x._n
        d2 = 2 * x._d
        return BellPoint(
            X=_quadext(0, n1 - n4, d2),
            Y=_quadext(0, n2 + n3, d2),
            Z=_quadext(0, n3 - n2, d2),
            lam=lam,
        )
    if x.trace() != QuadExt(lam):
        raise NotOnHyperplaneError("trace differs from the frame level")
    return BellPoint(
        X=(x.x1 - x.x4) / SQRT2,
        Y=(x.x2 + x.x3) / SQRT2,
        Z=(x.x3 - x.x2) / SQRT2,
        lam=lam,
    )


def from_bell(p: BellPoint) -> QuadMat2:
    """Ambient matrix of a frame point: x1 = lam/2 + X/sqrt2, etc."""
    half = QuadExt(p.lam * _HALF)
    xs = p.X / SQRT2
    return QuadMat2(
        x1=half + xs,
        x2=(p.Y - p.Z) / SQRT2,
        x3=(p.Y + p.Z) / SQRT2,
        x4=half - xs,
    )


def bell_residual(x: Mat2) -> Rational:
    """X^2 + Y^2 - Z^2 - lam^2/2 at lam = tr(x); zero iff det(x) = 0.

    The squares of the frame coordinates are rational, so the value is an
    exact rational.
    """
    n1, n2, n3, n4 = x._n
    d1 = n1 - n4
    s23 = n2 + n3
    d32 = n3 - n2
    lam = n1 + n4
    # each term carries d^2, and the half doubles it
    return _from_ints(d1 * d1 + s23 * s23 - d32 * d32 - lam * lam, 2 * x._d * x._d)


class AffineQuadric3:
    """det restricted to a rational chart of a hyperplane: the polynomial
    t^T Q t + b^T t + c together with the chart (origin, basis).

    The quadric is its integer content, and it is built only from that
    content (`restrict_quadric`, `quadric_on_chart`): `_poly` = (M, C, B,
    S), the polynomial times M > 0 (c = C/M, b_i = B_i/M, and S holds Q_ii
    and Q_ij + Q_ji, i < j, each over M, in the order 11 22 33 12 13 23),
    and `_chart` = (L, O, B), with origin = O/L and basis_i = B_i/L (three
    vectors spanning {v : tr(a v) = 0}).  The polynomial is read only
    through its content: `classify_affine_quadric`, `evaluate` and
    `point` use it, and no `Fraction` Q, b or c is kept.  The public
    `origin` and `basis` are built from the chart on first read and kept.
    """

    __slots__ = ("_poly", "_chart", "_origin", "_basis")

    def __init__(self, poly: tuple, chart: tuple):
        self._poly, self._chart = poly, chart
        self._origin = self._basis = None

    @property
    def origin(self) -> Mat2:
        if self._origin is None:
            el, o, _ = self._chart
            self._origin = _canon(*o, el)
        return self._origin

    @property
    def basis(self) -> tuple:
        if self._basis is None:
            el, _, vs = self._chart
            self._basis = tuple(_canon(*v, el) for v in vs)
        return self._basis

    def evaluate(self, t) -> Rational:
        """Value of the quadric polynomial at chart coordinates t.

        With t = u/D: (C D^2 + D sum B_i u_i + sum S_ij u_i u_j) / (M D^2).
        """
        u1, u2, u3, dd = _clear(t)
        m, c, (b1, b2, b3), (s11, s22, s33, s12, s13, s23) = self._poly
        num = (
            c * dd * dd
            + dd * (b1 * u1 + b2 * u2 + b3 * u3)
            + u1 * (s11 * u1 + s12 * u2 + s13 * u3)
            + u2 * (s22 * u2 + s23 * u3)
            + s33 * u3 * u3
        )
        return _from_ints(num, m * dd * dd)

    def point(self, t) -> Mat2:
        """origin + sum t_i basis_i, as (O D + sum B_i u_i) / (L D)."""
        u1, u2, u3, dd = _clear(t)
        el, o, (b1, b2, b3) = self._chart
        return _canon(
            *(o[k] * dd + b1[k] * u1 + b2[k] * u2 + b3[k] * u3 for k in range(4)),
            el * dd,
        )


def _clear(t) -> tuple[int, int, int, int]:
    """Chart coordinates t as (u1, u2, u3, D) with t_i = u_i / D, D > 0."""
    (u1, e1), (u2, e2), (u3, e3) = _parts(t[0]), _parts(t[1]), _parts(t[2])
    if e1 == e2 == e3:
        return u1, u2, u3, e1
    dd = lcm(e1, e2, e3)
    return u1 * (dd // e1), u2 * (dd // e2), u3 * (dd // e3), dd


def _det(x) -> int:
    return x[0] * x[3] - x[1] * x[2]


def quadric_on_chart(origin: Mat2, basis) -> AffineQuadric3:
    """det restricted to the chart origin + sum t_i basis_i, on its content.

    Over L = lcm of the denominators, origin = O / L and basis_i = B_i / L,
    and L^2 det = det O + sum_i t_i polar(O, B_i) + sum_i t_i^2 det B_i +
    sum_{i<j} t_i t_j polar(B_i, B_j): the polynomial over M = L^2.
    """
    mats = (origin, *basis)
    el = lcm(*(m._d for m in mats))
    o, b1, b2, b3 = (tuple(v * (el // m._d) for v in m._n) for m in mats)
    s = (_det(b1), _det(b2), _det(b3), _polar(b1, b2), _polar(b1, b3), _polar(b2, b3))
    poly = (el * el, _det(o), (_polar(o, b1), _polar(o, b2), _polar(o, b3)), s)
    return AffineQuadric3(poly, (el, o, (b1, b2, b3)))


def chart_pivot(a: Mat2) -> int:
    """The coordinate a chart of {x : tr(a x) = lam} solves for.

    With a = n / d, tr(a x) = (W . x) / d for W = (n1, n3, n2, n4); the
    pivot is the index of the first nonzero W_p, and the chart coordinates
    are the other three entries of x.
    """
    n1, n2, n3, n4 = a._n
    for p, w in enumerate((n1, n3, n2, n4)):
        if w:
            return p
    raise ZeroCoefficientError("zero coefficient matrix has no hyperplane chart")


# position pairs of det x = x1 x4 - x2 x3, entries row-major from 0
_OTHER_PAIR = ((1, 2), (0, 3), (0, 3), (1, 2))
# index into S of the product t_i t_j
_S_INDEX = ((0, 3, 4), (3, 1, 5), (4, 5, 2))


def restrict_quadric(h: Hyperplane) -> AffineQuadric3:
    """Chart the hyperplane rationally and restrict det to it, on ints.

    With a = n/d, tr(a x) = (W . x)/d for W = (n1, n3, n2, n4).  The chart
    keeps the entries x_j off the pivot p (the first nonzero W_p) as the
    coordinates t and solves for x_p: over L = ld |W_p| (lam = ln/ld),
    L x_p = sign(W_p) (ln d - ld sum_j W_j x_j).  So the origin is
    (lam / w_p) E_p and the basis vectors are E_j - (w_j / w_p) E_p.  In
    det x = x1 x4 - x2 x3 the entry x_q paired with x_p and the other pair
    x_r, x_s are coordinates, so L det x = sigma ((L x_p) x_q - L x_r x_s),
    with sigma = +1 when p is on the diagonal and -1 off it: the polynomial
    over M = L, with C = 0, is read off the chart content.
    """
    n1, n2, n3, n4 = h.a._n
    w = (n1, n3, n2, n4)
    p = chart_pivot(h.a)
    ln, ld = _parts(h.lam)
    sp = 1 if w[p] > 0 else -1
    el = ld * w[p] * sp
    free = [j for j in range(4) if j != p]
    origin = [0, 0, 0, 0]
    origin[p] = sp * ln * h.a._d
    basis = []
    for j in free:
        v = [0, 0, 0, 0]
        v[j] = el
        v[p] = -sp * ld * w[j]
        basis.append(tuple(v))
    sigma = 1 if p in (0, 3) else -1
    kq = free.index(3 - p)
    kr, ks = (free.index(j) for j in _OTHER_PAIR[p])
    b = [0, 0, 0]
    b[kq] = sigma * origin[p]
    s = [0] * 6
    for k in range(3):
        s[_S_INDEX[kq][k]] = sigma * basis[k][p]
    s[_S_INDEX[kr][ks]] = -sigma * el
    return AffineQuadric3((el, 0, tuple(b), tuple(s)), (el, tuple(origin), tuple(basis)))


def classify_affine_quadric(q: AffineQuadric3) -> QuadricClass:
    """Affine class of the quadric, from its integer content alone."""
    return classify_content(*q._poly[1:])


class SectionClass(Enum):
    EMPTY = "empty"
    FULL_VARIETY = "full variety"
    HYPERBOLOID_ONE_SHEET = "hyperboloid of one sheet"
    CONE = "cone"
    HYPERBOLIC_PARABOLOID = "hyperbolic paraboloid"
    TWO_PUNCTURED_PLANES = "two punctured planes plus origin"


class SectionVerdict(NamedTuple):
    kind: SectionClass
    l_rep: Mat2 | None = None
    r_rep: Mat2 | None = None


def classify_section(a: Mat2, lam) -> SectionVerdict:
    """Type of the variety slice {x : tr(a x) = lam, det x = 0}.

    Theorem-driven table on (rank a, lam == 0).  For rank-1 `a` at level 0
    the slice splits into the L-class and R-class of the representative
    carried in the verdict (plus the origin): writing a = c . r^T, with c
    spanning colspace(a) and r rowspace(a), those are the matrices with
    row space orthogonal to c, resp. column space orthogonal to r.
    """
    lam = _as_rational(lam)
    rank = a.rank()
    if rank == 0:
        if lam == 0:
            return SectionVerdict(SectionClass.FULL_VARIETY)
        return SectionVerdict(SectionClass.EMPTY)
    if rank == 2:
        if lam == 0:
            return SectionVerdict(SectionClass.CONE)
        return SectionVerdict(SectionClass.HYPERBOLOID_ONE_SHEET)
    if lam != 0:
        return SectionVerdict(SectionClass.HYPERBOLIC_PARABOLOID)
    rep = outer(rowspace(a).perp().direction, colspace(a).perp().direction)
    return SectionVerdict(SectionClass.TWO_PUNCTURED_PLANES, l_rep=rep, r_rep=rep)


class HyperboloidMetrics(NamedTuple):
    """Center, rotation axis direction, squared principal radius and the
    frame quadratic form of the asymptotic cone of the level-lam slice."""

    center: Mat2
    axis_dir: Mat2
    radius_sq: Rational
    asymptotic_form: tuple


_ASYMPTOTIC = (
    (Rational(1), Rational(0), Rational(0)),
    (Rational(0), Rational(1), Rational(0)),
    (Rational(0), Rational(0), Rational(-1)),
)


def hyperboloid_metrics(lam) -> HyperboloidMetrics:
    """Metric data of the slice of the variety by tr(x) = lam.

    The centers for varying lam share the scalar line, the axis is parallel
    to the skew-symmetric line, and the asymptotic cone's form never depends
    on lam.
    """
    lam = _as_rational(lam)
    return HyperboloidMetrics(
        center=IDENTITY * (lam * _HALF),
        axis_dir=Mat2(0, 1, -1, 0),
        radius_sq=lam * lam * _HALF,
        asymptotic_form=_ASYMPTOTIC,
    )
