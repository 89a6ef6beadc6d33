"""Hyperplane sections of the singular variety det = 0.

The hyperplane P(a; lam) is {x : tr(a x) = lam}; its slice of the variety
is a quadric surface whose affine type depends only on the rank of `a` and
whether lam vanishes.  Two classification routes are provided: the
theorem-level table (`classify_section`) and the generic pipeline
(`restrict_quadric` + `classify_affine_quadric`), and the test suite pins
their agreement.

Inside P(I; lam) the orthonormal frame with origin (lam/2) I turns the
slice into X^2 + Y^2 - Z^2 = lam^2 / 2; those coordinates live in Q(sqrt 2)
and `to_bell`/`from_bell` convert exactly.  For a rational `Mat2` with
content n / d, `to_bell` reads X = ((n1 - n4) / 2d) sqrt2 (and likewise Y,
Z) straight from the ints, and `bell_residual` evaluates the frame's four
squares on the ints with one gcd.

`AffineQuadric3` keeps its public `Q`, `b`, `c`, `origin` and `basis`;
`evaluate` and `point` clear the chart coordinates t to one denominator and
run on integer content of the coefficients and of the chart, computed on
first use (classification never needs it).

Levels lam are `int` or `Fraction`; a float, a string or a `Decimal`
raises `TypeError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from math import lcm
from typing import NamedTuple

from greenquadrics.errors import (
    NotOnHyperplaneError,
    ZeroCoefficientError,
    ZeroLambdaError,
)
from greenquadrics.exact import QuadExt, Rational, SQRT2, _as_rational, _from_ints, _parts, _quadext
from greenquadrics.green import colspace, rowspace
from greenquadrics.mat2 import IDENTITY, Mat2, _canon, det_polar, outer
from greenquadrics.quadrics import QuadricClass, classify_quadric

__all__ = [
    "Hyperplane",
    "BellPoint",
    "QuadMat2",
    "SectionClass",
    "SectionVerdict",
    "AffineQuadric3",
    "membership",
    "section_membership",
    "normalize",
    "trace_functional",
    "to_bell",
    "from_bell",
    "bell_residual",
    "quadric_on_chart",
    "restrict_quadric",
    "classify_affine_quadric",
    "classify_section",
    "HyperboloidMetrics",
    "hyperboloid_metrics",
]

_HALF = Rational(1, 2)


@dataclass(frozen=True)
class Hyperplane:
    """The affine 3-space {x : tr(a x) = lam}."""

    a: Mat2
    lam: Rational

    def __post_init__(self):
        object.__setattr__(self, "lam", _as_rational(self.lam))


def trace_functional(a: Mat2) -> tuple[Rational, Rational, Rational, Rational]:
    """Coefficients w with tr(a x) = w . (x1, x2, x3, x4)."""
    e = a.entries
    return (e[0], e[2], e[1], e[3])


def membership(h: Hyperplane, x: Mat2) -> bool:
    return (h.a @ x).trace() == h.lam


def section_membership(h: Hyperplane, x: Mat2) -> bool:
    return x.det() == 0 and membership(h, x)


def normalize(h: Hyperplane) -> Hyperplane:
    """Rescale to level 1: P(a; lam) = P(a/lam; 1) for lam != 0."""
    if h.lam == 0:
        raise ZeroLambdaError("cannot normalize a level-zero hyperplane")
    return Hyperplane(h.a / h.lam, Rational(1))


@dataclass(frozen=True)
class BellPoint:
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

    def det(self) -> QuadExt:
        return self.x1 * self.x4 - self.x2 * self.x3

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
        # (x1 - x4)/sqrt2 = ((n1 - n4) / 2d) sqrt2, and likewise Y and Z
        n1, n2, n3, n4 = x._n
        d = x._d
        if (n1 + n4) * lam.denominator != lam.numerator * d:
            raise NotOnHyperplaneError("trace differs from the frame level")
        d2 = 2 * d
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


@dataclass(frozen=True)
class AffineQuadric3:
    """det restricted to a rational chart of a hyperplane: the polynomial
    t^T Q t + b^T t + c together with the chart (origin, basis)."""

    Q: tuple
    b: tuple
    c: Rational
    origin: Mat2
    basis: tuple  # three Mat2 spanning {v : tr(a v) = 0}

    @cached_property
    def _poly(self) -> tuple:
        """(M, C, B, S): the polynomial times M, on ints.

        c = C/M, b_i = B_i/M, and S holds Q_ii and Q_ij + Q_ji (i < j),
        each over M, in the order 11 22 33 12 13 23.
        """
        Q = self.Q
        coeffs = (
            self.c, *self.b,
            Q[0][0], Q[1][1], Q[2][2],
            Q[0][1] + Q[1][0], Q[0][2] + Q[2][0], Q[1][2] + Q[2][1],
        )
        parts = [_parts(v) for v in coeffs]
        m = lcm(*(den for _, den in parts))
        ints = [num * (m // den) for num, den in parts]
        return m, ints[0], tuple(ints[1:4]), tuple(ints[4:])

    @cached_property
    def _chart(self) -> tuple:
        """(L, O, B): origin = O/L and basis_i = B_i/L, on ints."""
        mats = (self.origin, *self.basis)
        el = lcm(*(m._d for m in mats))
        o, *b = [tuple(v * (el // m._d) for v in m._n) for m in mats]
        return el, o, tuple(b)

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


def quadric_on_chart(origin: Mat2, basis) -> tuple[tuple, tuple, Rational]:
    """Expand det(origin + sum t_i basis_i) into (Q, b, c) by polarization."""
    c = origin.det()
    b = tuple(det_polar(origin, v) for v in basis)
    Q = tuple(
        tuple(
            basis[i].det() if i == j else det_polar(basis[i], basis[j]) * _HALF
            for j in range(3)
        )
        for i in range(3)
    )
    return Q, b, c


_UNIT = (Mat2(1, 0, 0, 0), Mat2(0, 1, 0, 0), Mat2(0, 0, 1, 0), Mat2(0, 0, 0, 1))


def restrict_quadric(h: Hyperplane) -> AffineQuadric3:
    """Chart the hyperplane rationally and restrict det to it.

    The chart origin is (lam / w_i) E_i for the first nonzero coefficient
    w_i of the trace functional; the basis vectors are E_j - (w_j / w_i) E_i.
    """
    w = trace_functional(h.a)
    pivot = next((i for i in range(4) if w[i] != 0), None)
    if pivot is None:
        raise ZeroCoefficientError("zero coefficient matrix has no hyperplane chart")
    origin = _UNIT[pivot] * (h.lam / w[pivot])
    basis = tuple(
        _UNIT[j] - _UNIT[pivot] * (w[j] / w[pivot]) for j in range(4) if j != pivot
    )
    Q, b, c = quadric_on_chart(origin, basis)
    return AffineQuadric3(Q=Q, b=b, c=c, origin=origin, basis=basis)


def classify_affine_quadric(q: AffineQuadric3) -> QuadricClass:
    return classify_quadric(q.Q, q.b, q.c)


class SectionClass(Enum):
    EMPTY = "empty"
    FULL_VARIETY = "full variety"
    HYPERBOLOID_ONE_SHEET = "hyperboloid of one sheet"
    CONE = "cone"
    HYPERBOLIC_PARABOLOID = "hyperbolic paraboloid"
    TWO_PUNCTURED_PLANES = "two punctured planes plus origin"


@dataclass(frozen=True)
class SectionVerdict:
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


@dataclass(frozen=True)
class HyperboloidMetrics:
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
