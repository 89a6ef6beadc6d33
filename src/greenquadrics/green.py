"""Green's relations on 2x2 matrices and the geometry of their classes.

Convention fixed package-wide: L-equivalence is equality of row spaces and
R-equivalence equality of column spaces (zero and invertible matrices each
forming their own class).  Nontrivial L/R classes are punctured planes
inside the singular variety, H-classes punctured lines, and every punctured
plane inside the variety arises this way - `classify_plane` decides which.

Row and column lines are read from the integer content of a `Mat2`
(`_n`), never from its `Fraction` entries: a line is a direction, so the
common denominator drops out.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from greenquadrics.errors import DependentBasisError, NotRankOneError
from greenquadrics.exact import Rational
from greenquadrics.mat2 import Mat2, det_polar, outer, proportional

__all__ = [
    "ProjLine",
    "PuncturedLine",
    "PlaneInVariety",
    "rowspace",
    "colspace",
    "green_eq",
    "class_plane",
    "h_class_line",
    "classify_plane",
]


class ProjLine:
    """A line through the origin of the plane, stored as a primitive
    integer direction with the first nonzero coordinate positive, so that
    equality of lines is syntactic equality of directions.  The two
    coordinates are `int` or `Fraction`."""

    __slots__ = ("_d",)

    def __init__(self, p, q):
        pn, pd = p.numerator, p.denominator
        qn, qd = q.numerator, q.denominator
        a = pn * qd
        b = qn * pd
        if a == 0 and b == 0:
            raise ValueError("a projective line needs a nonzero direction")
        g = gcd(a, b)
        a //= g
        b //= g
        if a < 0 or (a == 0 and b < 0):
            a, b = -a, -b
        self._d = (a, b)

    @property
    def direction(self) -> tuple[int, int]:
        return self._d

    def perp(self) -> "ProjLine":
        a, b = self._d
        return ProjLine(Rational(-b), Rational(a))

    def __eq__(self, other):
        if not isinstance(other, ProjLine):
            return NotImplemented
        return self._d == other._d

    def __hash__(self):
        return hash(self._d)

    def __repr__(self):
        return f"ProjLine({self._d[0]}, {self._d[1]})"

    def __str__(self):
        return f"({self._d[0]},{self._d[1]})"


def rowspace(a: Mat2) -> ProjLine | None:
    """Row space of a rank-1 matrix as a line; None for the zero matrix.

    For invertible `a` the row space is the whole plane, also None here:
    callers branch on rank first.  The line is read from the first nonzero
    row of the integer content; the common denominator cancels in a
    direction.
    """
    if a.rank() != 1:
        return None
    n1, n2, n3, n4 = a._n
    return ProjLine(n1, n2) if n1 or n2 else ProjLine(n3, n4)


def colspace(a: Mat2) -> ProjLine | None:
    """Column space of a rank-1 matrix, from its first nonzero column."""
    if a.rank() != 1:
        return None
    n1, n2, n3, n4 = a._n
    return ProjLine(n1, n3) if n1 or n3 else ProjLine(n2, n4)


def green_eq(rel: str, a: Mat2, b: Mat2) -> bool:
    """Test a Green's relation: rel is one of L, R, H, D, J."""
    ra, rb = a.rank(), b.rank()
    if rel in ("D", "J"):
        return ra == rb
    if rel == "H":
        return green_eq("L", a, b) and green_eq("R", a, b)
    if rel == "L":
        if ra != rb:
            return False
        return ra != 1 or rowspace(a) == rowspace(b)
    if rel == "R":
        if ra != rb:
            return False
        return ra != 1 or colspace(a) == colspace(b)
    raise ValueError(f"unknown Green relation {rel!r}")


def class_plane(rel: str, a: Mat2) -> tuple[Mat2, Mat2]:
    """Basis of the plane whose puncture is the L- or R-class of rank-1 `a`.

    The L-class of `a` consists of every matrix whose rows span row(a), a
    plane with basis {e_i . r^T}; dually for R with columns.
    """
    if a.rank() != 1:
        raise NotRankOneError("class planes exist only for rank-1 matrices")
    if rel == "L":
        r = rowspace(a).direction
        return outer((1, 0), r), outer((0, 1), r)
    if rel == "R":
        c = colspace(a).direction
        return outer(c, (1, 0)), outer(c, (0, 1))
    raise ValueError("class planes are defined for rel 'L' or 'R'")


class PuncturedLine(NamedTuple):
    """The set {t . direction : t != 0}; the shape of a nontrivial H-class."""

    direction: Mat2

    def point(self, t) -> Mat2:
        return self.direction * t

    def contains(self, x: Mat2) -> bool:
        return proportional(x, self.direction)


def h_class_line(a: Mat2) -> PuncturedLine:
    """The H-class of rank-1 `a` is the punctured line through `a`."""
    if a.rank() != 1:
        raise NotRankOneError("nontrivial H-classes exist only in rank 1")
    return PuncturedLine(a)


class PlaneInVariety(NamedTuple):
    """Verdict for a plane spanned by two independent matrices: an L-class
    plane (common row space), an R-class plane (common column space), or not
    contained in the singular variety at all."""

    basis: tuple[Mat2, Mat2]
    kind: str  # "L" | "R" | "not_contained"
    rep: Mat2 | None = None


def classify_plane(b1: Mat2, b2: Mat2) -> PlaneInVariety:
    """Decide whether span{b1, b2} minus the origin is an L- or R-class.

    Containment in the singular variety is three exact checks: det(b1),
    det(b2) and the polarization det(b1+b2)-det(b1)-det(b2) are the
    coefficients of det(s b1 + t b2) as a form in (s, t).
    """
    if b1.is_zero() or b2.is_zero() or proportional(b1, b2):
        raise DependentBasisError("plane basis must be linearly independent")
    if b1.det() != 0 or b2.det() != 0 or det_polar(b1, b2) != 0:
        return PlaneInVariety((b1, b2), "not_contained")
    # contained: rank-1 matrices with matching row or column spaces
    if rowspace(b1) == rowspace(b2):
        return PlaneInVariety((b1, b2), "L", b1)
    if colspace(b1) == colspace(b2):
        return PlaneInVariety((b1, b2), "R", b1)
    raise AssertionError("plane inside the variety with no common space")
