"""Exact 2x2 matrices over the rationals.

A `Mat2` is immutable, entries row-major (x1, x2, x3, x4) for
[[x1, x2], [x3, x4]], and doubles as the point (x1, x2, x3, x4) of 4-space
under the row-major identification.  `a @ b` is the ordinary matrix product
and every set-level formula in the package reads products that way.
The entries are a 4-tuple of `fractions.Fraction` and every operation is
written out on it.  Entries and scalars are `int` or `Fraction`; anything
else (a float, a string, a `Decimal`) raises `TypeError`.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import NamedTuple

from greenquadrics.errors import LiteralParseError, SingularMatrixError
from greenquadrics.exact import Rational, format_rational, parse_rational
from greenquadrics.exact import _as_rational as _coerce

__all__ = [
    "Mat2",
    "Vec4",
    "ZERO",
    "IDENTITY",
    "ScalarSummary",
    "scalar_summary",
    "inner",
    "det_polar",
    "inverse_mat",
    "outer",
    "primitive_direction",
    "proportional",
    "parse_mat2",
    "format_mat2",
]

_R = Rational


class Vec4(NamedTuple):
    """Row-major coordinates of a matrix in 4-space."""

    c1: Rational
    c2: Rational
    c3: Rational
    c4: Rational


class Mat2:
    __slots__ = ("_e",)

    def __init__(self, x1, x2, x3, x4):
        self._e = (_coerce(x1), _coerce(x2), _coerce(x3), _coerce(x4))

    @classmethod
    def _wrap(cls, entries) -> "Mat2":
        m = cls.__new__(cls)
        m._e = entries
        return m

    @classmethod
    def from_vec4(cls, v: Vec4) -> "Mat2":
        return cls(*v)

    @property
    def x1(self):
        return self._e[0]

    @property
    def x2(self):
        return self._e[1]

    @property
    def x3(self):
        return self._e[2]

    @property
    def x4(self):
        return self._e[3]

    @property
    def entries(self):
        return self._e

    def as_vec4(self) -> Vec4:
        return Vec4(*self._e)

    def rows(self):
        e = self._e
        return (e[0], e[1]), (e[2], e[3])

    def cols(self):
        e = self._e
        return (e[0], e[2]), (e[1], e[3])

    # arithmetic -----------------------------------------------------------
    def __matmul__(self, other: "Mat2") -> "Mat2":
        a1, a2, a3, a4 = self._e
        b1, b2, b3, b4 = other._e
        return Mat2._wrap(
            (a1 * b1 + a2 * b3, a1 * b2 + a2 * b4, a3 * b1 + a4 * b3, a3 * b2 + a4 * b4)
        )

    def __add__(self, other: "Mat2") -> "Mat2":
        a, b = self._e, other._e
        return Mat2._wrap((a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]))

    def __sub__(self, other: "Mat2") -> "Mat2":
        a, b = self._e, other._e
        return Mat2._wrap((a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]))

    def __neg__(self) -> "Mat2":
        a = self._e
        return Mat2._wrap((-a[0], -a[1], -a[2], -a[3]))

    def __mul__(self, scalar) -> "Mat2":
        c, a = _coerce(scalar), self._e
        return Mat2._wrap((c * a[0], c * a[1], c * a[2], c * a[3]))

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Mat2":
        c, a = _R(1) / _coerce(scalar), self._e
        return Mat2._wrap((c * a[0], c * a[1], c * a[2], c * a[3]))

    def transpose(self) -> "Mat2":
        e = self._e
        return Mat2._wrap((e[0], e[2], e[1], e[3]))

    # scalar maps ----------------------------------------------------------
    def trace(self) -> Rational:
        a = self._e
        return a[0] + a[3]

    def det(self) -> Rational:
        a = self._e
        return a[0] * a[3] - a[1] * a[2]

    def rank(self) -> int:
        a = self._e
        if a[0] * a[3] - a[1] * a[2] != 0:
            return 2
        return 0 if self.is_zero() else 1

    def norm_sq(self) -> Rational:
        a = self._e
        return a[0] * a[0] + a[1] * a[1] + a[2] * a[2] + a[3] * a[3]

    # predicates -----------------------------------------------------------
    def is_zero(self) -> bool:
        e = self._e
        return not (e[0] or e[1] or e[2] or e[3])

    def is_identity(self) -> bool:
        e = self._e
        return e[0] == 1 and e[3] == 1 and not e[1] and not e[2]

    def is_symmetric(self) -> bool:
        return self._e[1] == self._e[2]

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return self._e == other._e

    def __hash__(self):
        return hash(self._e)

    def __repr__(self):
        return f"Mat2({', '.join(format_rational(x) for x in self._e)})"

    def __str__(self):
        return format_mat2(self)


ZERO = Mat2(0, 0, 0, 0)
IDENTITY = Mat2(1, 0, 0, 1)


class ScalarSummary(NamedTuple):
    trace: Rational
    det: Rational
    rank: int
    norm_sq: Rational


def scalar_summary(a: Mat2) -> ScalarSummary:
    return ScalarSummary(a.trace(), a.det(), a.rank(), a.norm_sq())


def inner(x: Mat2, y: Mat2) -> Rational:
    """Coordinate inner product; equals tr(transpose(x) @ y)."""
    a, b = x._e, y._e
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]


def det_polar(x: Mat2, y: Mat2) -> Rational:
    """Polarization det(x+y) - det(x) - det(y) of the determinant form."""
    return (x + y).det() - x.det() - y.det()


def inverse_mat(a: Mat2) -> Mat2:
    """Group inverse (adjugate over determinant); exact."""
    d = a.det()
    if d == 0:
        raise SingularMatrixError("matrix is singular; use semigroup inverses")
    e = a.entries
    return Mat2(e[3] / d, -e[1] / d, -e[2] / d, e[0] / d)


def outer(col, row) -> Mat2:
    """Rank <= 1 product col . row^T of two 2-vectors."""
    c1, c2 = col
    r1, r2 = row
    return Mat2(c1 * r1, c1 * r2, c2 * r1, c2 * r2)


def primitive_direction(a: Mat2) -> Mat2:
    """Integer-entry multiple of `a` with gcd 1, first nonzero entry positive."""
    if a.is_zero():
        raise ValueError("zero matrix has no direction")
    den = lcm(*(x.denominator for x in a.entries))
    ints = [x.numerator * (den // x.denominator) for x in a.entries]
    g = gcd(*ints)
    ints = [v // g for v in ints]
    lead = next(v for v in ints if v)
    if lead < 0:
        ints = [-v for v in ints]
    return Mat2(*ints)


def proportional(a: Mat2, b: Mat2) -> bool:
    """True when a and b span the same line through the origin (both nonzero)."""
    if a.is_zero() or b.is_zero():
        return False
    ae, be = a.entries, b.entries
    for i in range(4):
        for j in range(i + 1, 4):
            if ae[i] * be[j] != ae[j] * be[i]:
                return False
    return True


def format_mat2(a: Mat2) -> str:
    e = a.entries
    return (
        f"[{format_rational(e[0])},{format_rational(e[1])};"
        f"{format_rational(e[2])},{format_rational(e[3])}]"
    )


def parse_mat2(text: str) -> Mat2:
    """Parse `[a,b;c,d]` with rational entries; whitespace-tolerant.

    Raises LiteralParseError carrying the character position of the problem.
    """
    i = 0
    n = len(text)

    def skip_ws(i):
        while i < n and text[i].isspace():
            i += 1
        return i

    def expect(i, ch):
        i = skip_ws(i)
        if i >= n or text[i] != ch:
            raise LiteralParseError(f"expected {ch!r}", i)
        return i + 1

    def read_entry(i):
        i = skip_ws(i)
        start = i
        if i < n and text[i] == "-":
            i += 1
        while i < n and text[i] in "0123456789/":
            i += 1
        if i == start:
            raise LiteralParseError("expected a rational entry", start)
        return parse_rational(text[start:i], start), i

    i = expect(i, "[")
    x1, i = read_entry(i)
    i = expect(i, ",")
    x2, i = read_entry(i)
    i = expect(i, ";")
    x3, i = read_entry(i)
    i = expect(i, ",")
    x4, i = read_entry(i)
    i = expect(i, "]")
    i = skip_ws(i)
    if i != n:
        raise LiteralParseError("trailing characters after matrix", i)
    return Mat2(x1, x2, x3, x4)
