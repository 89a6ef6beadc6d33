"""Exact 2x2 matrices over the rationals.

A `Mat2` is immutable, entries row-major (x1, x2, x3, x4) for
[[x1, x2], [x3, x4]], and doubles as the point (x1, x2, x3, x4) of 4-space
under the row-major identification.  `a @ b` is the ordinary matrix product
and every set-level formula in the package reads products that way.

Storage is integer content over one common denominator: a 4-tuple of
Python ints `_n` and one int `_d > 0` with the matrix equal to `_n / _d`.
Every result is reduced by a single 5-way gcd, so `gcd(*_n, _d) == 1`
(the zero matrix is `(0, 0, 0, 0) / 1`) and equal matrices have equal
fields: equality and hashing are tuple operations.  Arithmetic, `det`,
`rank` and the other maps are written out on the ints; `Fraction`s are
built only at the accessors (`entries`, `x1`..`x4`) and for the rational
scalars a map returns.  Entries and scalars are `int` or `Fraction`;
anything else (a float, a string, a `Decimal`) raises `TypeError`.
"""

from __future__ import annotations

from math import gcd, lcm

from greenquadrics.errors import LiteralParseError, SingularMatrixError
from greenquadrics.exact import Rational, format_rational, parse_rational
from greenquadrics.exact import _as_rational as _coerce
from greenquadrics.exact import _from_ints as _Q
from greenquadrics.exact import _parts

__all__ = [
    "Mat2",
    "ZERO",
    "IDENTITY",
    "inner",
    "det_polar",
    "inverse_mat",
    "outer",
    "primitive_direction",
    "proportional",
    "parse_mat2",
    "format_mat2",
]


def _raw(n: tuple, d: int) -> "Mat2":
    """Wrap content that is already canonical."""
    m = object.__new__(Mat2)
    m._n = n
    m._d = d
    return m


def _canon(n1: int, n2: int, n3: int, n4: int, d: int) -> "Mat2":
    """The matrix (n1, n2, n3, n4) / d for d > 0, reduced by one gcd."""
    g = gcd(n1, n2, n3, n4, d)
    if g == 1:
        return _raw((n1, n2, n3, n4), d)
    return _raw((n1 // g, n2 // g, n3 // g, n4 // g), d // g)


class Mat2:
    __slots__ = ("_n", "_d")

    def __init__(self, x1, x2, x3, x4):
        x1, x2, x3, x4 = [x if isinstance(x, int) else _coerce(x) for x in (x1, x2, x3, x4)]
        q1, q2, q3, q4 = x1.denominator, x2.denominator, x3.denominator, x4.denominator
        d = lcm(q1, q2, q3, q4)
        # each entry is in lowest terms, so content over the lcm has gcd 1
        self._n = (
            x1.numerator * (d // q1),
            x2.numerator * (d // q2),
            x3.numerator * (d // q3),
            x4.numerator * (d // q4),
        )
        self._d = d

    @property
    def x1(self):
        return _Q(self._n[0], self._d)

    @property
    def x2(self):
        return _Q(self._n[1], self._d)

    @property
    def x3(self):
        return _Q(self._n[2], self._d)

    @property
    def x4(self):
        return _Q(self._n[3], self._d)

    @property
    def entries(self):
        n1, n2, n3, n4 = self._n
        d = self._d
        return (_Q(n1, d), _Q(n2, d), _Q(n3, d), _Q(n4, d))

    # arithmetic -----------------------------------------------------------
    def __matmul__(self, other: "Mat2") -> "Mat2":
        a1, a2, a3, a4 = self._n
        b1, b2, b3, b4 = other._n
        return _canon(
            a1 * b1 + a2 * b3,
            a1 * b2 + a2 * b4,
            a3 * b1 + a4 * b3,
            a3 * b2 + a4 * b4,
            self._d * other._d,
        )

    def __add__(self, other: "Mat2") -> "Mat2":
        a1, a2, a3, a4 = self._n
        b1, b2, b3, b4 = other._n
        da, db = self._d, other._d
        if da == db:
            return _canon(a1 + b1, a2 + b2, a3 + b3, a4 + b4, da)
        g = gcd(da, db)
        sa, sb = db // g, da // g
        return _canon(a1 * sa + b1 * sb, a2 * sa + b2 * sb, a3 * sa + b3 * sb, a4 * sa + b4 * sb, da * sa)

    def __sub__(self, other: "Mat2") -> "Mat2":
        a1, a2, a3, a4 = self._n
        b1, b2, b3, b4 = other._n
        da, db = self._d, other._d
        if da == db:
            return _canon(a1 - b1, a2 - b2, a3 - b3, a4 - b4, da)
        g = gcd(da, db)
        sa, sb = db // g, da // g
        return _canon(a1 * sa - b1 * sb, a2 * sa - b2 * sb, a3 * sa - b3 * sb, a4 * sa - b4 * sb, da * sa)

    def __neg__(self) -> "Mat2":
        a1, a2, a3, a4 = self._n
        return _raw((-a1, -a2, -a3, -a4), self._d)

    def __mul__(self, scalar) -> "Mat2":
        p, q = _parts(scalar)
        a1, a2, a3, a4 = self._n
        return _canon(a1 * p, a2 * p, a3 * p, a4 * p, self._d * q)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Mat2":
        q, p = _parts(scalar)
        if q == 0:
            raise ZeroDivisionError("Mat2 division by zero")
        if q < 0:
            p, q = -p, -q
        a1, a2, a3, a4 = self._n
        return _canon(a1 * p, a2 * p, a3 * p, a4 * p, self._d * q)

    def transpose(self) -> "Mat2":
        a1, a2, a3, a4 = self._n
        return _raw((a1, a3, a2, a4), self._d)

    # scalar maps ----------------------------------------------------------
    def trace(self) -> Rational:
        a = self._n
        return _Q(a[0] + a[3], self._d)

    def det(self) -> Rational:
        a1, a2, a3, a4 = self._n
        d = self._d
        return _Q(a1 * a4 - a2 * a3, d * d)

    def rank(self) -> int:
        a1, a2, a3, a4 = self._n
        if a1 * a4 != a2 * a3:
            return 2
        return 1 if a1 or a2 or a3 or a4 else 0

    def norm_sq(self) -> Rational:
        a1, a2, a3, a4 = self._n
        d = self._d
        return _Q(a1 * a1 + a2 * a2 + a3 * a3 + a4 * a4, d * d)

    # predicates -----------------------------------------------------------
    def is_zero(self) -> bool:
        a1, a2, a3, a4 = self._n
        return not (a1 or a2 or a3 or a4)

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return self._d == other._d and self._n == other._n

    def __hash__(self):
        return hash((self._n, self._d))

    def __repr__(self):
        return f"Mat2({', '.join(format_rational(x) for x in self.entries)})"

    def __str__(self):
        return format_mat2(self)


ZERO = Mat2(0, 0, 0, 0)
IDENTITY = Mat2(1, 0, 0, 1)


def inner(x: Mat2, y: Mat2) -> Rational:
    """Coordinate inner product; equals tr(transpose(x) @ y)."""
    a1, a2, a3, a4 = x._n
    b1, b2, b3, b4 = y._n
    return _Q(a1 * b1 + a2 * b2 + a3 * b3 + a4 * b4, x._d * y._d)


def det_polar(x: Mat2, y: Mat2) -> Rational:
    """Polarization det(x+y) - det(x) - det(y) of the determinant form."""
    a1, a2, a3, a4 = x._n
    b1, b2, b3, b4 = y._n
    return _Q(a1 * b4 + b1 * a4 - a2 * b3 - b2 * a3, x._d * y._d)


def inverse_mat(a: Mat2) -> Mat2:
    """Group inverse (adjugate over determinant); exact."""
    a1, a2, a3, a4 = a._n
    det = a1 * a4 - a2 * a3  # det(a) * d^2, so inverse = adj(content) * d / det
    if det == 0:
        raise SingularMatrixError("matrix is singular; use semigroup inverses")
    d = a._d if det > 0 else -a._d
    return _canon(a4 * d, -a2 * d, -a3 * d, a1 * d, abs(det))


def outer(col, row) -> Mat2:
    """Rank <= 1 product col . row^T of two 2-vectors."""
    c1, c2 = col
    r1, r2 = row
    c1, e1 = _parts(c1)
    c2, e2 = _parts(c2)
    r1, f1 = _parts(r1)
    r2, f2 = _parts(r2)
    # col = (c1 e2', c2 e1') / lcm(e1, e2) with e1' = e1 / gcd(e1, e2); row alike
    g = gcd(e1, e2)
    c1, c2, e = c1 * (e2 // g), c2 * (e1 // g), e1 // g * e2
    g = gcd(f1, f2)
    r1, r2, f = r1 * (f2 // g), r2 * (f1 // g), f1 // g * f2
    return _canon(c1 * r1, c1 * r2, c2 * r1, c2 * r2, e * f)


def primitive_direction(a: Mat2) -> Mat2:
    """Integer-entry multiple of `a` with gcd 1, first nonzero entry positive."""
    if a.is_zero():
        raise ValueError("zero matrix has no direction")
    g = gcd(*a._n)
    ints = [v // g for v in a._n]
    if next(v for v in ints if v) < 0:
        ints = [-v for v in ints]
    return _raw(tuple(ints), 1)


def proportional(a: Mat2, b: Mat2) -> bool:
    """True when a and b span the same line through the origin (both nonzero)."""
    if a.is_zero() or b.is_zero():
        return False
    # the denominators scale both sides of each 2x2 minor alike
    an, bn = a._n, b._n
    for i in range(4):
        for j in range(i + 1, 4):
            if an[i] * bn[j] != an[j] * bn[i]:
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
