"""Exact 2x2 matrices over the rationals.

A `Mat2` is immutable, entries row-major (x1, x2, x3, x4) for
[[x1, x2], [x3, x4]], and doubles as the point (x1, x2, x3, x4) of 4-space
under the row-major identification.  `a @ b` is the ordinary matrix product
and every set-level formula in the package reads products that way.

Storage is integer content over one common denominator: a 4-tuple of
Python ints `_n` and one int `_d > 0` with the matrix equal to `_n / _d`.
Every result is in lowest terms, `gcd(*_n, _d) == 1` (the zero matrix is
`(0, 0, 0, 0) / 1`), so equal matrices have equal fields: equality and
hashing are tuple operations.  A sum of products is reduced by one 5-way
gcd (`_canon`).  A result whose factors are known is reduced by gcds of
those factors before they are multiplied (Henrici's rule): `inverse_mat`
and `det` here, the chart points of `semigroup`.  Each such gcd runs on
numbers half the size of the product's.  Arithmetic, `det`, `rank` and
the other maps are written out on the ints, and the polar form of det once
(`_polar`, which `det_polar`, `semigroup.minus_le` and
`sections.quadric_on_chart` read), and each comparison of det x, tr x,
<x, m> and tr(a x) with a rational num / den once, cross-multiplied on the
content (`_det_is`, `_trace_is`, `_inner_is`, `_trace_of_product_is`).
`Fraction`s are built only at the accessors (`entries`, `x1`..`x4`) and
for the rational scalars a map returns.  Entries and scalars are `int` or
`Fraction`, read through `exact._parts` (a plain `Fraction` from its two
slots); anything else (a float, a string, a `Decimal`) raises `TypeError`.
"""

from __future__ import annotations

from math import gcd, lcm

from greenquadrics.errors import LiteralParseError, SingularMatrixError
from greenquadrics.exact import Rational, format_rational, parse_rational
from greenquadrics.exact import _from_ints as _Q
from greenquadrics.exact import _from_lowest
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
        (p1, q1), (p2, q2), (p3, q3), (p4, q4) = _parts(x1), _parts(x2), _parts(x3), _parts(x4)
        d = lcm(q1, q2, q3, q4)
        # each entry is in lowest terms, so content over the lcm has gcd 1
        self._n = (p1 * (d // q1), p2 * (d // q2), p3 * (d // q3), p4 * (d // q4))
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
        # gcd(num, d^2) = g h with g = gcd(num, d) and h = gcd(num / g, d),
        # which divides g: two gcds with d, none with d^2
        a1, a2, a3, a4 = self._n
        d = self._d
        num = a1 * a4 - a2 * a3
        g = gcd(num, d)
        if g == 1:
            return _from_lowest(num, d * d)
        num //= g
        h = gcd(num, g)
        return _from_lowest(num // h, d // g * (d // h))

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


def _polar(x: tuple, y: tuple) -> int:
    """det(x + y) - det x - det y of two integer 4-tuples: the polar form on content."""
    x1, x2, x3, x4 = x
    y1, y2, y3, y4 = y
    return x1 * y4 + y1 * x4 - x2 * y3 - y2 * x3


def _det_is(x: Mat2, num: int, den: int) -> bool:
    """det x == num / den: (X1 X4 - X2 X3) den == num dx^2."""
    n1, n2, n3, n4 = x._n
    return (n1 * n4 - n2 * n3) * den == num * x._d * x._d


def _trace_is(x: Mat2, num: int, den: int) -> bool:
    """tr x == num / den: (X1 + X4) den == num dx."""
    return (x._n[0] + x._n[3]) * den == num * x._d


def _inner_is(x: Mat2, m: Mat2, num: int, den: int) -> bool:
    """<x, m> == num / den for m = M / dm: (X . M) den == num dx dm."""
    x1, x2, x3, x4 = x._n
    m1, m2, m3, m4 = m._n
    return (x1 * m1 + x2 * m2 + x3 * m3 + x4 * m4) * den == num * x._d * m._d


def _trace_of_product_is(a: Mat2, x: Mat2, num: int, den: int) -> bool:
    """tr(a x) == num / den for a = A / da: (A1 X1 + A2 X3 + A3 X2 + A4 X4) den == num da dx."""
    a1, a2, a3, a4 = a._n
    x1, x2, x3, x4 = x._n
    return (a1 * x1 + a2 * x3 + a3 * x2 + a4 * x4) * den == num * a._d * x._d


def det_polar(x: Mat2, y: Mat2) -> Rational:
    """Polarization det(x+y) - det(x) - det(y) of the determinant form."""
    return _Q(_polar(x._n, y._n), x._d * y._d)


def inverse_mat(a: Mat2) -> Mat2:
    """Group inverse (adjugate over determinant); exact.

    With a = c A / d for the content c = gcd(a1..a4) and g = gcd(d, det A),
    the inverse is adj(A) (d / g) / (c det A / g), already in lowest terms:
    adj(A) is primitive, gcd(c, d) = 1 and d / g is prime to det A / g.
    """
    a1, a2, a3, a4 = a._n
    c = gcd(a1, a2, a3, a4) or 1  # the zero matrix goes on to det == 0
    if c != 1:
        a1, a2, a3, a4 = a1 // c, a2 // c, a3 // c, a4 // c
    det = a1 * a4 - a2 * a3
    if det == 0:
        raise SingularMatrixError("matrix is singular; use semigroup inverses")
    d = a._d
    g = gcd(d, det)
    if g != 1:
        d, det = d // g, det // g
    if det < 0:
        d, det = -d, -det
    return _raw((a4 * d, -a2 * d, -a3 * d, a1 * d), c * det)


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
