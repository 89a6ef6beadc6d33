"""Exact scalars: arbitrary-precision rationals and the field Q(sqrt 2).

`Rational` is `fractions.Fraction`, always canonical (gcd 1, positive
denominator).  `QuadExt` is a + b*sqrt2 with rational a, b, the smallest
field containing every orthonormal-frame coordinate of a rational matrix.
It is stored as integer content over one denominator, (p + q*sqrt2) / d
with ints p, q, d > 0 and gcd(p, q, d) == 1, the design `Mat2` uses: every
operation reduces its result with one 3-way gcd, equal elements have equal
fields, and `rat_part`/`root2_part` build `Fraction`s only when read.

The scalar boundary: exact values are built from `int` and `Fraction`
only; a float, a string or a `Decimal` is a `TypeError`, never a silent
conversion.  A rational scalar the package returns is exactly a
`Fraction`, and arithmetic a caller does on it is Python's (a `Fraction`
plus a float is a float).

Floats come only from `to_float`, which export and `gq --float` reach
through `_coefficients` (it refuses a nonzero value that rounds to 0.0).
`QuadExt` has no `float()` conversion and no ordering operators, and
`sign()` is its one exact comparison.  Nothing here or in the layers
above decides anything with floating point.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, isqrt, ulp

from greenquadrics.errors import LiteralParseError, RenderLimitError

__all__ = [
    "Rational",
    "QuadExt",
    "SQRT2",
    "rational_sign",
    "parse_rational",
    "format_rational",
    "parse_quadext",
    "format_quadext",
    "to_float",
]

Rational = Fraction

_ZERO = Rational(0)
_ONE = Rational(1)

# sqrt(2) to 50 digits; only to_float consumes this
_SQRT2_APPROX = Fraction(isqrt(2 * 10**100), 10**50)


def _as_rational(x) -> Rational:
    """`x` as a `Rational`; only `int` and `Fraction` are exact inputs."""
    if isinstance(x, Rational):
        return x
    if isinstance(x, int):
        return Rational(x)
    raise TypeError(f"exact arithmetic takes int or Fraction, not {type(x).__name__}")


def _parts(x) -> tuple[int, int]:
    """(numerator, denominator) of an exact scalar; same inputs as `_as_rational`."""
    if isinstance(x, int):
        return x, 1
    x = _as_rational(x)
    return x.numerator, x.denominator


def _from_ints(num: int, den: int) -> Rational:
    """`num / den` as a canonical `Rational`, for ints with den != 0.

    One gcd and a direct fill of `Fraction`'s two slots (`_numerator`,
    `_denominator`, unchanged since Python 3.10): this skips the type
    dispatch of `Fraction(num, den)`, about two thirds of its cost, on the
    path the `Mat2` accessors and sums of products take.  A scalar whose
    factors are known is instead reduced by gcds of those factors, which
    are half the size of their product, and filled by `_from_lowest`.
    `tests/test_exact.py` checks both against `Fraction(num, den)`.
    """
    g = gcd(num, den)
    if den < 0:
        g = -g
    r = object.__new__(Fraction)
    r._numerator = num // g
    r._denominator = den // g
    return r


def _from_lowest(num: int, den: int) -> Rational:
    """`num / den` as a `Rational` for ints already in lowest terms with
    den > 0: the fill of `_from_ints` without its gcd."""
    r = object.__new__(Fraction)
    r._numerator = num
    r._denominator = den
    return r


def rational_sign(x) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def _is_digits(s: str) -> bool:
    # str.isdigit alone also accepts non-ASCII digits such as '²' and '٣'
    return s.isascii() and s.isdigit()


def _to_int(digits: str, offset: int) -> int:
    try:
        return int(digits)
    except ValueError:  # longer than sys.get_int_max_str_digits()
        raise LiteralParseError(f"integer literal of {len(digits)} digits is too long", offset) from None


def parse_rational(text: str, offset: int = 0) -> Rational:
    """Parse `p` or `p/q` with an optional leading minus; q must be > 0."""
    s = text.strip()
    if not s:
        raise LiteralParseError("empty rational literal", offset)
    body = s[1:] if s[0] == "-" else s
    num_part, slash, den_part = body.partition("/")
    if not _is_digits(num_part):
        raise LiteralParseError(f"bad rational literal {s!r}", offset)
    num = _to_int(num_part, offset)
    if s[0] == "-":
        num = -num
    if not slash:
        return Rational(num, 1)
    if not _is_digits(den_part):
        raise LiteralParseError(f"bad denominator in {s!r}", offset)
    den = _to_int(den_part, offset)
    if den == 0:
        raise LiteralParseError(f"zero denominator in {s!r}", offset)
    return Rational(num, den)


def format_rational(x) -> str:
    try:
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    except ValueError:  # an integer longer than sys.get_int_max_str_digits()
        raise RenderLimitError(
            f"exact value exceeds the {sys.get_int_max_str_digits()}-digit limit "
            "for printing an integer"
        ) from None


class QuadExt:
    """Element (p + q*sqrt2) / d of Q(sqrt 2); zero iff p == q == 0.

    Stored as integer content: ints `_p`, `_q` and one `_d > 0` with
    `gcd(_p, _q, _d) == 1`, so equal elements have equal fields.
    """

    __slots__ = ("_p", "_q", "_d")

    def __init__(self, rat_part=0, root2_part=0):
        a, e = _parts(rat_part)
        b, f = _parts(root2_part)
        if e == f:
            p, q, d = a, b, e
        else:
            # both parts are in lowest terms, so content over the lcm has gcd 1
            d = e // gcd(e, f) * f
            p, q = a * (d // e), b * (d // f)
        self._p = p
        self._q = q
        self._d = d

    @property
    def rat_part(self) -> Rational:
        return _from_ints(self._p, self._d)

    @property
    def root2_part(self) -> Rational:
        return _from_ints(self._q, self._d)

    @staticmethod
    def _coerce(x) -> "QuadExt | None":
        if isinstance(x, QuadExt):
            return x
        if isinstance(x, int):
            return _raw_quadext(int(x), 0, 1)
        if isinstance(x, Rational):
            return _raw_quadext(x.numerator, 0, x.denominator)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d1, d2 = self._d, o._d
        if d1 == d2:
            return _quadext(self._p + o._p, self._q + o._q, d1)
        return _quadext(self._p * d2 + o._p * d1, self._q * d2 + o._q * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d1, d2 = self._d, o._d
        if d1 == d2:
            return _quadext(self._p - o._p, self._q - o._q, d1)
        return _quadext(self._p * d2 - o._p * d1, self._q * d2 - o._q * d1, d1 * d2)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (p + q r)(s + t r) = ps + 2qt + (pt + qs) r  with r^2 = 2
        p, q, s, t = self._p, self._q, o._p, o._q
        return _quadext(p * s + 2 * q * t, p * t + q * s, self._d * o._d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        return _divide(_raw_quadext(1, 0, 1), self)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _divide(self, o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _divide(o, self)

    def __neg__(self):
        return _raw_quadext(-self._p, -self._q, self._d)

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            return self._p == other._p and self._q == other._q and self._d == other._d
        if isinstance(other, int):
            return self._q == 0 and self._d == 1 and self._p == other
        if isinstance(other, Rational):
            return self._q == 0 and self._d == other.denominator and self._p == other.numerator
        return NotImplemented

    def __hash__(self):
        if self._q == 0:
            return hash(_from_ints(self._p, self._d))
        return hash((self._p, self._q, self._d))

    def __bool__(self):
        return bool(self._p) or bool(self._q)

    def sign(self) -> int:
        """Exact sign: compares p^2 with 2 q^2 when p and q disagree."""
        sp, sq = rational_sign(self._p), rational_sign(self._q)
        if sq == 0 or sp == sq:
            return sp
        if sp == 0:
            return sq
        # opposite signs: |p| vs |q| sqrt2 decided by p^2 vs 2 q^2, never equal
        return sp if self._p * self._p > 2 * self._q * self._q else sq

    def is_rational(self) -> bool:
        return self._q == 0

    def __str__(self):
        return format_quadext(self)

    def __repr__(self):
        return f"QuadExt({self.rat_part!r}, {self.root2_part!r})"


def _raw_quadext(p: int, q: int, d: int) -> QuadExt:
    """Wrap content that is already canonical."""
    x = object.__new__(QuadExt)
    x._p = p
    x._q = q
    x._d = d
    return x


def _quadext(p: int, q: int, d: int) -> QuadExt:
    """The element (p + q*sqrt2) / d for d > 0, reduced by one gcd."""
    g = gcd(p, q, d)
    if g == 1:
        return _raw_quadext(p, q, d)
    return _raw_quadext(p // g, q // g, d // g)


def _divide(x: QuadExt, y: QuadExt) -> QuadExt:
    """x / y as d_y (p_x + q_x r)(p_y - q_y r) / (d_x N(y)), one gcd.

    N(y) = p_y^2 - 2 q_y^2 vanishes only at y = 0, because sqrt2 is irrational.
    """
    p, q, s, t = x._p, x._q, y._p, y._q
    norm = s * s - 2 * t * t
    if norm == 0:
        raise ZeroDivisionError("division by zero in Q(sqrt2)")
    e = y._d
    if norm < 0:
        e, norm = -e, -norm
    return _quadext(e * (p * s - 2 * q * t), e * (q * s - p * t), x._d * norm)


SQRT2 = QuadExt(0, 1)


def format_quadext(x: QuadExt) -> str:
    """Canonical text form: `p`, `q*sqrt2`, `p + q*sqrt2` or `p - q*sqrt2`."""
    a, b = x.rat_part, x.root2_part
    if b == 0:
        return format_rational(a)
    root_term = f"{format_rational(abs(b))}*sqrt2"
    if a == 0:
        return root_term if b > 0 else f"-{root_term}"
    op = "+" if b > 0 else "-"
    return f"{format_rational(a)} {op} {root_term}"


def parse_quadext(text: str) -> QuadExt:
    """Inverse of `format_quadext`; also accepts bare `sqrt2` coefficients."""
    s = text.replace(" ", "")
    if not s:
        raise LiteralParseError("empty literal")

    def term_value(term: str) -> tuple[Rational, bool]:
        # returns (coefficient, is_root_term)
        if term.endswith("*sqrt2"):
            return parse_rational(term[: -len("*sqrt2")]), True
        if term in ("sqrt2", "+sqrt2"):
            return _ONE, True
        if term == "-sqrt2":
            return -_ONE, True
        return parse_rational(term), False

    # split at the last top-level +/- (signs can only open the string or a term)
    split = 0
    for i in range(len(s) - 1, 0, -1):
        if s[i] in "+-" and s[i - 1] not in "+-*/":
            split = i
            break
    terms = [s] if split == 0 else [s[:split], s[split:]]
    a = _ZERO
    b = _ZERO
    seen_root = False
    seen_rat = False
    for term in terms:
        if term.startswith("+"):
            term = term[1:]
        coeff, is_root = term_value(term)
        if is_root:
            if seen_root:
                raise LiteralParseError(f"two sqrt2 terms in {text!r}")
            seen_root = True
            b = coeff
        else:
            if seen_rat:
                raise LiteralParseError(f"two rational terms in {text!r}")
            seen_rat = True
            a = coeff
    return QuadExt(a, b)


def to_float(x) -> float:
    """Nearest double for rationals; sqrt2 terms use a 50-digit convergent."""
    if isinstance(x, QuadExt):
        if x._q == 0:
            x = x.rat_part
        else:
            x = (x._p + x._q * _SQRT2_APPROX) / x._d
    try:
        if isinstance(x, (int, float)):
            return float(x)
        return x.numerator / x.denominator
    except OverflowError:
        raise RenderLimitError(
            f"value exceeds the float range (largest double {sys.float_info.max:.6g})"
        ) from None


def _coefficients(values) -> list[float]:
    """`to_float` of each exact value; a nonzero one that rounds to 0.0 is
    an error: an exported row it enters would leave its surface, and
    `--float` output would print a nonzero value as 0.0."""
    floats = [to_float(v) for v in values]
    if any(f == 0.0 and v != 0 for f, v in zip(floats, values)):
        raise RenderLimitError(
            f"a nonzero coefficient is below the float range (smallest double {ulp(0.0):.6g})"
        )
    return floats
