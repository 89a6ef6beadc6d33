"""Exact scalars: arbitrary-precision rationals and the field Q(sqrt 2).

`Rational` is `fractions.Fraction`, always canonical (gcd 1, positive
denominator).  `QuadExt` is a + b*sqrt2 with rational a, b, the smallest
field containing every orthonormal-frame coordinate of a rational matrix.
Exact values are built from `int` and `Fraction` only; a float, a string or
a `Decimal` is a `TypeError`, never a silent conversion.

Floats appear only in `to_float`, which exporters use; nothing here or in
the layers above decides anything with floating point.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, isqrt

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


def _from_ints(num: int, den: int) -> Rational:
    """`num / den` as a canonical `Rational`, for ints with den != 0.

    One gcd and a direct fill of `Fraction`'s two slots (`_numerator`,
    `_denominator`, unchanged since Python 3.10): this skips the type
    dispatch of `Fraction(num, den)`, about two thirds of its cost, on the
    path every `Mat2` scalar and accessor takes.  `tests/test_exact.py`
    checks it against `Fraction(num, den)`.
    """
    g = gcd(num, den)
    if den < 0:
        g = -g
    r = object.__new__(Fraction)
    r._numerator = num // g
    r._denominator = den // g
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
    """Element a + b*sqrt2 of Q(sqrt 2); zero iff both parts are zero."""

    __slots__ = ("_a", "_b")

    def __init__(self, rat_part=0, root2_part=0):
        self._a = _as_rational(rat_part)
        self._b = _as_rational(root2_part)

    @property
    def rat_part(self) -> Rational:
        return self._a

    @property
    def root2_part(self) -> Rational:
        return self._b

    @staticmethod
    def _coerce(x) -> "QuadExt | None":
        if isinstance(x, QuadExt):
            return x
        if isinstance(x, (int, Rational)):
            return QuadExt(Rational(x), _ZERO)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self._a + o._a, self._b + o._b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self._a - o._a, self._b - o._b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (a + b r)(c + d r) = ac + 2bd + (ad + bc) r  with r^2 = 2
        a, b, c, d = self._a, self._b, o._a, o._b
        return QuadExt(a * c + 2 * b * d, a * d + b * c)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        # 1/(a + b r) = (a - b r)/(a^2 - 2 b^2); the norm vanishes only at 0
        a, b = self._a, self._b
        norm = a * a - 2 * b * b
        if norm == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt2)")
        return QuadExt(a / norm, -b / norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __neg__(self):
        return QuadExt(-self._a, -self._b)

    def conjugate(self) -> "QuadExt":
        return QuadExt(self._a, -self._b)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._a == o._a and self._b == o._b

    def __hash__(self):
        if self._b == 0:
            return hash(self._a)
        return hash((self._a, self._b))

    def __bool__(self):
        return bool(self._a) or bool(self._b)

    def sign(self) -> int:
        """Exact sign: compares a^2 with 2 b^2 when the parts disagree."""
        sa, sb = rational_sign(self._a), rational_sign(self._b)
        if sb == 0:
            return sa
        if sa == 0:
            return sb
        if sa == sb:
            return sa
        # opposite part signs: |a| vs |b| sqrt2 decided by a^2 vs 2 b^2
        cmp = rational_sign(self._a * self._a - 2 * self._b * self._b)
        return sa * cmp if cmp != 0 else 0

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() >= 0

    def is_rational(self) -> bool:
        return self._b == 0

    def __float__(self):
        return to_float(self)

    def __str__(self):
        return format_quadext(self)

    def __repr__(self):
        return f"QuadExt({self._a!r}, {self._b!r})"


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
        if x.root2_part == 0:
            x = x.rat_part
        else:
            x = x.rat_part + x.root2_part * _SQRT2_APPROX
    try:
        if isinstance(x, (int, float)):
            return float(x)
        return x.numerator / x.denominator
    except OverflowError:
        raise RenderLimitError(
            f"value exceeds the float range (largest double {sys.float_info.max:.6g})"
        ) from None
