"""The integer clearing the quadric classifier shares: `integer_row`.

Integer entries go through unchanged; only `Fraction` entries are
cleared.  Only `int` and `Fraction` inputs are accepted; a float, a string
or a `Decimal` raises `TypeError`.
"""

from __future__ import annotations

from math import lcm

from greenquadrics.exact import _parts


def integer_row(values) -> list[int]:
    """`values` times the lcm of their denominators: a row of ints.

    An `int` entry has denominator 1, so a row of ints comes back as is.
    """
    parts = [_parts(v) for v in values]
    den = lcm(*(q for _, q in parts))
    return [p * (den // q) for p, q in parts]
