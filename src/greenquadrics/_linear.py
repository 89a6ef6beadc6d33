"""Exact elimination for the small rational systems used by the order/meet
solvers and the quadric reducers.

Both solvers work fraction-free: each input row is cleared of
denominators by the lcm of its entries, and elimination then runs on
Python ints, dividing every new row by the gcd of its entries (its
content) so the integers stay small.  Only `int` and `Fraction` inputs are
accepted; a float, a string or a `Decimal` raises `TypeError`.
"""

from __future__ import annotations

from math import gcd, lcm

from greenquadrics.exact import Rational, _as_rational, _from_ints

_ZERO = Rational(0)


def integer_row(values) -> list[int]:
    """`values` times the lcm of their denominators: a row of ints."""
    xs = [_as_rational(v) for v in values]
    den = lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs]


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return row if g <= 1 else [v // g for v in row]


def solve_linear(rows, rhs):
    """One exact solution of A x = b, or None when inconsistent.

    `rows` is a list of m coefficient lists (length n), `rhs` a list of m
    values; free variables are set to zero.

    Gauss-Jordan elimination on the integer augmented rows: the pivot of
    column c is the first remaining row with a nonzero entry there, and
    every other row with a nonzero entry in column c is replaced by
    `p * row - row[c] * pivot_row` (p the pivot), then divided by its
    content.  Each integer row stays a nonzero multiple of the row that
    rational Gauss-Jordan would hold, so pivots and solution are the same
    and a pivot row i of column c gives x[c] = row_i[n] / row_i[c].
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    M = [_primitive(integer_row([*row, rhs[i]])) for i, row in enumerate(rows)]
    piv_cols: list[int] = []
    r = 0
    for c in range(n):
        pivot_row = next((i for i in range(r, m) if M[i][c]), None)
        if pivot_row is None:
            continue
        M[r], M[pivot_row] = M[pivot_row], M[r]
        pr = M[r]
        pv = pr[c]
        for i in range(m):
            f = M[i][c]
            if i != r and f:
                M[i] = _primitive([pv * vi - f * vr for vi, vr in zip(M[i], pr)])
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    if any(M[i][n] for i in range(r, m)):
        return None
    x = [_ZERO] * n
    for i, c in enumerate(piv_cols):
        x[c] = _from_ints(M[i][n], M[i][c])
    return x
