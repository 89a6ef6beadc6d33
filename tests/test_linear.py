"""`integer_row`, and `reference_solve`: the independent rational solver
the tests of `line_meet`, the natural order and the quadric classifier
compare against.

The reference is textbook Gauss-Jordan on `Fraction`s to reduced row
echelon form.  The reduced form of a matrix is unique, so the solution
with every free variable at zero is unique too.
"""

from decimal import Decimal
from fractions import Fraction

import pytest

from greenquadrics._linear import integer_row


def reference_solve(rows, rhs):
    """Solution of A x = b with free variables zero, or None; plain Fractions."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    top = 0
    for col in range(n):
        best = next((i for i in range(top, m) if aug[i][col] != 0), None)
        if best is None:
            continue
        aug[top], aug[best] = aug[best], aug[top]
        lead = aug[top][col]
        aug[top] = [v / lead for v in aug[top]]
        for i in range(m):
            if i != top:
                factor = aug[i][col]
                aug[i] = [v - factor * w for v, w in zip(aug[i], aug[top])]
        pivots.append(col)
        top += 1
    if any(aug[i][n] != 0 for i in range(top, m)):
        return None
    x = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        x[col] = aug[i][n]
    return x


def test_integer_row_passes_ints_through():
    assert integer_row([3, -4, 0]) == [3, -4, 0]
    assert integer_row([3, Fraction(1, 2), Fraction(-5, 6)]) == [18, 3, -5]
    assert all(type(v) is int for v in integer_row([True, Fraction(2, 3)]))


@pytest.mark.parametrize("bad", [0.1, "1/3", Decimal("0.5")], ids=repr)
@pytest.mark.parametrize("where", ["row", "rhs"])
def test_rejects_inexact_inputs(where, bad):
    # among ints, which pass through uncleared, and among Fractions alike
    for one in (1, Fraction(1)):
        rows, rhs = [[one, 0], [0, one]], [one, one]
        if where == "row":
            rows[1][0] = bad
        else:
            rhs[0] = bad
        with pytest.raises(TypeError):
            integer_row(rows[1] + rhs)
