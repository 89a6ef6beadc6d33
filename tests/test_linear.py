"""`solve_linear` against an independent rational reference.

The reference is textbook Gauss-Jordan on `Fraction`s to reduced row
echelon form.  The reduced form of a matrix is unique, so the solution
with every free variable at zero is unique too, and the fraction-free
solver must return exactly it.
"""

import random
from decimal import Decimal
from fractions import Fraction

import pytest

from greenquadrics._linear import solve_linear


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


def _rat(rng):
    if rng.random() < 0.2:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def random_system(rng):
    """2-4 rows over 2-3 columns; some rows are combinations of earlier ones,
    with the combined right-hand side (consistent) or a shifted one."""
    m, n = rng.randint(2, 4), rng.randint(2, 3)
    rows, rhs = [], []
    for k in range(m):
        if k >= 1 and rng.random() < 0.4:
            s, t = _rat(rng), _rat(rng)
            i, j = rng.randrange(k), rng.randrange(k)
            rows.append([s * a + t * b for a, b in zip(rows[i], rows[j])])
            shift = Fraction(0) if rng.random() < 0.7 else Fraction(rng.randint(1, 5))
            rhs.append(s * rhs[i] + t * rhs[j] + shift)
        else:
            rows.append([_rat(rng) for _ in range(n)])
            rhs.append(_rat(rng))
    return rows, rhs


@pytest.mark.parametrize("seed", range(5))
def test_agrees_with_reference(seed):
    rng = random.Random(f"linear:{seed}")
    solved = unsolvable = 0
    for _ in range(300):
        rows, rhs = random_system(rng)
        got = solve_linear(rows, rhs)
        assert got == reference_solve(rows, rhs), (rows, rhs)
        if got is None:
            unsolvable += 1
            continue
        solved += 1
        assert all(type(v) is Fraction for v in got)
        for row, b in zip(rows, rhs):
            assert sum(a * v for a, v in zip(row, got)) == b
    # both outcomes occur, so neither branch passes vacuously
    assert solved > 50 and unsolvable > 5


def test_integer_inputs():
    assert solve_linear([[2, 1], [1, 3]], [3, 5]) == [Fraction(4, 5), Fraction(7, 5)]


def test_inconsistent_is_none():
    assert solve_linear([[1, 1], [2, 2]], [1, 3]) is None
    assert solve_linear([[0, 0], [1, 0]], [1, 0]) is None


def test_free_variables_are_zero():
    assert solve_linear([[0, 1, 1]], [3]) == [0, 3, 0]
    assert solve_linear([[1, 2], [2, 4]], [Fraction(1, 2), 1]) == [Fraction(1, 2), 0]
    assert solve_linear([[0, 0], [0, 0]], [0, 0]) == [0, 0]


def test_empty_system():
    assert solve_linear([], []) == []


@pytest.mark.parametrize("bad", [0.1, "1/3", Decimal("0.5")], ids=repr)
@pytest.mark.parametrize("where", ["row", "rhs"])
def test_rejects_inexact_inputs(where, bad):
    rows, rhs = [[1, 0], [0, 1]], [1, 1]
    if where == "row":
        rows[1][0] = bad
    else:
        rhs[0] = bad
    with pytest.raises(TypeError):
        solve_linear(rows, rhs)
