"""Exact Gauss-Jordan elimination for the small rational systems used by the
order/meet solvers and the quadric reducers."""

from __future__ import annotations

from greenquadrics.exact import Rational

_ZERO = Rational(0)


def solve_linear(rows, rhs):
    """One exact solution of A x = b, or None when inconsistent.

    `rows` is a list of m coefficient lists (length n), `rhs` a list of m
    values; free variables are set to zero.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    M = [[Rational(v) for v in row] + [Rational(rhs[i])] for i, row in enumerate(rows)]
    piv_cols: list[int] = []
    r = 0
    for c in range(n):
        pivot_row = next((i for i in range(r, m) if M[i][c] != 0), None)
        if pivot_row is None:
            continue
        M[r], M[pivot_row] = M[pivot_row], M[r]
        pv = M[r][c]
        M[r] = [v / pv for v in M[r]]
        for i in range(m):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [vi - f * vr for vi, vr in zip(M[i], M[r])]
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    if any(M[i][n] != 0 for i in range(r, m)):
        return None
    x = [_ZERO] * n
    for i, c in enumerate(piv_cols):
        x[c] = M[i][n]
    return x

