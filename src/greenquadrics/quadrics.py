"""Exact affine classification of quadrics in 3 variables.

A quadric is the zero set of t^T Q t + b^T t + c with symmetric rational Q.
`inertia` computes Sylvester inertia by fraction-free congruence
diagonalization on integers (with rank-2 repair when only off-diagonal
pivots exist), and `classify_quadric` reads the affine type off the
inertia and the centered constant - no approximate comparison anywhere.
Inputs are `int` or `Fraction`; a float, a string or a `Decimal` raises
`TypeError`.
"""

from __future__ import annotations

from enum import Enum
from math import gcd

from greenquadrics._linear import integer_row, solve_linear
from greenquadrics.errors import NotAQuadricError
from greenquadrics.exact import _as_rational, rational_sign

__all__ = ["QuadricClass", "inertia", "classify_quadric"]


class QuadricClass(Enum):
    ELLIPSOID = "ellipsoid"
    HYPERBOLOID_ONE_SHEET = "hyperboloid of one sheet"
    HYPERBOLOID_TWO_SHEETS = "hyperboloid of two sheets"
    CONE = "cone"
    ELLIPTIC_PARABOLOID = "elliptic paraboloid"
    HYPERBOLIC_PARABOLOID = "hyperbolic paraboloid"
    ELLIPTIC_CYLINDER = "elliptic cylinder"
    HYPERBOLIC_CYLINDER = "hyperbolic cylinder"
    PARABOLIC_CYLINDER = "parabolic cylinder"
    INTERSECTING_PLANES = "intersecting plane pair"
    PARALLEL_PLANES = "parallel plane pair"
    COINCIDENT_PLANES = "coincident plane pair"
    SINGLE_PLANE = "single plane"
    LINE = "line"
    POINT = "point"
    EMPTY = "empty"


def inertia(Q) -> tuple[int, int, int]:
    """Sylvester inertia (n_plus, n_minus, n_zero) of a symmetric matrix.

    Congruence diagonalization: nonzero diagonal entries serve as pivots;
    when only off-diagonal entries remain, adding one row/column into
    another (a congruence) manufactures the pivot 2*Q[i][j].

    The work is fraction-free.  Q is scaled by the lcm of all its
    denominators (a positive factor, which keeps the inertia).  Eliminating
    pivot d replaces the remaining block W by |d| W - sign(d) w w^T, with w
    the pivot's column: a positive multiple of the rational Schur
    complement.  The block is then divided by the gcd of its entries.  So
    the integer block is always a positive multiple of the rational one,
    and every pivot and sign is the one rational elimination would see.
    """
    n = len(Q)
    flat = integer_row([Q[i][j] for i in range(n) for j in range(n)])
    work = [flat[i * n : i * n + n] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if work[i][j] != work[j][i]:
                raise ValueError("inertia needs a symmetric matrix")
    active = list(range(n))
    n_pos = n_neg = n_zero = 0
    while active:
        k = next((i for i in active if work[i][i]), None)
        if k is None:
            pair = next(
                (
                    (i, j)
                    for ai, i in enumerate(active)
                    for j in active[ai + 1 :]
                    if work[i][j]
                ),
                None,
            )
            if pair is None:
                n_zero += len(active)
                break
            i, j = pair
            for t in active:
                work[i][t] += work[j][t]
            for t in active:
                work[t][i] += work[t][j]
            continue
        d = work[k][k]
        if d > 0:
            n_pos += 1
        else:
            n_neg += 1
        active.remove(k)
        s = 1 if d > 0 else -1
        d *= s
        wk = work[k]
        for i in active:
            wi, f = work[i], s * wk[i]
            for t in active:
                wi[t] = d * wi[t] - f * wk[t]
        g = gcd(*(work[i][t] for i in active for t in active))
        if g > 1:
            for i in active:
                wi = work[i]
                for t in active:
                    wi[t] //= g
    return n_pos, n_neg, n_zero


def classify_quadric(Q, b, c) -> QuadricClass:
    """Affine class of {t : t^T Q t + b^T t + c = 0} in 3-space.

    Central quadrics (Q t0 = -b/2 solvable) are decided by the inertia of Q
    and the sign of the value at the center; the non-central residue is the
    paraboloid/parabolic-cylinder family, decided by rank.  The identically
    zero polynomial is rejected.
    """
    b = [_as_rational(v) for v in b]
    c = _as_rational(c)
    n_pos, n_neg, _ = inertia(Q)
    center = solve_linear([list(row) for row in Q], [-v / 2 for v in b])
    if center is None:
        rank = n_pos + n_neg
        if rank == 2:
            if (n_pos, n_neg) in ((1, 1),):
                return QuadricClass.HYPERBOLIC_PARABOLOID
            return QuadricClass.ELLIPTIC_PARABOLOID
        if rank == 1:
            return QuadricClass.PARABOLIC_CYLINDER
        return QuadricClass.SINGLE_PLANE
    k = c
    for bi, ti in zip(b, center):
        k = k + bi * ti / 2
    if n_neg > n_pos:
        n_pos, n_neg, k = n_neg, n_pos, -k
    sk = rational_sign(k)
    sig = (n_pos, n_neg)
    if sig == (3, 0):
        return (
            QuadricClass.ELLIPSOID
            if sk < 0
            else QuadricClass.POINT
            if sk == 0
            else QuadricClass.EMPTY
        )
    if sig == (2, 1):
        if sk < 0:
            return QuadricClass.HYPERBOLOID_ONE_SHEET
        if sk == 0:
            return QuadricClass.CONE
        return QuadricClass.HYPERBOLOID_TWO_SHEETS
    if sig == (2, 0):
        return (
            QuadricClass.ELLIPTIC_CYLINDER
            if sk < 0
            else QuadricClass.LINE
            if sk == 0
            else QuadricClass.EMPTY
        )
    if sig == (1, 1):
        return (
            QuadricClass.INTERSECTING_PLANES if sk == 0 else QuadricClass.HYPERBOLIC_CYLINDER
        )
    if sig == (1, 0):
        return (
            QuadricClass.PARALLEL_PLANES
            if sk < 0
            else QuadricClass.COINCIDENT_PLANES
            if sk == 0
            else QuadricClass.EMPTY
        )
    # Q = 0 and b = 0: a constant
    if sk == 0:
        raise NotAQuadricError("identically zero polynomial")
    return QuadricClass.EMPTY
