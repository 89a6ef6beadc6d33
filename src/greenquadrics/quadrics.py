"""Exact affine classification of quadrics in 3 variables.

A quadric is the zero set of t^T Q t + b^T t + c with symmetric rational Q.
Both `inertia` and `classify_content` run one fraction-free (Bareiss)
congruence elimination on integers (`_eliminate`, with rank-2 repair when
only off-diagonal pivots exist).  `inertia` eliminates Q itself.
`classify_content` eliminates the bordered matrix [[2Q, b], [b^T, 2c]] of
a quadric's integer content, taking pivots from the Q block only: the Q
pass gives the inertia of Q, a nonzero border entry left against the zero
rest of Q marks a non-central quadric (no centre solves Q t = -b/2), and
otherwise the last diagonal entry has the sign of the value at the centre.
`classify_quadric` clears (Q, b, c) to that content, and
`sections.classify_affine_quadric` passes the content it stores.  No
linear solve, no `Fraction` and no approximate comparison anywhere.
Inputs of `inertia` and `classify_quadric` are `int` or `Fraction`, those
of `classify_content` are `int`; a float, a string or a `Decimal` raises
`TypeError`.
"""

from __future__ import annotations

from enum import Enum

from greenquadrics._linear import integer_row
from greenquadrics.errors import NotAQuadricError

__all__ = ["QuadricClass", "inertia", "classify_quadric", "classify_content"]


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


def _eliminate(work: list[list[int]], n: int) -> tuple[int, int, list[int]]:
    """Congruence-diagonalize the leading n x n block of the symmetric
    integer matrix `work` in place: (n_plus, n_minus, indices left).

    Nonzero diagonal entries of the block serve as pivots; when only
    off-diagonal entries remain, adding one row/column into another (a
    congruence) manufactures the pivot 2*work[i][j].  Rows and columns past
    n (a border) are carried along but never pivot.  The indices left are
    those of the block whose entries inside it all vanish.

    Each step is Bareiss's fraction-free one: pivot d replaces the
    remaining matrix W by (|d| W - sign(d) w w^T) / p, with w the pivot's
    column and p the previous pivot's absolute value (1 at first).  By
    induction W is |D| times the rational Schur complement, D the
    determinant of the pivots' block, so its entries are minors of the
    (repaired) input and the division is exact; and every pivot and sign
    is the one rational elimination would see.
    """
    active = list(range(len(work)))
    block = active[:n]
    n_pos = n_neg = 0
    p = 1
    while block:
        k = next((i for i in block if work[i][i]), None)
        if k is None:
            pair = next(
                ((i, j) for bi, i in enumerate(block) for j in block[bi + 1 :] if work[i][j]),
                None,
            )
            if pair is None:
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
        block.remove(k)
        s = 1 if d > 0 else -1
        d *= s
        wk = work[k]
        for a, i in enumerate(active):
            wi, f = work[i], s * wk[i]
            for t in active[a:]:
                wi[t] = work[t][i] = (d * wi[t] - f * wk[t]) // p
        p = d
    return n_pos, n_neg, block


def _symmetric(flat: list[int], n: int) -> list[list[int]]:
    """The n x n rows of `flat`; `ValueError` unless they are symmetric."""
    work = [flat[i * n : i * n + n] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if work[i][j] != work[j][i]:
                raise ValueError("a quadratic form needs a symmetric matrix")
    return work


def inertia(Q) -> tuple[int, int, int]:
    """Sylvester inertia (n_plus, n_minus, n_zero) of a symmetric matrix.

    Q is scaled by the lcm of all its denominators (a positive factor,
    which keeps the inertia) and eliminated on integers by `_eliminate`;
    the rows that vanish are the zero part.
    """
    n = len(Q)
    work = _symmetric(integer_row([Q[i][j] for i in range(n) for j in range(n)]), n)
    n_pos, n_neg, rest = _eliminate(work, n)
    return n_pos, n_neg, len(rest)


def classify_quadric(Q, b, c) -> QuadricClass:
    """Affine class of {t : t^T Q t + b^T t + c = 0} in 3-space.

    The polynomial is cleared to integers by the lcm of its denominators
    and classified from that content (`classify_content`).  A
    non-symmetric Q raises `ValueError`; the identically zero polynomial is
    rejected.
    """
    flat = integer_row([*(Q[i][j] for i in range(3) for j in range(3)), *b, c])
    q = _symmetric(flat[:9], 3)
    return classify_content(
        flat[12],
        flat[9:12],
        (q[0][0], q[1][1], q[2][2], 2 * q[0][1], 2 * q[0][2], 2 * q[1][2]),
    )


def classify_content(c: int, b, s) -> QuadricClass:
    """Affine class of the quadric whose polynomial, times a positive
    integer, has the integer content c, b = (b1, b2, b3) and
    s = (Q11, Q22, Q33, 2 Q12, 2 Q13, 2 Q23).

    The bordered matrix [[2Q, b], [b^T, 2c]] of that content is eliminated
    with pivots from the Q block only, which gives the inertia of Q.
    Q t = -b/2 has a solution exactly when no border entry survives
    against the rows of the block that vanished; then the last diagonal
    entry is a positive multiple of twice the value at the centre,
    c + b^T t / 2.  Without a centre the quadric is a paraboloid, a
    parabolic cylinder or a plane, decided by the rank of Q.  Every entry
    must be an `int` (`TypeError` otherwise).
    """
    b1, b2, b3 = b
    s11, s22, s33, s12, s13, s23 = s
    if not all(type(v) is int for v in (c, b1, b2, b3, s11, s22, s33, s12, s13, s23)):
        raise TypeError("classify_content takes the integer content of a quadric")
    work = [
        [2 * s11, s12, s13, b1],
        [s12, 2 * s22, s23, b2],
        [s13, s23, 2 * s33, b3],
        [b1, b2, b3, 2 * c],
    ]
    n_pos, n_neg, rest = _eliminate(work, 3)
    if any(work[i][3] for i in rest):
        rank = n_pos + n_neg
        if rank == 2:
            if (n_pos, n_neg) == (1, 1):
                return QuadricClass.HYPERBOLIC_PARABOLOID
            return QuadricClass.ELLIPTIC_PARABOLOID
        if rank == 1:
            return QuadricClass.PARABOLIC_CYLINDER
        return QuadricClass.SINGLE_PLANE
    k = work[3][3]
    if n_neg > n_pos:
        n_pos, n_neg, k = n_neg, n_pos, -k
    sk = (k > 0) - (k < 0)
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
