"""Exact affine classification of quadrics in 3 variables.

A quadric is the zero set of t^T Q t + b^T t + c with symmetric rational Q.
`classify_content` takes the polynomial's integer content (any positive
multiple of it) and runs one fraction-free (Bareiss) congruence
elimination (`_eliminate`, with rank-2 repair when only off-diagonal
pivots exist) on the bordered matrix [[2Q, b], [b^T, 2c]], taking pivots
from the Q block only: the Q pass gives the inertia of Q, a nonzero border
entry left against the zero rest of Q marks a non-central quadric (no
centre solves Q t = -b/2), and otherwise the last diagonal entry has the
sign of the value at the centre.  `sections.classify_affine_quadric`
passes the content an `AffineQuadric3` stores.  No linear solve, no
`Fraction` and no approximate comparison anywhere; every entry is an
`int`, and anything else raises `TypeError`.
"""

from __future__ import annotations

from enum import Enum

from greenquadrics.errors import NotAQuadricError

__all__ = ["QuadricClass", "classify_content"]


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


_Q = QuadricClass
# the class of a quadric by the inertia (n_pos, n_neg) of Q, n_pos >= n_neg:
# without a centre, a paraboloid, a parabolic cylinder or a plane
_NONCENTRAL = {
    (2, 0): _Q.ELLIPTIC_PARABOLOID,
    (1, 1): _Q.HYPERBOLIC_PARABOLOID,
    (1, 0): _Q.PARABOLIC_CYLINDER,
    (0, 0): _Q.SINGLE_PLANE,
}
# with a centre, by the sign of k (negative, zero, positive), k a positive
# multiple of the value at the centre; None is the zero polynomial
_CENTRAL = {
    (3, 0): (_Q.ELLIPSOID, _Q.POINT, _Q.EMPTY),
    (2, 1): (_Q.HYPERBOLOID_ONE_SHEET, _Q.CONE, _Q.HYPERBOLOID_TWO_SHEETS),
    (2, 0): (_Q.ELLIPTIC_CYLINDER, _Q.LINE, _Q.EMPTY),
    (1, 1): (_Q.HYPERBOLIC_CYLINDER, _Q.INTERSECTING_PLANES, _Q.HYPERBOLIC_CYLINDER),
    (1, 0): (_Q.PARALLEL_PLANES, _Q.COINCIDENT_PLANES, _Q.EMPTY),
    (0, 0): (_Q.EMPTY, None, _Q.EMPTY),
}


def classify_content(c: int, b, s) -> QuadricClass:
    """Affine class of the quadric whose polynomial, times a positive
    integer, has the integer content c, b = (b1, b2, b3) and
    s = (Q11, Q22, Q33, 2 Q12, 2 Q13, 2 Q23).

    The bordered matrix [[2Q, b], [b^T, 2c]] of that content is eliminated
    with pivots from the Q block only, which gives the inertia of Q.
    Q t = -b/2 has a solution exactly when no border entry survives
    against the rows of the block that vanished; then the last diagonal
    entry is a positive multiple of twice the value at the centre,
    c + b^T t / 2.  The class is read off `_NONCENTRAL` or `_CENTRAL` by
    the inertia, with its signs swapped so that n_pos >= n_neg.  Every
    entry must be an `int` (`TypeError` otherwise).
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
    k = work[3][3]
    if n_neg > n_pos:
        n_pos, n_neg, k = n_neg, n_pos, -k
    if any(work[i][3] for i in rest):
        return _NONCENTRAL[n_pos, n_neg]
    kind = _CENTRAL[n_pos, n_neg][(k > 0) - (k < 0) + 1]
    if kind is None:
        raise NotAQuadricError("identically zero polynomial")
    return kind
