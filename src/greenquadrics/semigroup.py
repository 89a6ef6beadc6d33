"""Semigroup structure of 2x2 matrices: idempotents, nilpotents, inverse
elements and their exact parametrization, the generating lines of the
idempotent surface, and the natural partial order.

The inverse set of a rank-1 matrix is charted bilinearly: fixing a rank
factorization a = c . r^T, the inverses are exactly the products
(d0 + s d1)(q0 + t q1)^T with r.d0 = q0.c = 1 and r.d1 = q1.c = 0, one per
parameter pair (s, t).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from greenquadrics._linear import solve_linear
from greenquadrics.errors import (
    DegeneratePairingError,
    NotRankOneError,
    NotRankOneIdempotentError,
    SingularMatrixError,
)
from greenquadrics.exact import Rational
from greenquadrics.green import ProjLine, colspace
from greenquadrics.mat2 import (
    IDENTITY,
    Mat2,
    format_mat2,
    inverse_mat,
    outer,
    primitive_direction,
    proportional,
)
from greenquadrics.sampling import rand_idempotent_rank1, rand_rank1, rng_for

__all__ = [
    "is_idempotent",
    "is_nilpotent",
    "is_inverse_pair",
    "inverse_membership",
    "pinv_rank1",
    "rank1_factor",
    "InverseChart",
    "inverse_chart",
    "chart_eval",
    "GeneratorLine",
    "generator_line",
    "line_meet",
    "idempotent_from_spaces",
    "natural_le",
    "minus_le",
    "OrderSectionReport",
    "order_section_report",
]

_R1 = Rational(1)


def is_idempotent(x: Mat2) -> bool:
    return x @ x == x


def is_nilpotent(x: Mat2) -> bool:
    return (x @ x).is_zero()


def is_inverse_pair(a: Mat2, x: Mat2) -> bool:
    """Semigroup inverses: a x a = a and x a x = x."""
    ax = a @ x
    return ax @ a == a and x @ ax == x


def inverse_membership(a: Mat2, x: Mat2) -> bool:
    """Section test tr(a x) = 1 and det(x) = 0 for rank-1 `a`.

    Equivalent to `is_inverse_pair(a, x)`; the equivalence is a tested
    theorem, not assumed here.
    """
    if a.rank() != 1:
        raise NotRankOneError("inverse-set membership is for rank-1 matrices")
    return (a @ x).trace() == 1 and x.det() == 0


def pinv_rank1(a: Mat2) -> Mat2:
    """The particular inverse a^T / <a, a> of a rank-1 matrix."""
    if a.rank() != 1:
        raise NotRankOneError("particular inverse defined for rank 1 only")
    return a.transpose() / a.norm_sq()


def rank1_factor(a: Mat2) -> tuple[tuple[Rational, Rational], tuple[Rational, Rational]]:
    """Vectors (c, r) with a = c . r^T, for rank-1 `a`."""
    x1, x2, x3, x4 = a.entries
    if x1 or x3:
        c = (x1, x3)
        mu = x2 / x1 if x1 else x4 / x3
        r = (_R1, mu)
    else:
        c = (x2, x4)
        r = (Rational(0), _R1)
    return c, r


def _perp(vec) -> tuple[Rational, Rational]:
    line = ProjLine(vec[0], vec[1]).perp()
    return (Rational(line.direction[0]), Rational(line.direction[1]))


@dataclass(frozen=True)
class InverseChart:
    """Bilinear chart (s, t) -> (d0 + s d1)(q0 + t q1)^T of the inverses of `a`."""

    a: Mat2
    d0: tuple[Rational, Rational]
    d1: tuple[Rational, Rational]
    q0: tuple[Rational, Rational]
    q1: tuple[Rational, Rational]


def inverse_chart(a: Mat2) -> InverseChart:
    if a.rank() != 1:
        raise NotRankOneError("inverse charts exist for rank-1 matrices only")
    c, r = rank1_factor(a)
    rdot = r[0] * r[0] + r[1] * r[1]
    cdot = c[0] * c[0] + c[1] * c[1]
    return InverseChart(
        a=a,
        d0=(r[0] / rdot, r[1] / rdot),
        d1=_perp(r),
        q0=(c[0] / cdot, c[1] / cdot),
        q1=_perp(c),
    )


def chart_eval(chart: InverseChart, s, t) -> Mat2:
    """The inverse (d0 + s d1)(q0 + t q1)^T at chart parameters (s, t)."""
    d = (chart.d0[0] + s * chart.d1[0], chart.d0[1] + s * chart.d1[1])
    q = (chart.q0[0] + t * chart.q1[0], chart.q0[1] + t * chart.q1[1])
    return outer(d, q)


@dataclass(frozen=True)
class GeneratorLine:
    """A line base + t . direction of rank-1 idempotents on the idempotent
    surface; family L1 stays inside the L-class of the base, L2 inside the
    R-class."""

    base: Mat2
    direction: Mat2
    family: str  # "L1" | "L2"

    def point(self, t) -> Mat2:
        return self.base + self.direction * t


_ELEMENTARY = (Mat2(1, 0, 0, 0), Mat2(0, 1, 0, 0), Mat2(0, 0, 1, 0), Mat2(0, 0, 0, 1))


def generator_line(family: str, e: Mat2) -> GeneratorLine:
    """Generating line of the idempotent surface through the idempotent `e`.

    L1 direction spans (I - e) M e, L2 direction spans e M (I - e); both
    spaces are one-dimensional for rank-1 idempotent e, and every point of
    the line is again a rank-1 idempotent.
    """
    family = family.upper()
    if family not in ("L1", "L2"):
        raise ValueError("family must be 'L1' or 'L2'")
    if e.rank() != 1 or not is_idempotent(e):
        raise NotRankOneIdempotentError("base must be a rank-1 idempotent")
    comp = IDENTITY - e
    for m in _ELEMENTARY:
        d = (comp @ m @ e) if family == "L1" else (e @ m @ comp)
        if not d.is_zero():
            return GeneratorLine(e, primitive_direction(d), family)
    raise AssertionError("generator direction space was zero")


def line_meet(g1: GeneratorLine, g2: GeneratorLine) -> Mat2 | None:
    """Unique common point of two generator lines, or None.

    Coincident lines also return None: they have no unique meet.
    """
    if proportional(g1.direction, g2.direction):
        return None
    diff = g2.base - g1.base
    rows = [[g1.direction.entries[i], -g2.direction.entries[i]] for i in range(4)]
    sol = solve_linear(rows, list(diff.entries))
    if sol is None:
        return None
    return g1.point(sol[0])


def idempotent_from_spaces(col: ProjLine, row: ProjLine) -> Mat2:
    """The unique idempotent with the given column and row spaces.

    Raises DegeneratePairingError when the pairing row . col vanishes: that
    H-class contains no idempotent.
    """
    u = col.direction
    v = row.direction
    pairing = u[0] * v[0] + u[1] * v[1]
    if pairing == 0:
        raise DegeneratePairingError("orthogonal column/row pairing")
    return outer(u, v) / pairing


def natural_le(x: Mat2, y: Mat2) -> bool:
    """Natural partial order: x = f y for an idempotent f whose column space
    is that of x, with the column space of x inside that of y.

    Coincides with the minus order rank(y - x) = rank(y) - rank(x); the
    agreement is property-tested, the implementation is an exact solve.
    """
    if x == y:
        return True
    if x.is_zero():
        return True
    if x.rank() == 2:
        return False
    ry = y.rank()
    if ry == 0:
        return False
    if ry == 1 and colspace(x) != colspace(y):
        return False
    c, r = rank1_factor(x)
    # f = c w^T is idempotent iff w.c = 1, and f y = x reduces to y^T w = r
    yt = y.transpose()
    rows = [
        [yt.x1, yt.x2],
        [yt.x3, yt.x4],
        [c[0], c[1]],
    ]
    return solve_linear(rows, [r[0], r[1], _R1]) is not None


def minus_le(x: Mat2, y: Mat2) -> bool:
    """Minus order: rank(y - x) = rank(y) - rank(x)."""
    return (y - x).rank() == y.rank() - x.rank()


@dataclass
class OrderSectionReport:
    """Per-trial agreement between the natural order below a nonsingular `a`
    and membership in the two trace-1 sections (of a and of its inverse)."""

    a: Mat2
    trials: int
    seed: int
    agree_le_vs_inv_section: int = 0
    agree_le_vs_section: int = 0
    counterexamples: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "a": format_mat2(self.a),
            "trials": self.trials,
            "seed": self.seed,
            "agree_le_vs_inv_section": self.agree_le_vs_inv_section,
            "agree_le_vs_section": self.agree_le_vs_section,
            "counterexamples": self.counterexamples,
        }

    def to_text(self) -> str:
        lines = [
            f"order/section agreement below a = {format_mat2(self.a)} "
            f"({self.trials} trials, seed {self.seed})",
            f"  x <= a  vs  x in SP(inv(a);1): {self.agree_le_vs_inv_section}/{self.trials}",
            f"  x <= a  vs  x in SP(a;1):      {self.agree_le_vs_section}/{self.trials}",
        ]
        if self.counterexamples:
            lines.append(f"  counterexamples (<= {len(self.counterexamples)} shown):")
            for cex in self.counterexamples:
                lines.append(f"    {cex}")
        else:
            lines.append("  no counterexamples to the inverse-section identity")
        return "\n".join(lines)


def order_section_report(a: Mat2, trials: int, seed: int) -> OrderSectionReport:
    """Sample nonzero singular x and tabulate natural_le(x, a) against the
    memberships x in SP(a;1) and x in SP(inv(a);1).

    Trials are stratified: unconstrained rank-1 draws, points of SP(a;1)
    (inv(a) times an idempotent) and points of SP(inv(a);1) (a times an
    idempotent), so both section columns are exercised.
    """
    if a.det() == 0:
        raise SingularMatrixError("order/section report needs a nonsingular a")
    ainv = inverse_mat(a)
    report = OrderSectionReport(a=a, trials=trials, seed=seed)
    for i in range(trials):
        rng = rng_for(seed, i)
        stratum = i % 3
        if stratum == 0:
            x = rand_rank1(rng)
        elif stratum == 1:
            x = ainv @ rand_idempotent_rank1(rng)
        else:
            x = a @ rand_idempotent_rank1(rng)
        le = natural_le(x, a)
        in_section = (a @ x).trace() == 1 and x.det() == 0
        in_inv_section = (ainv @ x).trace() == 1 and x.det() == 0
        if le == in_inv_section:
            report.agree_le_vs_inv_section += 1
        elif len(report.counterexamples) < 10:
            report.counterexamples.append(
                {
                    "x": format_mat2(x),
                    "natural_le": le,
                    "in_section": in_section,
                    "in_inv_section": in_inv_section,
                }
            )
        if le == in_section:
            report.agree_le_vs_section += 1
    return report
