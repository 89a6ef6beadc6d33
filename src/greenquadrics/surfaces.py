"""Float point/segment clouds of the exact surfaces, for CSV/OBJ export.

Sampling is the only float code in the package: each point is generated
from an exact description (frame equation, inverse chart, class plane), so
the determinant residual of every emitted ambient point is at rounding
level.  Points carry frame coordinates when the ambient hyperplane is
tr(x) = lam (the orthonormal frame exists there) and chart coordinates
whenever the coefficient matrix is nonzero, which is what the OBJ writer
uses.

A sample holds no points.  `sample_surface` does the exact work (inverse,
chart, class planes, generator lines) up front; `SurfaceSample.rows()`
regenerates the float rows from `(seed, index)` on every pass, and the
writers format each row as it comes, so export memory does not grow with
the sample count for any kind, generator lines (drawn in order) included.
Every kind draws its floats through `sampling.uniform_rows`, one chunk at
a time, and keeps each row as drawn (none is redrawn): at most
`sampling._LANES` rows of floats and a few lane ints of 8 to 16 KB are
held, whatever the sample count.
"""

from __future__ import annotations

import itertools
import math
import os
import tempfile
from operator import itemgetter

from greenquadrics.errors import DomainError, UnknownKindError
from greenquadrics.exact import Rational, _as_rational, _coefficients
from greenquadrics.mat2 import IDENTITY, Mat2, inverse_mat
from greenquadrics.sampling import uniform_rows
from greenquadrics.green import class_plane
from greenquadrics.sections import chart_pivot, classify_section
from greenquadrics.semigroup import generator_line, inverse_chart

__all__ = ["SurfaceSample", "sample_surface", "write_csv", "write_obj"]

_SQRT2 = math.sqrt(2.0)


class SurfaceSample:
    """Float samples of one surface, generated on demand.

    `rows()` yields (point, frame, chart) per sample: the ambient 4-tuple,
    the frame (X, Y, Z) or None, and the chart 3-tuple or None.  `charted`
    says whether every point has a chart (decided before sampling), and
    `line_counts` holds the point count of each generator line, whose
    consecutive points `segments()` joins.
    """

    __slots__ = ("kind", "seed", "charted", "line_counts", "_rows")

    def __init__(self, kind: str, seed: int, rows, *, charted=True, line_counts=()):
        self.kind = kind
        self.seed = seed
        self.charted = charted
        self.line_counts = line_counts
        self._rows = rows

    def rows(self):
        """A fresh generator of (point, frame, chart), one per sample."""
        return self._rows()

    def segments(self):
        """(i, j) index pairs of consecutive points on each generator line."""
        first = 0
        for count in self.line_counts:
            for j in range(first + 1, first + count):
                yield j - 1, j
            first += count


def _frame_to_ambient(lam: float, X: float, Y: float, Z: float):
    return (
        lam / 2.0 + X / _SQRT2,
        (Y - Z) / _SQRT2,
        (Y + Z) / _SQRT2,
        lam / 2.0 - X / _SQRT2,
    )


def _default_z_span(lam: float) -> tuple[float, float]:
    reach = 3.0 * abs(lam) + 1.0
    return (-reach, reach)


def _chart_extractor(a: Mat2):
    """Chart coordinates in the hyperplane of `a` are the non-pivot ambient
    coordinates (the chart basis is unit vectors corrected along the pivot)."""
    pivot = chart_pivot(a)
    return itemgetter(*(i for i in range(4) if i != pivot))


def _frames(lam: float, n: int, seed: int, z_span):
    """Frame points (X, Y, Z) of the tr(x) = lam slice, X^2+Y^2-Z^2 = lam^2/2."""
    lo, hi = z_span if z_span is not None else _default_z_span(lam)
    half_sq = lam * lam / 2.0
    for theta, z in uniform_rows(seed, 0, n, ((0.0, 2.0 * math.pi), (lo, hi))):
        rho = math.sqrt(half_sq + z * z)
        yield rho * math.cos(theta), rho * math.sin(theta), z


def _identity_section(kind: str, lam: float, n: int, seed: int, z_span) -> SurfaceSample:
    def rows():
        for fr in _frames(lam, n, seed, z_span):
            yield _frame_to_ambient(lam, *fr), fr, fr

    return SurfaceSample(kind, seed, rows)


def sample_surface(
    kind: str,
    n: int,
    seed: int,
    *,
    a: Mat2 | None = None,
    lam=None,
    e: Mat2 | None = None,
    z_span: tuple[float, float] | None = None,
) -> SurfaceSample:
    """Describe `n` float samples of one of the package's surfaces.

    kind: "idempotents", "nilpotents", "section" (needs a, lam) or
    "generator-lines" (needs a rank-1 idempotent e).  Deterministic per
    (seed, index); generator lines also have polyline segments.  Input
    errors raise here; the rows are computed only when iterated.
    """
    if n < 1:
        raise DomainError("need at least one sample")
    if kind == "idempotents":
        return _identity_section(kind, 1.0, n, seed, z_span)
    if kind == "nilpotents":
        return _identity_section(kind, 0.0, n, seed, z_span)
    if kind == "section":
        if a is None or lam is None:
            raise DomainError("section sampling needs a coefficient matrix and a level")
        return _sample_section(a, _as_rational(lam), n, seed, z_span)
    if kind == "generator-lines":
        if e is None:
            raise DomainError("generator-line sampling needs a base idempotent")
        return _sample_generator_lines(e, n, seed)
    raise UnknownKindError(f"unknown surface kind {kind!r}")


def _sample_section(a: Mat2, lam_r: Rational, n: int, seed: int, z_span) -> SurfaceSample:
    rank = a.rank()
    if rank == 0:
        if lam_r != 0:
            return SurfaceSample("section", seed, lambda: iter(()), charted=False)

        def full_variety():
            # random rank-1 outer products at float precision
            bounds = ((0, 2 * math.pi), (0, 2 * math.pi), (-3.0, 3.0))
            for phi, psi, scale in uniform_rows(seed, 0, n, bounds):
                c = (math.cos(phi), math.sin(phi))
                r = (math.cos(psi), math.sin(psi))
                pt = (scale * c[0] * r[0], scale * c[0] * r[1], scale * c[1] * r[0], scale * c[1] * r[1])
                yield pt, None, None

        return SurfaceSample("section", seed, full_variety, charted=False)

    extract = _chart_extractor(a)
    if rank == 2:
        # x = inv(a) y with y on the identity-coefficient slice at the same level
        lam, i0, i1, i2, i3 = _coefficients((lam_r, *inverse_mat(a).entries))
        is_identity = a == IDENTITY

        def invertible():
            for fr in _frames(lam, n, seed, z_span):
                y = _frame_to_ambient(lam, *fr)
                x = (
                    i0 * y[0] + i1 * y[2],
                    i0 * y[1] + i1 * y[3],
                    i2 * y[0] + i3 * y[2],
                    i2 * y[1] + i3 * y[3],
                )
                yield x, fr if is_identity else None, extract(x)

        return SurfaceSample("section", seed, invertible)

    if lam_r != 0:
        # inverse set of a / lam, swept through its bilinear chart
        chart = inverse_chart(a / lam_r)
        d0, d1, q0, q1 = (_coefficients(v) for v in (chart.d0, chart.d1, chart.q0, chart.q1))

        def inverse_set():
            for s, t in uniform_rows(seed, 0, n, ((-3.0, 3.0), (-3.0, 3.0))):
                d = (d0[0] + s * d1[0], d0[1] + s * d1[1])
                q = (q0[0] + t * q1[0], q0[1] + t * q1[1])
                x = (d[0] * q[0], d[0] * q[1], d[1] * q[0], d[1] * q[1])
                yield x, None, extract(x)

        return SurfaceSample("section", seed, inverse_set)

    # level zero, rank 1: the two class planes through the representative,
    # alternating; the origin lies on this slice, so no draw is refused
    verdict = classify_section(a, lam_r)
    rep = verdict.l_rep
    planes = [
        list(zip(_coefficients(b1.entries), _coefficients(b2.entries)))
        for b1, b2 in (class_plane("L", rep), class_plane("R", rep))
    ]

    def two_planes():
        for i, (s, t) in enumerate(uniform_rows(seed, 0, n, ((-3.0, 3.0), (-3.0, 3.0)))):
            x = tuple(s * u + t * v for u, v in planes[i % 2])
            yield x, None, extract(x)

    return SurfaceSample("section", seed, two_planes)


def _sample_generator_lines(e: Mat2, n: int, seed: int) -> SurfaceSample:
    """Each line's `t` values come ascending, one at a time, from the joint
    law of sorted uniforms (Bentley & Saxe, ACM TOMS 6(3), 1980): with k
    falling from the line's count to 1, `cur *= (1 - u)**(1/k)` walks down
    the largest of k uniforms on [0, 1], and `t = 3 - 6*cur` runs up [-3, 3].
    Row i of a line draws `u` from (seed, first row of the line + i), but its
    `t` depends on every earlier row: a row replays with its line, not alone."""
    lines = [
        (_coefficients(line.base.entries), _coefficients(line.direction.entries))
        for line in (generator_line("L1", e), generator_line("L2", e))
    ]
    counts = (n - n // 2, n // 2)

    def rows():
        index = 0
        for (base, dirn), count in zip(lines, counts):
            cur = 1.0
            for k, (u,) in zip(range(count, 0, -1), uniform_rows(seed, index, count, ((0.0, 1.0),))):
                cur *= (1.0 - u) ** (1.0 / k)
                t = 3.0 - 6.0 * cur
                x = tuple(b + t * d for b, d in zip(base, dirn))
                fr = ((x[0] - x[3]) / _SQRT2, (x[1] + x[2]) / _SQRT2, (x[2] - x[1]) / _SQRT2)
                yield x, fr, fr
            index += count

    return SurfaceSample("generator-lines", seed, rows, line_counts=counts)


def _atomic_write(path: str, writer):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            written = writer(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return written


def _write_counted(fh, lines) -> int:
    """Write every line; return how many there were."""
    counter = itertools.count()
    # zip draws from `lines` first, so the counter stops at the line count
    fh.writelines(line for line, _ in zip(lines, counter))
    return next(counter)


_CSV_FULL = "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\r\n"
_CSV_BARE = "%.17g,%.17g,%.17g,%.17g,,,\r\n"


def write_csv(sample: SurfaceSample, path: str) -> tuple[int, int]:
    """Columns x1..x4 plus frame X,Y,Z (blank when no frame applies).

    Returns (points written, segments the rows trace); a CSV file has no
    segment records, so the segments are those of the generator lines.
    """

    def emit(fh):
        fh.write("x1,x2,x3,x4,X,Y,Z\r\n")
        return _write_counted(
            fh,
            (_CSV_FULL % (pt + fr) if fr is not None else _CSV_BARE % pt for pt, fr, _ in sample.rows()),
        )

    points = _atomic_write(path, emit)
    return points, sum(max(count - 1, 0) for count in sample.line_counts)


def write_obj(sample: SurfaceSample, path: str) -> tuple[int, int]:
    """`v` records in chart coordinates, `l` records for polyline segments.

    Returns (points written, segments written).
    """
    if not sample.charted:
        raise DomainError("surface has no 3-coordinate chart; export CSV instead")

    def emit(fh):
        fh.write(f"# greenquadrics {sample.kind} seed={sample.seed}\n")
        points = _write_counted(fh, ("v %.17g %.17g %.17g\n" % ch for _, _, ch in sample.rows()))
        segments = _write_counted(fh, ("l %d %d\n" % (i + 1, j + 1) for i, j in sample.segments()))
        return points, segments

    return _atomic_write(path, emit)
