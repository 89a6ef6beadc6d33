"""Float point/segment clouds of the exact surfaces, for CSV/OBJ export.

Sampling is the only float code in the package: each point is generated
from an exact description (frame equation, inverse chart, class plane), so
the determinant residual of every emitted ambient point is at rounding
level.  Points carry frame coordinates when the ambient hyperplane is
tr(x) = lam (the orthonormal frame exists there) and chart coordinates
whenever the coefficient matrix is nonzero, which is what the OBJ writer
uses.

A sample holds no points.  `sample_surface` does the exact work (inverse,
chart, class planes, generator lines) up front and refuses, for every
caller, a `z_span` bound or a float coefficient that is not finite or
passes `_FLOAT_LIMIT` in magnitude, so that no point overflows.
`SurfaceSample.blocks()` regenerates the floats from `(seed, index)` on
every pass, one block of at most `sampling._LANES` indices at a time, as
columns: every kind draws its columns through `sampling.uniform_columns`
and computes each coordinate as one list over the block, keeping each
point as drawn (none is redrawn).  The writers format a whole block into
one string and write it with one call, so export memory does not grow
with the sample count for any kind, generator lines (drawn in order)
included: one block of draws, of coordinate columns and of formatted rows
and their joined string is held, whatever the sample count (a
`tracemalloc` peak of 0.34 to 0.42 MB per export).
"""

from __future__ import annotations

import math
import os
import tempfile
from itertools import accumulate
from operator import mul

from greenquadrics.errors import DomainError, RenderLimitError, UnknownKindError
from greenquadrics.exact import Rational, _as_rational, _coefficients
from greenquadrics.mat2 import IDENTITY, Mat2, inverse_mat
from greenquadrics.sampling import _LANES, uniform_columns
from greenquadrics.green import class_plane
from greenquadrics.sections import chart_pivot, classify_section
from greenquadrics.semigroup import generator_line, inverse_chart

__all__ = ["SurfaceSample", "sample_surface", "write_csv", "write_obj"]

_SQRT2 = math.sqrt(2.0)
# largest float coefficient of a surface, and largest z bound:
# every coordinate is then at most a sum of two products of values below
# about 4e150 (a coefficient, a frame value, a chart factor d0 + s*d1),
# so it stays finite
_FLOAT_LIMIT = 1e150


class SurfaceSample:
    """Float samples of one surface, generated on demand.

    `blocks()` yields (points, frame, chart) per block of samples: the four
    ambient coordinate columns, the three frame columns (X, Y, Z) or None,
    and the three chart columns or None.  `charted` says whether every
    point has a chart (decided before sampling), and `line_counts` holds
    the point count of each generator line, whose consecutive points
    `segments()` joins.
    """

    __slots__ = ("kind", "seed", "charted", "line_counts", "_blocks")

    def __init__(self, kind: str, seed: int, blocks, *, charted=True, line_counts=()):
        self.kind = kind
        self.seed = seed
        self.charted = charted
        self.line_counts = line_counts
        self._blocks = blocks

    def blocks(self):
        """A fresh generator of (points, frame, chart) columns, one per block."""
        return self._blocks()

    def segments(self):
        """Per block of at most `_LANES` segments of a generator line, the
        range of the indices i whose segment joins points i and i + 1."""
        first = 0
        for count in self.line_counts:
            last = first + count - 1
            for i in range(first, last, _LANES):
                yield range(i, min(i + _LANES, last))
            first += count


def _floats(values) -> list[float]:
    """`_coefficients` of `values`, refused when one passes `_FLOAT_LIMIT`."""
    floats = _coefficients(values)
    if any(abs(f) > _FLOAT_LIMIT for f in floats):
        raise RenderLimitError("a surface coefficient exceeds 1e150 in magnitude: its points could overflow a double")
    return floats


def _default_z_span(lam: float) -> tuple[float, float]:
    reach = 3.0 * abs(lam) + 1.0
    return (-reach, reach)


def _frame_blocks(lam: float, n: int, seed: int, z_span):
    """Per block, the ambient columns and the frame columns (X, Y, Z) of
    points of the tr(x) = lam slice, X^2+Y^2-Z^2 = lam^2/2."""
    lo, hi = z_span if z_span is not None else _default_z_span(lam)
    half_sq = lam * lam / 2.0
    mid = lam / 2.0
    for thetas, zs in uniform_columns(seed, 0, n, ((0.0, 2.0 * math.pi), (lo, hi))):
        rhos = [math.sqrt(half_sq + z * z) for z in zs]
        xs = [rho * math.cos(theta) for rho, theta in zip(rhos, thetas)]
        ys = [rho * math.sin(theta) for rho, theta in zip(rhos, thetas)]
        scaled = [x / _SQRT2 for x in xs]
        points = (
            [mid + v for v in scaled],
            [(y - z) / _SQRT2 for y, z in zip(ys, zs)],
            [(y + z) / _SQRT2 for y, z in zip(ys, zs)],
            [mid - v for v in scaled],
        )
        yield points, (xs, ys, zs)


def _identity_section(kind: str, lam: float, n: int, seed: int, z_span) -> SurfaceSample:
    def blocks():
        for points, frame in _frame_blocks(lam, n, seed, z_span):
            yield points, frame, frame

    return SurfaceSample(kind, seed, blocks)


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
    errors raise here, a `z_span` bound or float coefficient not finite or
    past 1e150 in magnitude among them; points are computed only when iterated.
    """
    if n < 1:
        raise DomainError("need at least one sample")
    if z_span is not None and any(not abs(v) <= _FLOAT_LIMIT for v in z_span):
        raise RenderLimitError("z bounds must be finite and at most 1e150 in magnitude")
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
            # random rank-1 outer products scale * c . r^T at float
            # precision, scale folded into c first
            bounds = ((0, 2 * math.pi), (0, 2 * math.pi), (-3.0, 3.0))
            for phis, psis, scales in uniform_columns(seed, 0, n, bounds):
                c0 = [scale * math.cos(phi) for scale, phi in zip(scales, phis)]
                c1 = [scale * math.sin(phi) for scale, phi in zip(scales, phis)]
                r0 = [math.cos(psi) for psi in psis]
                r1 = [math.sin(psi) for psi in psis]
                points = (
                    [c * r for c, r in zip(c0, r0)],
                    [c * r for c, r in zip(c0, r1)],
                    [c * r for c, r in zip(c1, r0)],
                    [c * r for c, r in zip(c1, r1)],
                )
                yield points, None, None

        return SurfaceSample("section", seed, full_variety, charted=False)

    # the chart coordinates in the hyperplane of `a` are the non-pivot
    # ambient coordinates (the chart basis is unit vectors corrected along
    # the pivot)
    pivot = chart_pivot(a)

    def chart(points):
        return [col for i, col in enumerate(points) if i != pivot]

    if rank == 2:
        # x = inv(a) y with y on the identity-coefficient slice at the same level
        lam, i0, i1, i2, i3 = _floats((lam_r, *inverse_mat(a).entries))
        is_identity = a == IDENTITY

        def invertible():
            for (y0, y1, y2, y3), frame in _frame_blocks(lam, n, seed, z_span):
                points = (
                    [i0 * u + i1 * v for u, v in zip(y0, y2)],
                    [i0 * u + i1 * v for u, v in zip(y1, y3)],
                    [i2 * u + i3 * v for u, v in zip(y0, y2)],
                    [i2 * u + i3 * v for u, v in zip(y1, y3)],
                )
                yield points, frame if is_identity else None, chart(points)

        return SurfaceSample("section", seed, invertible)

    if lam_r != 0:
        # inverse set of a / lam, swept through its bilinear chart
        ic = inverse_chart(a / lam_r)
        (d00, d01), (d10, d11), (q00, q01), (q10, q11) = (_floats(v) for v in (ic.d0, ic.d1, ic.q0, ic.q1))

        def inverse_set():
            for ss, ts in uniform_columns(seed, 0, n, ((-3.0, 3.0), (-3.0, 3.0))):
                da = [d00 + s * d10 for s in ss]
                db = [d01 + s * d11 for s in ss]
                qa = [q00 + t * q10 for t in ts]
                qb = [q01 + t * q11 for t in ts]
                points = (
                    [d * q for d, q in zip(da, qa)],
                    [d * q for d, q in zip(da, qb)],
                    [d * q for d, q in zip(db, qa)],
                    [d * q for d, q in zip(db, qb)],
                )
                yield points, None, chart(points)

        return SurfaceSample("section", seed, inverse_set)

    # level zero, rank 1: the two class planes through the representative,
    # alternating by row index; the origin lies on this slice, so no draw
    # is refused
    verdict = classify_section(a, lam_r)
    rep = verdict.l_rep
    planes = [
        list(zip(_floats(b1.entries), _floats(b2.entries)))
        for b1, b2 in (class_plane("L", rep), class_plane("R", rep))
    ]

    def two_planes():
        first = 0
        for ss, ts in uniform_columns(seed, 0, n, ((-3.0, 3.0), (-3.0, 3.0))):
            points = tuple([0.0] * len(ss) for _ in range(4))
            for r in (0, 1):
                # rows r, r + 2, ... of the block lie on plane (first + r) mod 2
                ps, pt = ss[r::2], ts[r::2]
                for col, (u, v) in zip(points, planes[(first + r) % 2]):
                    col[r::2] = [s * u + t * v for s, t in zip(ps, pt)]
            first += len(ss)
            yield points, None, chart(points)

    return SurfaceSample("section", seed, two_planes)


def _sample_generator_lines(e: Mat2, n: int, seed: int) -> SurfaceSample:
    """Each line's `t` values come ascending, one at a time, from the joint
    law of sorted uniforms (Bentley & Saxe, ACM TOMS 6(3), 1980): with k
    falling from the line's count to 1, `cur *= (1 - u)**(1/k)` walks down
    the largest of k uniforms on [0, 1], and `t = 3 - 6*cur` runs up [-3, 3].
    Row i of a line draws `u` from (seed, first row of the line + i), but its
    `t` depends on every earlier row: a row replays with its line, not alone.
    `cur` and `k` carry from one block of a line to the next."""
    lines = [
        (_floats(line.base.entries), _floats(line.direction.entries))
        for line in (generator_line("L1", e), generator_line("L2", e))
    ]
    counts = (n - n // 2, n // 2)

    def blocks():
        index = 0
        for (base, dirn), count in zip(lines, counts):
            cur, k = 1.0, count
            for (us,) in uniform_columns(seed, index, count, ((0.0, 1.0),)):
                factors = [(1.0 - u) ** (1.0 / j) for u, j in zip(us, range(k, 0, -1))]
                curs = list(accumulate(factors, mul, initial=cur))
                cur, k = curs[-1], k - len(us)
                ts = [3.0 - 6.0 * c for c in curs[1:]]
                x0, x1, x2, x3 = ([b + t * d for t in ts] for b, d in zip(base, dirn))
                frame = (
                    [(u - v) / _SQRT2 for u, v in zip(x0, x3)],
                    [(u + v) / _SQRT2 for u, v in zip(x1, x2)],
                    [(u - v) / _SQRT2 for u, v in zip(x2, x1)],
                )
                yield (x0, x1, x2, x3), frame, frame
            index += count

    return SurfaceSample("generator-lines", seed, blocks, line_counts=counts)


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


_CSV_FULL = "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\r\n"
_CSV_BARE = "%.17g,%.17g,%.17g,%.17g,,,\r\n"
_OBJ_POINT = "v %.17g %.17g %.17g\n"
_OBJ_SEGMENT = "l %d %d\n"


def write_csv(sample: SurfaceSample, path: str) -> tuple[int, int]:
    """Columns x1..x4 plus frame X,Y,Z (blank when no frame applies).

    Returns (points written, segments the rows trace); a CSV file has no
    segment records, so the segments are those of the generator lines.
    """

    def emit(fh):
        fh.write("x1,x2,x3,x4,X,Y,Z\r\n")
        written = 0
        for points, frame, _ in sample.blocks():
            if frame is None:
                fh.write("".join(map(_CSV_BARE.__mod__, zip(*points))))
            else:
                fh.write("".join(map(_CSV_FULL.__mod__, zip(*points, *frame))))
            written += len(points[0])
        return written

    written = _atomic_write(path, emit)
    return written, sum(max(count - 1, 0) for count in sample.line_counts)


def write_obj(sample: SurfaceSample, path: str) -> tuple[int, int]:
    """`v` records in chart coordinates, `l` records for polyline segments.

    Returns (points written, segments written).
    """
    if not sample.charted:
        raise DomainError("surface has no 3-coordinate chart; export CSV instead")

    def emit(fh):
        fh.write(f"# greenquadrics {sample.kind} seed={sample.seed}\n")
        written = segments = 0
        for points, _, chart in sample.blocks():
            fh.write("".join(map(_OBJ_POINT.__mod__, zip(*chart))))
            written += len(points[0])
        for starts in sample.segments():
            # OBJ numbers its points from 1: segment i joins records i + 1 and i + 2
            lo, hi = starts.start + 1, starts.stop + 1
            fh.write("".join(map(_OBJ_SEGMENT.__mod__, zip(range(lo, hi), range(lo + 1, hi + 1)))))
            segments += len(starts)
        return written, segments

    return _atomic_write(path, emit)
