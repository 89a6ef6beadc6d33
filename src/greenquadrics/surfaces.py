"""Float point/segment clouds of the exact surfaces, for CSV/OBJ export.

Sampling is the only float code in the package: each point is generated
from an exact description (frame equation, inverse chart, class plane), so
the determinant residual of every emitted ambient point is at rounding
level.  Points carry frame coordinates when the ambient hyperplane is
tr(x) = lam (the orthonormal frame exists there) and chart coordinates
whenever the coefficient matrix is nonzero, which is what the OBJ writer
uses.
"""

from __future__ import annotations

import csv
import math
import os
import tempfile
from dataclasses import dataclass, field

from greenquadrics.errors import DomainError, UnknownKindError
from greenquadrics.exact import Rational, _as_rational, to_float
from greenquadrics.mat2 import IDENTITY, Mat2, inverse_mat
from greenquadrics.sampling import rng_for
from greenquadrics.green import class_plane
from greenquadrics.sections import classify_section, trace_functional
from greenquadrics.semigroup import generator_line, inverse_chart

__all__ = ["SurfaceSample", "sample_surface", "write_csv", "write_obj"]

_SQRT2 = math.sqrt(2.0)


@dataclass
class SurfaceSample:
    """Float samples of one surface: ambient 4-space points, optional frame
    (X, Y, Z) and chart coordinates per point, and polyline segments."""

    kind: str
    seed: int
    lam: float | None
    points: list = field(default_factory=list)
    frame: list = field(default_factory=list)  # (X, Y, Z) or None, per point
    chart: list = field(default_factory=list)  # 3-tuple or None, per point
    segments: list = field(default_factory=list)  # (i, j) index pairs


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
    w = trace_functional(a)
    pivot = next(i for i in range(4) if w[i] != 0)
    keep = [i for i in range(4) if i != pivot]

    def extract(pt):
        return (pt[keep[0]], pt[keep[1]], pt[keep[2]])

    return extract


def _identity_section(sample: SurfaceSample, lam_r: Rational, n: int, seed: int, z_span):
    """Sample tr(x) = lam slice via the frame equation X^2+Y^2-Z^2 = lam^2/2."""
    lam = to_float(lam_r)
    lo, hi = z_span if z_span is not None else _default_z_span(lam)
    half_sq = lam * lam / 2.0
    for i in range(n):
        rng = rng_for(seed, i)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        z = rng.uniform(lo, hi)
        rho = math.sqrt(half_sq + z * z)
        X, Y, Z = rho * math.cos(theta), rho * math.sin(theta), z
        sample.points.append(_frame_to_ambient(lam, X, Y, Z))
        sample.frame.append((X, Y, Z))
        sample.chart.append((X, Y, Z))


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
    """Generate `n` float samples of one of the package's surfaces.

    kind: "idempotents", "nilpotents", "section" (needs a, lam) or
    "generator-lines" (needs a rank-1 idempotent e).  Deterministic per
    (seed, index); generator lines also emit polyline segments.
    """
    if n < 1:
        raise DomainError("need at least one sample")
    kind = kind.replace("_", "-").lower()
    if kind == "idempotents":
        sample = SurfaceSample(kind=kind, seed=seed, lam=1.0)
        _identity_section(sample, Rational(1), n, seed, z_span)
        return sample
    if kind == "nilpotents":
        sample = SurfaceSample(kind=kind, seed=seed, lam=0.0)
        _identity_section(sample, Rational(0), n, seed, z_span)
        return sample
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
    sample = SurfaceSample(kind="section", seed=seed, lam=to_float(lam_r))
    rank = a.rank()
    if rank == 0:
        if lam_r != 0:
            return sample
        # the whole variety: random rank-1 outer products at float precision
        for i in range(n):
            rng = rng_for(seed, i)
            phi, psi = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
            scale = rng.uniform(-3.0, 3.0)
            c = (math.cos(phi), math.sin(phi))
            r = (math.cos(psi), math.sin(psi))
            sample.points.append(
                (scale * c[0] * r[0], scale * c[0] * r[1], scale * c[1] * r[0], scale * c[1] * r[1])
            )
            sample.frame.append(None)
            sample.chart.append(None)
        return sample

    extract = _chart_extractor(a)
    if rank == 2:
        # x = inv(a) y with y on the identity-coefficient slice at the same level
        inv = inverse_mat(a)
        inv_f = [to_float(v) for v in inv.entries]
        lam = to_float(lam_r)
        lo, hi = z_span if z_span is not None else _default_z_span(lam)
        half_sq = lam * lam / 2.0
        is_identity = a == IDENTITY
        for i in range(n):
            rng = rng_for(seed, i)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            z = rng.uniform(lo, hi)
            rho = math.sqrt(half_sq + z * z)
            X, Y, Z = rho * math.cos(theta), rho * math.sin(theta), z
            y = _frame_to_ambient(lam, X, Y, Z)
            x = (
                inv_f[0] * y[0] + inv_f[1] * y[2],
                inv_f[0] * y[1] + inv_f[1] * y[3],
                inv_f[2] * y[0] + inv_f[3] * y[2],
                inv_f[2] * y[1] + inv_f[3] * y[3],
            )
            sample.points.append(x)
            sample.frame.append((X, Y, Z) if is_identity else None)
            sample.chart.append(extract(x))
        return sample

    if lam_r != 0:
        # inverse set of a / lam, swept through its bilinear chart
        chart = inverse_chart(a / lam_r)
        d0 = [to_float(v) for v in chart.d0]
        d1 = [to_float(v) for v in chart.d1]
        q0 = [to_float(v) for v in chart.q0]
        q1 = [to_float(v) for v in chart.q1]
        for i in range(n):
            rng = rng_for(seed, i)
            s = rng.uniform(-3.0, 3.0)
            t = rng.uniform(-3.0, 3.0)
            d = (d0[0] + s * d1[0], d0[1] + s * d1[1])
            q = (q0[0] + t * q1[0], q0[1] + t * q1[1])
            x = (d[0] * q[0], d[0] * q[1], d[1] * q[0], d[1] * q[1])
            sample.points.append(x)
            sample.frame.append(None)
            sample.chart.append(extract(x))
        return sample

    # level zero, rank 1: the two class planes through the representative
    verdict = classify_section(a, lam_r)
    rep = verdict.l_rep
    planes = [
        [(to_float(u), to_float(v)) for u, v in zip(b1.entries, b2.entries)]
        for b1, b2 in (class_plane("L", rep), class_plane("R", rep))
    ]
    for i in range(n):
        rng = rng_for(seed, i)
        basis = planes[i % 2]
        while True:
            s, t = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
            if max(abs(s), abs(t)) > 1e-3:
                break
        x = tuple(s * u + t * v for u, v in basis)
        sample.points.append(x)
        sample.frame.append(None)
        sample.chart.append(extract(x))
    return sample


def _sample_generator_lines(e: Mat2, n: int, seed: int) -> SurfaceSample:
    sample = SurfaceSample(kind="generator-lines", seed=seed, lam=1.0)
    lines = (generator_line("L1", e), generator_line("L2", e))
    counts = (n - n // 2, n // 2)
    index = 0
    for line, count in zip(lines, counts):
        ts = sorted(rng_for(seed, index + j).uniform(-3.0, 3.0) for j in range(count))
        base = [to_float(v) for v in line.base.entries]
        dirn = [to_float(v) for v in line.direction.entries]
        first = index
        for j, t in enumerate(ts):
            x = tuple(b + t * d for b, d in zip(base, dirn))
            lam = x[0] + x[3]
            X = (x[0] - x[3]) / _SQRT2
            Y = (x[1] + x[2]) / _SQRT2
            Z = (x[2] - x[1]) / _SQRT2
            sample.points.append(x)
            sample.frame.append((X, Y, Z))
            sample.chart.append((X, Y, Z))
            if j:
                sample.segments.append((first + j - 1, first + j))
        index += count
    return sample


def _atomic_write(path: str, writer) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            writer(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(v: float) -> str:
    return format(v, ".17g")


def write_csv(sample: SurfaceSample, path: str) -> None:
    """Columns x1..x4 plus frame X,Y,Z (blank when no frame applies)."""

    def emit(fh):
        out = csv.writer(fh)
        out.writerow(["x1", "x2", "x3", "x4", "X", "Y", "Z"])
        for pt, fr in zip(sample.points, sample.frame):
            row = [_fmt(v) for v in pt]
            row += [_fmt(v) for v in fr] if fr is not None else ["", "", ""]
            out.writerow(row)

    _atomic_write(path, emit)


def write_obj(sample: SurfaceSample, path: str) -> None:
    """`v` records in chart coordinates, `l` records for polyline segments."""
    if any(ch is None for ch in sample.chart) or not sample.chart:
        raise DomainError("surface has no 3-coordinate chart; export CSV instead")

    def emit(fh):
        fh.write(f"# greenquadrics {sample.kind} seed={sample.seed}\n")
        for ch in sample.chart:
            fh.write(f"v {_fmt(ch[0])} {_fmt(ch[1])} {_fmt(ch[2])}\n")
        for i, j in sample.segments:
            fh.write(f"l {i + 1} {j + 1}\n")

    _atomic_write(path, emit)
