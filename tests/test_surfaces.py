import math
import os
import tracemalloc

import pytest

from greenquadrics.errors import DomainError, RenderLimitError, UnknownKindError
from greenquadrics.exact import Rational
from greenquadrics.mat2 import IDENTITY, Mat2, ZERO
from greenquadrics.sampling import _LANES, rng_for
from greenquadrics.surfaces import sample_surface, write_csv, write_obj
from surface_csv import read_csv_points

E = Mat2(1, 0, 0, 0)
# every kind whose points draw z: the two identity slices and an invertible section
Z_KINDS = [("idempotents", {}), ("nilpotents", {}), ("section", {"a": Mat2(2, 0, 0, 1), "lam": 1})]


def rows(sample):
    """(point, frame, chart) per sample, flattened from the column blocks:
    the ambient 4-tuple, the frame 3-tuple or None, the chart 3-tuple or None."""
    out = []
    for pts, frame, chart in sample.blocks():
        n = len(pts[0])
        assert all(len(col) == n for col in (*pts, *(frame or ()), *(chart or ()))), "ragged block"
        out += zip(
            zip(*pts),
            zip(*frame) if frame is not None else [None] * n,
            zip(*chart) if chart is not None else [None] * n,
        )
    return out


def points(sample):
    return [pt for pt, _, _ in rows(sample)]


def segments(sample):
    """(i, j) pairs of the points each segment joins, from the blocks of `segments()`."""
    return [(i, i + 1) for starts in sample.segments() for i in starts]


def det_rel(pt):
    det = pt[0] * pt[3] - pt[1] * pt[2]
    scale = max(1.0, sum(v * v for v in pt))
    return abs(det) / scale


def line_ts(sample):
    """Each generator line's `t`, read off its points: through E = [1,0;0,0],
    L1 is E + t*[0,0;1,0] and L2 is E + t*[0,1;0,0]."""
    pts = points(sample)
    first = sample.line_counts[0]
    return [[pt[2] for pt in pts[:first]], [pt[1] for pt in pts[first:]]]


class TestSampling:
    def test_idempotents(self):
        s = sample_surface("idempotents", 300, seed=5)
        got = rows(s)
        assert len(got) == 300
        for pt, fr, _ in got:
            assert abs(pt[0] + pt[3] - 1.0) < 1e-12
            assert det_rel(pt) < 1e-12
            X, Y, Z = fr
            assert abs(X * X + Y * Y - Z * Z - 0.5) < 1e-9

    def test_nilpotents(self):
        s = sample_surface("nilpotents", 200, seed=6)
        for pt in points(s):
            assert abs(pt[0] + pt[3]) < 1e-12
            assert det_rel(pt) < 1e-12
            lhs = (pt[1] - pt[2]) ** 2
            rhs = sum(v * v for v in pt)
            assert abs(lhs - rhs) < 1e-9 * max(1.0, rhs)

    def test_deterministic(self):
        s1 = sample_surface("idempotents", 50, seed=9)
        s2 = sample_surface("idempotents", 50, seed=9)
        assert points(s1) == points(s2)
        assert points(s1) == points(s1)  # every pass regenerates the same rows
        assert points(sample_surface("idempotents", 50, seed=10)) != points(s1)

    def test_section_rank2(self):
        a = Mat2(2, 1, 1, 1)
        s = sample_surface("section", 200, seed=7, a=a, lam=Rational(3, 2))
        af = [2.0, 1.0, 1.0, 1.0]
        for pt in points(s):
            tr = af[0] * pt[0] + af[1] * pt[2] + af[2] * pt[1] + af[3] * pt[3]
            assert abs(tr - 1.5) < 1e-9
            assert det_rel(pt) < 1e-12

    def test_section_rank1_paraboloid(self):
        a = Mat2(1, 2, 1, 2)
        s = sample_surface("section", 150, seed=8, a=a, lam=Rational(1))
        for pt, _, ch in rows(s):
            tr = pt[0] + pt[2] * 2 + pt[1] * 1 + pt[3] * 2
            assert abs(tr - 1.0) < 1e-9
            assert det_rel(pt) < 1e-12
            assert ch is not None

    def test_section_rank1_level0_planes(self):
        s = sample_surface("section", 100, seed=11, a=E, lam=Rational(0))
        for pt in points(s):
            assert abs(pt[0]) < 1e-12  # tr(e x) = x1
            assert det_rel(pt) < 1e-12

    def test_full_variety_and_empty(self):
        s = sample_surface("section", 100, seed=12, a=ZERO, lam=Rational(0))
        assert len(points(s)) == 100
        for pt in points(s):
            assert det_rel(pt) < 1e-12
        empty = sample_surface("section", 10, seed=1, a=ZERO, lam=Rational(1))
        assert points(empty) == []

    def test_generator_lines(self):
        s = sample_surface("generator-lines", 40, seed=13, e=E)
        assert len(points(s)) == 40
        assert len(segments(s)) == 38  # two polylines
        for pt in points(s):
            assert abs(pt[0] + pt[3] - 1.0) < 1e-12
            assert det_rel(pt) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 257, 2051])
    def test_generator_lines_come_in_order(self, n):
        s = sample_surface("generator-lines", n, seed=22, e=E)
        assert s.line_counts == (n - n // 2, n // 2)
        # consecutive points of each line, whatever blocks they fall in
        first = n - n // 2
        assert segments(s) == [(j - 1, j) for j in [*range(1, first), *range(first + 1, n)]]
        assert all(len(starts) <= _LANES for starts in s.segments())
        pts = points(s)
        assert pts == points(sample_surface("generator-lines", n, seed=22, e=E))
        for ts in line_ts(s):
            assert all(-3.0 <= a <= b <= 3.0 for a, b in zip(ts, ts[1:] + [3.0]))
        assert all(det_rel(pt) < 1e-12 for pt in pts)

    def test_generator_lines_draw_keys(self):
        # row i of a line takes its u from (seed, first row of the line + i)
        s = sample_surface("generator-lines", 9, seed=23, e=E)
        first = 0
        for ts, count in zip(line_ts(s), s.line_counts):
            cur, want = 1.0, []
            for i in range(count):
                cur *= (1.0 - rng_for(23, first + i).uniform(0.0, 1.0)) ** (1.0 / (count - i))
                want.append(3.0 - 6.0 * cur)
            assert ts == want
            first += count

    def test_generator_line_t_is_uniform(self):
        # Kolmogorov-Smirnov distance to Uniform(-3, 3), 1 % critical value
        n = 25_000
        for ts in line_ts(sample_surface("generator-lines", 2 * n, seed=1, e=E)):
            cdf = [(t + 3.0) / 6.0 for t in ts]
            d = max(max((i + 1) / n - c, c - i / n) for i, c in enumerate(cdf))
            assert d <= 1.63 / math.sqrt(n), d

    def test_z_span(self):
        s = sample_surface("nilpotents", 100, seed=14, z_span=(-0.25, 0.25))
        for _, fr, _ in rows(s):
            assert -0.25 <= fr[2] <= 0.25

    @pytest.mark.parametrize("z_span", [(-1e300, 1e300), (math.nan, 1.0), (0.0, math.inf)], ids=["1e300", "nan", "inf"])
    @pytest.mark.parametrize("kind,kwargs", Z_KINDS, ids=[kind for kind, _ in Z_KINDS])
    def test_z_span_past_1e150_is_refused(self, kind, kwargs, z_span):
        # the library refuses the bound itself, before any block is drawn
        with pytest.raises(RenderLimitError, match="z bounds must be finite and at most 1e150"):
            sample_surface(kind, 3, seed=0, z_span=z_span, **kwargs)

    @pytest.mark.parametrize("z_span", [(0.0, 1.0, 2.0), (1.0, -1.0), (0.0, 0.0), (1.0,)],
                             ids=["three-bounds", "reversed", "empty", "one-bound"])
    @pytest.mark.parametrize("kind,kwargs", Z_KINDS, ids=[kind for kind, _ in Z_KINDS])
    def test_z_span_that_is_not_lo_below_hi_is_refused(self, kind, kwargs, z_span):
        # refused at the call, not when the first block is drawn
        with pytest.raises(RenderLimitError, match="two of them with LO < HI"):
            sample_surface(kind, 3, seed=0, z_span=z_span, **kwargs)

    @pytest.mark.parametrize("kind,kwargs", Z_KINDS, ids=[kind for kind, _ in Z_KINDS])
    def test_z_span_at_1e150_is_finite(self, kind, kwargs):
        got = rows(sample_surface(kind, 50, seed=0, z_span=(-1e150, 1e150), **kwargs))
        assert len(got) == 50
        assert all(math.isfinite(v) for row in got for part in row if part is not None for v in part)

    def test_domain_errors(self):
        with pytest.raises(UnknownKindError):
            sample_surface("spheres", 10, seed=0)
        with pytest.raises(DomainError):
            sample_surface("section", 10, seed=0)
        with pytest.raises(DomainError):
            sample_surface("generator-lines", 10, seed=0)
        with pytest.raises(DomainError):
            sample_surface("idempotents", 0, seed=0)
        with pytest.raises(DomainError):
            sample_surface("generator-lines", 10, seed=0, e=IDENTITY)


class TestExport:
    def test_csv_roundtrip(self, tmp_path):
        s = sample_surface("idempotents", 120, seed=15)
        path = str(tmp_path / "pts.csv")
        assert write_csv(s, path) == (120, 0)
        pts = read_csv_points(path)
        assert len(pts) == 120
        for got, want in zip(pts, points(s)):
            assert got == pytest.approx(want, abs=0.0)  # 17 digits round-trip
            assert det_rel(got) < 1e-12

    def test_csv_blank_bell_columns(self, tmp_path):
        s = sample_surface("section", 5, seed=16, a=Mat2(1, 2, 1, 2), lam=Rational(1))
        path = str(tmp_path / "sec.csv")
        write_csv(s, path)
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "x1,x2,x3,x4,X,Y,Z"
        assert lines[1].endswith(",,,")

    def test_obj_segments(self, tmp_path):
        s = sample_surface("generator-lines", 10, seed=17, e=E)
        path = str(tmp_path / "lines.obj")
        assert write_obj(s, path) == (10, 8)
        with open(path) as fh:
            content = fh.read().splitlines()
        assert sum(1 for l in content if l.startswith("v ")) == 10
        assert sum(1 for l in content if l.startswith("l ")) == 8
        # a CSV has no segment records; it reports the segments its rows trace
        assert write_csv(s, str(tmp_path / "lines.csv")) == (10, 8)

    def test_empty_section_writes_header_only(self, tmp_path):
        s = sample_surface("section", 10, seed=1, a=ZERO, lam=Rational(1))
        path = tmp_path / "empty.csv"
        assert write_csv(s, str(path)) == (0, 0)
        assert path.read_bytes() == b"x1,x2,x3,x4,X,Y,Z\r\n"

    def test_obj_needs_chart(self, tmp_path):
        s = sample_surface("section", 5, seed=18, a=ZERO, lam=Rational(0))
        with pytest.raises(DomainError):
            write_obj(s, str(tmp_path / "x.obj"))
        assert os.listdir(tmp_path) == []  # refused before any temp file

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        s = sample_surface("idempotents", 5, seed=19)
        path = str(tmp_path / "out.csv")
        write_csv(s, path)
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_17_digit_roundtrip_exact(self, tmp_path):
        s = sample_surface("idempotents", 50, seed=20)
        path = str(tmp_path / "p.csv")
        write_csv(s, path)
        assert read_csv_points(path) == [tuple(pt) for pt in points(s)]


def _export_peak(path, write, kind, n, **kwargs):
    """Peak traced bytes of sampling and writing `n` points with `write`."""
    tracemalloc.start()
    try:
        write(sample_surface(kind, n, seed=21, **kwargs), path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "write,kind,kwargs",
    [
        (write_csv, "idempotents", {}),
        (write_csv, "section", {"a": Mat2(2, 1, 1, 1), "lam": Rational(3, 2)}),
        (write_csv, "generator-lines", {"e": E}),
        (write_obj, "generator-lines", {"e": E}),
        (write_csv, "nilpotents", {}),
        (write_csv, "section", {"a": Mat2(1, 2, 1, 2), "lam": Rational(1)}),
        (write_csv, "section", {"a": E, "lam": Rational(0)}),
        (write_csv, "section", {"a": ZERO, "lam": Rational(0)}),
    ],
    ids=[
        "idempotents",
        "section-rank2",
        "generator-lines-csv",
        "generator-lines-obj",
        "nilpotents",
        "section-rank1-chart",
        "section-rank1-planes",
        "section-rank0",
    ],
)
def test_export_memory_does_not_grow_with_samples(tmp_path, write, kind, kwargs):
    path = str(tmp_path / "m.out")
    small = _export_peak(path, write, kind, 1_000, **kwargs)
    large = _export_peak(path, write, kind, 10_000, **kwargs)
    assert large - small <= 64 * 1024, (small, large)
