"""Verifiers for the outputs of each workload.

Each verifier returns a `Tally` of operations attempted and failed, so a
wrong output always lands in the run's `failed` count and in its failure
ratio.  These verifiers read the text and files the program produced and
do not call the program; the `wide` workload's oracles are the package's
own independent implementations and live with that workload.
"""

from __future__ import annotations

import math
import re
import statistics
from dataclasses import dataclass, field

_CHECK_LINE = re.compile(r"^\[(pass|FAIL)\] (\w+)/(\S+): (\d+)/(\d+) trials ok")
_CHECK_SUMMARY = re.compile(r"^(\d+)/(\d+) checks passed")
_SQRT2 = math.sqrt(2.0)
DET_TOLERANCE = 1e-12  # documented export bound: |det| <= 1e-12 * max(1, |x|^2)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def add(self, attempted: int, failed: int = 0, error: str | None = None) -> None:
        self.attempted += attempted
        self.failed += failed
        if error is not None and len(self.errors) < 20:
            self.errors.append(error)

    def extend(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors.extend(other.errors[: max(0, 20 - len(self.errors))])

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


# --- check ---------------------------------------------------------------


def verify_check(code: int, text: str, expected_checks: int) -> Tally:
    """Each trial of a `gq check` run is one operation.

    A result line that is not `pass`, or that ran zero trials, is a
    failure; so is a missing result line, a wrong summary or a non-zero
    exit code.
    """
    tally = Tally()
    lines = text.splitlines()
    results = 0
    for line in lines[:-1]:
        m = _CHECK_LINE.match(line)
        if m is None:
            tally.add(1, 1, f"unparsed check line: {line!r}")
            continue
        results += 1
        mark, ok, total = m.group(1), int(m.group(4)), int(m.group(5))
        if total == 0:
            tally.add(1, 1, f"check ran zero trials: {line!r}")
        elif mark != "pass" or ok != total:
            tally.add(total, max(total - ok, 1), f"check failed: {line!r}")
        else:
            tally.add(total)
    summary = _CHECK_SUMMARY.match(lines[-1]) if lines else None
    if summary is None or int(summary.group(1)) != int(summary.group(2)):
        tally.add(1, 1, f"bad check summary: {lines[-1]!r}" if lines else "empty check output")
    elif int(summary.group(2)) != results:
        tally.add(1, 1, "summary count differs from the result lines")
    if results != expected_checks:
        missing = abs(expected_checks - results)
        tally.add(missing, missing, f"{results} check results, expected {expected_checks}")
    if code != 0:
        tally.add(1, 1, f"gq check exited {code}")
    return tally


# --- export --------------------------------------------------------------


def det_ok(x) -> bool:
    det = x[0] * x[3] - x[1] * x[2]
    return abs(det) <= DET_TOLERANCE * max(1.0, sum(v * v for v in x))


def frame_to_ambient(lam: float, X: float, Y: float, Z: float):
    return (
        lam / 2.0 + X / _SQRT2,
        (Y - Z) / _SQRT2,
        (Y + Z) / _SQRT2,
        lam / 2.0 - X / _SQRT2,
    )


def chart_to_ambient(kind: str, lam: float, a=None):
    """Map OBJ `v` coordinates back to ambient points.

    Surfaces on a trace level use frame coordinates; a section of
    tr(a x) = lam uses the three non-pivot ambient coordinates and the
    pivot follows from the hyperplane equation.
    """
    if kind != "section":
        return lambda v: frame_to_ambient(lam, *v)
    w = (a[0], a[2], a[1], a[3])  # tr(a x) = w . x
    pivot = next(i for i in range(4) if w[i] != 0)
    keep = [i for i in range(4) if i != pivot]

    def ambient(v):
        x = [0.0] * 4
        for i, c in zip(keep, v):
            x[i] = c
        x[pivot] = (lam - sum(w[i] * x[i] for i in keep)) / w[pivot]
        return x

    return ambient


def verify_export_file(path, fmt, n, kind, lam, a=None) -> Tally:
    """Every exported point is one operation: it must be present, parse, and
    satisfy the determinant bound.  Missing or extra rows are failures."""
    tally = Tally()
    rows = bad = 0
    segments = None
    with open(path, newline="") as fh:
        if fmt == "csv":
            header = fh.readline().strip()
            if header != "x1,x2,x3,x4,X,Y,Z":
                return Tally(n, n, [f"{path}: bad CSV header {header!r}"])
            for line in fh:
                rows += 1
                parts = line.rstrip("\r\n").split(",")
                try:
                    x = [float(p) for p in parts[:4]]
                    good = len(parts) == 7 and det_ok(x)
                except ValueError:
                    good = False
                bad += not good
        else:
            to_ambient = chart_to_ambient(kind, lam, a)
            segments = 0
            for line in fh:
                if line.startswith("v "):
                    rows += 1
                    try:
                        good = det_ok(to_ambient([float(p) for p in line.split()[1:4]]))
                    except (ValueError, TypeError):
                        good = False
                    bad += not good
                elif line.startswith("l "):
                    segments += 1
    tally.add(n, min(n, bad + abs(rows - n)))
    if bad or rows != n:
        tally.errors.append(f"{path}: {rows} points for {n} samples, {bad} off the surface")
    if segments is not None and kind == "generator-lines" and segments != n - 2:
        tally.add(1, 1, f"{path}: {segments} segments, expected {n - 2}")
    return tally


# --- cli -------------------------------------------------------------------


def verify_cli(code: int, stdout: str, expected_code: int, expected_text: str) -> Tally:
    """A one-shot command must exit 0 and print what in-process `cli.run`
    returns for the same argv."""
    if code != 0 or expected_code != 0:
        return Tally(1, 1, [f"exit code {code} (in-process {expected_code})"])
    if stdout != expected_text + "\n":
        return Tally(1, 1, [f"stdout differs from in-process run: {stdout[:80]!r}"])
    return Tally(1, 0)


# --- percentiles -----------------------------------------------------------


def percentile(values, q: int) -> float:
    """Percentile q (1..99) of a non-empty sample, interpolated between
    order statistics, so that a mix of unit kinds does not make it jump
    from one kind to the next."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
