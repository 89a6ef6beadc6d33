"""`gq export` bytes pinned by hash.

tests/data/export_golden.sha256 holds one line `argv → sha256` per case:
each surface kind in CSV and OBJ, `--z-range`, and every `section`
sampler branch, all at `--samples 257 --seed 11` (odd, so the two
generator lines get unequal point counts).  The test re-runs each argv
with `--out` in a temporary directory and compares the file's hash.
"""

import hashlib
import pathlib

import pytest

from greenquadrics.cli import run

GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "export_golden.sha256"
CASES = [line.split(" → ") for line in GOLDEN.read_text(encoding="utf-8").splitlines()]


@pytest.mark.parametrize("argv,digest", CASES, ids=[argv for argv, _ in CASES])
def test_export_bytes_match_golden(argv, digest, tmp_path):
    out = tmp_path / "surface"
    code, text = run(argv.split() + [f"--out={out}"])
    segments = ", 255 segments" if "generator-lines" in argv else ""
    assert (code, text) == (0, f"wrote 257 points{segments} to {out}")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("v", [0.0, -0.0, 1e-320, 5e-324, 1e300, float("inf"), float("-inf"), float("nan")])
def test_percent_format_matches_format_builtin(v):
    assert "%.17g" % v == format(v, ".17g")
