"""`gq export` bytes pinned by hash.

tests/data/export_golden.sha256 holds one line `argv → sha256` per case:
each surface kind in CSV and OBJ, `--z-range`, and every `section`
sampler branch, the `a = I` section (the one section that writes frame
columns) among them, all at `--samples 257 --seed 11` (odd, so the two
generator lines get unequal point counts) and again at `--samples 1201`,
which crosses two block boundaries of the lanes (`sampling._LANES` = 512
indices a block), and an idempotents CSV and a generator-lines OBJ at
`--samples 2500`.  The test re-runs each argv with `--out` in a
temporary directory and compares the file's hash.  A case is named by its
kind, its sampler branch, `identity` for `a = I`, its sample count when
that is not 257, and its format, for example `section-two-planes-csv`.
"""

import hashlib
import pathlib

import pytest

from greenquadrics.cli import run
from greenquadrics.mat2 import IDENTITY, parse_mat2

GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "export_golden.sha256"
CASES = [line.split(" → ") for line in GOLDEN.read_text(encoding="utf-8").splitlines()]


def _options(argv: str) -> dict[str, str]:
    return dict(arg[2:].split("=", 1) for arg in argv.split()[1:])


def _case_id(argv: str) -> str:
    opts = _options(argv)
    parts = [opts["kind"]]
    if opts["kind"] == "section":
        rank = parse_mat2(opts["a"]).rank()
        if rank == 1:
            parts.append("inverse-set" if opts["lambda"] != "0" else "two-planes")
        else:
            parts.append("invertible" if rank == 2 else "full-variety")
        if parse_mat2(opts["a"]) == IDENTITY:
            parts.append("identity")
    if "z-range" in opts:
        parts.append("z-range")
    if opts["samples"] != "257":
        parts.append(opts["samples"])
    return "-".join([*parts, opts["format"]])


IDS = [_case_id(argv) for argv, _ in CASES]
assert len(set(IDS)) == len(IDS), IDS


@pytest.mark.parametrize("argv,digest", CASES, ids=IDS)
def test_export_bytes_match_golden(argv, digest, tmp_path):
    out = tmp_path / "surface"
    code, text = run(argv.split() + [f"--out={out}"])
    n = int(_options(argv)["samples"])
    segments = f", {n - 2} segments" if "generator-lines" in argv else ""
    assert (code, text) == (0, f"wrote {n} points{segments} to {out}")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("v", [0.0, -0.0, 1e-320, 5e-324, 1e300, float("inf"), float("-inf"), float("nan")])
def test_percent_format_matches_format_builtin(v):
    assert "%.17g" % v == format(v, ".17g")
