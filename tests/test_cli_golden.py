"""`gq` text and `--json` output pinned by hash.

tests/data/cli_golden.sha256 holds one line `argv → sha256` per case, the
hash of the exit code and the text `run` returns, joined by a newline.
Every command but `export` appears in text and `--json` mode, and
`inverses`, `bell` and `metrics` also under `--float` and `--float
--json`; the mode options follow the command name.  The corpus holds each
kind of `classify` verdict (rank-1 `a` at level 0 among them), every Green
relation, `plane` on and off the variety, `order --report`, `bell --from`
with √2 terms, the `metrics` refusals of a 3000-digit level (its radius²
is past the digit limit) and a 400-digit level under `--float` (past the
float range), `check --suite=exact --trials=20`, and a parse or domain
error of each command.  Every exit-0 `--json` document also matches
docs/schema.json.
"""

import hashlib
import json
import pathlib
import re

import pytest

from greenquadrics.cli import run
from cli_process import VALIDATOR

GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "cli_golden.sha256"
CASES = [line.split(" → ") for line in GOLDEN.read_text(encoding="utf-8").splitlines()]


def _case_id(argv: str) -> str:
    # a run of 20 or more equal digits is named by its digit and length
    return re.sub(r"(\d)\1{19,}", lambda m: f"{m[1]}x{len(m[0])}", argv)


IDS = [_case_id(argv) for argv, _ in CASES]
assert len(set(IDS)) == len(IDS), IDS


@pytest.mark.parametrize("argv,digest", CASES, ids=IDS)
def test_cli_output_matches_golden(argv, digest):
    code, text = run(argv.split())
    assert hashlib.sha256(f"{code}\n{text}".encode("utf-8")).hexdigest() == digest, (code, text)
    if code == 0 and "--json" in argv.split():
        VALIDATOR.validate(json.loads(text))


def test_corpus_covers_every_mode():
    commands = {}
    for argv, _ in CASES:
        command, *rest = argv.split()
        modes = commands.setdefault(command, set())
        modes.add(frozenset(arg for arg in rest if arg in ("--json", "--float")))
    plain = {frozenset(), frozenset({"--json"})}
    floats = {frozenset({"--float"}), frozenset({"--float", "--json"})}
    assert commands == {
        **dict.fromkeys(["classify", "green", "order", "lines", "plane", "check"], plain),
        **dict.fromkeys(["inverses", "bell", "metrics"], plain | floats),
    }
