"""BENCHMARK.json matches spec.py and the limits it must meet; the command
refuses to run without the package source; the tracer leaves no trace."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import spec
from tracer import Tracer

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_manifest_is_generated_from_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        assert json.load(fh) == spec.manifest()


def test_manifest_limits():
    m = spec.manifest()
    assert set(m) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(m["workloads"]) <= 8
    assert 1 <= len(m["end_to_end"]) <= 16 and 1 <= len(m["per_layer"]) <= 128
    names = [w["name"] for w in m["workloads"]]
    names += [x["name"] for x in m["end_to_end"] + m["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in m["workloads"])
    for metric in m["end_to_end"] + m["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    for metric in m["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"} and 0 < metric["bound"] <= 0.25
    setup = next(x for x in m["end_to_end"] if x["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(x["bound"] for x in m["end_to_end"])
    assert 1 <= m["run_seconds"] <= 60
    assert len(json.dumps(m)) < 64 * 1024


def test_missing_source_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_counts_layer_crossings_and_uninstalls():
    from greenquadrics import semigroup
    from greenquadrics.mat2 import Mat2

    original = semigroup.natural_le, Mat2.__matmul__
    tracer = Tracer()
    tracer.install()
    try:
        assert semigroup.natural_le(Mat2(1, 0, 0, 0), Mat2(1, 0, 0, 1))
        with tracer.paused():
            Mat2(1, 0, 0, 0) @ Mat2(1, 0, 0, 0)
    finally:
        tracer.uninstall()
    assert (semigroup.natural_le, Mat2.__matmul__) == original
    s = tracer.summary()
    assert s["layer_spans"]["semigroup"] == 1
    assert s["edges"]["root>semigroup.natural_le"] == 1
    assert s["edges"]["semigroup.natural_le>linear.solve_linear"] == 1
    assert "mat2.Mat2.__matmul__" not in s["fn_calls"]
    names = [span[0] for span in tracer.spans()]
    assert names[0] == "semigroup.natural_le" and "linear.solve_linear" in names
    assert all(span[3] == 0 for span in tracer.spans()[1:])
