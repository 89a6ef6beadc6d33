import json
import math
import os

import pytest
from jsonschema import Draft202012Validator

from greenquadrics.cli import main, run
from cli_process import VALIDATOR, run_gq
from surface_csv import read_csv_points


def test_schema_document_is_valid():
    Draft202012Validator.check_schema(VALIDATOR.schema)


def run_ok(argv):
    code, text = run(argv)
    assert code == 0, text
    return text


def run_json(argv):
    payload = json.loads(run_ok(argv + ["--json"]))
    VALIDATOR.validate(payload)
    return payload


class TestVerdicts:
    def test_classify(self):
        assert run_ok(["classify", "--a", "[1,0;0,1]", "--lambda", "1"]) == "hyperboloid of one sheet"
        out = run_ok(["classify", "--a", "[1,0;0,0]", "--lambda", "0"])
        assert out.startswith("two punctured planes plus origin")
        assert "[0,0;0,1]" in out

    def test_green(self):
        assert run_ok(["green", "--rel", "L", "[1,0;0,0]", "[2,0;3,0]"]) == "true"
        assert run_ok(["green", "--rel", "L", "[1,0;0,0]", "[2,3;0,0]"]) == "false"

    def test_json_text_agree(self):
        payload = run_json(["classify", "--a", "[1,0;0,1]", "--lambda", "1"])
        assert payload["kind"] == run_ok(["classify", "--a", "[1,0;0,1]", "--lambda", "1"])
        payload = run_json(["green", "--rel", "R", "[1,0;0,0]", "[2,3;0,0]"])
        assert payload["related"] is True

    def test_order(self):
        text = run_ok(["order", "[1,0;0,0]", "[1,0;0,1]"])
        assert "natural_le: true" in text and "minus_le:   true" in text
        payload = run_json(["order", "[1/2,0;0,0]", "[2,0;0,1/2]"])
        assert payload["natural_le"] is False and payload["minus_le"] is False

    def test_order_report(self):
        payload = run_json(["order", "--report", "[2,0;0,1/2]", "--trials", "30", "--seed", "4"])
        assert payload["command"] == "order-report"
        assert payload["agree_le_vs_inv_section"] == 30
        assert payload["counterexamples"] == []

    def test_lines_plane_inverses_metrics_bell(self):
        payload = run_json(["lines", "--e", "[1,0;0,0]"])
        assert payload["lines"][0]["direction"] == "[0,0;1,0]"
        payload = run_json(["plane", "[1,0;0,0]", "[0,0;1,0]"])
        assert payload["kind"] == "L"
        payload = run_json(["inverses", "--a", "[0,1;0,0]", "--grid", "2"])
        assert {"s": "0", "t": "0", "x": "[0,0;1,0]"} in payload["grid"]
        payload = run_json(["metrics", "--lambda", "3"])
        assert payload["center"] == "[3/2,0;0,3/2]" and payload["radius_sq"] == "9/2"
        payload = run_json(["bell", "--lambda", "1", "--point", "[1,0;0,0]"])
        assert payload["X"] == "1/2*sqrt2"
        payload = run_json(["bell", "--lambda", "1", "--from", "1/2*sqrt2,0,0"])
        assert payload["x1"] == "1" and payload["x4"] == "0"

    def test_float_rendering(self):
        code, text = run(["bell", "--lambda", "1", "--point", "[1,0;0,0]", "--float"])
        assert code == 0 and "0.7071067811865476" in text


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--a", "[1,0;0,1]", "--lambda", "1"],
            ["green", "--rel", "H", "[1,0;0,0]", "[1,0;0,0]"],
            ["metrics", "--lambda=-2"],
            ["order", "[0,0;0,0]", "[1,0;0,1]"],
        ],
    )
    def test_success_is_zero(self, argv):
        assert run(argv)[0] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--a", "[1,0;0,1]"],               # missing --lambda
            ["classify", "--a", "[1,0;0]", "--lambda", "1"],  # arity
            ["classify", "--a", "[1,0;0,1/0]", "--lambda", "1"],  # zero denominator
            ["green", "--rel", "X", "[1,0;0,0]", "[1,0;0,0]"],    # bad relation
            ["nonsense"],
            ["order", "[1,0;0,0]"],                          # missing second matrix
            ["bell", "--lambda", "1", "--from", "1,2"],      # arity of coords
            ["export", "--kind", "section", "--out", "x.csv"],  # missing --a/--lambda
            ["inverses", "--a", "[1,0;0,0]", "--grid", "0"],
            ["check", "--trials", "0"],
            ["check", "--trials", "-5"],
            ["order", "--report", "[1,0;0,1]", "--trials", "-3"],
            ["order", "--report", "[1,0;0,1]", "--trials", "0"],
            ["classify", "--a", "[²,0;0,1]", "--lambda", "1"],    # superscript digit
            ["classify", "--a", "[٣,0;0,1]", "--lambda", "1"],    # Arabic-Indic digit
            ["classify", "--a", "[1,0;0,1]", "--lambda", "²"],
            ["bell", "--lambda", "1", "--from", "٣,0,0"],
            ["classify", "--a", "[" + "9" * 5000 + ",0;0,1]", "--lambda", "1"],  # too long for int()
            ["metrics", "--lambda", "7" * 3000],             # radius^2 too long for str()
            ["metrics", "--lambda", "7" * 3000, "--json"],
            ["metrics", "--lambda", "7" * 400, "--float"],   # beyond the float range
            ["metrics", "--lambda", "7" * 400, "--float", "--json"],
            ["metrics", "--lambda=--"],                      # argparse would store []
            ["check", "--suite=--"],
            ["export", "--kind=idempotents", "--out=--"],
            ["order", "[1,0;0,0]", "[1,0;0,1]", "--trials", "0"],  # parsed though unused
            ["export", "--kind=idempotents", "--samples=abc", "--out=x.csv"],
            ["inverses", "--a=[1,0;0,0]", "--grid=-1"],
        ],
    )
    def test_usage_errors_are_one(self, argv):
        code, text = run(argv)
        assert code == 1
        assert text.startswith(("usage error: ", "parse error: ")) and "\n" not in text

    @pytest.mark.parametrize(
        "argv",
        [
            ["inverses", "--a", "[1,0;0,1]"],            # invertible: no rank-1 chart
            ["lines", "--e", "[1,0;0,1]"],               # not a rank-1 idempotent
            ["lines", "--e", "[2,0;0,0]"],
            ["order", "--report", "[1,0;0,0]"],           # singular a
            ["plane", "[1,0;0,0]", "[2,0;0,0]"],          # dependent basis
            ["bell", "--lambda", "2", "--point", "[1,0;0,0]"],  # off the hyperplane
        ],
    )
    def test_domain_errors_are_two(self, argv):
        assert run(argv)[0] == 2

    @pytest.mark.parametrize(
        "argv,code,text",
        [
            (["order", "--report"], 1, "usage error: order --report takes exactly one matrix"),
            (["order", "--report", "[1,0;0,1]", "[2,0;0,1]"], 1,
             "usage error: order --report takes exactly one matrix"),
            (["export", "--kind", "generator-lines", "--out", "x.csv"], 1,
             "usage error: export --kind generator-lines needs --e"),
            (["export", "--kind", "idempotents", "--z-range=1", "--out", "x.csv"], 1,
             "usage error: --z-range must look like LO:HI"),
            (["export", "--kind", "idempotents", "--z-range=1:1", "--out", "x.csv"], 1,
             "usage error: z bounds must be finite and at most 1e150 in magnitude, two of them with LO < HI"),
            (["export", "--kind", "idempotents", "--z-range=nan:1", "--out", "x.csv"], 1,
             "usage error: z bounds must be finite and at most 1e150 in magnitude, two of them with LO < HI"),
            (["plane", "[1,0;0,1]", "[0,1;0,0]"], 0, "not contained in the singular variety"),
            (["bell", "--lambda", "1", "--from", "sqrt2+2*sqrt2,0,0"], 1,
             "parse error: two sqrt2 terms in 'sqrt2+2*sqrt2'"),
            (["bell", "--lambda", "1", "--from", "1+2,0,0"], 1, "parse error: two rational terms in '1+2'"),
        ],
        ids=["report-of-none", "report-of-two", "lines-without-e", "z-range-without-colon", "z-range-empty",
             "z-range-nan",
             "plane-off-the-variety", "two-sqrt2-terms", "two-rational-terms"],
    )
    def test_one_line_of_each_branch(self, argv, code, text):
        assert run(argv) == (code, text)

    def test_main_prints_to_stderr_on_error(self, capsys):
        code = main(["lines", "--e", "[1,0;0,1]"])
        captured = capsys.readouterr()
        assert code == 2 and "domain error" in captured.err


class TestPinnedOutput:
    """Output that must stay byte-identical across internal refactors."""

    def test_suite_choices_are_the_check_suites(self):
        from greenquadrics import checks, cli

        assert cli._SUITES == tuple(checks.SUITES)

    def test_unknown_suite_lists_the_choices(self):
        expected = (
            "usage error: argument --suite: invalid choice: 'nope' "
            "(choose from 'exact', 'core', 'green', 'sets', 'sections')"
        )
        assert run(["check", "--suite", "nope"]) == (1, expected)
        proc = run_gq(["check", "--suite", "nope"])
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", expected + "\n")

    def test_order_report_text(self):
        assert run_ok(["order", "--report", "[2,1/3;-1,5]", "--trials=200", "--seed=9"]) == (
            "order/section agreement below a = [2,1/3;-1,5] (200 trials, seed 9)\n"
            "  x <= a  vs  x in SP(inv(a);1): 200/200\n"
            "  x <= a  vs  x in SP(a;1):      66/200\n"
            "  no counterexamples to the inverse-section identity"
        )

    def test_order_report_json(self):
        assert run_ok(["order", "--report", "[2,1/3;-1,5]", "--trials=200", "--seed=9", "--json"]) == (
            '{\n  "command": "order-report",\n  "a": "[2,1/3;-1,5]",\n  "trials": 200,\n  "seed": 9,\n'
            '  "agree_le_vs_inv_section": 200,\n  "agree_le_vs_section": 66,\n  "counterexamples": []\n}'
        )

    def test_order_report_counterexamples(self, monkeypatch):
        # the identity holds, so no real run prints a counterexample: an order
        # that says yes to every x makes five, one line per dict in text
        monkeypatch.setattr("greenquadrics.semigroup.natural_le", lambda x, y: True)
        argv = ["order", "--report", "[2,1;1,1]", "--trials=7", "--seed=3"]
        rows = [
            ("[0,0;6/5,4/5]", False),
            ("[1/5,-2/5;-1,2]", True),
            ("[0,-25;0,-5]", False),
            ("[1/3,-1;-2/3,2]", True),
            ("[20,8;-20/3,-8/3]", False),
        ]
        assert run_ok(argv) == (
            "order/section agreement below a = [2,1;1,1] (7 trials, seed 3)\n"
            "  x <= a  vs  x in SP(inv(a);1): 2/7\n"
            "  x <= a  vs  x in SP(a;1):      2/7\n"
            "  counterexamples (<= 5 shown):\n"
            "    {'x': '[0,0;6/5,4/5]', 'natural_le': True, 'in_section': False, 'in_inv_section': False}\n"
            "    {'x': '[1/5,-2/5;-1,2]', 'natural_le': True, 'in_section': True, 'in_inv_section': False}\n"
            "    {'x': '[0,-25;0,-5]', 'natural_le': True, 'in_section': False, 'in_inv_section': False}\n"
            "    {'x': '[1/3,-1;-2/3,2]', 'natural_le': True, 'in_section': True, 'in_inv_section': False}\n"
            "    {'x': '[20,8;-20/3,-8/3]', 'natural_le': True, 'in_section': False, 'in_inv_section': False}"
        )
        cexs = ",".join(
            f'\n    {{\n      "x": "{x}",\n      "natural_le": true,\n      "in_section": {str(s).lower()},\n'
            '      "in_inv_section": false\n    }'
            for x, s in rows
        )
        assert run_ok(argv + ["--json"]) == (
            '{\n  "command": "order-report",\n  "a": "[2,1;1,1]",\n  "trials": 7,\n  "seed": 3,\n'
            f'  "agree_le_vs_inv_section": 2,\n  "agree_le_vs_section": 2,\n  "counterexamples": [{cexs}\n  ]\n}}'
        )


class TestLiteralEcho:
    def test_json_echoes_canonical_literals(self):
        payload = run_json(["classify", "--a", "[ 2/4 , 0 ; 0 , 1 ]", "--lambda", "3/3"])
        assert payload["a"] == "[1/2,0;0,1]"
        assert payload["lambda"] == "1"


class TestCheckAndExportCli:
    def test_check_suite_runs(self):
        code, text = run(["check", "--seed", "1", "--suite", "exact", "--trials", "50"])
        assert code == 0
        assert text.count("[pass]") == 2

    def test_check_json_schema(self):
        payload = run_json(["check", "--seed", "1", "--suite", "exact", "--trials", "20"])
        assert payload["passed"] == payload["total"] == 2

    def test_check_json_counts_certified_points(self):
        # per suite: each result's grid points, and which result's line to read
        for suite, certified, first in [
            ("exact", [144, 0], 0),
            ("core", [81, 256, 256, 75], 3),
            ("sets", [18, 75, 45, 0, 0, 0, 0, 18, 75, 0], 8),
            ("sections", [81, 32, 0, 270, 0, 0, 25, 0], 6),
        ]:
            payload = run_json(["check", "--seed", "1", "--suite", suite, "--trials", "5"])
            assert [r["certified"] for r in payload["results"]] == certified, suite
            points = certified[first]
            detail = f"{points + 5}/{points + 5} trials ok; {points} grid points certify the identity, 5 sampled at 64 bits"
            assert payload["results"][first]["detail"] == detail

    def test_check_reproducible_in_process(self):
        a = run(["check", "--seed", "5", "--suite", "green", "--trials", "60"])
        b = run(["check", "--seed", "5", "--suite", "green", "--trials", "60"])
        assert a == b

    def test_export_csv(self, tmp_path):
        out = str(tmp_path / "pts.csv")
        code, text = run(
            ["export", "--kind", "idempotents", "--samples", "25", "--seed", "3", "--out", out]
        )
        assert code == 0 and os.path.exists(out)
        assert "wrote 25 points" in text

    def test_export_obj_full_variety_is_domain_error(self, tmp_path):
        out = str(tmp_path / "x.obj")
        code, _ = run(
            ["export", "--kind", "section", "--a", "[0,0;0,0]", "--lambda", "0",
             "--samples", "5", "--seed", "1", "--format", "obj", "--out", out]
        )
        assert code == 2

    def test_export_to_missing_directory_is_one(self, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        code, text = run(["export", "--kind", "idempotents", "--samples", "3", "--out", str(out)])
        assert code == 1
        assert text == f"usage error: cannot write {out}: No such file or directory"

    def test_export_onto_directory_leaves_no_temp_file(self, tmp_path, monkeypatch):
        # refused before any sampling: `dir`, `dir/` and a new `name/`
        monkeypatch.setattr("greenquadrics.surfaces.sample_surface", None)
        taken = tmp_path / "taken"
        taken.mkdir()
        for out in (str(taken), str(taken) + os.sep, str(tmp_path / "new") + os.sep):
            code, text = run(["export", "--kind", "idempotents", "--samples", "3", "--out", out])
            assert (code, text) == (1, f"usage error: cannot write {out}: it names a directory")
        assert list(tmp_path.iterdir()) == [taken]
        assert list(taken.iterdir()) == []

    def test_export_to_a_nul_path_leaves_no_temp_file(self, tmp_path, monkeypatch):
        # only the Python entry point can pass a NUL; it is refused before sampling
        monkeypatch.setattr("greenquadrics.surfaces.sample_surface", None)
        out = str(tmp_path / "a\x00b.csv")
        code, text = run(["export", "--kind=idempotents", "--samples=3", f"--out={out}"])
        shown = out.replace("\x00", "\\x00")
        assert (code, text) == (1, f"usage error: cannot write {shown}: it holds a NUL character")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("z_range", ["--z-range=-inf:inf", "--z-range=-1e308:1e308", "--z-range=0:1e300"])
    def test_export_rejects_unbounded_z_range(self, tmp_path, z_range):
        out = tmp_path / "x.csv"
        code, text = run(["export", "--kind", "idempotents", "--samples", "3", z_range, "--out", str(out)])
        assert code == 1
        assert text.startswith("usage error: ") and "\n" not in text
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "a,lam",
        [
            ("[7...7,0;0,1]", "1"),
            ("[7...7,0;0,0]", "1"),
            ("[1,0;0,1]", "1/1" + "0" * 400),
            ("[1,0;0,0]", "1/1" + "0" * 400),
        ],
        ids=["inverse", "chart", "level-inverse", "level-chart"],
    )
    def test_export_refuses_a_coefficient_that_underflows(self, tmp_path, a, lam):
        # 1/77...7 (400 digits) and 1/10^400 round to 0.0: the rows would
        # leave the surface (a level of 0.0 samples the cone)
        out = tmp_path / "x.csv"
        argv = ["export", "--kind", "section", f"--a={a.replace('7...7', '7' * 400)}", f"--lambda={lam}"]
        code, text = run(argv + ["--samples", "3", "--out", str(out)])
        assert code == 1
        assert text == (
            "usage error: a nonzero coefficient is below the float range (smallest double 4.94066e-324)"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "kind,fmt",
        [
            (["--kind=section", "--a=[1,0;0,1]", "--lambda=1" + "0" * 160], "csv"),
            (["--kind=section", "--a=[1/1" + "0" * 300 + ",0;0,1/1" + "0" * 300 + "]", "--lambda=10000000000"], "obj"),
            (["--kind=section", "--a=[1,0;0,1]", "--lambda=1" + "0" * 151], "csv"),
            (["--kind=section", "--a=[1/1" + "0" * 200 + ",0;0,1]", "--lambda=1"], "csv"),
            (["--kind=section", "--a=[1,0;0,0]", "--lambda=1" + "0" * 160], "obj"),
            (["--kind=generator-lines", "--e=[1,1" + "0" * 160 + ";0,0]"], "csv"),
        ],
        ids=["level-overflows", "inverse-overflows", "level", "inverse", "inverse-chart", "generator-line"],
    )
    def test_export_refuses_a_coefficient_past_1e150(self, tmp_path, kind, fmt):
        # lam*lam/2 overflows past about 1.34e154 and the inverse of a
        # 10^-300 diagonal is 10^300: the first two wrote nan and inf rows.
        # Each coefficient past 1e150 is refused before any row is drawn
        out = tmp_path / f"x.{fmt}"
        code, text = run(["export", *kind, "--samples=3", f"--format={fmt}", f"--out={out}"])
        assert (code, text) == (
            1, "usage error: a surface coefficient exceeds 1e150 in magnitude: its points could overflow a double"
        )
        assert list(tmp_path.iterdir()) == []

    def test_export_at_coefficient_1e150_is_finite(self, tmp_path):
        out = tmp_path / "x.csv"
        code, _ = run(["export", "--kind=section", "--a=[1,0;0,1]", "--lambda=1" + "0" * 150, "--z-range=-1e150:1e150",
                       "--samples=50", f"--out={out}"])
        assert code == 0
        assert all(math.isfinite(v) for x in read_csv_points(out) for v in x)

    @pytest.mark.parametrize(
        "argv",
        [
            ["bell", "--lambda=1", "--point=[1,1/1" + "0" * 400 + ";0,0]", "--float"],
            ["metrics", "--lambda=1/1" + "0" * 400, "--float"],
        ],
        ids=["bell-scalar", "metrics-matrix"],
    )
    def test_float_refuses_a_value_that_underflows(self, argv):
        # Y = 10^-400 sqrt2 / 2 and a centre entry of 10^-400 / 2 are not 0.0
        assert run(argv) == (
            1,
            "usage error: a nonzero coefficient is below the float range (smallest double 4.94066e-324)",
        )

    def test_float_needs_no_exact_text(self):
        # radius^2 of the level (10^2500 + 1) / 10^2500 has 5000-digit terms,
        # past the digit limit, while its double is 0.5: --float prints it,
        # and only output that writes the exact value refuses
        n = 10**2500
        argv = ["metrics", f"--lambda={n + 1}/{n}"]
        assert run(argv + ["--float"]) == (
            0,
            "center:     [0.5,0.0,0.0,0.5]\naxis dir:   [0.0,1.0,-1.0,0.0]\nradius^2:   0.5\n"
            "asymptotic form (frame): [1,0,0] [0,1,0] [0,0,-1]",
        )
        for mode in ([], ["--json"], ["--float", "--json"]):
            code, text = run(argv + mode)
            assert code == 1 and text.startswith("usage error: exact value exceeds the "), mode

    def test_export_of_an_empty_section_needs_no_float(self, tmp_path):
        # a zero `a` at level 10^400 has no points, so the level is never
        # made a float; an invertible `a` at that level still needs it
        out = tmp_path / "x.csv"
        tail = ["--lambda=1" + "0" * 400, "--samples", "3", "--out", str(out)]
        code, text = run(["export", "--kind", "section", "--a=[0,0;0,0]", *tail])
        assert (code, text) == (0, f"wrote 0 points to {out}")
        out.unlink()
        code, text = run(["export", "--kind", "section", "--a=[1,0;0,1]", *tail])
        assert (code, text) == (1, "usage error: value exceeds the float range (largest double 1.79769e+308)")
        assert list(tmp_path.iterdir()) == []

    def test_export_largest_z_range_rows_are_finite(self, tmp_path):
        out = tmp_path / "x.csv"
        code, _ = run(["export", "--kind", "idempotents", "--samples", "50", "--z-range=-1e150:1e150",
                       "--out", str(out)])
        assert code == 0
        for x in read_csv_points(out):
            assert all(math.isfinite(v) for v in x)
            assert abs(x[0] * x[3] - x[1] * x[2]) <= 1e-12 * max(1.0, sum(v * v for v in x))

    def test_trials_env_is_ignored(self):
        # argv is the only input: the variable that once set the default
        # number of trials changes nothing
        env = dict(os.environ, GQ_DEFAULT_TRIALS="25")
        proc = run_gq(["check", "--seed", "1", "--suite", "exact"], env=env)
        assert proc.returncode == 0 and proc.stderr == ""
        line = "[pass] exact/quadext_field_axioms: 167/167 trials ok; 144 grid points certify the identity, 23 sampled at 64 bits\n"
        assert proc.stdout.startswith(line)
