"""Every verifier rejects an injected wrong output, and the rejection lands
in the run's failure count."""

import pytest

from verify import Tally, det_ok, percentile, verify_check, verify_cli, verify_export_file
from workloads import CheckWorkload, CliWorkload, ExportWorkload, WideWorkload

GOOD_CHECK = "\n".join(
    [
        "[pass] core/cayley_hamilton: 10/10 trials ok",
        "[pass] sets/order_below_a_is_inverse_section: 11/11 trials ok; literal-section note",
        "2/2 checks passed (arithmetic lane: pure)",
    ]
)


def fail_ratio_after(*tallies) -> float:
    run = Tally()
    for t in tallies:
        run.extend(t)
    return run.fail_ratio


def test_check_output_passes_and_counts_trials():
    t = verify_check(0, GOOD_CHECK, 2)
    assert (t.attempted, t.failed) == (21, 0)


@pytest.mark.parametrize(
    "text, code, expected",
    [
        (GOOD_CHECK.replace("10/10", "0/0"), 0, 2),  # a vacuous pass is a failure
        (GOOD_CHECK.replace("[pass] core", "[FAIL] core").replace("10/10", "9/10"), 0, 2),
        (GOOD_CHECK.replace("2/2 checks", "1/2 checks"), 0, 2),
        ("\n".join(GOOD_CHECK.splitlines()[1:]), 0, 2),  # a missing result line
        (GOOD_CHECK, 2, 2),  # non-zero exit
    ],
)
def test_check_verifier_rejects_wrong_output(text, code, expected):
    t = verify_check(code, text, expected)
    assert t.failed >= 1 and t.errors
    assert fail_ratio_after(verify_check(0, GOOD_CHECK, 2), t) > 0


def test_check_workload_counts_a_changed_repeat(tmp_path):
    wl = CheckWorkload(0, str(tmp_path), False)
    wl.expected_checks = 2
    assert wl.verify(wl.argv, (0, GOOD_CHECK)).failed == 0
    assert wl.verify(wl.argv, (0, GOOD_CHECK.replace("10/10", "12/12"))).failed == 1


def test_cli_verifier():
    assert verify_cli(0, "true\n", 0, "true").failed == 0
    assert verify_cli(0, "false\n", 0, "true").failed == 1
    assert verify_cli(1, "", 0, "true").failed == 1
    assert verify_cli(0, "", 1, "usage error: x").failed == 1


def test_cli_workload_rejects_a_wrong_stdout(tmp_path):
    wl = CliWorkload(0, str(tmp_path), False)
    argv = next(a for a in wl.commands if a[0] == "metrics")
    code, text = wl.expected[tuple(argv)]
    assert code == 0
    assert wl.verify(argv, (0, text + "\n")).failed == 0
    bad = wl.verify(argv, (0, text.replace("center", "centre") + "\n"))
    assert bad.failed == 1
    assert fail_ratio_after(bad) == 1.0


def test_generated_cli_commands_all_succeed(tmp_path):
    wl = CliWorkload(3, str(tmp_path), False)
    assert len(wl.commands) >= 100
    assert {a[0] for a in wl.commands} == {
        "classify", "green", "inverses", "order", "lines", "plane", "bell", "metrics", "export",
    }
    for argv in wl.commands:
        code, text = wl.expected[tuple(argv)]
        assert code == 0, (argv, text)


# --- export ------------------------------------------------------------------


@pytest.fixture
def export_files(tmp_path):
    wl = ExportWorkload(5, str(tmp_path), False)
    import workloads

    workloads_n = workloads.EXPORT_SAMPLES
    workloads.EXPORT_SAMPLES = 40
    try:
        files = {}
        for unit in wl.cycle():
            code, text = wl.run(unit)
            assert code == 0, text
            files[unit] = (wl, wl.path(unit))
        yield files
    finally:
        workloads.EXPORT_SAMPLES = workloads_n


def _lam_a(wl, kind):
    lam = {"idempotents": 1.0, "nilpotents": 0.0, "section": float(wl.lam), "generator-lines": 1.0}[kind]
    return lam, ([float(v) for v in wl.a] if kind == "section" else None)


def test_export_files_verify(export_files):
    for (kind, fmt), (wl, path) in export_files.items():
        lam, a = _lam_a(wl, kind)
        t = verify_export_file(path, fmt, 40, kind, lam, a)
        assert (t.attempted, t.failed) == (40, 0), (kind, fmt, t.errors)


def _rewrite(path, edit):
    with open(path) as fh:
        lines = fh.read().splitlines(keepends=True)
    with open(path, "w") as fh:
        fh.writelines(edit(lines))


@pytest.mark.parametrize("kind", ["idempotents", "nilpotents", "section", "generator-lines"])
@pytest.mark.parametrize("fmt", ["csv", "obj"])
def test_export_verifier_rejects_a_point_off_the_surface(export_files, kind, fmt):
    wl, path = export_files[(kind, fmt)]

    def corrupt(lines):
        i = next(i for i, line in enumerate(lines) if line[0] in "-0123456789" or line.startswith("v "))
        parts = lines[i].rstrip("\n").split("," if fmt == "csv" else " ")
        j = 0 if fmt == "csv" else 1
        parts[j] = repr(float(parts[j]) + 0.5)
        lines[i] = ("," if fmt == "csv" else " ").join(parts) + "\n"
        return lines

    _rewrite(path, corrupt)
    lam, a = _lam_a(wl, kind)
    t = verify_export_file(path, fmt, 40, kind, lam, a)
    assert t.failed == 1 and t.errors


def test_export_verifier_rejects_missing_rows(export_files):
    wl, path = export_files[("idempotents", "csv")]
    _rewrite(path, lambda lines: lines[:-3])
    t = verify_export_file(path, "csv", 40, "idempotents", 1.0)
    assert t.failed == 3
    wl, path = export_files[("generator-lines", "obj")]
    _rewrite(path, lambda lines: [line for line in lines if not line.startswith("l 1 ")])
    assert verify_export_file(path, "obj", 40, "generator-lines", 1.0).failed == 1


def test_export_workload_rejects_a_wrong_exit(tmp_path):
    wl = ExportWorkload(5, str(tmp_path), False)
    t = wl.verify(("idempotents", "csv"), (2, "domain error: x"))
    assert t.failed == t.attempted > 0


def test_det_bound():
    assert det_ok((1.0, 2.0, 0.5, 1.0))
    assert not det_ok((1.0, 0.0, 0.0, 1e-9))


# --- wide --------------------------------------------------------------------


@pytest.fixture(scope="module")
def wide():
    return WideWorkload(2, "", False)


def test_wide_outputs_pass_their_oracles(wide):
    run = Tally()
    for unit in wide.cycle():
        run.extend(wide.verify(unit, wide.run(unit)))
    assert run.attempted == len(wide.calls) and run.failed == 0, run.errors


def _wrong_output(wide, name):
    from greenquadrics import mat2
    from greenquadrics.quadrics import QuadricClass
    from greenquadrics.sections import SectionClass, SectionVerdict

    call = next(c for c in wide.calls if c[1] == name and c[0] == 4)
    out = call[2]()
    wrong = {
        "matmul": lambda: out + mat2.IDENTITY,
        "det": lambda: out + 1,
        "inverse_mat": lambda: mat2.IDENTITY,
        "natural_le_below": lambda: not out,
        "natural_le_other": lambda: not out,
        "minus_le_below": lambda: not out,
        "minus_le_other": lambda: not out,
        "classify_section": lambda: SectionVerdict(SectionClass.CONE),
        "generic_classifier": lambda: QuadricClass.ELLIPSOID,
        "inverse_chart_eval": lambda: out * 2,
        "to_bell": lambda: type(out)(out.Y, out.X, out.Z, out.lam),
    }[name]()
    return call, wrong


@pytest.mark.parametrize(
    "name",
    ["matmul", "det", "inverse_mat", "natural_le_below", "natural_le_other", "minus_le_below",
     "minus_le_other", "classify_section", "generic_classifier", "inverse_chart_eval", "to_bell"],
)
def test_wide_oracles_reject_a_wrong_first_output(name):
    wl = WideWorkload(2, "", False)
    call, wrong = _wrong_output(wl, name)
    t = wl.verify_call(call, wrong)
    assert t.failed == 1 and t.errors
    assert fail_ratio_after(t) == 1.0


def test_wide_unit_counts_one_wrong_call(wide):
    call, wrong = _wrong_output(wide, "det")
    unit = next(u for u in wide.cycle() if call in u)
    outputs = wide.run(unit)
    outputs[unit.index(call)] = wrong
    t = WideWorkload(2, "", False).verify(unit, outputs)
    assert (t.attempted, t.failed) == (len(unit), 1)


def test_wide_rejects_a_repeat_that_differs(wide):
    call, wrong = _wrong_output(wide, "det")
    assert wide.verify_call(call, call[2]()).failed == 0
    assert wide.verify_call(call, wrong).failed == 1


def test_percentile_interpolates():
    assert percentile([3.0], 90) == 3.0
    assert percentile(list(range(1, 102)), 90) == 91
    assert percentile([1, 2, 3, 4], 50) == 2.5
