"""The mutation sweep of `tests/mutants.py`, on the site list of every
module of the package, on three of its sites and one suite (a killed
site, an unreached one and a labelled equivalent survivor), on one row of
the fault table, and against its committed record."""

import inspect
import json
import pathlib
import pkgutil

import mutants
import pytest
from faults import BY_ID, FAULTS, Undo, install
from mutant_labels import LABELS

import greenquadrics
from greenquadrics import checks, mat2
from greenquadrics.checks import CheckResult

DATA = pathlib.Path(__file__).resolve().parent / "data"
RECORDS = [DATA / "mutants_seed42.json", DATA / "mutants_seed7.json"]

KILLED = "mat2.Mat2.__matmul__#0"
UNREACHED = "exact.parse_rational#0"
EQUIVALENT = "exact._from_ints#0"


def test_the_sites_are_deterministic():
    first, second = mutants.sites(), mutants.sites()
    assert [(s.id, s.line, s.change) for s in first] == [(s.id, s.line, s.change) for s in second]
    assert len({s.id for s in first}) == len(first)
    assert {s.id.partition(".")[0] for s in first} == set(mutants.MODULES)


@pytest.mark.parametrize("module_name", [m.name for m in pkgutil.iter_modules(greenquadrics.__path__)])
def test_every_module_lists_its_sites(module_name):
    # a module joins `MODULES` by name alone: each one's functions carry their
    # own code, so the sweep can list and number its sites
    found = mutants.module_sites(module_name)
    assert len({s.id for s in found}) == len(found)
    assert all(s.id.startswith(f"{module_name}.") for s in found)


def test_each_class_on_three_named_sites():
    sites = {s.id: s for s in mutants.sites()}
    record = {site_id: mutants.run(sites[site_id], suites=["core"]) for site_id in (KILLED, UNREACHED, EQUIVALENT)}
    assert {site_id: entry["status"] for site_id, entry in record.items()} == {
        KILLED: "killed",
        UNREACHED: "unreached",
        EQUIVALENT: "survived",
    }
    assert not any(entry["timeout"] for entry in record.values())
    killed = record[KILLED]["checks"]
    assert killed["cayley_hamilton"][3] is not None and killed["cayley_hamilton"][2] > 0
    assert all(calls == 0 and first is None for *_, calls, first in record[UNREACHED]["checks"].values())
    assert LABELS[EQUIVALENT][:2] == (sites[EQUIVALENT].change, "equivalent")
    # the labelled survivor passes; the other labels name sites this record lacks
    problems = mutants.label_problems({EQUIVALENT: record[EQUIVALENT]})
    assert all(p.startswith("label of no site: ") for p in problems) and len(problems) == len(LABELS) - 1
    # a survivor without a label is reported
    assert mutants.label_problems({"exact.no_such_site#0": record[EQUIVALENT]})[0].startswith("unlabelled survivor")


def test_the_source_is_untouched_after_a_run():
    site = next(s for s in mutants.sites() if s.id == KILLED)
    matmul = vars(mat2.Mat2)["__matmul__"]
    mutants.run(site, suites=["core"])
    assert vars(mat2.Mat2)["__matmul__"] is matmul
    assert all(r.ok for r in checks.run_checks(["core"], seed=42))


def test_a_fault_row_runs_through_the_same_runner():
    fault = BY_ID["sub-clearing-slip"]  # its runs lie in the core suite
    sub = vars(mat2.Mat2)["__sub__"]
    entry = mutants.run(fault, suites=["core"])
    assert entry["status"] == "killed" and entry["failed"] == list(fault.fails)
    # the FAIL set that `install` and the same run give
    undo = Undo()
    install(undo, fault)
    try:
        assert [r.name for r in checks.run_checks(["core"], seed=42) if not r.ok] == entry["failed"]
    finally:
        undo.undo()
    assert entry["checks"]["cayley_hamilton"] == [77, 104, 104, 5]
    assert vars(mat2.Mat2)["__sub__"] is sub


def test_a_check_that_ran_no_case_is_a_kill_with_no_first_failing_case(monkeypatch):
    # the mutant is reached, and the one check fails on no case
    def empty(seed, trials=0):
        mat2.IDENTITY @ mat2.IDENTITY
        return CheckResult("empty", "no_case", False, "0/0 trials ok")

    monkeypatch.setitem(checks.SUITES, "empty", [empty])
    site = next(s for s in mutants.sites() if s.id == KILLED)
    entry = mutants.run(site, suites=["empty"])
    assert (entry["status"], entry["failed"], entry["checks"]) == ("killed", ["no_case"], {"no_case": [0, 0, 1, None]})


def test_the_committed_record_names_the_current_sites_rows_and_labels():
    # line numbers are left out: an edit of a docstring moves them, not a site
    changes = {s.id: s.change for s in mutants.sites()}
    assert {site_id: label[0] for site_id, label in LABELS.items()}.items() <= changes.items()
    for path in RECORDS:
        record = json.loads(path.read_text())
        assert {site_id: entry["change"] for site_id, entry in record["mutants"].items()} == changes, path.name
        assert list(record["rows"]) == [fault.id for fault in FAULTS], path.name


def test_every_sampled_default_meets_the_margin_rule_of_both_records():
    records = [json.loads(path.read_text()) for path in RECORDS]
    assert [r["seed"] for r in records] == [42, 7]
    names = [r.name for r in checks.run_checks(seed=0, trials=0)]
    defaults = mutants.default_trials(names)
    for record in records:
        # made at the hand-set counts, each the ceiling of its check
        assert record["checks"] == names
        assert {name: record["trials"][name] for name in mutants.CEILINGS} == mutants.CEILINGS
    counts = mutants.margin_counts(records)
    assert counts.keys() == mutants.CEILINGS.keys()
    for name, (latest, count) in counts.items():
        assert defaults[name] >= count > latest, (name, latest, count, defaults[name])
    # the rule sizes down: the characterizations' kills all lie in their grid
    assert counts["rank1_idempotent_iff_trace1_det0"] == (-1, mutants.FLOOR)
    assert sum(count < mutants.CEILINGS[name] for name, (_, count) in counts.items()) == 11


_FUNCTIONS = [fn for fns in checks.SUITES.values() for fn in fns]


@pytest.mark.parametrize("trials", [0, 1, 2, 5, 7, None], ids=lambda n: "default" if n is None else str(n))
def test_case_layout_holds_every_case_of_a_run(trials):
    results = checks.run_checks(seed=5, trials=trials)
    assert len(results) == len(_FUNCTIONS)
    for r, fn in zip(results, _FUNCTIONS):
        n = inspect.signature(fn).parameters["trials"].default if trials is None else trials
        total = mutants._outcome(r, 0)[1]
        assert r.ok == (total > 0), r.line()
        assert sum(s.size() for s in mutants.case_layout(r.name, n)) == total, r.line()
        assert mutants.locate(r.name, n, total) is None
        assert total == 0 or mutants.locate(r.name, n, total - 1) is not None


def test_locate_reads_a_case_as_a_grid_point_a_trial_or_a_tail_draw():
    # the grids before the trials, 19 cases in every fourth trial of the
    # natural order, 56 per plane, and one trial segment per frame level
    assert mutants.locate("natural_order_equals_minus_order", 1000, 6560) == (0, "grid", 6560)
    assert mutants.locate("natural_order_equals_minus_order", 1000, 6564) == (1, "trial", 2)
    assert mutants.locate("natural_order_equals_minus_order", 1000, 6561 + 22) == (1, "trial", 4)
    assert mutants.locate("restriction_identity", 100, 1373) == (0, "trial", 24)
    assert mutants.locate("chart_points_are_inverses", 500, 60) == (0, "trial", 6)
    assert mutants.locate("frame_identity_exact", 1000, 103) == (1, "tail", 22)
    assert mutants.locate("frame_identity_exact", 1000, 1103) == (2, "trial", 999)
    assert mutants.locate("frame_identity_exact", 1000, 1105) == (3, "trial", 1)
    assert mutants.locate("rank1_idempotent_iff_trace1_det0", 200, 2401 + 200) == (2, "grid", 0)
    assert mutants.locate("section_membership_iff_inverse_pair", 20, 5474) == (1, "trial", 7)
