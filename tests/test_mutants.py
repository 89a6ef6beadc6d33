"""The mutation sweep of `tests/mutants.py`, on the site list of every
module of the package, on three of its sites and one suite (a killed
site, an unreached one and a labelled equivalent survivor), on one row of
the fault table, and against its committed record."""

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

RECORD = pathlib.Path(__file__).resolve().parent / "data" / "mutants_seed42.json"

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
    record = json.loads(RECORD.read_text())
    changes = {s.id: s.change for s in mutants.sites()}
    assert {site_id: entry["change"] for site_id, entry in record["mutants"].items()} == changes
    assert {site_id: label[0] for site_id, label in LABELS.items()}.items() <= changes.items()
    assert list(record["rows"]) == [fault.id for fault in FAULTS]
