"""The generated-mutant sweep of `tests/mutants.py`, on three of its sites
and one suite: a killed site, an unreached one and a labelled equivalent
survivor."""

import mutants
from mutant_labels import LABELS

KILLED = "mat2.Mat2.__matmul__#0"
UNREACHED = "exact.parse_rational#0"
EQUIVALENT = "exact._from_ints#0"


def test_the_sites_are_deterministic():
    first, second = mutants.sites(), mutants.sites()
    assert [(s.id, s.line, s.change) for s in first] == [(s.id, s.line, s.change) for s in second]
    assert len({s.id for s in first}) == len(first)
    assert {s.id.partition(".")[0] for s in first} == set(mutants.MODULES)


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
    from greenquadrics import checks, mat2

    site = next(s for s in mutants.sites() if s.id == KILLED)
    matmul = vars(mat2.Mat2)["__matmul__"]
    mutants.run(site, suites=["core"])
    assert vars(mat2.Mat2)["__matmul__"] is matmul
    assert all(r.ok for r in checks.run_checks(["core"], seed=42))
