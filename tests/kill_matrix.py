"""The kill matrix: every row of the fault table against a full seed-42 run.

For each row of `faults.FAULTS`, install the row's mutant, run
`checks.run_checks(seed=42)` (every check of `gq check --seed 42`, not
only the row's own), undo the mutant, and print the mutant's call count
and the names of the results that FAIL.  After the rows, print for each
check how many rows it kills and how many it alone kills, and list the
rows with exactly one killer.  Exit 1 if some row survives (no result
fails) or its mutant never ran, since a mutant that no run reaches is not
a kill; and exit 1 if some check kills no row, since a check that no
fault of the table can fail shows nothing.  The name does not start with
`test_`, so pytest does not collect it.  Run from the root of the
repository:

    PYTHONPATH=src:tests python tests/kill_matrix.py
"""

import sys
import time

from faults import FAULTS, Undo, install

from greenquadrics import checks


def main() -> int:
    start = time.perf_counter()
    kills = {r.name: 0 for r in checks.run_checks(seed=42)}
    alone = dict.fromkeys(kills, 0)
    single = []  # "row (its one killer)"
    bad = []
    for fault in FAULTS:
        undo = Undo()
        try:
            calls = install(undo, fault)
            failed = [r.name for r in checks.run_checks(seed=42) if not r.ok]
        finally:
            undo.undo()
        for name in failed:
            kills[name] += 1
        if len(failed) == 1:
            alone[failed[0]] += 1
            single.append(f"{fault.id} ({failed[0]})")
        if not failed or not calls[0]:
            bad.append(fault.id)
        print(f"{fault.id}: {calls[0]} calls; FAIL {', '.join(failed) or '(none: survived)'}")
    print(f"{len(FAULTS)} rows, {len(FAULTS) - len(bad)} killed by a mutant that ran, in {time.perf_counter() - start:.1f} s")
    idle = [name for name, n in kills.items() if not n]
    print(f"checks that kill no row: {', '.join(idle) or '(none)'}")
    print("rows killed by each check (of them, killed by it alone):")
    for name, n in kills.items():
        print(f"  {name}: {n} ({alone[name]})")
    print(f"{len(single)} rows with one killer: {', '.join(single) or '(none)'}")
    if bad:
        print(f"survived or never ran: {', '.join(bad)}")
    return 1 if bad or idle else 0


if __name__ == "__main__":
    sys.exit(main())
