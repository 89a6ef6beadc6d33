"""The mutation sweep: every row of the fault table of `tests/faults.py`,
then one generated mutant per operator site of the arithmetic modules,
each against a full run of every check at one seed (DeMillo, Lipton &
Sayward, IEEE Computer 11(4), 1978; Offutt et al., ACM TOSEM 5(2), 1996).

A site is one operator of a function defined in the source file of
`exact`, `mat2`, `semigroup`, `sections`, `green` or `quadrics`, at the top
level of the module or of one of its classes: `+` and `-` swapped, `*` to
`+`, `//` to `*`, `==` and `!=` swapped, `<` and `<=` swapped, `>` and `>=`
swapped, `and` and `or` swapped, and an int constant below 10 in magnitude
raised by one (augmented assignments and default arguments included,
decorators not).  The sites of a function are numbered in source order,
and a site's id is `module.qualname#k`.  Its mutant is the function's
syntax tree with that one operator changed; a row's is its target's tree
parsed from the patched source.  Both are compiled by `faults.compiled`
and put by `faults.bind` at every attribute that holds the function, with
a `faults.Undo` list to take them out again.

`run` runs one mutant, a row or a site, through `checks.run_checks(seed=seed)`
under a 20 s alarm, and the mutant is

- unreached: it was never called;
- killed: some check fails (its result is not ok; a check that raises or
  runs no case fails too), or the run outlasts the alarm;
- survived: otherwise.

For every (mutant, check) pair the sweep records the passing and total
cases, the calls of the mutant during that check and the index of the
first failing case (`None` when the check passed or failed on no case).
After the rows it prints the kill matrix: for each check how many rows it
kills and how many it alone kills, and the rows with exactly one killer.
Every survivor of the sites needs one label of `mutant_labels.LABELS`, and
no mutant is left out: the sweep exits 1 on a row that is not killed, on a
check that kills no row (it shows nothing the table can fail), on a
surviving site without a label (or with a label written for another
operator), on a label of a site that did not survive, and when a clean run
after the sweep differs from the one before it.

Each first failing case is read through `locate` as a grid point,
a trial or a tail draw of its check's run.  For the certified checks with
a 64-bit tail of `checks._TAIL` draws the sweep prints the largest tail
index of a first failure of a row or a site: a tail of `_TAIL` draws is
the prefix of a longer one (the draws are keyed by (seed, index)), so
`_TAIL` keeps every kill of these checks when it is larger than that
index.  For each check with sampled trials it prints the latest trial
that holds a first failure and the count the margin rule of the `checks`
docstring asks for (`margin_counts`), and it exits 1 when a default is
below that count.  The name does not start with `test_`, so pytest does
not collect it.  Run from the root of the repository:

    PYTHONPATH=src:tests python tests/mutants.py [--seed N] [RECORD.json]

at seed 42 unless `--seed` names another, and pass a path to write the
record there: the default count of each check, then the rows keyed by
their ids and the sites by theirs.  `tests/data/mutants_seed42.json` and
`tests/data/mutants_seed7.json` are the committed records, both made at
the hand-set counts of `CEILINGS`, and they size the defaults.  At the
defaults a sweep takes about 5 minutes on one CPU (the rows 13-19 s):
282-303 s at seed 42 and 271-294 s at seed 7 over two runs each, against
404 s and 408 s at the hand-set counts (two sweeps side by side on a 2-CPU
x86_64 machine).
"""

import argparse
import ast
import copy
import importlib
import inspect
import json
import re
import signal
import sys
import time
from bisect import bisect_right
from itertools import accumulate, chain
from typing import NamedTuple

from faults import FAULTS, Undo, bind, compiled, function
from mutant_labels import LABELS

from greenquadrics import checks, sampling

MODULES = ("exact", "mat2", "semigroup", "sections", "green", "quadrics")
SEED = 42
ALARM_S = 20
_SWAPS = {
    ast.Add: ast.Sub,
    ast.Sub: ast.Add,
    ast.Mult: ast.Add,
    ast.FloorDiv: ast.Mult,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
    ast.And: ast.Or,
    ast.Or: ast.And,
}
_SMALL = 10  # an int constant below this in magnitude is raised by one
KINDS = ("equivalent", "tier-1 only", "hole")  # the labels of a survivor
# The hand-set default of each check with sampled trials before the margin
# rule of the `checks` docstring: the rule sizes a default down from it,
# never up.
CEILINGS = {
    "quadext_sign_float_bridge": 2000,
    "class_plane_points_stay_in_class": 1000,
    "d_class_is_rank_class": 2000,
    "plane_classification_roundtrip": 500,
    "h_class_is_punctured_line": 500,
    "rank1_idempotent_iff_trace1_det0": 10000,
    "nilpotent_iff_trace0_det0": 10000,
    "chart_points_are_inverses": 500,
    "section_membership_iff_inverse_pair": 20,
    "chart_is_injective": 500,
    "generator_lines_lie_on_surface": 500,
    "generator_line_combinatorics": 50,
    "natural_order_equals_minus_order": 1000,
    "order_below_a_is_inverse_section": 10,
    "frame_identity_exact": 1000,
    "table_matches_generic_classifier": 1000,
    "restriction_identity": 100,
    "affine_invariance_of_class": 200,
    "section_is_inverse_image_of_idempotents": 500,
}
FLOOR, WIDE_FLOOR = 200, 50  # the least count, and that of a check whose trials are 10 cases or more


class Site(NamedTuple):
    id: str  # "module.qualname#k"
    owner: object  # the module or class that defines the function
    name: str
    node: ast.FunctionDef
    k: int
    line: int
    change: str  # for example "+ -> -" or "2 -> 3"

    def mutant(self):
        """(the attribute value that holds the function, the mutant)."""
        node = copy.deepcopy(self.node)
        op_node, (field, index), _, new = _operators(node)[self.k]
        if field == "value":
            op_node.value = new
        elif index is None:
            op_node.op = new()
        else:
            op_node.ops[index] = new()
        return vars(self.owner)[self.name], compiled(self.owner, self.name, node, self.id)


class Timeout(BaseException):
    """The alarm of one mutant's run: not an `Exception`, so that no
    check's own `try` counts it as one failing case."""


def _symbol(op) -> str:
    if isinstance(op, int):
        return str(op)
    return {
        ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//", ast.Eq: "==", ast.NotEq: "!=",
        ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.And: "and", ast.Or: "or",
    }[op]


def _operators(fn: ast.FunctionDef):
    """(node, slot, old, new) of every site of `fn` in source order: `slot`
    is the field that holds the operator, with its index in a comparison."""
    found = []
    scope = [*fn.args.defaults, *(d for d in fn.args.kw_defaults if d is not None), *fn.body]
    for node in (n for top in scope for n in ast.walk(top)):
        if isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in _SWAPS:
            found.append((node, ("op", None), type(node.op), _SWAPS[type(node.op)]))
        elif isinstance(node, ast.Compare):
            found += [(node, ("ops", i), type(op), _SWAPS[type(op)]) for i, op in enumerate(node.ops) if type(op) in _SWAPS]
        elif isinstance(node, ast.Constant) and type(node.value) is int and abs(node.value) < _SMALL:
            found.append((node, ("value", None), node.value, node.value + 1))
    return sorted(found, key=lambda f: (f[0].lineno, f[0].col_offset, f[1][1] or 0))


def _functions(module):
    """(owner, name, node) of each function at the top level of `module`'s
    source file or of one of its classes, in source order."""
    tree = ast.parse(inspect.getsource(module))
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef):
            yield module, stmt.name, stmt
        elif isinstance(stmt, ast.ClassDef):
            cls = vars(module)[stmt.name]
            yield from ((cls, s.name, s) for s in stmt.body if isinstance(s, ast.FunctionDef))


def module_sites(module_name) -> list[Site]:
    """Every site of `greenquadrics.<module_name>`, in source order."""
    module = importlib.import_module(f"greenquadrics.{module_name}")
    found = []
    for owner, name, node in _functions(module):
        func = function(owner, name)
        # a function the module defines, not one a later name rebinds
        assert func.__code__.co_filename == module.__file__, (module_name, name)
        qualname = f"{module_name}.{name}" if owner is module else f"{module_name}.{owner.__name__}.{name}"
        for k, (op_node, _, old, new) in enumerate(_operators(node)):
            change = f"{_symbol(old)} -> {_symbol(new)}"
            found.append(Site(f"{qualname}#{k}", owner, name, node, k, op_node.lineno, change))
    return found


def sites() -> list[Site]:
    """Every site of `MODULES`, in module then source order."""
    return [site for module_name in MODULES for site in module_sites(module_name)]


def _outcome(result, calls):
    """[passing, total, calls, first failing case or None] of one result."""
    ok, total = map(int, re.match(r"(\d+)/(\d+) trials ok", result.detail).groups())
    firsts = [int(i) for i in re.findall(r"first failure at case (\d+)", result.detail)]
    firsts += [int(i) for i in re.findall(r"case (\d+) raised", result.detail)]
    return [ok, total, calls, None if result.ok else min(firsts, default=None)]


def _on_alarm(signum, frame):
    raise Timeout


def run(mutation, suites=None, seed=SEED) -> dict:
    """One mutant, a `Site` or a `faults.Fault`, against `run_checks(suites,
    seed)`: its status, whether the alarm ended it, the checks that
    failed and the outcome of each check that finished; a site's entry
    starts with its line and change."""
    undo = Undo()
    outcomes, failed = {}, []
    try:
        calls = bind(undo, *mutation.mutant())

        def recorded(fn):
            def check(seed, *trials):
                before = calls[0]
                result = fn(seed, *trials)
                outcomes[result.name] = _outcome(result, calls[0] - before)
                if not result.ok:
                    failed.append(result.name)
                return result

            return check

        undo.setattr(checks, "SUITES", {suite: list(map(recorded, fns)) for suite, fns in checks.SUITES.items()})
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, ALARM_S)
        try:
            checks.run_checks(suites, seed=seed)
            timeout = False
        except Timeout:
            timeout = True
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    finally:
        undo.undo()
    status = "unreached" if not calls[0] else "killed" if timeout or failed else "survived"
    where = {"line": mutation.line, "change": mutation.change} if isinstance(mutation, Site) else {}
    return {**where, "status": status, "timeout": timeout, "failed": failed, "checks": outcomes}


class Segment(NamedTuple):
    """A run of cases of one kind in a check's case stream: "grid" (points of
    a grid, or fixed cases, that run in full at any count), "trial" (sampled
    trials) or "tail" (a certificate's 64-bit draws).  Item i of the
    segment is `cases[i % len(cases)]` consecutive cases."""

    kind: str
    items: int
    cases: tuple = (1,)

    def size(self) -> int:
        cycles, rest = divmod(self.items, len(self.cases))
        return cycles * sum(self.cases) + sum(self.cases[:rest])


# the grid points of each check that is a certificate and a 64-bit tail
IDENTITY_GRIDS = {
    "quadext_field_axioms": 144,
    "cayley_hamilton": 81,
    "det_multiplicative_trace_commutes": 256,
    "inner_product_equals_trace_form": 256,
    "traceless_singular_is_square_zero": 75,
    "nilpotent_cone_45_degree_identity": 75,
    "frame_roundtrip_exact": 32,
    "symmetric_idempotents_form_radius_circle": 25,
}


def case_layout(name: str, trials: int) -> tuple[Segment, ...]:
    """The segments of the cases of the check whose result is `name`, run at
    `trials`, in order.  The frame identity has one trial segment per level
    after its tail; the characterizations and the natural order run their
    small grids before their trials, and a trial of the natural order's
    stratum 2 is its pair and the 18 points of its chart grids."""
    trial = Segment("trial", trials)
    if name in IDENTITY_GRIDS:
        return Segment("grid", IDENTITY_GRIDS[name]), Segment("tail", trials)
    if name == "frame_identity_exact":
        return (Segment("grid", 81), Segment("tail", min(trials, checks._TAIL))) + (trial,) * len(checks._BELL_LEVELS)
    if name in ("rank1_idempotent_iff_trace1_det0", "nilpotent_iff_trace0_det0"):
        charts = checks._IDEMPOTENT_CHART_POINTS + checks._grid_size(checks._NILPOTENT_CHART)
        return Segment("grid", len(sampling.grid_values(span=2, dens=(1, 2))) ** 4), trial, Segment("grid", charts)
    if name == "natural_order_equals_minus_order":
        below = 1 + checks._IDEMPOTENT_CHART_POINTS  # a trial of stratum 2
        return Segment("grid", len(sampling.grid_values(span=1)) ** 8), Segment("trial", trials, (1, 1, below, 1))
    if name == "chart_points_are_inverses":
        return (Segment("trial", trials, (9 + checks._CHART_TAIL,)),)
    if name == "restriction_identity":
        return (Segment("trial", trials, (2 * 27 + checks._PLANE_TAIL,)),)
    if name == "section_membership_iff_inverse_pair":
        grid = len(sampling.grid_values(span=2)) ** 4  # the x of each a, after those of a fixed a
        return Segment("grid", grid), Segment("trial", min(trials, checks._MEMBERSHIP_CAP), (grid,))
    if name == "order_below_a_is_inverse_section":
        return trial, Segment("grid", 1)  # then the report at a = I
    if name == "metrics_family_shares_axis_and_cone":
        return (Segment("grid", 5),)
    return (trial,)


def locate(name: str, trials: int, index: int) -> tuple[int, str, int] | None:
    """Where case `index` of a run of check `name` at `trials` lies: (the
    number of its segment in `case_layout`, the segment's kind, the item of
    the segment that holds it), or None past the last case."""
    layout = case_layout(name, trials)
    starts = [0, *accumulate(s.size() for s in layout)]
    number = bisect_right(starts, index) - 1  # the last segment to start at or before index
    if number == len(layout):
        return None
    segment = layout[number]
    cycles, offset = divmod(index - starts[number], sum(segment.cases))
    return number, segment.kind, cycles * len(segment.cases) + bisect_right(list(accumulate(segment.cases)), offset)


def default_trials(names) -> dict:
    """The default `trials` of each check, keyed by the names of its results
    (`names`, one per function of `checks.SUITES`, in order)."""
    fns = list(chain.from_iterable(checks.SUITES.values()))
    assert len(fns) == len(names), (len(fns), len(names))
    return {name: inspect.signature(fn).parameters["trials"].default for name, fn in zip(names, fns)}


def label_problems(record: dict) -> list[str]:
    """The survivors without a label of `KINDS` (or with one written for
    another operator), and the labels of sites that did not survive."""
    problems = []
    for site_id, entry in record.items():
        label = LABELS.get(site_id)
        if entry["status"] == "survived" and (label is None or label[0] != entry["change"] or label[1] not in KINDS):
            problems.append(f"unlabelled survivor {site_id} ({entry['change']}, line {entry['line']})")
        elif entry["status"] != "survived" and label is not None:
            problems.append(f"label of a site that is {entry['status']}: {site_id}")
    problems += [f"label of no site: {site_id}" for site_id in LABELS.keys() - record.keys()]
    return problems


def _kills(record: dict):
    """(check name, `locate` of the first failing case) of every
    (mutant, check) kill with a first failing case, rows and sites, of a
    record as its file holds it."""
    for entry in chain(record["rows"].values(), record["mutants"].values()):
        for name, outcome in zip(record["checks"], entry["checks"]):
            if outcome is not None and outcome[3] is not None:
                yield name, locate(name, record["trials"][name], outcome[3])


def tail_index(record: dict) -> int:
    """The largest index in a certificate's 64-bit tail of a first failure;
    -1 when every kill lies elsewhere."""
    return max((item for _, (_, kind, item) in _kills(record) if kind == "tail"), default=-1)


def margin_counts(records) -> dict:
    """(latest, count) of each check with sampled trials over `records`: the
    latest trial that holds a first failing case (a trial of the frame
    identity counted within its level), -1 when none does, and the count the
    margin rule asks for, max(2 (latest + 1), floor) rounded up to a
    multiple of 50 and at most the check's ceiling."""
    found = {}  # name -> [latest, the fewest cases of one of its trials]
    for record in records:
        for name, trials in record["trials"].items():
            cases = [min(s.cases) for s in case_layout(name, trials) if s.kind == "trial"]
            if cases:
                found.setdefault(name, [-1, min(cases)])
        for name, (_, kind, item) in _kills(record):
            if kind == "trial":
                found[name][0] = max(found[name][0], item)
    counts = {}
    for name, (latest, cases) in found.items():
        need = max(2 * (latest + 1), WIDE_FLOOR if cases >= 10 else FLOOR)
        counts[name] = latest, min(-(-need // 50) * 50, CEILINGS[name])
    return counts


def kill_matrix(rows: dict, names: list) -> list[str]:
    """Print for each check how many rows it kills and how many it alone
    kills, and the rows with one killer; return the rows that are not
    killed and the checks that kill no row."""
    kills = {name: sum(name in e["failed"] for e in rows.values()) for name in names}
    single = [(row_id, e["failed"][0]) for row_id, e in rows.items() if len(e["failed"]) == 1]
    idle = [name for name, n in kills.items() if not n]
    print(f"checks that kill no row: {', '.join(idle) or '(none)'}")
    print("rows killed by each check (of them, killed by it alone):")
    for name, n in kills.items():
        print(f"  {name}: {n} ({sum(killer == name for _, killer in single)})")
    print(f"{len(single)} rows with one killer: {', '.join(f'{r} ({k})' for r, k in single) or '(none)'}")
    bad = [row_id for row_id, e in rows.items() if e["status"] != "killed"]
    return [f"row not killed by a mutant that ran: {row_id}" for row_id in bad] + [
        f"check that kills no row: {name}" for name in idle
    ]


def _section(key, entries, names) -> str:
    """The record's `key` section, one entry a line, its outcomes in the
    order of `names`."""
    lines = (
        f"  {json.dumps(k)}: {json.dumps({**e, 'checks': [e['checks'].get(n) for n in names]}, separators=(',', ':'))}"
        for k, e in entries.items()
    )
    return f' "{key}": {{\n' + ",\n".join(lines) + "\n }"


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="mutants.py", description="the mutation sweep against a full run of gq check")
    parser.add_argument("--seed", type=int, default=SEED, help=f"the seed of every run (default {SEED})")
    parser.add_argument("record", nargs="?", help="write the record to this path")
    args = parser.parse_args(argv)
    seed = args.seed
    start = time.perf_counter()
    clean = checks.run_checks(seed=seed)
    names = [r.name for r in clean]
    trials = default_trials(names)
    rows = {}
    for fault in FAULTS:
        rows[fault.id] = entry = run(fault, seed=seed)
        calls = sum(calls for _, _, calls, _ in entry["checks"].values())
        print(f"{fault.id}: {calls} calls; FAIL {', '.join(entry['failed']) or '(none: ' + entry['status'] + ')'}"
              f"{' (alarm)' if entry['timeout'] else ''}", flush=True)
    killed = sum(e["status"] == "killed" for e in rows.values())
    print(f"{len(rows)} rows, {killed} killed by a mutant that ran, in {time.perf_counter() - start:.1f} s")
    problems = kill_matrix(rows, names)
    record = {}
    for site in sites():
        record[site.id] = entry = run(site, seed=seed)
        print(f"{site.id} ({site.change}, line {site.line}): {entry['status']}{' (alarm)' if entry['timeout'] else ''}"
              f"{'; FAIL ' + ', '.join(entry['failed']) if entry['failed'] else ''}", flush=True)
    elapsed = time.perf_counter() - start
    counts = {status: sum(e["status"] == status for e in record.values()) for status in ("killed", "unreached", "survived")}
    print(f"{len(record)} mutants: " + ", ".join(f"{n} {status}" for status, n in counts.items()) + f", in {elapsed:.0f} s")
    text = (
        f'{{"seed": {seed}, "tail": {checks._TAIL}, "seconds": {elapsed:.0f},\n "checks": {json.dumps(names)},\n'
        f' "trials": {json.dumps(trials)},\n "fields": ["passing", "total", "calls", "first failing case"],\n'
        f"{_section('rows', rows, names)},\n{_section('mutants', record, names)}\n}}\n"
    )
    sweep = json.loads(text)
    index = tail_index(sweep)
    print(f"_TAIL = {checks._TAIL}; largest tail index of a first failure: {index}, so _TAIL keeps every kill above it")
    for name, (latest, count) in margin_counts([sweep]).items():
        print(f"{name}: latest first failing trial {latest}, so the margin rule asks for {count}; default {trials[name]}")
        if trials[name] < count:
            problems.append(f"default below the margin rule: {name} ({trials[name]} < {count})")
    problems += label_problems(record)
    if [r.line() for r in checks.run_checks(seed=seed)] != [r.line() for r in clean]:
        problems.append("a clean run after the sweep differs from the one before it")
    for problem in problems:
        print(problem)
    if args.record:
        with open(args.record, "w") as out:
            out.write(text)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
