"""The mutation sweep: every row of the fault table of `tests/faults.py`,
then one generated mutant per operator site of the arithmetic modules,
each against a full seed-42 run (DeMillo, Lipton & Sayward, IEEE Computer
11(4), 1978; Offutt et al., ACM TOSEM 5(2), 1996).

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

`run` runs one mutant, a row or a site, through `checks.run_checks(seed=42)`
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
after the sweep differs from the one before it.  For the certified checks
whose 64-bit tail is `checks._TAIL` draws it prints the largest tail index
of a first failure of a row or a site: a tail of `_TAIL` draws is the
prefix of a longer one (the draws are keyed by (seed, index)), so `_TAIL`
keeps every kill of these checks when it is larger than that index.  The
name does not start with `test_`, so pytest does not collect it.  Run from
the root of the repository, in about 7 minutes on one CPU (the rows take
about 25 s):

    PYTHONPATH=src:tests python tests/mutants.py [RECORD.json]

and pass a path to write the record there, the rows keyed by their ids and
the sites by theirs (`tests/data/mutants_seed42.json` is the committed
one).
"""

import ast
import copy
import importlib
import inspect
import json
import re
import signal
import sys
import time
from typing import NamedTuple

from faults import FAULTS, Undo, bind, compiled, function
from mutant_labels import LABELS

from greenquadrics import checks

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
# the certified checks whose 64-bit tail is `checks._TAIL` draws (the frame
# identity's at most that many), after their grids
TAIL_CHECKS = (
    "quadext_field_axioms",
    "cayley_hamilton",
    "det_multiplicative_trace_commutes",
    "inner_product_equals_trace_form",
    "traceless_singular_is_square_zero",
    "nilpotent_cone_45_degree_identity",
    "frame_identity_exact",
    "frame_roundtrip_exact",
    "symmetric_idempotents_form_radius_circle",
)


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


def run(mutation, suites=None) -> dict:
    """One mutant, a `Site` or a `faults.Fault`, against `run_checks(suites,
    seed=42)`: its status, whether the alarm ended it, the checks that
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
            checks.run_checks(suites, seed=SEED)
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


def tail_index(record: dict, certified: dict) -> int:
    """The largest tail index of a first failure of a tail check: one past
    the grid is index 0.  -1 when every kill lies in the grids."""
    tail = checks._TAIL
    return max(
        (first - certified[name] for entry in record.values() for name, (*_, first) in entry["checks"].items()
         if name in TAIL_CHECKS and first is not None and certified[name] <= first < certified[name] + tail),
        default=-1,
    )


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
    start = time.perf_counter()
    clean = checks.run_checks(seed=SEED)
    names = [r.name for r in clean]
    rows = {}
    for fault in FAULTS:
        rows[fault.id] = entry = run(fault)
        calls = sum(calls for _, _, calls, _ in entry["checks"].values())
        print(f"{fault.id}: {calls} calls; FAIL {', '.join(entry['failed']) or '(none: ' + entry['status'] + ')'}"
              f"{' (alarm)' if entry['timeout'] else ''}", flush=True)
    killed = sum(e["status"] == "killed" for e in rows.values())
    print(f"{len(rows)} rows, {killed} killed by a mutant that ran, in {time.perf_counter() - start:.1f} s")
    problems = kill_matrix(rows, names)
    record = {}
    for site in sites():
        record[site.id] = entry = run(site)
        print(f"{site.id} ({site.change}, line {site.line}): {entry['status']}{' (alarm)' if entry['timeout'] else ''}"
              f"{'; FAIL ' + ', '.join(entry['failed']) if entry['failed'] else ''}", flush=True)
    elapsed = time.perf_counter() - start
    counts = {status: sum(e["status"] == status for e in record.values()) for status in ("killed", "unreached", "survived")}
    print(f"{len(record)} mutants: " + ", ".join(f"{n} {status}" for status, n in counts.items()) + f", in {elapsed:.0f} s")
    index = tail_index({**rows, **record}, {r.name: r.certified for r in clean})
    print(f"_TAIL = {checks._TAIL}; largest tail index of a first failure: {index}, so _TAIL keeps every kill above it")
    problems += label_problems(record)
    if [r.line() for r in checks.run_checks(seed=SEED)] != [r.line() for r in clean]:
        problems.append("a clean run after the sweep differs from the one before it")
    for problem in problems:
        print(problem)
    if argv:
        with open(argv[0], "w") as out:
            out.write(f'{{"seed": {SEED}, "tail": {checks._TAIL}, "seconds": {elapsed:.0f},\n "checks": {json.dumps(names)},\n')
            out.write(' "fields": ["passing", "total", "calls", "first failing case"],\n')
            out.write(f"{_section('rows', rows, names)},\n{_section('mutants', record, names)}\n}}\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
