"""Static guards over the package source: one arithmetic lane, no hidden knobs.

Every module under src/greenquadrics is parsed with `ast`.  The package
reads no environment variable, nothing may import a compiled kernel, and
nothing imports `random`: every draw comes from `sampling.Stream`.  Every
CLI count (`--grid`, `--samples`, both `--trials`) is read by the one
argparse type `_count`, and only a `--seed` is a plain `int`; a name
argument (a Green relation, a line family, a surface kind) has one
spelling, and no library function folds its case.
Every name a module exports in `__all__` exists, and the package
re-exports only names its modules export, so a deletion cannot leave a
stale export behind.  Importing the CLI loads no math module, `--float`
output loads no export module, the package writes exact values in
`cli._exact` only and encodes JSON once, and nothing imports
`dataclasses`.  The order, line and chart paths compute on a `Mat2`'s
integer content: they read no `Fraction` accessor.  The quadric
classifier eliminates its bordered matrix and solves no linear system,
the minus order forms no difference y - x, and SplitMix64 is mixed in
`Stream.offsets` and the lane helper `_lane_offsets` only.  One table, `NAME_GUARDS`,
lists the names a function or module may not use: the natural order and
the meet of two lines are decided by minors, not by a solve, the inverse
chart builds no `Fraction`, the semigroup predicates, the section tests,
the order report and the two characterizations read no trace, det,
canonical product or `Fraction` (and the predicates multiply no `Mat2`),
the comparisons of the certified identities and the content comparisons of
`mat2` read no det, trace, inner or `Fraction`, and neither the lane
helper, `uniform_columns` nor export builds a `Stream`.  The five oracles
(`is_idempotent`, `is_nilpotent`, `is_inverse_pair`, `natural_le`,
`minus_le`) read none of those content comparisons.  Each certified
identity still calls the map it certifies (`CERTIFIED_MAPS`), and the
nilpotent chart point does no arithmetic on its `Fraction` parameters.  In
the check suites only one helper counts trials and only one keys a seeded
stream.  Every module-level `def` and `class` is named
by some package code: a name that only tests reach is deleted, not kept
as a second door.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "greenquadrics"
MODULES = sorted(PACKAGE.rglob("*.py"))
ALLOWED_ENV = set()
FORBIDDEN_IMPORTS = ("_kernel", "_cyquad", "Cython")


def _is_environ(node) -> bool:
    # `os.environ` or a bare `environ` (from `from os import environ`)
    return (isinstance(node, ast.Attribute) and node.attr == "environ") or (
        isinstance(node, ast.Name) and node.id == "environ"
    )


def _is_getenv(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "getenv") or (
        isinstance(node, ast.Name) and node.id == "getenv"
    )


def _env_reads(tree):
    """(keys read, count of every environ/getenv reference) in one module."""
    keys = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            if _is_getenv(f) or (isinstance(f, ast.Attribute) and f.attr == "get" and _is_environ(f.value)):
                keys.append(node.args[0] if node.args else None)
        elif isinstance(node, ast.Subscript) and _is_environ(node.value):
            keys.append(node.slice)
    refs = sum(1 for node in ast.walk(tree) if _is_environ(node) or _is_getenv(node))
    return [k.value if isinstance(k, ast.Constant) else None for k in keys], refs


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def _function(module, name):
    """The `def` of `name` in `module`; a dotted name reaches a nested `def`,
    such as `check_bell_identity.holds`."""
    node = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    for part in name.split("."):
        node = next(n for n in node.body if isinstance(n, ast.FunctionDef) and n.name == part)
    return node


def test_package_has_modules():
    assert PACKAGE.is_dir() and len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_package_reads_no_environment(path):
    keys, refs = _env_reads(ast.parse(path.read_text(encoding="utf-8")))
    # every environ/getenv reference is a read with a literal, allowed key
    assert len(keys) == refs, f"{path.name}: environment accessed other than by a literal key"
    assert set(keys) <= ALLOWED_ENV, f"{path.name} reads {sorted(map(str, keys))}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_compiled_kernel_import(path):
    for name in _imported_names(ast.parse(path.read_text(encoding="utf-8"))):
        parts = name.split(".")
        assert not any(bad in parts for bad in FORBIDDEN_IMPORTS), f"{path.name} imports {name}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_second_generator(path):
    for name in _imported_names(ast.parse(path.read_text(encoding="utf-8"))):
        assert name.split(".")[0] != "random", f"{path.name} imports {name}"


def _add_arguments(tree):
    """(option, type name) of each `add_argument` call that has a `type=`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument":
            for kw in node.keywords:
                if kw.arg == "type":
                    yield node.args[0].value, kw.value.id


def test_counts_have_one_parser():
    # a count or a seed is checked once, by its argparse type: no runner compares one
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert sorted(_add_arguments(tree)) == [
        ("--grid", "_count"),
        ("--samples", "_count"),
        *[("--seed", "_seed")] * 3,
        *[("--trials", "_count")] * 2,
    ]
    compared = {
        n.attr
        for cmp in ast.walk(tree)
        if isinstance(cmp, ast.Compare)
        for n in ast.walk(cmp)
        if isinstance(n, ast.Attribute)
    }
    assert not compared & {"grid", "samples", "trials", "seed"}, sorted(compared)


NAME_ARGUMENTS = [
    ("green", "green_eq"),
    ("green", "class_plane"),
    ("semigroup", "generator_line"),
    ("surfaces", "sample_surface"),
]


@pytest.mark.parametrize("module,func", NAME_ARGUMENTS, ids=lambda v: v)
def test_names_are_not_folded(module, func):
    body = _function(module, func)
    calls = {n.func.attr for n in ast.walk(body) if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)}
    used = calls & {"upper", "lower", "casefold", "replace", "title", "capitalize"}
    assert not used, f"{module}.{func} calls {sorted(used)}"


def test_surfaces_hold_no_point_lists():
    # export streams its rows; an eager copy of the points must not come back
    tree = ast.parse((PACKAGE / "surfaces.py").read_text(encoding="utf-8"))
    imported = {name.split(".")[0] for name in _imported_names(tree)}
    assert not imported & {"csv", "dataclasses"}, f"surfaces imports {sorted(imported)}"
    attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "points" not in attrs, "surfaces reads or sets a `points` attribute"
    # generator lines are drawn in order: a sort would hold a line's points
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert "sorted" not in names and "sort" not in attrs, "surfaces sorts"
    from greenquadrics.surfaces import SurfaceSample

    assert not hasattr(SurfaceSample, "points")


# functions that compute on integer content (`Mat2._n`/`_d`, the chart and
# polynomial ints of `AffineQuadric3`): each `Fraction` accessor costs a gcd
# per entry, and the solvers would only clear them back to ints
CONTENT_PATHS = [
    ("semigroup", "natural_le"),
    ("semigroup", "minus_le"),
    ("semigroup", "inverse_chart"),
    ("semigroup", "chart_eval"),
    ("semigroup", "line_meet"),
    ("green", "rowspace"),
    ("green", "colspace"),
    ("sections", "restrict_quadric"),
    ("sections", "quadric_on_chart"),
    ("sections", "classify_affine_quadric"),
]
ROUND_TRIP = {"entries", "x1", "x2", "x3", "x4", "Q", "b", "c", "origin", "basis"}
# `quadric_on_chart` runs on content too, but no other content path may call
# it: `restrict_quadric` reads its sparse polynomial off the chart, and the
# general polarization of the same chart classifies about 3x slower on
# 256-bit planes
FRACTION_HELPERS = {"rank1_factor", "trace_functional", "quadric_on_chart", "classify_quadric"}


def _fraction_reads(body) -> set[str]:
    """The `Fraction` accessors and helpers a function body uses.  The
    helpers count as an attribute (`semigroup.rank1_factor(x)`) and as a
    bare name alike."""
    attrs = {n.attr for n in ast.walk(body) if isinstance(n, ast.Attribute)}
    names = {n.id for n in ast.walk(body) if isinstance(n, ast.Name)}
    return (attrs & ROUND_TRIP) | ((attrs | names) & FRACTION_HELPERS)


@pytest.mark.parametrize("module,func", CONTENT_PATHS, ids=lambda v: v)
def test_content_paths_read_no_fraction_accessor(module, func):
    used = _fraction_reads(_function(module, func))
    assert not used, f"{module}.{func} reads {sorted(used)}"


@pytest.mark.parametrize(
    "src,expected",
    [
        ("def f(x): return semigroup.rank1_factor(x)", {"rank1_factor"}),
        ("def f(x): return rank1_factor(x)", {"rank1_factor"}),
        ("def f(q): return quadrics.classify_quadric(q.Q, q.b, q.c)", {"classify_quadric", "Q", "b", "c"}),
        ("def f(x): return x.entries", {"entries"}),
        ("def f(x, Q): return x._n, Q", set()),
    ],
    ids=["attribute-helper", "name-helper", "attribute-classifier", "accessor", "content"],
)
def test_fraction_reads_sees_both_forms(src, expected):
    assert _fraction_reads(ast.parse(src).body[0]) == expected


def test_quadrics_solve_no_linear_system():
    tree = ast.parse((PACKAGE / "quadrics.py").read_text(encoding="utf-8"))
    names = set(_imported_names(tree))
    assert not any(name.split(".")[-1] == "solve_linear" for name in names), sorted(names)
    # nor clears `Fraction`s: it takes integer content only
    assert not any("_linear" in name.split(".") for name in names), sorted(names)


# the predicates that decide products, traces and determinants on content
CONTENT_PREDICATES = [
    ("semigroup", "is_idempotent"),
    ("semigroup", "is_nilpotent"),
    ("semigroup", "is_inverse_pair"),
    ("semigroup", "inverse_membership"),
    ("checks", "idempotent_characterization_holds"),
    ("checks", "nilpotent_characterization_holds"),
    ("sections", "membership"),
    ("sections", "section_membership"),
]
CONTENT_TESTS = {"trace", "det", "_canon", "_from_ints", "Rational"}
# the comparisons of the certified identities and the content comparisons
# of `mat2` they share with the section tests
IDENTITY_COMPARISONS = [
    ("checks", "restriction_holds"),
    ("checks", "frame_residual_holds"),
    ("checks", "check_bell_identity.holds"),
    ("checks", "check_inverse_set_theorem.holds"),
    ("mat2", "_det_is"),
    ("mat2", "_trace_is"),
    ("mat2", "_inner_is"),
    ("mat2", "_trace_of_product_is"),
]
IDENTITY_TESTS = {"det", "trace", "inner", "entries", "_from_ints", "Rational"}
# the independent oracles that `gq check` compares the section tests and the
# characterizations with: an oracle that read a content comparison of `mat2`
# would compare that comparison with itself
ORACLES = ["is_idempotent", "is_nilpotent", "is_inverse_pair", "natural_le", "minus_le"]
CONTENT_COMPARISONS = {"_det_is", "_trace_is", "_inner_is", "_trace_of_product_is"}

# (module, function, names its body may not use); function None is the
# whole module
NAME_GUARDS = [
    # the order is decided from the minors of its integer system: no solve,
    # no projective line, no gcd
    ("semigroup", "natural_le", {"solve_linear", "colspace", "ProjLine", "gcd"}),
    # the meet is decided from the minors of its integer system: no solve,
    # no projective line
    ("semigroup", "line_meet", {"solve_linear", "colspace", "ProjLine"}),
    # lanes mix many keys per big int; a `Stream` per row would bring back
    # the scalar loop as a second path to the same draws
    ("sampling", "_lane_offsets", {"Stream", "rng_for"}),
    ("sampling", "uniform_columns", {"Stream", "rng_for"}),
    # every export draw goes through the lanes of `uniform_columns`
    ("surfaces", None, {"Stream", "rng_for"}),
    # the chart's Fraction vectors are built on first read, not by the chart
    ("semigroup", "inverse_chart", {"_from_ints", "Rational"}),
    # the semigroup predicates cross-multiply content: no trace, det or
    # canonical product, and no `Fraction`
    *((module, func, CONTENT_TESTS) for module, func in CONTENT_PREDICATES),
    # the report's two section columns are the same integer form; its `@`
    # only builds the sampled x
    ("semigroup", "order_section_report", CONTENT_TESTS),
    # the certified identities compare on content: the public det, trace and
    # inner have checks of their own, no `Fraction` is built, and the
    # restriction's moved entries are cross-multiplied against t, not read as
    # the `entries` of a difference
    *((module, func, IDENTITY_TESTS) for module, func in IDENTITY_COMPARISONS),
    ("checks", "_nilpotent_point", {"_from_ints", "Rational"}),
]

# (function of `checks`, the maps it must call): a certified identity keeps
# calling the map it certifies, so a comparison on content cannot stand in
# for the map with a copy of its formula
CERTIFIED_MAPS = [
    ("restriction_holds", {"point", "evaluate"}),
    ("frame_residual_holds", {"bell_residual"}),
    ("check_bell_identity.holds", {"bell_residual"}),
    ("nilpotent_cone_holds", {"norm_sq"}),
    ("check_inverse_set_theorem.holds", {"chart_eval"}),
]


def _calls(body) -> set[str]:
    """The names a function body calls, bare or as an attribute."""
    return {_spelled(n.func) for n in ast.walk(body) if isinstance(n, ast.Call)}


def test_calls_sees_each_form():
    src = "def f(aq, t): return aq.point(t), bell_residual(x), norm_sq"
    assert _calls(ast.parse(src).body[0]) == {"point", "bell_residual"}


def test_nilpotent_point_builds_no_fraction():
    # the chart point is built from the ints of k, p and q: arithmetic on the
    # parameters themselves, or a `Mat2` of it, would build `Fraction`s
    body = _function("checks", "_nilpotent_point")
    params = {a.arg for a in body.args.args}
    operands = (
        operand
        for n in ast.walk(body)
        if isinstance(n, (ast.BinOp, ast.UnaryOp))
        for operand in ((n.left, n.right) if isinstance(n, ast.BinOp) else (n.operand,))
    )
    assert not {_spelled(operand) for operand in operands} & params
    assert "Mat2" not in _calls(body)


@pytest.mark.parametrize("func,maps", CERTIFIED_MAPS, ids=[f for f, _ in CERTIFIED_MAPS])
def test_certified_identity_calls_its_map(func, maps):
    missing = maps - _calls(_function("checks", func))
    assert not missing, f"checks.{func} no longer calls {sorted(missing)}"


@pytest.mark.parametrize("module,func", CONTENT_PREDICATES, ids=lambda v: v)
def test_content_predicates_multiply_no_mat2(module, func):
    # a product of matrices would be a `Mat2` reduced by `_canon`
    assert not any(isinstance(n, ast.MatMult) for n in ast.walk(_function(module, func))), f"{module}.{func} uses @"


@pytest.mark.parametrize("func", ORACLES)
def test_oracles_read_no_content_comparison(func):
    used = {_spelled(n) for n in ast.walk(_function("semigroup", func))} & CONTENT_COMPARISONS
    assert not used, f"semigroup.{func} uses {sorted(used)}"


@pytest.mark.parametrize("module,func,forbidden", NAME_GUARDS, ids=[f"{m}-{f or 'module'}" for m, f, _ in NAME_GUARDS])
def test_body_uses_no_forbidden_name(module, func, forbidden):
    if func is None:
        body = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    else:
        body = _function(module, func)
    used = {_spelled(n) for n in ast.walk(body)} & forbidden
    assert not used, f"{module}.{func or '*'} uses {sorted(used)}"


COUNTERS = {"failures", "total"}


def _counting(body) -> set[str]:
    """What a function body does that only the trial counter may: augment
    or bind a counter, call `_result` or `rng_for`."""
    found = set()
    for n in ast.walk(body):
        if isinstance(n, ast.AugAssign):
            found.add("augmented assignment")
        elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store) and n.id in COUNTERS:
            found.add(n.id)
        elif isinstance(n, ast.Call):
            name = getattr(n.func, "id", None) or getattr(n.func, "attr", None)
            if name in ("_result", "rng_for"):
                found.add(name)
    return found


@pytest.mark.parametrize(
    "src,expected",
    [
        ("def f(): failures = 0", {"failures"}),
        ("def f(n): n += 1", {"augmented assignment"}),
        ("def f(): return sampling.rng_for(0, 1)", {"rng_for"}),
        ("def f(): return _result('s', 'n', 0, 1)", {"_result"}),
        ("def f(seed): return _tally('s', 'n', lane_draws(seed, 0, 3, (rand_mat,)), holds)", set()),
    ],
    ids=["counter", "augmented", "stream", "result", "tally"],
)
def test_counting_sees_each_form(src, expected):
    assert _counting(ast.parse(src).body[0]) == expected


def test_checks_count_only_in_the_tally():
    # one count per case is a rule of `_tally`, not of 28 loops: a check
    # yields its cases and a predicate, and keys no stream itself
    tree = ast.parse((PACKAGE / "checks.py").read_text(encoding="utf-8"))
    counting = {n.name: _counting(n) for n in tree.body if isinstance(n, ast.FunctionDef)}
    names = [name for name in counting if name.startswith("check_")]
    assert len(names) == 28
    for name in names:
        assert not counting[name], f"checks.{name}: {sorted(counting[name])}"
    assert {name for name, used in counting.items() if used} == {"_tally"}


def _subtracts(body, left: str, right: str) -> bool:
    """Whether `body` has a subtraction `left - right` of two bare names."""
    return any(
        isinstance(n, ast.BinOp)
        and isinstance(n.op, ast.Sub)
        and isinstance(n.left, ast.Name)
        and isinstance(n.right, ast.Name)
        and (n.left.id, n.right.id) == (left, right)
        for n in ast.walk(body)
    )


def test_subtracts_sees_the_difference():
    assert _subtracts(ast.parse("def f(x, y): return (y - x).rank()").body[0], "y", "x")
    assert not _subtracts(ast.parse("def f(x, y): return y.rank() - x.rank()").body[0], "y", "x")


def test_minus_le_forms_no_difference():
    # the minus order is decided on the content of x and y: y - x would cost
    # a gcd of the denominators and a 5-way reduction only to take its rank
    body = _function("semigroup", "minus_le")
    assert not _subtracts(body, "y", "x") and not _subtracts(body, "x", "y")


def test_splitmix64_is_written_twice():
    # the scalar mix of `Stream.offsets`, which every scalar draw goes
    # through, and the lane mix of `_lane_offsets`, which `uniform_columns` and
    # `lane_draws` share: a third copy would have to be kept bit-identical
    # to them by hand
    tree = ast.parse((PACKAGE / "sampling.py").read_text(encoding="utf-8"))
    functions = (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef))
    mixing = {f.name for f in functions if any(isinstance(n, ast.Name) and n.id == "_C1" for n in ast.walk(f))}
    assert mixing == {"offsets", "_lane_offsets"}


def _exports(path) -> bool:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return any(
        isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for node in tree.body
    )


# the package's own `__all__` is checked by test_package_imports_only_exported_names
EXPORTING = [p.stem for p in MODULES if p.stem != "__init__" and _exports(p)]


def test_modules_declare_exports():
    assert {"exact", "mat2", "green", "sections", "semigroup", "surfaces"} <= set(EXPORTING)


@pytest.mark.parametrize("name", EXPORTING)
def test_every_export_exists(name):
    module = importlib.import_module(f"greenquadrics.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"greenquadrics.{name}.__all__ names missing {missing}"


def test_package_imports_only_exported_names():
    # the package resolves its names lazily, from one map of name -> module
    import greenquadrics

    assert greenquadrics.__all__ == list(greenquadrics._SOURCE)
    for name, path in greenquadrics._SOURCE.items():
        module = importlib.import_module(path)
        assert name in module.__all__, f"greenquadrics.{name} is not in {path}.__all__"
        assert getattr(greenquadrics, name) is getattr(module, name)
    assert getattr(greenquadrics, "LANE", None) is None


def test_cli_import_loads_no_math():
    # a command loads the modules it runs, inside its runner; `-S` keeps
    # site hooks from loading modules on their own
    code = "import sys, greenquadrics.cli; print(' '.join(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, check=True)
    loaded = set(proc.stdout.split())
    ours = {name for name in loaded if name.split(".")[0] == "greenquadrics"}
    assert ours == {"greenquadrics", "greenquadrics.cli", "greenquadrics.errors"}
    assert not loaded & {"dataclasses", "inspect", "fractions"}


def test_cli_float_loads_no_sampler():
    # --float converts through `exact._coefficients`: a command that prints
    # four doubles does not load the export modules
    code = (
        "import sys; from greenquadrics.cli import run; "
        "assert run(['metrics', '--lambda=3', '--float'])[0] == 0; print(' '.join(sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, check=True)
    loaded = set(proc.stdout.split())
    assert "greenquadrics.sections" in loaded
    assert not loaded & {"greenquadrics.surfaces", "greenquadrics.sampling"}


FORMATTERS = {"format_mat2", "format_rational", "format_quadext"}


def _spelled(node):
    """The name a node reads or imports: a bare name, an attribute, or the
    last part of an imported name; None for any other node."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.split(".")[-1]
    return None


@pytest.mark.parametrize(
    "src,expected",
    [
        ("format_mat2(a)", ["format_mat2", "a"]),
        ("mat2.format_rational(x)", ["mat2", "format_rational", "x"]),
        ("from greenquadrics.exact import format_quadext as q", ["format_quadext"]),
        ("import greenquadrics.exact", ["exact"]),
    ],
    ids=["name", "attribute", "from-import", "import"],
)
def test_spelled_sees_each_form(src, expected):
    assert sorted(filter(None, map(_spelled, ast.walk(ast.parse(src))))) == sorted(expected)


def test_cli_writes_exact_values_in_one_place():
    # `exact` and `mat2` define the format functions and `cli._exact` is
    # their one caller: the library returns values, every runner hands its
    # exact values to `_exact`, for text and JSON alike, and `run` encodes
    # the one record a runner returns
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    encoder = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_exact")
    inside = set(map(id, ast.walk(encoder)))
    for path in MODULES:
        if path.stem not in ("exact", "mat2"):
            nodes = ast.walk(tree if path.stem == "cli" else ast.parse(path.read_text(encoding="utf-8")))
            outside = {_spelled(n) for n in nodes if id(n) not in inside}
            assert not outside & FORMATTERS, (path.name, sorted(outside & FORMATTERS))
    assert {_spelled(n) for n in ast.walk(encoder)} >= FORMATTERS
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call) and _spelled(n.func) == "dumps"]
    assert len(calls) == 1


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_dataclasses(path):
    # `dataclasses` loads `inspect`: about 10 ms of every start
    for name in _imported_names(ast.parse(path.read_text(encoding="utf-8"))):
        assert name.split(".")[0] != "dataclasses", f"{path.name} imports {name}"


# `_linear.integer_row` has no package caller since the classifier lost its
# `Fraction` door, but the benchmark's tracer imports every module of its
# `linear` layer, so the module and its one function stay until that layer
# leaves the benchmark
UNREACHED_EXEMPT = {"_linear.integer_row"}


def _unreached(package) -> set[str]:
    """`module.name` of each module-level `def` or `class` under `package`
    that no package code outside its own body names, as an `ast.Name` or an
    `ast.Attribute`.  An import is not a use, and neither is a string in
    `__all__`; a dunder such as the package's `__getattr__` is called by
    Python itself and is not counted."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.rglob("*.py"))}

    def named(node) -> list[str]:
        return [
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
        ]

    uses = {}
    for tree in trees.values():
        for name in named(tree):
            uses[name] = uses.get(name, 0) + 1
    return {
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and uses.get(node.name, 0) == named(node).count(node.name)
    }


def test_unreached_sees_each_form(tmp_path):
    (tmp_path / "a.py").write_text(
        "__all__ = ['dead']\n"
        "def dead(): return dead()\n"
        "def called(): pass\n"
        "class Read: pass\n"
        "def helper(): pass\n"
        "def user(): return called(), m.helper\n"
        "def __getattr__(name): pass\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text("from a import Read, dead\nx = Read\n", encoding="utf-8")
    assert _unreached(tmp_path) == {"a.dead", "a.user"}


def test_every_definition_is_reached():
    # a name only tests reach is a second door to an algorithm: delete it
    assert _unreached(PACKAGE) == UNREACHED_EXEMPT
