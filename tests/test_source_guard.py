"""Static guards over the package source: one arithmetic lane, no hidden knobs.

Every module under src/greenquadrics is parsed with `ast`.  The only
environment variable the package may read is GQ_DEFAULT_TRIALS (the
`check --trials` default), nothing may import a compiled kernel, and
nothing imports `random`: every draw comes from `sampling.Stream`.
Every name a module exports in `__all__` exists, and the package
re-exports only names its modules export, so a deletion cannot leave a
stale export behind.
"""

import ast
import importlib
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "greenquadrics"
MODULES = sorted(PACKAGE.rglob("*.py"))
ALLOWED_ENV = {"GQ_DEFAULT_TRIALS"}
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


def test_package_has_modules():
    assert PACKAGE.is_dir() and len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_only_default_trials_is_read_from_the_environment(path):
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


def test_surfaces_hold_no_point_lists():
    # export streams its rows; an eager copy of the points must not come back
    tree = ast.parse((PACKAGE / "surfaces.py").read_text(encoding="utf-8"))
    imported = {name.split(".")[0] for name in _imported_names(tree)}
    assert not imported & {"csv", "dataclasses"}, f"surfaces imports {sorted(imported)}"
    attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "points" not in attrs, "surfaces reads or sets a `points` attribute"
    from greenquadrics.surfaces import SurfaceSample

    assert not hasattr(SurfaceSample, "points")


def _exports(path) -> bool:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return any(
        isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for node in tree.body
    )


EXPORTING = [p.stem for p in MODULES if _exports(p)]


def test_modules_declare_exports():
    assert {"exact", "mat2", "green", "sections", "semigroup", "surfaces"} <= set(EXPORTING)


@pytest.mark.parametrize("name", EXPORTING)
def test_every_export_exists(name):
    module = importlib.import_module(f"greenquadrics.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"greenquadrics.{name}.__all__ names missing {missing}"


def test_package_imports_only_exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        exported = importlib.import_module(node.module).__all__
        stale = [alias.name for alias in node.names if alias.name not in exported]
        assert not stale, f"__init__ imports {stale} that {node.module}.__all__ does not list"
