"""Static guards over the package source: one arithmetic lane, no hidden knobs.

Every module under src/greenquadrics is parsed with `ast`.  The only
environment variable the package may read is GQ_DEFAULT_TRIALS (the
`check --trials` default), and nothing may import a compiled kernel.
"""

import ast
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
