"""Module boundaries inside the package, checked on the source's syntax tree."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "zetasieve"
MODULES = sorted(PACKAGE.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_reads(path: Path) -> list[str]:
    """Names with a leading underscore that this module takes from another.

    Covers `from .other import _name` and `other._name` where `other` was
    bound by importing a package module.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").startswith("zetasieve")
        ):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{path.name}: imports {alias.name}")
                modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("zetasieve"):
                    modules.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
        ):
            found.append(f"{path.name}: reads {node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reads_another_modules_private_names(path):
    assert private_reads(path) == []


def test_the_checker_sees_private_reads(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import representations as rep\n"
        "from .admissible import _power_sieve\n"
        "rep._base_data(6)\n"
    )
    assert len(private_reads(probe)) == 2


def traced_attributes() -> list[tuple[str, str]]:
    """(module, attribute) pairs of the benchmark's TRACED table."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return [
                (entry.elts[0].value, entry.elts[1].value)
                for entry in node.value.elts
            ]
    raise AssertionError("bench/tracing.py has no TRACED table")


def test_traced_attributes_exist():
    # The traced benchmark run wraps these at the module attribute; a
    # refactor that renames or stops importing one breaks that run.
    pairs = traced_attributes()
    assert pairs
    missing = [
        (module, attr)
        for module, attr in pairs
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
