"""The package's public names exist, no module of the package, its root
included, imports the tests' derivative reference (``autodiff``), and only
``gramian`` writes a ``matvec_count``, the run's cost unit."""

import ast
import importlib
from pathlib import Path

import pytest

import nystromngd

PACKAGE = Path(nystromngd.__file__).resolve().parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


@pytest.mark.parametrize("name", ["__init__"] + MODULES)
def test_every_exported_name_exists(name):
    module = nystromngd if name == "__init__" else importlib.import_module(f"nystromngd.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"nystromngd.{name}.__all__ names undefined {missing}"


def imported_modules(path):
    """Dotted names of every module ``path`` imports, relative ones under
    ``nystromngd`` (``from . import x`` counts as importing ``nystromngd.x``)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module
            if node.level:  # relative, from inside the package
                base = "nystromngd" + (f".{node.module}" if node.module else "")
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("name", ["__init__"] + [m for m in MODULES if m != "autodiff"])
def test_no_module_of_the_package_imports_autodiff(name):
    assert "nystromngd.autodiff" not in imported_modules(PACKAGE / f"{name}.py")


def matvec_count_writes(path):
    """Line numbers of every assignment in ``path`` to an attribute named matvec_count."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Assign, ast.AugAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        for sub in ast.walk(target)
        if isinstance(sub, ast.Attribute) and sub.attr == "matvec_count"
    ]


@pytest.mark.parametrize("name", ["__init__"] + [m for m in MODULES if m != "gramian"])
def test_only_gramian_writes_a_matvec_count(name):
    assert matvec_count_writes(PACKAGE / f"{name}.py") == []
