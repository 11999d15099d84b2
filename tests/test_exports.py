import ast
import importlib
from pathlib import Path

import pytest

import nchodisk

PACKAGE = Path(nchodisk.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"nchodisk.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing


def test_package_imports_resolve():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"nchodisk.{node.module}")
            names = [a.name for a in node.names]
            assert all(hasattr(module, n) for n in names), node.module
            assert all(hasattr(nchodisk, n) for n in names)


@pytest.mark.parametrize("name", MODULES)
def test_module_uses_its_imports(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def test_every_error_class_is_raised_or_caught():
    # an exception class that no raise and no except names is dead API
    errors = ast.parse((PACKAGE / "errors.py").read_text())
    classes = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    named = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                exc = node.type
            else:
                continue
            named |= {n.id for n in ast.walk(exc) if isinstance(n, ast.Name)}
    assert sorted(classes - named) == []
