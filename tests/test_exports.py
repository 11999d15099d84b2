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
