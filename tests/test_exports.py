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


def _call_sites(name):
    """(file, enclosing class and function names, line) of every call of name
    in the package."""
    sites = []

    def visit(node, where, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and name in (
                getattr(child.func, "id", None),
                getattr(child.func, "attr", None),
            ):
                sites.append((path.name, where, child.lineno))
            inner = where
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = f"{where}.{child.name}" if where else child.name
            visit(child, inner, path)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), "", path)
    return sites


def test_the_pencil_qz_has_one_call_site():
    # NchoProblem.roots runs the one QZ of the linearization; a second call
    # would be a second path to the pencil's roots
    sites = _call_sites("_linearization_eigvals")
    assert len(sites) == 1, sites


def test_the_pencil_roots_and_decomposition_are_built_only_by_their_problem():
    # each problem holds its one QZ and its one decomposition: either built
    # anywhere else would work out again what the problem already holds
    for name, owner in (
        ("_linearization_eigvals", "NchoProblem.roots"),
        ("_decompose", "NchoProblem.decomposition"),
        ("PencilDecomposition", "_decompose"),
    ):
        sites = _call_sites(name)
        assert [site[:2] for site in sites] == [("pencil.py", owner)], sites


def _exported_functions():
    """(name, parameters with defaults as (name, position)) of every function
    and method named in a module's __all__; a method's self or cls is not a
    position."""
    out = []
    for name in MODULES:
        exported = set(getattr(importlib.import_module(f"nchodisk.{name}"), "__all__", []))
        for node in ast.parse((PACKAGE / f"{name}.py").read_text()).body:
            if getattr(node, "name", None) not in exported:
                continue
            if isinstance(node, ast.FunctionDef):
                fns = [(node.name, node, 0)]
            elif isinstance(node, ast.ClassDef):
                fns = [
                    (f.name, f, 0 if "staticmethod" in map(ast.unparse, f.decorator_list) else 1)
                    for f in node.body
                    if isinstance(f, ast.FunctionDef)
                ]
            else:
                continue
            for name, fn, bound in fns:
                args = fn.args.posonlyargs + fn.args.args
                first = len(args) - len(fn.args.defaults)
                params = [(a.arg, i - bound) for i, a in enumerate(args) if i >= first]
                params += [
                    (a.arg, None)
                    for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                    if d is not None
                ]
                out.append((name, params))
    return out


def test_every_default_is_passed_by_some_call():
    # a setting that no call in the package or its tests passes has one value
    # in use, and is a constant
    calls = {}
    for path in [*PACKAGE.glob("*.py"), *Path(__file__).parent.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            positional = len(node.args)
            if any(isinstance(a, ast.Starred) for a in node.args):
                positional = float("inf")
            keywords = {k.arg for k in node.keywords}
            calls.setdefault(name, []).append((positional, keywords))
    unpassed = [
        f"{name}({param})"
        for name, params in _exported_functions()
        for param, position in params
        if not any(
            param in keywords or None in keywords or (position is not None and position < n)
            for n, keywords in calls.get(name, [])
        )
    ]
    assert unpassed == []
