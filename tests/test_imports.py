"""Static checks on the package source.

No linter ships with the test environment, so this scans the syntax
tree of every module in ``src/cpcat`` for imported names that the
module never uses, and for module-level private functions, classes and
constants that nothing in their module refers to.  ``__init__.py`` is
skipped: its imports are the package's public names.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cpcat"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by import statements and never loaded afterwards."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def unused_private_names(source: str) -> list:
    """Module-level ``_name`` definitions never loaded in the module."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in defined.items()
                  if name not in used)


def test_the_scan_finds_an_unused_import():
    source = "import os\nfrom json import dumps, loads\nloads('1')\n"
    assert unused_imports(source) == [(1, "os"), (2, "dumps")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_finds_an_unused_private_name():
    source = ("_USED = 1\n_SPARE: int = 2\n"
              "def _helper():\n    return _USED\n"
              "class _Kept:\n    pass\n"
              "def public():\n    return _Kept()\n"
              "__version__ = '1'\n")
    assert unused_private_names(source) == [(2, "_SPARE"), (3, "_helper")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_private_names(path):
    assert unused_private_names(path.read_text(encoding="utf-8")) == []
