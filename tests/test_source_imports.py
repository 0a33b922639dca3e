"""Every name a module of the package imports is used in that module, and
every private module-level function or class is used somewhere in the
package."""

import ast
from pathlib import Path

import pytest

import lnz

MODULES = sorted(p for p in Path(lnz.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    source = "from math import gcd, lcm\nimport json\n\nprint(gcd(2, 4))\n"
    assert unused_imports(source) == [(1, "lcm"), (2, "json")]


def orphaned_helpers(sources: dict) -> list:
    """(module, line, name) of each private module-level function or class
    that no code of ``sources`` ({module: source}) refers to, by name or as
    an attribute, outside its own definition."""
    defined, used = [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node)
                      if isinstance(n, ast.Attribute)}
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names.discard(node.name)
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.append((module, node.lineno, node.name))
            used |= names
    return [entry for entry in defined if entry[2] not in used]


def test_no_orphaned_private_helpers():
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in Path(lnz.__file__).parent.glob("*.py")}
    assert orphaned_helpers(sources) == []


def test_orphaned_helper_is_reported():
    sources = {
        "a.py": "def _used():\n    return 1\n\n\n"
                "def _orphan():\n    return _orphan()\n\n\n"
                "class _Kept:\n    pass\n",
        "b.py": "import a\n\nprint(a._used(), a._Kept)\n",
    }
    assert orphaned_helpers(sources) == [("a.py", 5, "_orphan")]
