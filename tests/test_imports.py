"""Every name a library module, script or test module imports is used in it,
every public name has a reader outside the tests, and the quadrature
tolerance reaches the public functions only through PovertyConfig."""
import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

import takayama

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "takayama").glob("*.py"),
                  *(ROOT / "scripts").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list:
    """Names bound by an import statement and never read as a name."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nfrom math import inf, pi\n"
              "def f():\n    from json import dumps\n    return np.pi + pi + os.sep\n")
    assert unused_imports(source) == ["dumps", "inf"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def names_read(source: str) -> set:
    """Identifiers a module reads: names, attributes and imported names."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
    return found


def test_public_names_are_read_outside_tests():
    # fgt_index is the documented, exactly decomposable comparator; code
    # that only cross-checks belongs in tests/_oracles.py.
    callers = [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
               *(p for p in (ROOT / "src" / "takayama").glob("*.py")
                 if p.name != "__init__.py")]
    read = set().union(*(names_read(p.read_text(encoding="utf-8")) for p in callers))
    assert set(takayama.__all__) - read == {"fgt_index"}


def test_quadrature_travels_in_the_poverty_config():
    assert "quadrature" in {f.name for f in dataclasses.fields(takayama.PovertyConfig)}
    public = [getattr(takayama, name) for name in takayama.__all__]
    callables = [obj for obj in public if callable(obj)
                 and not (inspect.isclass(obj) and issubclass(obj, Exception))]
    assert len(callables) > 40
    assert [obj.__name__ for obj in callables
            if "quad" in inspect.signature(obj).parameters] == []
