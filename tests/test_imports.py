"""Static hygiene of the package source.

No module imports a name it never uses; no function or subcommand takes a
force switch past the enumeration guard; only fields.py reads the environment.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "permbinom"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ALL_SOURCES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no Name or Attribute base refers to."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_unused_import_detector():
    src = "from math import gcd, isqrt\nimport os.path\nimport json as j\n\nisqrt(4)\nos.path.join('a')\n"
    assert unused_imports(src) == ["gcd (line 1)", "j (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def force_switches(source: str) -> list[str]:
    """Parameters named force, and the string '--force', wherever they appear."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.arguments):
            params = node.posonlyargs + node.args + node.kwonlyargs + [node.vararg, node.kwarg]
            found += [f"parameter force (line {a.lineno})" for a in params if a is not None and a.arg == "force"]
        elif isinstance(node, ast.Constant) and node.value == "--force":
            found.append(f"'--force' (line {node.lineno})")
    return found


def environment_reads(source: str) -> list[str]:
    """Uses of os.environ or os.getenv, and imports of either from os."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            if isinstance(node.value, ast.Name) and node.value.id == "os":
                found.append(f"os.{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"from os import {a.name} (line {node.lineno})" for a in node.names if a.name in ("environ", "getenv")]
    return found


def test_static_detectors():
    src = (
        "import os\nfrom os import getenv\n"
        "def f(x, *, force=False): return os.environ.get('A')\n"
        "g = lambda force: 0\np.add_argument('--force')\n"
    )
    assert force_switches(src) == ["parameter force (line 3)", "parameter force (line 4)", "'--force' (line 5)"]
    assert environment_reads(src) == ["from os import getenv (line 2)", "os.environ (line 3)"]


@pytest.mark.parametrize("path", ALL_SOURCES, ids=lambda p: p.name)
def test_no_force_switch(path):
    assert force_switches(path.read_text()) == []


def test_only_fields_reads_the_environment():
    readers = {p.name for p in ALL_SOURCES if environment_reads(p.read_text())}
    assert readers == {"fields.py"}
