"""Hygiene of the package source and of what importing it loads.

No module imports a name it never uses, imports dataclasses, or imports
anything outside the standard library and the package; no function or
subcommand takes a force switch past the enumeration guard; only fields.py
reads the environment; only counts.py calls the per-r closed forms and
bounds; no module encodes the elements enumerate_perm_binomials decoded;
no module touches the private parts of Fraction;
every refusal is a typed PermBinomError, not a bare built-in exception;
only FieldSpec.element refuses an element of another field, and only
errors.check_choice refuses an unknown name ("unknown <kind> ...");
every PermBinomError subclass is raised somewhere in the source;
no raise shows a value by !r or repr(), as errors.value_text names every
rejected value, bounded (a module __getattr__'s AttributeError aside);
cli.main catches nothing else but OSError; only errors.check_integer
and three refusals with messages of their own catch TypeError; only
counts.render calls json.dumps or csv.writer, and only cli._write opens a file;
only counts.py compares route a-sets (set_diff), and no module imports
another's underscore name.
A CLI query loads neither the sweep and selftest machinery nor the
sharpness module, nothing loads mpmath, and the lazily loaded public names
still behave like the eager ones.
"""

import ast
import builtins
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import permbinom

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


# counts alone picks a cell's closed form and bound pairs by r; every other module calls closed_count and bound_pairs
PER_R_RULES = ("closed_count_r2", "closed_count_r3", "masuda_zieve_bounds", "refined_bounds_r3")


def per_r_rule_calls(source: str) -> list[str]:
    """Calls of a per-r closed form or bound function, by bare name or as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name in PER_R_RULES:
                found.append(f"{name} (line {node.lineno})")
    return found


def test_per_r_rule_call_detector():
    src = "from .counts import closed_count_r2\nx = closed_count_r2(7, 1)\ny = counts.refined_bounds_r3(7)\nz = closed_count(7, 1, 1, 3)\n"
    assert per_r_rule_calls(src) == ["closed_count_r2 (line 2)", "refined_bounds_r3 (line 3)"]


def test_only_counts_picks_a_closed_form_or_bound_pair_by_r():
    callers = {p.name for p in ALL_SOURCES if per_r_rule_calls(p.read_text())}
    assert callers == {"counts.py"}


# counts.render is the one serializer and cli._write the one writer of every CLI answer and sweep report
SERIALIZERS = {("json", "dumps"), ("csv", "writer")}


def serializer_uses(source: str) -> list[str]:
    """Calls of json.dumps and csv.writer, and imports of either name from its module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Name):
            if (node.func.value.id, node.func.attr) in SERIALIZERS:
                found.append(f"{node.func.value.id}.{node.func.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom):
            found += [f"from {node.module} import {a.name} (line {node.lineno})" for a in node.names if (node.module, a.name) in SERIALIZERS]
    return found


def file_openers(source: str) -> list[str]:
    """Top-level functions that call open, by bare name or as an attribute, or write_text or write_bytes."""
    names = {"open", "write_text", "write_bytes"}
    return [
        f"{node.name} (line {node.lineno})"
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and any(_calls(node, name) for name in names)
    ]


def test_output_edge_detectors():
    src = (
        "import csv, json\nfrom json import dumps\n"
        "def f(x):\n    return json.dumps(x) + str(csv.writer(x)) + json.loads(x)\n"
        "def g(path):\n    with open(path) as fh:\n        return fh.read()\n"
        "def h(path):\n    path.write_bytes(b'') ; return os.open(path)\n"
        "def k(x):\n    return csv.reader(x)\n"
    )
    assert serializer_uses(src) == ["from json import dumps (line 2)", "json.dumps (line 4)", "csv.writer (line 4)"]
    assert file_openers(src) == ["g (line 5)", "h (line 8)"]


def test_one_renderer_and_one_writer_serialize_and_write_every_answer():
    serializers = {p.name for p in ALL_SOURCES if serializer_uses(p.read_text())}
    assert serializers == {"counts.py"}
    assert [line.split()[0] for line in file_openers((SRC / "cli.py").read_text())] == ["_write"]


def private_imports(source: str) -> list[str]:
    """Underscore names a module imports from another package module."""
    return [
        f"{alias.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_private_import_detector():
    src = "from __future__ import annotations\nfrom ._x import y\nfrom .permtest import _orbit_union, check_cell\nfrom os import _exit\n"
    assert private_imports(src) == ["_orbit_union (line 3)"]


def test_counts_alone_compares_route_sets_and_no_module_imports_a_private_name():
    # counts.class_failures and counts.cell_failures are the one route cross-check, for the sweep and count --verify
    assert {p.name for p in ALL_SOURCES if _calls(ast.parse(p.read_text()), "set_diff")} == {"counts.py"}
    assert {p.name: private_imports(p.read_text()) for p in ALL_SOURCES if private_imports(p.read_text())} == {}


def _calls(tree: ast.AST, name: str) -> bool:
    """Whether tree holds a call of name, by bare name or as an attribute."""
    return any(
        isinstance(node, ast.Call) and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        for node in ast.walk(tree)
    )


def encode_round_trips(source: str) -> list[str]:
    """Loops and comprehensions that call .encode() while iterating what enumerate_perm_binomials returned.

    The iterable is the call itself or a name assigned from it. A caller
    that wants encodings passes encoded=True instead.
    """
    tree = ast.parse(source)
    results = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and _calls(node.value, "enumerate_perm_binomials")
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            iters, body = [g.iter for g in node.generators], [node.elt]
        elif isinstance(node, ast.DictComp):
            iters, body = [g.iter for g in node.generators], [node.key, node.value]
        elif isinstance(node, ast.For):
            iters, body = [node.iter], node.body
        else:
            continue
        over_result = any(
            _calls(it, "enumerate_perm_binomials") or any(isinstance(n, ast.Name) and n.id in results for n in ast.walk(it))
            for it in iters
        )
        if over_result and any(_calls(b, "encode") for b in body):
            found.add(node.lineno)
    return [f"line {line}" for line in sorted(found)]


def test_encode_round_trip_detector():
    src = (
        "xs = [a.encode() for a in enumerate_perm_binomials(spec, n, r)]\n"
        "ys = frozenset(a.encode() for a in permtest.enumerate_perm_binomials(spec, n, r, method=m))\n"
        "found = enumerate_perm_binomials(spec, n, r)\n"
        "for a in found:\n    out.append(a.encode())\n"
        "zs = {m: tuple(a.encode() for a in enumerate_perm_binomials(spec, n, r, method=m)) for m in ROUTES}\n"
        "ok = frozenset(enumerate_perm_binomials(spec, n, r, encoded=True))\n"
        "fine = [x.encode() for x in spec.elements()]\n"
    )
    assert encode_round_trips(src) == ["line 1", "line 2", "line 4", "line 6"]


@pytest.mark.parametrize("path", ALL_SOURCES, ids=lambda p: p.name)
def test_no_module_encodes_what_it_had_decoded(path):
    # the routes return encodings; enumerate_perm_binomials(..., encoded=True) hands them on without a decode
    assert encode_round_trips(path.read_text()) == []


def dataclass_imports(source: str) -> list[str]:
    """Import statements that bring in the dataclasses module or a name from it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"import {a.name} (line {node.lineno})" for a in node.names if a.name == "dataclasses"]
        elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            found.append(f"from dataclasses (line {node.lineno})")
    return found


def test_dataclass_import_detector():
    src = "import os, dataclasses\nfrom dataclasses import dataclass\nimport dataclasses_json\n"
    assert dataclass_imports(src) == ["import dataclasses (line 1)", "from dataclasses (line 2)"]


@pytest.mark.parametrize("path", ALL_SOURCES, ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    # records are NamedTuples: dataclasses (and the inspect it imports) cost every query ~11 ms
    assert dataclass_imports(path.read_text()) == []


# Modules a one-shot query has no use for: the sweep and selftest machinery
# with its process pool, the sharpness probe, mpmath, and dataclasses.
NOT_LOADED_BY_A_QUERY = (
    "permbinom.sweep",
    "permbinom.selftest",
    "permbinom.sharpness",
    "mpmath",
    "concurrent.futures",
    "multiprocessing",
    "dataclasses",
    "inspect",
)

CLOSURE_SCRIPT = """
import json, os, sys
import permbinom.cli
loaded = {"import": [m for m in NAMES if m in sys.modules]}
for argv in QUERIES:
    permbinom.cli.main(argv + ["--out", os.devnull])
loaded["queries"] = [m for m in NAMES if m in sys.modules]
print(json.dumps(loaded))
"""


def test_a_cli_query_loads_no_sweep_selftest_or_mpmath():
    queries = [
        ["count", "--field", "73", "--n", "35", "--r", "3", "--verify"],
        ["enumerate", "--field", "7^2", "--n", "5", "--r", "2", "--method", "wanlidl"],
        ["char", "--field", "13"],
        ["curve", "--field", "5^3", "--A", "0", "--B", "inv4"],
        ["trace", "--p", "73", "--j", "100"],
    ]
    script = f"NAMES = {NOT_LOADED_BY_A_QUERY!r}\nQUERIES = {queries!r}\n" + CLOSURE_SCRIPT
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],  # -S: no site hooks that could import anything
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"import": [], "queries": []}


def test_the_sharpness_probe_runs_without_mpmath():
    script = (
        "import os, sys\n"
        "import permbinom.sharpness\n"
        "after_import = 'mpmath' in sys.modules\n"
        "import permbinom.cli\n"
        "code = permbinom.cli.main(['sharpness', '--p', '73', '--n', '35', '--depth', '12', '--out', os.devnull])\n"
        "print(after_import, code, 'mpmath' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],  # -S: site-packages, and mpmath with it, off the path
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert proc.stdout == "False 0 False\n", proc.stderr


ALLOWED_TOP_LEVEL = sys.stdlib_module_names | {"permbinom"}


def outside_imports(source: str) -> list[str]:
    """Absolute imports whose top-level module is neither in the standard library nor permbinom."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names if name.split(".")[0] not in ALLOWED_TOP_LEVEL]
    return found


def test_outside_import_detector():
    src = "import os.path, mpmath\nfrom mpmath import mp\nfrom . import fields\nfrom permbinom.counts import epsilons\nimport numpy as np\n"
    assert outside_imports(src) == ["mpmath (line 1)", "mpmath (line 2)", "numpy (line 5)"]


@pytest.mark.parametrize("path", ALL_SOURCES, ids=lambda p: p.name)
def test_runtime_is_stdlib_only(path):
    assert outside_imports(path.read_text()) == []


PRIVATE_FRACTION_NAMES = {"_numerator", "_denominator", "_from_coprime_ints", "_normalize"}


def private_fraction_uses(source: str) -> list[str]:
    """Attributes, keyword arguments and strings naming Fraction internals that differ across Python versions."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in PRIVATE_FRACTION_NAMES:
            found.append((node.lineno, f".{node.attr}"))
        elif isinstance(node, ast.keyword) and node.arg in PRIVATE_FRACTION_NAMES:
            found.append((node.value.lineno, f"{node.arg}="))
        elif isinstance(node, ast.Constant) and node.value in PRIVATE_FRACTION_NAMES:
            found.append((node.lineno, repr(node.value)))
    return [f"{text} (line {line})" for line, text in sorted(found)]


def test_private_fraction_use_detector():
    src = (
        "f = Fraction(1, 2, _normalize=False)\ng = Fraction._from_coprime_ints(1, 2)\n"
        "f._numerator = 3\nd = getattr(f, '_denominator')\nok = f.numerator, f.denominator\n"
    )
    assert private_fraction_uses(src) == ["_normalize= (line 1)", "._from_coprime_ints (line 2)", "._numerator (line 3)", "'_denominator' (line 4)"]


@pytest.mark.parametrize("path", ALL_SOURCES, ids=lambda p: p.name)
def test_no_private_fraction_api(path):
    # Fraction(..., _normalize=False) is gone after 3.11, _from_coprime_ints arrived in 3.12
    assert private_fraction_uses(path.read_text()) == []


# AssertionError marks an unreachable invariant, ZeroDivisionError the inverse of zero
ALLOWED_BUILTIN_RAISES = {"AssertionError", "ZeroDivisionError"}


def builtin_raises(source: str) -> list[str]:
    """raise statements of any other built-in exception; AttributeError is allowed in a module __getattr__, its protocol."""
    tree = ast.parse(source)
    in_getattr = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == "__getattr__"
        for node in ast.walk(fn)
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        name = exc.id if isinstance(exc, ast.Name) else None
        builtin = getattr(builtins, name, None) if name else None
        if not (isinstance(builtin, type) and issubclass(builtin, BaseException)):
            continue
        if name in ALLOWED_BUILTIN_RAISES or (name == "AttributeError" and id(node) in in_getattr):
            continue
        found.append((node.lineno, name))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_builtin_raise_detector():
    src = (
        "def f(x):\n    if x:\n        raise ValueError('x')\n    raise KeyError\n"
        "def g():\n    raise AssertionError('unreachable')\n"
        "def __getattr__(name):\n    raise AttributeError(name)\n"
        "def h(exc):\n    raise NonPrimeError('9') from exc\n"
        "def k():\n    raise AttributeError('a')\n"
    )
    assert builtin_raises(src) == ["ValueError (line 3)", "KeyError (line 4)", "AttributeError (line 12)"]


@pytest.mark.parametrize("path", ALL_SOURCES, ids=lambda p: p.name)
def test_no_bare_builtin_refusal(path):
    assert builtin_raises(path.read_text()) == []


def foreign_handlers(source: str, function: str = "main") -> list[str]:
    """What the except clauses of the named function catch besides PermBinomError types and OSError."""
    functions = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef) and node.name == function]
    if not functions:
        return [f"no function {function}"]
    found = []
    for node in ast.walk(functions[0]):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            found.append(f"bare except (line {node.lineno})")
            continue
        for exc in node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]:
            name = ast.unparse(exc)
            error = getattr(permbinom.errors, name, None)
            if name != "OSError" and not (isinstance(error, type) and issubclass(error, permbinom.PermBinomError)):
                found.append(f"{name} (line {exc.lineno})")
    return found


def test_foreign_handler_detector():
    src = (
        "def main():\n    try:\n        pass\n    except (NonPrimeError, OSError):\n        pass\n"
        "    except (ValueError, errors.NonPrimeError) as exc:\n        pass\n    except:\n        pass\n"
        "def other():\n    try:\n        pass\n    except KeyError:\n        pass\n"
    )
    assert foreign_handlers(src) == ["ValueError (line 6)", "errors.NonPrimeError (line 6)", "bare except (line 8)"]
    assert foreign_handlers(src, "missing") == ["no function missing"]


def test_cli_main_catches_only_package_errors_and_os_errors():
    # any other exception is a bug, and surfaces as a traceback
    assert foreign_handlers((SRC / "cli.py").read_text()) == []


# errors.check_integer is the one integer refusal; these three keep their own messages and types
OWN_INTEGER_REFUSALS = {"errors.py": {"check_integer"}, "fields.py": {"FieldSpec.decode", "_residues"}, "sweep.py": {"validate_config"}}


def scoped_matches(source: str, matches) -> list[str]:
    """The qualified name of the function around each node that matches accepts, with the node's line."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if matches(child):
                found.append(f"{'.'.join(scope) or '<module>'} (line {child.lineno})")
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def type_error_handlers(source: str) -> list[str]:
    """except clauses that catch TypeError, alone or in a tuple, by the qualified name of the function around them."""

    def catches(node: ast.AST) -> bool:
        if not isinstance(node, ast.ExceptHandler) or node.type is None:
            return False
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        return any(ast.unparse(exc) in ("TypeError", "builtins.TypeError") for exc in caught)

    return scoped_matches(source, catches)


def test_type_error_handler_detector():
    src = (
        "def f(x):\n    try:\n        return index(x)\n    except TypeError:\n        raise Refused from None\n"
        "class S:\n    def g(self):\n        try:\n            pass\n        except (ValueError, builtins.TypeError):\n            pass\n"
        "try:\n    import x\nexcept (ImportError, TypeError):\n    pass\n"
        "def h():\n    try:\n        pass\n    except ValueError:\n        pass\n"
    )
    assert type_error_handlers(src) == ["f (line 4)", "S.g (line 10)", "<module> (line 14)"]


@pytest.mark.parametrize("path", ALL_SOURCES, ids=lambda p: p.name)
def test_the_integer_refusal_is_stated_once(path):
    allowed = OWN_INTEGER_REFUSALS.get(path.name, set())
    assert [h for h in type_error_handlers(path.read_text()) if h.split(" (line ")[0] not in allowed] == []


def leading_text(call: ast.AST) -> str:
    """The literal text a call's first argument starts with: all of a str constant, the head of an f-string, else ""."""
    message = call.args[0] if isinstance(call, ast.Call) and call.args else None
    if isinstance(message, ast.JoinedStr) and message.values:
        message = message.values[0]
    return message.value if isinstance(message, ast.Constant) and isinstance(message.value, str) else ""


def raisers(source: str, exception: str, prefix: str = "") -> list[str]:
    """raise statements of the named exception whose message starts with prefix, by the qualified name of the function around them."""

    def raises(node: ast.AST) -> bool:
        if not isinstance(node, ast.Raise) or node.exc is None:
            return False
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return ast.unparse(exc).split(".")[-1] == exception and leading_text(node.exc).startswith(prefix)

    return scoped_matches(source, raises)


def test_raiser_detector():
    src = (
        "class S:\n    def f(self, x):\n        if x:\n            raise FieldMismatchError('x')\n        raise KeyError\n"
        "def g():\n    raise errors.FieldMismatchError\n"
        "def h():\n    raise OtherFieldMismatchError('y')\n"
        "def k(kind, v):\n    raise FieldMismatchError(f'unknown {kind} {v!r}')\n"
        "def m(v):\n    raise FieldMismatchError(f'{v} is unknown')\n"
    )
    assert raisers(src, "FieldMismatchError") == ["S.f (line 4)", "g (line 7)", "k (line 11)", "m (line 13)"]
    assert raisers(src, "FieldMismatchError", "unknown ") == ["k (line 11)"]
    assert raisers(src, "FieldMismatchError", "x") == ["S.f (line 4)"]


def test_only_field_spec_element_decides_membership():
    # the operators, the characters and every public function lift a value through FieldSpec.element
    found = [f"{path.name}: {r}" for path in ALL_SOURCES for r in raisers(path.read_text(), "FieldMismatchError")]
    assert [r.split(" (line ")[0] for r in found] == ["fields.py: FieldSpec.element"], found


def test_only_check_choice_refuses_an_unknown_name():
    # every method, check and format name is refused by errors.check_choice, which names any value safely
    found = [f"{path.name}: {r}" for path in ALL_SOURCES for r in raisers(path.read_text(), "UnknownChoiceError", "unknown ")]
    assert [r.split(" (line ")[0] for r in found] == ["errors.py: check_choice"], found


def test_every_error_class_has_a_raiser():
    # an error class nothing raises is a refusal no caller can meet, left behind by a removal
    from permbinom import errors

    classes = [name for name, obj in vars(errors).items() if isinstance(obj, type) and issubclass(obj, errors.PermBinomError)]
    classes.remove("PermBinomError")
    assert classes and [name for name in classes if not any(raisers(path.read_text(), name) for path in ALL_SOURCES)] == []


def repr_echoes(source: str) -> list[str]:
    """raise statements whose exception shows a value by !r or repr(), by the qualified name of the function around them."""

    def echoes(node: ast.AST) -> bool:
        return isinstance(node, ast.Raise) and node.exc is not None and any(
            (isinstance(sub, ast.FormattedValue) and sub.conversion == ord("r"))
            or (isinstance(sub, ast.Call) and ast.unparse(sub.func) == "repr")
            for sub in ast.walk(node.exc)
        )

    return scoped_matches(source, echoes)


def test_repr_echo_detector():
    src = (
        "def f(x):\n    raise UnknownChoiceError(f'not an integer: {x!r}')\n"
        "def g(x):\n    raise UnknownChoiceError('bad ' + repr(x)) from None\n"
        "def h(x):\n    raise UnknownChoiceError(f'bad {value_text(x)}, {x}, {x!s}')\n"
        "def k(x):\n    detail = f'{x!r}'\n    raise\n"
    )
    assert repr_echoes(src) == ["f (line 2)", "g (line 4)"]


def test_only_value_text_shows_a_callers_input_in_a_refusal():
    # a !r echo has no length cap; the AttributeError text of a module __getattr__ is Python's protocol
    found = [f"{path.name}: {r}" for path in ALL_SOURCES for r in repr_echoes(path.read_text())]
    assert [r.split(" (line ")[0] for r in found] == ["__init__.py: __getattr__"], found


def _refusals():
    from permbinom import cli, counts, curves, fields, permtest, primes, selftest, sweep
    from permbinom.characters import power_sum
    from permbinom.errors import DegreeMismatchError, OutOfRangeError, UnknownChoiceError

    f7 = fields.make_field(7)
    return {
        "enumerate-method": (UnknownChoiceError, lambda: permtest.enumerate_perm_binomials(f7, 1, 2, method="bogus")),
        "check_cell-r": (OutOfRangeError, lambda: permtest.check_cell(13, 1, 4)),
        "check_cell-n": (OutOfRangeError, lambda: permtest.check_cell(13, 0, 2)),
        "power_sum": (OutOfRangeError, lambda: power_sum(f7, -1)),
        "mz-r-below-2": (OutOfRangeError, lambda: counts.masuda_zieve_bounds(13, 1)),
        "mz-r-not-dividing": (OutOfRangeError, lambda: counts.masuda_zieve_bounds(13, 5)),
        "mz-q-negative-r2": (OutOfRangeError, lambda: counts.masuda_zieve_bounds(-1, 2)),
        "mz-q-negative-r3": (OutOfRangeError, lambda: counts.masuda_zieve_bounds(-5, 3)),
        "refined-q-negative": (OutOfRangeError, lambda: counts.refined_bounds_r3(-2)),
        "closed_count_r3-k-negative": (DegreeMismatchError, lambda: counts.closed_count_r3(7, -1, 1)),
        "closed_count_r3-k-zero": (DegreeMismatchError, lambda: counts.closed_count_r3(7, 0, 1)),
        "pi_trace": (OutOfRangeError, lambda: curves.pi_trace(7, -1)),
        "char2_cubic_sum": (DegreeMismatchError, lambda: curves.char2_cubic_sum(0)),
        "decode": (OutOfRangeError, lambda: f7.decode(7)),
        "parse_field": (UnknownChoiceError, lambda: fields.parse_field("2^3^4")),
        "factorize": (OutOfRangeError, lambda: primes.factorize(0)),
        "cli-element": (OutOfRangeError, lambda: cli._element(f7, "7")),
        "selftest-run_check": (UnknownChoiceError, lambda: selftest.AcceptanceSuite().run_check("bogus")),
        "selftest-run": (UnknownChoiceError, lambda: selftest.AcceptanceSuite().run(["bogus"])),
        "emit_report": (UnknownChoiceError, lambda: sweep.emit_report(sweep.SweepResult((), (), 0), "xml")),
    }


@pytest.mark.parametrize("name", sorted(_refusals()))
def test_each_refusal_raises_its_typed_error(name):
    error, call = _refusals()[name]
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is error and isinstance(info.value, permbinom.PermBinomError)


# q, q - 1 or (q - 1)/r past the int-to-str digit limit: each refusal keeps its type and names the integer by its size
HUGE_Q_REFUSALS = {
    "check_cell": ("GcdViolationError", "gcd(n=2, (q-1)/3=a 22458-bit integer) != 1", lambda: permbinom.permtest.check_cell(7**8000, 2, 3)),
    "ensure_enumerable": (
        "EnumerationGuardError",
        "refusing to enumerate F_q with q = a 20001-bit integer > guard 1048576; set PERMBINOM_GUARD to at least a 20001-bit integer",
        lambda: permbinom.fields.ensure_enumerable(2**20000),
    ),
    "refined_bounds_r3": ("BadFieldForCubicError", "q = a 20002-bit integer is not 1 mod 3", lambda: permbinom.refined_bounds_r3(2**20001)),
    "masuda_zieve_bounds": (
        "OutOfRangeError", "r = 3 must divide q - 1 = a 20001-bit integer", lambda: permbinom.masuda_zieve_bounds(2**20001, 3)
    ),
    "closed_count_r2": ("NonPrimeError", "q = a 20001-bit integer is not a prime power", lambda: permbinom.closed_count_r2(2**20000 + 1, 1)),
    "build_count_report": (
        "EvenCharacteristicError", "r = 2 needs odd q, got q = a 20001-bit integer", lambda: permbinom.build_count_report(2, 20000, 1, 2)
    ),
}
HUGE_Q_QUERIES = {
    "count-gcd": (["count", "--field", "7^8000", "--n", "2", "--r", "3"], HUGE_Q_REFUSALS["check_cell"][1]),
    "count-odd-q": (["count", "--field", "2^20000", "--n", "1", "--r", "2"], HUGE_Q_REFUSALS["build_count_report"][1]),
    "bounds-1-mod-3": (["bounds", "--field", "2^20001", "--r", "3"], HUGE_Q_REFUSALS["refined_bounds_r3"][1]),
}


@pytest.mark.parametrize("name", sorted(HUGE_Q_REFUSALS))
def test_a_refusal_on_a_huge_q_keeps_its_type(name, monkeypatch):
    monkeypatch.delenv("PERMBINOM_GUARD", raising=False)
    error, message, call = HUGE_Q_REFUSALS[name]
    with pytest.raises(permbinom.PermBinomError) as info:
        call()
    assert type(info.value).__name__ == error and str(info.value) == message


@pytest.mark.parametrize("name", sorted(HUGE_Q_QUERIES))
def test_a_query_on_a_huge_q_prints_the_typed_refusal(name, capsys):
    from permbinom import cli

    argv, message = HUGE_Q_QUERIES[name]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parent.parent / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
    assert any(req.startswith("mpmath") for req in project["optional-dependencies"]["test"])


LAZY_NAMES = ("AcceptanceSuite", "CheckResult", "SweepConfig", "SweepFailure", "SweepResult", "emit_report", "run_verify_sweep")


def test_every_public_name_resolves():
    assert set(LAZY_NAMES) <= set(permbinom.__all__)
    for name in permbinom.__all__:
        assert getattr(permbinom, name) is not None, name
    from permbinom import AcceptanceSuite, SweepConfig, run_verify_sweep
    from permbinom import selftest, sweep

    assert (run_verify_sweep, SweepConfig, AcceptanceSuite) == (sweep.run_verify_sweep, sweep.SweepConfig, selftest.AcceptanceSuite)


def test_dir_lists_the_lazy_names_before_they_load():
    script = (
        "import sys, permbinom\n"
        "listed = dir(permbinom)\n"
        "print(sorted(set(permbinom.__all__) - set(listed)), listed == sorted(listed), 'permbinom.sweep' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert proc.stdout == "[] True False\n", proc.stderr


def test_unknown_attribute_is_still_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        permbinom.no_such_name
    assert not hasattr(permbinom, "no_such_name")


def test_records_are_immutable_tuples_that_pickle():
    config = permbinom.SweepConfig(q_max=50, r_set=(3,), seed=7, jobs=2)
    assert pickle.loads(pickle.dumps(config)) == config  # jobs > 1 sends it to worker processes
    assert tuple(config) == (50, (3,), 7, 2)
    with pytest.raises(AttributeError):
        config.q_max = 60
    report = permbinom.build_count_report(7, 1, 1, 3)
    assert permbinom.report_to_dict(report)["closed_count"] == report.closed_count
    assert list(permbinom.report_to_dict(report)) == list(report._fields)
