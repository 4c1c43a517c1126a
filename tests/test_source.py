"""Checks on the package source, the README's Python example and the
functions the benchmark traces."""

import ast
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "pexstab").glob("*.py")
                 if p.name != "__init__.py")  # __init__ only re-exports


def unused_imports(source: str) -> list:
    """Names an import binds that nothing in ``source`` reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_guard_flags_an_unused_import():
    src = "from __future__ import annotations\nimport os\nfrom fractions import Fraction\nos.sep\n"
    assert unused_imports(src) == [(3, "Fraction")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def memoized_with_parameters(source: str) -> list:
    """Module-level functions with parameters under ``functools.cache`` or
    ``functools.lru_cache``: memos keyed by call inputs that outlive every
    call."""
    out = []
    for fn in ast.parse(source).body:
        if not isinstance(fn, ast.FunctionDef) or not any(
                (fn.args.posonlyargs, fn.args.args, fn.args.vararg,
                 fn.args.kwonlyargs, fn.args.kwarg)):
            continue
        for dec in fn.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            if getattr(target, "attr", getattr(target, "id", None)) in ("cache", "lru_cache"):
                out.append((fn.lineno, fn.name))
    return out


def test_guard_flags_a_memo_with_parameters():
    src = ("import functools\nfrom functools import cache\n"
           "@functools.cache\ndef table():\n    return 1\n"
           "@functools.lru_cache(maxsize=32)\ndef plan(n, dt):\n    return n\n"
           "@cache\ndef step(*key):\n    return key\n"
           "def solve(x):\n    memo = functools.cache(abs)\n    return memo(x)\n")
    assert memoized_with_parameters(src) == [(7, "plan"), (10, "step")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_level_memo_keyed_by_call_inputs(path):
    # a memo lives as long as what reads it: a parameterless table may be
    # built once per process, anything keyed by inputs is held per call
    assert memoized_with_parameters(path.read_text()) == []


def test_only_linsys_imports_scipy_linalg():
    # every matrix exponential is a cached step or a Van Loan block, both in
    # linsys, so a numpy exponential would replace scipy's in one module
    importers, expm_callers = set(), set()
    for path in sorted((ROOT / "src" / "pexstab").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ["%s.%s" % (node.module, alias.name) for alias in node.names]
            else:
                names = []
            if any((name + ".").startswith("scipy.linalg.") for name in names):
                importers.add(path.name)
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(node, ast.Call) and "expm" in (
                        getattr(node.func, "attr", None), getattr(node.func, "id", None))
                    for node in ast.walk(fn)):
                expm_callers.add(fn.name)
    assert importers == {"linsys.py"}
    assert expm_callers == {"_step_matrix", "observability_gramian"}


LATTICE_HELPERS = {"_ratio", "_common"}


def lattice_lifts(sources: dict) -> list:
    """(file, line, name) of each lattice lift written outside its one home.

    ``sources`` maps file names to module text.  A call of ``math.lcm`` (or
    of an ``lcm`` imported from math) counts unless it lies in the body of
    ``_common`` in ``signals.py``; an import or attribute read of
    ``_ratio`` or ``_common`` counts in any other module.
    """
    out = []
    for fname, text in sources.items():
        tree = ast.parse(text)
        home = [(fn.lineno, fn.end_lineno) for fn in tree.body
                if fname == "signals.py" and isinstance(fn, ast.FunctionDef)
                and fn.name == "_common"]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (
                    isinstance(node.func, ast.Name) and node.func.id == "lcm"
                    or isinstance(node.func, ast.Attribute) and node.func.attr == "lcm"
                    and getattr(node.func.value, "id", None) == "math"):
                if not any(lo <= node.lineno <= hi for lo, hi in home):
                    out.append((fname, node.lineno, "lcm"))
            elif fname == "signals.py":
                continue
            elif isinstance(node, ast.ImportFrom):
                out += [(fname, node.lineno, alias.name) for alias in node.names
                        if alias.name in LATTICE_HELPERS]
            elif isinstance(node, ast.Attribute) and node.attr in LATTICE_HELPERS:
                out.append((fname, node.lineno, node.attr))
    return sorted(out)


def test_guard_flags_a_lattice_lift_outside_signals_common():
    planted = {
        "signals.py": ("import math\n\n"
                       "def _common(ratios):\n    return math.lcm(*ratios)\n\n"
                       "def integral(a, b):\n    return math.lcm(a, b)\n"),
        "scenario.py": ("from math import lcm\nfrom .signals import _ratio, integral\n"
                        "from . import signals\n"
                        "k = lcm(2, 3) + signals._common([]) + integral(1, 2)\n"),
        "stability.py": "import math\nn = math.gcd(4, 6)\n",
    }
    assert lattice_lifts(planted) == [
        ("scenario.py", 2, "_ratio"), ("scenario.py", 4, "_common"),
        ("scenario.py", 4, "lcm"), ("signals.py", 7, "lcm")]


def test_lattice_lifts_live_in_signals_common():
    # every exact time query lifts onto a signal's lattice through
    # Signal._lift, and every lattice is the lcm of signals._common
    sources = {p.name: p.read_text() for p in (ROOT / "src" / "pexstab").glob("*.py")}
    assert lattice_lifts(sources) == []


# Public definitions that nothing in src/ reads, kept for a reason each.
UNREACHED_BY_DESIGN = {
    # the exact mass that defines pe_check; the signal tests hold the lattice to it
    "Signal.integral",
    # the pointwise level lookup: the signal tests read levels through it,
    # and the batched _levels is tested against it
    "Signal.value_at",
    # the shift by t0 on the lattice: the benchmark traces it as a gate
    # build, the signal tests hold it to the Fraction reference, and
    # tests/oracles.gap_estimate_check restarts its signal at each interval
    "Signal.shifted",
}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreached(sources: dict) -> list:
    """Definitions that nothing in ``sources`` reads outside their own body.

    ``sources`` maps file names to module text.  A module-level function or
    class, public or private, counts as read by a ``Name`` node, a method of
    such a class by an ``Attribute`` node of its name; dunders are called
    by the language and never count.  ``__init__.py`` only re-exports, so it
    defines nothing here and its imports read nothing.
    """
    defs, reads = [], {}
    for fname, text in sources.items():
        tree = ast.parse(text)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault((ast.Name, node.id), []).append((fname, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault((ast.Attribute, node.attr), []).append((fname, node.lineno))
        if fname == "__init__.py":
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or _dunder(node.name):
                continue
            defs.append((ast.Name, node.name, node.name, fname, node))
            if isinstance(node, ast.ClassDef):
                defs += [(ast.Attribute, m.name, "%s.%s" % (node.name, m.name), fname, m)
                         for m in node.body
                         if isinstance(m, ast.FunctionDef) and not _dunder(m.name)]
    return sorted(qual for kind, name, qual, fname, node in defs
                  if all(f == fname and node.lineno <= line <= node.end_lineno
                         for f, line in reads.get((kind, name), ())))


def test_guard_flags_an_unreached_definition():
    planted = {
        "__init__.py": "from .a import recursive\n",
        "a.py": ("def used():\n    return helper().read()\n\n"
                 "def helper():\n    return Box()\n\n"
                 "def recursive(n):\n    return recursive(n - 1)\n\n"
                 "def _private():\n    return 0\n\n"
                 "def _kept():\n    return 1\n\n"
                 "class Box:\n    def read(self):\n        return self._shape() + _kept()\n\n"
                 "    def spare(self):\n        return self.spare()\n\n"
                 "    def _shape(self):\n        return 2\n\n"
                 "    def _hidden(self):\n        return 3\n\n"
                 "    def __repr__(self):\n        return 'Box'\n"),
        "b.py": "from .a import used\nused()\n",
    }
    assert unreached(planted) == ["Box._hidden", "Box.spare", "_private", "recursive"]


def test_every_public_definition_is_reached_or_listed():
    sources = {p.name: p.read_text() for p in (ROOT / "src" / "pexstab").glob("*.py")}
    assert unreached(sources) == sorted(UNREACHED_BY_DESIGN)


# Defaulted parameters that no call in src/ passes, kept for a reason each.
UNSET_BY_DESIGN = {
    # the console entry point: argv=None makes argparse read sys.argv
    "main(argv)",
}


def _public_functions(tree):
    """(qualified name, node, call kind, positional offset) of each public
    module-level function and each public method of a public class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
            continue
        if isinstance(node, ast.FunctionDef):
            yield node.name, node, ast.Name, 0
        elif isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, ast.FunctionDef) and m.name[0] != "_":
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in m.decorator_list)
                    yield "%s.%s" % (node.name, m.name), m, ast.Attribute, 0 if static else 1


def unset_parameters(sources: dict) -> list:
    """``name(param)`` for each defaulted parameter of a public function or
    method that no call in ``sources`` passes, by keyword or by position.

    A function counts as called by a ``Name`` call of its name, a method by
    an ``Attribute`` call of its name, whose positions start after ``self``
    or ``cls``; a ``*args`` or ``**kwargs`` call passes everything.
    """
    calls = {}
    for text in sources.values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                f = node.func
                key = (ast.Name, f.id) if isinstance(f, ast.Name) else (
                    (ast.Attribute, f.attr) if isinstance(f, ast.Attribute) else None)
                calls.setdefault(key, []).append(node)
    out = []
    for fname, text in sources.items():
        if fname == "__init__.py":
            continue
        for qual, fn, kind, offset in _public_functions(ast.parse(text)):
            args = fn.args
            positional = args.posonlyargs + args.args
            defaulted = [(i, a.arg) for i, a in enumerate(positional)
                         if i >= len(positional) - len(args.defaults)]
            defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            for index, name in defaulted:
                if not any(_passes(call, index, name, offset)
                           for call in calls.get((kind, fn.name), ())):
                    out.append("%s(%s)" % (qual, name))
    return sorted(out)


def _passes(call: ast.Call, index, name: str, offset: int) -> bool:
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    return index is not None and len(call.args) > index - offset


def test_guard_flags_an_unset_parameter():
    planted = {
        "__init__.py": "from .a import solve\n",
        "a.py": ("def solve(x, tol=1e-9, steps=10, *, log=None, quiet=False):\n"
                 "    return x\n\n"
                 "def spread(*args, scale=1.0):\n    return args\n\n"
                 "class Box:\n"
                 "    def fill(self, level=1.0, clip=True):\n        return level\n\n"
                 "    @staticmethod\n"
                 "    def make(size=1):\n        return Box()\n"),
        "b.py": ("from .a import Box, solve, spread\n"
                 "solve(1.0, 1e-6, log=print)\n"
                 "spread(*[1, 2], **{})\n"
                 "Box.make(3).fill(0.5)\n"),
    }
    assert unset_parameters(planted) == [
        "Box.fill(clip)", "solve(quiet)", "solve(steps)"]


def test_every_defaulted_parameter_is_passed_or_listed():
    sources = {p.name: p.read_text() for p in (ROOT / "src" / "pexstab").glob("*.py")}
    exempt = {q for q in unset_parameters(sources)
              if q.split("(")[0] in UNREACHED_BY_DESIGN}
    assert sorted(set(unset_parameters(sources)) - exempt) == sorted(UNSET_BY_DESIGN)


def test_readme_python_example_runs():
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Python API\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["check"].ok
    assert namespace["traj"].times[-1] == 40.0


def test_benchmark_span_boundaries_resolve():
    # perfbench/spans.py wraps these functions by module and name; a rename
    # must fail here, not first in a benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.BOUNDARIES
    for _layer, owner, attr, _count in spans.BOUNDARIES:
        assert callable(getattr(spans._resolve(owner), attr, None)), (owner, attr)


def schema_tables():
    """``### <object>`` heading of README "Scenario fields" -> field names of
    that object's table in ``scenario.py``: ``field`` for the object a field
    holds, ``field: kind`` for each kind a tagged field may hold."""
    from pexstab import scenario

    out = {}

    def visit(heading, table):
        if isinstance(table, scenario.Kinds):
            kinds = list(table.kinds.values())
            if table.untagged is not None:
                kinds.append(table.untagged)
            for obj in kinds:
                visit("%s: %s" % (heading, obj.name), obj)
            return
        out[heading] = set(table.fields)
        for key, spec in table.fields.items():
            check = spec[0] if isinstance(spec, tuple) else spec
            if isinstance(check, (scenario.Obj, scenario.Kinds)):
                visit(key, check)

    visit("scenario", scenario.SCENARIO)
    visit("analysis", scenario.ANALYSES)
    return out


def readme_tables():
    """``### <object>`` heading of README "Scenario fields" -> the fields its
    table names (none for an object without a table)."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Scenario fields\n", 1)[1].split("\n## ", 1)[0]
    out = {}
    for block in section.split("\n### ")[1:]:
        heading, body = block.split("\n", 1)
        out[heading.strip()] = set(re.findall(r"^\| `(\w+)` \|", body, re.M))
    return out


def test_readme_field_tables_match_the_schema():
    tables = schema_tables()
    assert len(tables) == 27
    assert readme_tables() == tables
