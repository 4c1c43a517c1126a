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
