"""Fuzz of scenario validation, seeded from the benchmark's scenario shapes.

Every mutated document must either validate or raise ``ScenarioError``
carrying a field path, and ``pexstab validate`` must answer it with an exit
status from the CLI contract, never a traceback.  A document that validates
must run without a precondition error, and the README's scenario-field
reference must name every field of the schema.
"""

import copy
import importlib.util
import json
import re
import string
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from pexstab import cli, scenario
from pexstab.cli import main
from pexstab.scenario import ScenarioError, parse_scenario

_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

SHAPES = tuple(workloads.generate(name, 0, tiny=True) for name in workloads.WORKLOADS)
TOP_LEVEL = ("$", "seed", "system", "signal", "horizon", "dt_out", "analyses")

keys = st.text(alphabet=string.ascii_lowercase + "_", min_size=1, max_size=8)
# Parsing bounds what it builds (modes, pulses, gate breakpoints), so the
# numbers span magnitudes from 1e-9 and below up to 1e9.
numbers = st.one_of(
    st.integers(-10 ** 9, 10 ** 9),
    st.floats(-1e9, 1e9, allow_nan=False),
    st.sampled_from([1e-9, -1e-9, 1e9, 256, 257, 1000, 1001, 10 ** 400]),
)
json_values = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(keys, inner, max_size=3),
    max_leaves=6,
)


def _slots(node, out):
    """Every (container, key-or-index) pair in a JSON tree, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for k, child in items:
        out.append((node, k))
        _slots(child, out)
    return out


@st.composite
def mutated_scenarios(draw):
    doc = copy.deepcopy(draw(st.sampled_from(SHAPES)))
    for _ in range(draw(st.integers(1, 3))):
        slots = _slots(doc, [])
        if not slots:
            break
        parent, key = draw(st.sampled_from(slots))
        op = draw(st.sampled_from(("drop", "rename", "swap")))
        if op == "swap" or isinstance(parent, list):
            parent[key] = draw(json_values)
        elif op == "drop":
            del parent[key]
        else:
            parent[draw(keys)] = parent.pop(key)
    return doc


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_scenarios())
def test_mutated_scenarios_validate_or_name_a_field(tmp_path, capsys, doc):
    try:
        parse_scenario(doc)
        valid = True
    except ScenarioError as e:
        valid = False
        root = re.split(r"[.\[]", e.path)[0]
        assert root in TOP_LEVEL or root in doc, e.path
        assert str(e).startswith(e.path + ": ")
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == (0 if valid else 2)
    capsys.readouterr()


# A run's cost grows with the sizes a mutation may raise (samples, trials,
# cells, starts), so these runs draw small numbers, positive ones more often:
# the property is about preconditions, not sizes.
small_numbers = st.one_of(
    st.integers(-2, 12),
    st.floats(-4.0, 12.0, allow_nan=False).filter(lambda x: x == 0 or abs(x) >= 0.05),
    st.floats(0.05, 12.0),
)


@st.composite
def renumbered_scenarios(draw):
    """A benchmark shape with 1-3 numbers redrawn small or fields dropped."""
    doc = copy.deepcopy(draw(st.sampled_from(SHAPES)))
    for _ in range(draw(st.integers(1, 3))):
        parent, key = draw(st.sampled_from(_slots(doc, [])))
        value = parent[key]
        if isinstance(value, (int, float)) and not isinstance(value, bool) \
                and draw(st.integers(0, 3)):
            parent[key] = draw(small_numbers)
        elif isinstance(parent, dict):
            del parent[key]
    return doc


def _validates(doc):
    try:
        parse_scenario(doc)
        return True
    except ScenarioError:
        return False


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.filter_too_much])
@given(renumbered_scenarios())
def test_validated_scenarios_run_without_precondition_errors(tmp_path, capsys, doc):
    assume(_validates(doc))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    code = main(["run", str(path), "--out", str(tmp_path / "out")])
    capsys.readouterr()
    assert code in (0, 1)


# two rotation blocks of speeds 1 and 3 behind one input; with T_grid
# [0.001, 1e-6] the scan validates, but its class constant at T = 1e-6 can
# round to a value <= 0 and the scan raises
TWO_ANALYSES = {
    "seed": 1,
    "system": {"kind": "matrices",
               "A": [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 3], [0, 0, -3, 0]],
               "B": [[0], [1], [0], [1]]},
    "analyses": [
        {"kind": "kappa-scan", "rho": 0.5, "T_grid": [0.4, 0.2], "n_cells": 8,
         "outer": {"n_starts": 2}},
        {"kind": "observability",
         "class": {"kind": "rho-integral", "rho": 0.5, "horizon": 1.0},
         "n_cells": 8, "outer": {"n_starts": 2}},
    ],
}


@pytest.mark.parametrize("parallel", [False, True], ids=["serial", "parallel"])
@pytest.mark.parametrize("target, failed", [("kappa_scan", 0), ("class_constant", 1)])
def test_numerical_failure_is_that_analysis_report(tmp_path, capsys, monkeypatch,
                                                   target, failed, parallel):
    # whether that scan fails depends on rounding, so one runner is made to
    # raise what the library raises on a numerical failure
    def fail(*args, **kwargs):
        raise RuntimeError("nonpositive class constant in scan; grid too coarse")

    monkeypatch.setattr(cli, target, fail)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(TWO_ANALYSES))
    assert main(["validate", str(path)]) == 0
    out = tmp_path / "out"
    argv = ["run", str(path), "--out", str(out)] + (["--parallel"] if parallel else [])
    assert main(argv) == 1
    assert "Traceback" not in capsys.readouterr().err
    reports = [json.loads((out / name).read_text())
               for name in ("00_kappa-scan.json", "01_observability.json")]
    assert reports[failed]["ok"] is False
    assert reports[failed]["report"] == {
        "error": "nonpositive class constant in scan; grid too coarse"}
    assert reports[1 - failed]["ok"] is True
    assert "error" not in reports[1 - failed]["report"]


def test_benchmark_shapes_validate():
    for doc in SHAPES:
        parse_scenario(doc)


def test_full_size_benchmark_workloads_validate():
    # the largest inputs in use must stay within the caps on what a run builds
    for name in workloads.WORKLOADS:
        parse_scenario(workloads.generate(name, 1))


def _shape(name):
    return copy.deepcopy(SHAPES[workloads.WORKLOADS.index(name)])


def _set(doc, keys, value):
    node = doc
    for k in keys[:-1]:
        node = node[k]
    node[keys[-1]] = value
    return doc


# A list or object where a kind name belongs used to escape as a TypeError
# (unhashable key in the field-table lookup) instead of exit 2.
UNHASHABLE_KINDS = [
    ("pe-lp", ("system", "kind"), "system.kind"),
    ("simulate-long", ("signal", "gen"), "signal.gen"),
    ("pe-lp", ("analyses", 0, "class", "kind"), "analyses[0].class.kind"),
    ("certify-verify", ("analyses", 0, "source", "kind"), "analyses[0].source.kind"),
    ("certify-verify", ("analyses", 1, "criterion", "cost", "kind"),
     "analyses[1].criterion.cost.kind"),
]


@pytest.mark.parametrize("name, keys, path", UNHASHABLE_KINDS)
def test_unhashable_kind_is_a_field_error(tmp_path, capsys, name, keys, path):
    doc = _set(_shape(name), keys, [])
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert err.value.path == path
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps(doc))
    assert main(["validate", str(scen)]) == 2
    assert path in capsys.readouterr().err


def _tables(table, title):
    """(title, field names) of every object table under ``table``."""
    if isinstance(table, scenario.Kinds):
        for kind, obj in table.kinds.items():
            yield from _tables(obj, "%s: %s" % (title, kind))
        if table.untagged is not None:
            yield from _tables(table.untagged, "%s: %s" % (title, table.untagged.name))
        return
    yield title, tuple(table.fields)
    for key, spec in table.fields.items():
        check = spec[0] if isinstance(spec, tuple) else spec
        if isinstance(check, (scenario.Obj, scenario.Kinds)):
            yield from _tables(check, key)


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_lists_every_scenario_field():
    text = README.read_text()
    section = text.split("## Scenario fields", 1)[1].split("\n## ", 1)[0]
    blocks = dict((b.split("\n", 1) + [""])[:2] for b in section.split("\n### ")[1:])
    tables = dict(_tables(scenario.SCENARIO, "scenario"))
    tables.update(_tables(scenario.ANALYSES, "analysis"))
    for title, fields in tables.items():
        assert title in blocks, title
        for field in fields:
            assert "| `%s` |" % field in blocks[title], (title, field)
    example = json.loads(text.split("```json\n", 1)[1].split("```", 1)[0])
    assert len(parse_scenario(example).analyses) == len(example["analyses"])


def test_number_beyond_float_range_is_a_field_error():
    # a JSON integer too large for a float used to escape as OverflowError
    doc = _set(_shape("simulate-long"), ("horizon",), 10 ** 400)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert err.value.path == "horizon"
