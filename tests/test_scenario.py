"""Fuzz of scenario validation, seeded from the benchmark's scenario shapes.

Every mutated document must either validate or raise ``ScenarioError``
carrying a field path, and ``pexstab validate`` must answer it with an exit
status from the CLI contract, never a traceback.
"""

import copy
import importlib.util
import json
import re
import string
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pexstab.cli import main
from pexstab.scenario import ScenarioError, parse_scenario

_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

SHAPES = tuple(workloads.generate(name, 0, tiny=True) for name in workloads.WORKLOADS)
TOP_LEVEL = ("$", "seed", "system", "signal", "horizon", "dt_out", "analyses")

keys = st.text(alphabet=string.ascii_lowercase + "_", min_size=1, max_size=8)
# Numbers stay within [-10, 50] and away from 0 by 1e-3 at least, so that a
# mutated size (modes, pulses, gate period) never asks parse for a huge
# system or signal.
numbers = st.one_of(
    st.integers(-3, 40),
    st.floats(-10.0, 50.0, allow_nan=False).filter(lambda x: x == 0 or abs(x) >= 1e-3),
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


def test_benchmark_shapes_validate():
    for doc in SHAPES:
        parse_scenario(doc)


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
