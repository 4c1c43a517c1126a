"""The reports of the golden scenarios against ``tests/golden/manifest.json``.

The scenarios (the four benchmark workloads at seed 1, full size, the
counterexample over 8 periods and a small strong-stability scenario) run
once, in this process.  In the manifest's environment their digests must
match exactly; in any other, the reports must match in structure and
non-float values exactly and in floats to 1e-9 relative (see
``tests/golden/regen.py``, which also regenerates the manifest).
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("golden_regen",
                                               ROOT / "tests" / "golden" / "regen.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    return root, golden.run_all(root)


def test_reports_match_the_manifest(fresh):
    root, status = fresh
    manifest = golden.load_manifest()
    assert status == manifest["exit_status"]
    if golden.environment() == manifest["environment"]:
        digests = {name: e["sha256"] for name, e in golden.describe(root).items()}
        assert digests == {name: e["sha256"] for name, e in manifest["files"].items()}
    else:
        assert golden.loose_differences(manifest, root) == []


def test_stored_reports_are_the_digested_ones():
    manifest = golden.load_manifest()
    stored = golden.describe(golden.REPORTS)
    json_files = {n: e for n, e in manifest["files"].items() if "header" not in e}
    assert stored == json_files


def test_loose_comparison_accepts_the_fresh_reports(fresh):
    # the comparison another environment takes must pass on this one too
    root, _ = fresh
    assert golden.loose_differences(golden.load_manifest(), root) == []


def test_loose_comparison_flags_what_it_must():
    report = {"ok": True, "caveats": ["truncated"], "verdict": "divergence-consistent",
              "n": 4, "x": [0.5, 1e-35], "nested": {"y": 2.0}}
    same = json.loads(json.dumps(report))
    same["x"] = [0.5 * (1 + 1e-12), 3e-35]
    assert golden.json_differences(report, same) == []
    changes = {
        "ok": False, "caveats": [], "verdict": "not divergence-consistent",
        "n": 5, "x": [0.5 * (1 + 1e-6), 1e-35], "nested": {"y": 2.0, "z": None},
    }
    for key, value in changes.items():
        moved = dict(report, **{key: value})
        assert golden.json_differences(report, moved), key
    assert golden.json_differences(report, dict(report, n=4.0))


def test_loose_comparison_flags_csv_changes(fresh, tmp_path):
    root, _ = fresh
    name = "counterexample/00_counterexample.csv"
    manifest = {"files": {name: golden.load_manifest()["files"][name]}}
    lines = (root / name).read_text().splitlines(keepends=True)
    target = tmp_path / name
    target.parent.mkdir()
    target.write_text("".join(lines))
    assert golden.loose_differences(manifest, tmp_path) == []
    target.write_text("".join(lines[:-1]))
    assert any("rows" in d for d in golden.loose_differences(manifest, tmp_path))
    t, v, rate = lines[-1].rstrip("\n").split(",")
    target.write_text("".join(lines[:-1]) + "%s,%r,%s\n" % (t, float(v) * (1 + 1e-6), rate))
    assert any("column sums" in d for d in golden.loose_differences(manifest, tmp_path))
