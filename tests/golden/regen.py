"""Golden reports: run the recorded scenarios and describe what they wrote.

Usage (from the repository root):

    PYTHONPATH=src python tests/golden/regen.py

runs every scenario of ``scenarios()`` in this process, rewrites
``tests/golden/manifest.json`` and replaces ``tests/golden/reports/`` with
the JSON reports verbatim.  ``tests/test_golden.py`` runs the same scenarios
and compares what they write with the manifest.

The manifest holds, per report file, its sha256; a CSV also keeps its
header, row count and per-column sums (``math.fsum``), and no copy.  It
records the environment the digests were taken in (python, numpy, scipy and
the BLAS name and version, from ``perfbench/run.py``), since OpenBLAS picks
its kernels per CPU and the last digits of a float follow them.  In that
environment the digests must match exactly; in another one the reports must
match the stored ones in structure, strings, booleans and integers exactly,
and in floats to ``REL_TOL`` relative (or ``ABS_TOL`` near zero).

A change that moves a digest on purpose regenerates the manifest and says in
CHANGES.md which reports changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MANIFEST = HERE / "manifest.json"
REPORTS = HERE / "reports"
REL_TOL = 1e-9
# floats this close to zero are rounding residue (an energy drift of 1e-16,
# the smallest eigenvalue of a nearly singular Gramian) and count as equal
ABS_TOL = 1e-12
WORKLOAD_SEED = 1

# level 0.3 on the intervals, a table criterion, and the same intervals with
# explicit costs; the table's band minimum sits at its knot 0.55
STRONG_STABILITY = {
    "seed": 2,
    "system": {"kind": "wave-modal", "n_modes": 2,
               "damping": {"omega": [0.2, 0.6]}},
    "analyses": [
        {"kind": "strong-stability", "level": 0.3,
         "intervals": [[0.0, 0.6], [1.0, 1.7], [2.0, 2.9], [3.5, 5.0]],
         "criterion": {"T0": 1.0,
                       "cost": {"kind": "table", "T": [0.1, 0.55, 1.0, 2.0],
                                "c": [1e-3, 2e-4, 6e-4, 1e-3]}}},
        {"kind": "strong-stability",
         "intervals": [[0.0, 0.6], [1.0, 1.7], [2.0, 2.9], [3.5, 5.0]],
         "costs": [0.01, 0.02, 0.0, 0.03]},
    ],
}


def _perfbench(name: str):
    """``perfbench/<name>.py`` as a module, with perfbench/ on the path for
    its own imports."""
    path = str(ROOT / "perfbench")
    sys.path.insert(0, path)
    try:
        spec = importlib.util.spec_from_file_location("perfbench_" + name,
                                                      "%s/%s.py" % (path, name))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.path.remove(path)


def environment() -> dict:
    """The parts of the benchmark's environment that decide float bits."""
    env = _perfbench("run").environment()
    return {k: env[k] for k in ("python", "numpy", "scipy", "blas")}


def _cli(argv) -> int:
    from pexstab.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def _run_doc(doc: dict, work: Path, out: Path) -> int:
    # written as perfbench/run.py writes it, so scenario_sha256 is the same
    path = work / ("%s.json" % out.name)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    return _cli(["run", str(path), "--out", str(out)])


def scenarios() -> dict:
    """Name -> function that writes the scenario's reports into a directory
    (its first argument, a scratch directory its second) and returns the
    exit status."""
    workloads = _perfbench("workloads")
    runs = {name: (lambda out, work, name=name: _run_doc(
                workloads.generate(name, WORKLOAD_SEED), work, out))
            for name in workloads.WORKLOADS}
    runs["counterexample"] = lambda out, work: _cli(
        ["counterexample", "--omega", "0.2,0.6", "--periods", "8", "--out", str(out)])
    runs["strong-stability"] = lambda out, work: _run_doc(STRONG_STABILITY, work, out)
    return runs


def run_all(root: Path) -> dict:
    """Run every scenario into ``root/<name>``; name -> exit status."""
    with tempfile.TemporaryDirectory() as work:
        return {name: run(root / name, Path(work)) for name, run in scenarios().items()}


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _csv_entry(path: Path) -> dict:
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {"sha256": _digest(path), "header": header, "rows": len(rows),
            "column_sums": [math.fsum(col) for col in rows.T]}


def describe(root: Path) -> dict:
    """Report file (relative to ``root``) -> its manifest entry."""
    return {p.relative_to(root).as_posix():
            _csv_entry(p) if p.suffix == ".csv" else {"sha256": _digest(p)}
            for p in sorted(root.rglob("*")) if p.is_file()}


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text())


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def json_differences(want, got, path: str = "") -> list:
    """Where two JSON values differ in structure, in a non-float value, or
    in a float beyond the tolerances."""
    if type(want) is not type(got):
        return ["%s: %s became %s" % (path, type(want).__name__, type(got).__name__)]
    if isinstance(want, dict):
        if set(want) != set(got):
            return ["%s: keys %s became %s" % (path, sorted(want), sorted(got))]
        return [d for k in sorted(want)
                for d in json_differences(want[k], got[k], "%s.%s" % (path, k))]
    if isinstance(want, list):
        if len(want) != len(got):
            return ["%s: %d items became %d" % (path, len(want), len(got))]
        return [d for i, (w, g) in enumerate(zip(want, got))
                for d in json_differences(w, g, "%s[%d]" % (path, i))]
    if isinstance(want, float) and _close(want, got):
        return []
    return [] if want == got else ["%s: %r became %r" % (path, want, got)]


def loose_differences(manifest: dict, root: Path) -> list:
    """Differences of the reports under ``root`` from the stored reports and
    the manifest's CSV entries, under the float tolerances."""
    files = manifest["files"]
    got = describe(root)
    if set(got) != set(files):
        return ["files %s became %s" % (sorted(files), sorted(got))]
    out = []
    for name, entry in files.items():
        if "header" in entry:
            now = got[name]
            for key in ("header", "rows"):
                if now[key] != entry[key]:
                    out.append("%s: %s %r became %r" % (name, key, entry[key], now[key]))
            if not all(map(_close, entry["column_sums"], now["column_sums"])):
                out.append("%s: column sums %s became %s"
                           % (name, entry["column_sums"], now["column_sums"]))
        else:
            out += json_differences(json.loads((REPORTS / name).read_text()),
                                    json.loads((root / name).read_text()), name)
    return out


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        status = run_all(root)
        manifest = {"environment": environment(), "exit_status": status,
                    "files": describe(root)}
        shutil.rmtree(REPORTS, ignore_errors=True)
        for name, entry in manifest["files"].items():
            if "header" not in entry:
                (REPORTS / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(root / name, REPORTS / name)
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print("wrote %s: %d report files, exit status %s"
          % (MANIFEST.relative_to(ROOT), len(manifest["files"]), status))
    return 0


if __name__ == "__main__":
    sys.exit(main())
