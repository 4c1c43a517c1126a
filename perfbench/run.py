"""pexstab benchmark: seeded ``pexstab run`` workloads, timed and checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload pe-lp --seed 1 --seconds 28 --trace 0

``--workload all`` runs the four workloads in turn, each printing its own
summary and result line, and exits nonzero if any of them failed.

One run generates the workload's scenario from the seed, then starts fresh
``perfbench/child.py`` processes one after another (a closed loop with one
caller) until about ``--seconds`` have passed, at least four of them.  Every
sample runs the CLI once on the same scenario.

With ``--trace 0`` the run reports the end-to-end metrics, medians over the
samples: ``run_s`` (wall time of the CLI call after set-up), ``setup_s``
(process spawn to ``pexstab.cli`` imported and the scenario parsed) and
``peak_rss_mb``.  Times are rescaled per sample to the host's nominal speed
with the reference kernel of ``calibrate.py``; the summary prints the raw
medians and the speed factors too.

With ``--trace 1`` samples alternate between traced and untraced; the
traced ones wrap pexstab's layer-boundary functions (see ``spans.py``) and
the run reports the per-layer metrics, medians over the traced samples, plus
``trace.overhead_ratio`` against the untraced ones.

The correctness gate runs on every run: every sample must exit 0 with
``ok: true`` in each report, all samples must write byte-identical reports,
and the report contents must pass the checks in ``checks.py``.  A failed
check makes the run print ``"correct": false`` and exit 1.  ``attempted``
and ``failed`` count analyses (samples times analyses per scenario), so
failed / attempted is the fail ratio.  Bad arguments, or no pexstab
sources under ``./src``, exit 2 without a result.

Lines before the last are a readable summary with sample counts and the
environment (interpreter, numpy, scipy, BLAS, cores, ``*_NUM_THREADS``); the
last line is the JSON result.  BLAS threads are left as the user has them:
pinning them would measure a configuration users do not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import calibrate
import checks
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_SAMPLES = 4
CHILD_TIMEOUT_S = 120.0
END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class Sample:
    """One finished child process and what it left behind."""

    def __init__(self, index, traced, spawn, wall, code, result, out_dir):
        self.index, self.traced, self.wall = index, traced, wall
        self.code, self.result, self.out_dir = code, result, out_dir
        self.setup_s = result["parsed_at"] - spawn if result else None


def run_child(work: str, scenario: str, index: int, traced: bool, src: str) -> Sample:
    out_dir = os.path.join(work, "out%03d" % index)
    result_path = os.path.join(work, "result%03d.json" % index)
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), scenario, out_dir,
           result_path, "1" if traced else "0", "sample-%d" % index]
    spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
        code = proc.returncode
        if code != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace")[-2000:])
    except subprocess.TimeoutExpired:
        code = "timeout"
    wall = time.monotonic() - spawn
    result = None
    if code == 0:
        with open(result_path) as fh:
            result = json.load(fh)
    return Sample(index, traced, spawn, wall, code, result, out_dir)


def tree_digest(path: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def read_reports(out_dir: str) -> dict:
    reports = {}
    if os.path.isdir(out_dir):
        for name in os.listdir(out_dir):
            if name.endswith(".json"):
                with open(os.path.join(out_dir, name)) as fh:
                    env = json.load(fh)
                reports[env["analysis_index"]] = env
    return reports


def gate(samples, scenario, doc, src) -> tuple:
    """Correctness gate over all samples of one run.

    Returns (failed analyses, failure messages, accuracy figures).  The
    content checks run once, on the first sample's reports; every later
    sample must match those reports byte for byte, so the verdict carries
    over to it.
    """
    n = len(doc["analyses"])
    failed, messages, accuracy = 0, [], {}
    reference, content_bad = None, set()
    for s in samples:
        if s.result is None:
            messages.append("sample %d: child exited with %s" % (s.index, s.code))
            failed += n
            continue
        bad = set()
        if not s.result["pexstab_file"].startswith(src + os.sep):
            messages.append("sample %d imported pexstab from %s"
                            % (s.index, s.result["pexstab_file"]))
            bad = set(range(n))
        reports = read_reports(s.out_dir)
        for i in range(n):
            if i not in reports or reports[i]["ok"] is not True:
                messages.append("sample %d: analysis %d has no ok report" % (s.index, i))
                bad.add(i)
        if s.result["exit_code"] != 0:
            messages.append("sample %d: pexstab run exited %s"
                            % (s.index, s.result["exit_code"]))
            bad = bad or set(range(n))
        digest = tree_digest(s.out_dir)
        if reference is None:
            reference = (s.index, digest)
            found, accuracy = checks.check_reports(scenario, doc, reports)
            content_bad = {i for i, _ in found}
            messages += ["analysis %d: %s" % f for f in found]
        elif digest != reference[1]:
            messages.append("sample %d: reports differ from sample %d's"
                            % (s.index, reference[0]))
            bad = set(range(n))
        failed += len(bad | content_bad)
    return failed, messages, accuracy


def environment() -> dict:
    import numpy
    import scipy
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        blas = {}
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith("_NUM_THREADS")},
    }


def per_layer_units() -> dict:
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def speed_factor(samples) -> float:
    """NOMINAL_S over the median of every kernel time the samples measured."""
    return calibrate.NOMINAL_S / statistics.median(
        k for s in samples for k in s.result["kernel_s"])


def end_to_end(plain, factor: float) -> dict:
    """End-to-end metrics: medians over untraced samples, times rescaled."""
    return {
        "run_s": statistics.median(s.result["run_s"] for s in plain) * factor,
        "setup_s": statistics.median(s.setup_s for s in plain) * factor,
        "peak_rss_mb": statistics.median(s.result["peak_rss_mb"] for s in plain),
    }


def layer_values(traced, factor: float, plain_run_s: float, accuracy: dict) -> dict:
    """Per-layer metrics: medians over traced samples, times rescaled."""
    per = []
    for s in traced:
        per.append(spans.layer_metrics(s.result["trace"]["spans"]))
        per[-1]["trace.run_s"] = s.result["run_s"]
    values = {k: statistics.median(p[k] for p in per) * (factor if k.endswith("_s") else 1)
              for k in per[0]}
    # 0 where the workload has no report that defines the figure
    for name in ("observability.witness_rel_err", "linsys.balance_rel_residual"):
        values[name] = accuracy.get(name, 0.0)
    values["trace.overhead_ratio"] = values["trace.run_s"] / plain_run_s
    return values


def collect(args, path: str, work: str, src: str) -> list:
    deadline = time.monotonic() + args.seconds
    samples = []
    while len(samples) < MIN_SAMPLES or deadline - time.monotonic() >= \
            statistics.median(s.wall for s in samples):
        traced = bool(args.trace) and len(samples) % 2 == 0
        samples.append(run_child(work, path, len(samples), traced, src))
        if samples[-1].result is None:
            break
    return samples


def measure(args, doc, scenario, work, src) -> int:
    """Run the samples of one workload, gate them and print the result."""
    path = os.path.join(work, "scenario.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    samples = collect(args, path, work, src)
    failed, messages, accuracy = gate(samples, scenario, doc, src)
    attempted = len(samples) * len(doc["analyses"])
    plain = [s for s in samples if s.result is not None and not s.traced]
    traced = [s for s in samples if s.result is not None and s.traced]
    correct = failed == 0 and not messages

    print("workload %s, seed %d: %d samples of `pexstab run`, %d of them traced"
          % (args.workload, args.seed, len(samples), len(traced)))
    print("  %-16s %12.6g %-5s %d of %d analyses failed" % (
        "fail_ratio", failed / attempted, "1", failed, attempted))
    for name, value in sorted(accuracy.items()):
        print("  %-16s %12.6g %-5s" % (name.split(".")[1], value, "1"))
    for m in messages:
        print("  FAILED: %s" % m)
    print("environment: %s" % json.dumps(environment(), sort_keys=True))
    metrics = {}
    if correct:
        factor = speed_factor(plain + traced)
        e2e = end_to_end(plain, factor)
        print("  %-16s %12.6g %-5s NOMINAL_S / median of %d kernel times"
              % ("speed_factor", factor, "1", 2 * len(plain + traced)))
        for name, value in e2e.items():
            scale = factor if END_TO_END_UNITS[name] == "s" else 1.0
            print("  %-16s %12.6g %-5s median of %d; raw median %.6g" % (
                name, value, END_TO_END_UNITS[name], len(plain), value / scale))
        if args.trace:
            values = layer_values(traced, factor, e2e["run_s"], accuracy)
            for name, unit in per_layer_units().items():
                metrics[name] = {"value": values[name], "unit": unit}
                print("  %-40s %12.6g %-6s median of %d traced" % (
                    name, values[name], unit, len(traced)))
        else:
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                       for k, v in e2e.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",),
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn a termination request into SystemExit, so running children are
    # killed and waited for and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "pexstab", "cli.py")):
        print("perfbench: no pexstab sources under %s; run from the repository "
              "root" % src, file=sys.stderr)
        return 2
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    sys.path.insert(0, src)
    from pexstab.scenario import parse_scenario
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        doc = workloads.generate(name, args.seed)
        work = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
        try:
            one = argparse.Namespace(**dict(vars(args), workload=name))
            status = max(status, measure(one, doc, parse_scenario(doc), work, src))
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
