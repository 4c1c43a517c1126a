"""Smoke test of the benchmark itself, at tiny sizes (under a minute).

Run from the repository root:

    python3 perfbench/smoke.py

It runs every workload once untraced and once traced at tiny sizes and
checks that the result line carries exactly the metrics ``BENCHMARK.json``
names, each with its unit, and that the run passed its correctness gate.
Then it corrupts reports of a real run and checks that the gate trips: once
with the reported observability constant moved off the witness's value,
once with a report forced to ``ok: false``.  Exits 1 on the first failed
expectation.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

import run
import workloads


def expect(cond: bool, what: str):
    if not cond:
        raise SystemExit("smoke: FAILED: %s" % what)


def run_tiny(name: str, trace: int, src: str, root: str) -> dict:
    from pexstab.scenario import parse_scenario
    doc = workloads.generate(name, 3, tiny=True)
    args = argparse.Namespace(workload=name, seed=3, seconds=0.0, trace=trace)
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = run.measure(args, doc, parse_scenario(doc), work, src)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    expect(code == 0, "%s trace=%d exited %d:\n%s" % (name, trace, code, buf.getvalue()))
    text = buf.getvalue()
    expect("fail_ratio" in text, "%s: summary lacks fail_ratio" % name)
    return json.loads(text.strip().splitlines()[-1])


def check_metrics(result: dict, declared: list, what: str):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    expect(got == want, "%s: metrics %s, expected %s" % (what, got, want))
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           "%s: gate did not pass: %s" % (what, result))


def gate_trips(src: str, root: str):
    from pexstab.scenario import parse_scenario
    doc = workloads.generate("pe-lp", 3, tiny=True)
    scenario = parse_scenario(doc)
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        path = os.path.join(work, "scenario.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        sample = run.run_child(work, path, 0, False, src)
        failed, messages, accuracy = run.gate([sample], scenario, doc, src)
        expect(failed == 0 and not messages
               and "observability.witness_rel_err" in accuracy,
               "clean tiny run should pass the gate: %s" % messages)
        report = os.path.join(sample.out_dir, "00_observability.json")
        with open(report) as fh:
            clean = json.load(fh)

        def tampered(edit):
            env = json.loads(json.dumps(clean))
            edit(env)
            with open(report, "w") as fh:
                json.dump(env, fh)
            return run.gate([sample], scenario, doc, src)

        failed, messages, _ = tampered(
            lambda env: env["report"].update(c=env["report"]["c"] * 1.01))
        expect(failed == 1 and any("witness_rel_err" in m for m in messages),
               "a corrupted witness constant must trip the gate: %s" % messages)
        failed, messages, _ = tampered(lambda env: env.update(ok=False))
        expect(failed == 1 and any("no ok report" in m for m in messages),
               "a report with ok: false must trip the gate: %s" % messages)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    root = os.getcwd()
    src = os.path.join(root, "src")
    expect(os.path.isfile(os.path.join(src, "pexstab", "cli.py")),
           "run from the repository root")
    sys.path.insert(0, src)
    with open(os.path.join(run.HERE, "..", "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expect([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for name in workloads.WORKLOADS:
        check_metrics(run_tiny(name, 0, src, root), bench["end_to_end"],
                      name + " untraced")
        check_metrics(run_tiny(name, 1, src, root), bench["per_layer"],
                      name + " traced")
        print("smoke: %s ok" % name, flush=True)
    gate_trips(src, root)
    print("smoke: gate trips on a corrupted witness constant and on ok: false")
    return 0


if __name__ == "__main__":
    sys.exit(main())
