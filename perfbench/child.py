"""One benchmark sample: a fresh process that runs ``pexstab run`` once.

Usage: child.py SCENARIO OUT_DIR RESULT_JSON TRACED RUN_ID

Every CLI user pays the interpreter start and the numpy/scipy import on each
invocation, so each sample is its own process.  The process times

* the import of ``pexstab.cli`` and one parse of the scenario (set-up; the
  parent adds the interpreter start, measured from its spawn time), then
* ``cli.main(["run", SCENARIO, "--out", OUT_DIR])`` (the run), bracketed
  by two passes of the reference kernel of ``calibrate.py``,

and writes those times, the two kernel times, the exit code,
its peak RSS and, when TRACED is 1, its spans to RESULT_JSON.  BLAS thread
settings are inherited untouched.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main(argv) -> int:
    scenario, out_dir, result_path, traced, run_id = argv[1:6]
    import pexstab.cli as cli
    imported = time.perf_counter()
    import calibrate
    recorder = None
    if traced == "1":
        import spans
        recorder = spans.Recorder(run_id)
        recorder.record("setup.import", _START, imported)
        spans.install(recorder)
    import pexstab.scenario
    with open(scenario, "rb") as fh:
        pexstab.scenario.parse_scenario(json.loads(fh.read().decode("utf-8")))
    parsed_at = time.monotonic()
    kernel_before = calibrate.kernel_s()
    t0 = time.perf_counter()
    code = cli.main(["run", scenario, "--out", out_dir])
    run_s = time.perf_counter() - t0
    result = {
        "parsed_at": parsed_at,
        "run_s": run_s,
        "kernel_s": [kernel_before, calibrate.kernel_s()],
        "exit_code": code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pexstab_file": cli.__file__,
        "trace": recorder.to_dict() if recorder else None,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
