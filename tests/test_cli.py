import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from pexstab import cli
from pexstab.cli import main

# every report a test writes under its tmp_path is held to the golden
# manifest's test_cli/<test name>/ entries (see tests/conftest.py)
pytestmark = pytest.mark.usefixtures("golden_cli_tree")

ENVELOPE_KEYS = {"tool", "version", "scenario_sha256", "seed", "analysis_index",
                 "kind", "ok", "report"}

WAVE_SCENARIO = {
    "seed": 7,
    "horizon": 12.0,
    "dt_out": 0.001,
    "system": {"kind": "wave-modal", "n_modes": 2, "damping": {"uniform": 1.0}},
    "signal": {"gen": "periodic-gate", "period": 2.0, "pulse_halfwidth": 0.5,
               "horizon": 16.0},
    "analyses": [
        {"kind": "simulate"},
        {"kind": "check-pe", "T": 2.0, "mu": 1.0},
        {"kind": "observability",
         "class": {"kind": "pe-windows", "T": 2.0, "mu": 1.0},
         "n_cells": 16, "outer": {"n_starts": 2}},
        {"kind": "certify", "theta": 2.0,
         "source": {"kind": "wave-pe", "T": 2.0, "mu": 1.0,
                    "lambda_min": math.pi ** 2},
         "verify": {"T": 2.0, "mu": 1.0, "n_trials": 3, "horizon": 12.0}},
    ],
}

SCAN_SCENARIO = {
    "seed": 0,
    "system": {"kind": "matrices", "A": [[0.0, 1.0], [-1.0, 0.0]],
               "B": [[1.0, 0.0], [0.0, 1.0]]},
    "analyses": [
        {"kind": "counterexample", "omega": [0.2, 0.6], "periods": 2},
        {"kind": "kappa-scan", "rho": 0.5, "T_grid": [0.4, 0.2], "n_cells": 8,
         "outer": {"n_starts": 2}},
        {"kind": "strong-stability",
         "intervals": [[0.0, 1.0], [2.0, 3.0], [5.0, 6.5]],
         "criterion": {"T0": 1.0, "cost": {"kind": "exp-gap"}}},
    ],
}


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_reports(out_dir):
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".json") and not name.startswith("_"):
            with open(os.path.join(out_dir, name)) as fh:
                out[name] = json.load(fh)
    return out


def tree_bytes(out_dir):
    return {path.name: path.read_bytes() for path in sorted(Path(out_dir).iterdir())}


def test_run_wave_scenario(tmp_path, capsys):
    scen = write_scenario(tmp_path, WAVE_SCENARIO)
    out = tmp_path / "out"
    assert main(["run", scen, "--out", str(out)]) == 0
    reports = read_reports(out)
    assert set(reports) == {"00_simulate.json", "01_check-pe.json",
                            "02_observability.json", "03_certify.json"}
    for payload in reports.values():
        assert set(payload) == ENVELOPE_KEYS
        assert payload["tool"] == "pexstab"
        assert payload["seed"] == 7
        assert payload["ok"] is True
    sim = reports["00_simulate.json"]["report"]
    assert sim["monotone_ok"] and sim["balance_ok"]
    assert sim["worst_energy_rise"] <= 1e-9
    obs = reports["02_observability.json"]["report"]
    for key in ("c", "witness_z0", "witness_signal", "grid", "seed"):
        assert key in obs
    cert = reports["03_certify.json"]["report"]
    assert 0.0 < cert["certificate"]["q"] < 1.0
    assert cert["verification"]["ok"] is True
    csv = (out / "00_simulate.csv").read_text().splitlines()
    assert csv[0] == "t,V,damping_rate"
    assert len(csv) > 1000
    console = capsys.readouterr().out
    assert "simulate: ok" in console and "certify: ok" in console


def test_reruns_are_byte_identical(tmp_path):
    scen = write_scenario(tmp_path, WAVE_SCENARIO)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", scen, "--out", str(a)]) == 0
    assert main(["run", scen, "--out", str(b)]) == 0
    assert tree_bytes(a) == tree_bytes(b)


def test_parallel_matches_serial(tmp_path):
    scen = write_scenario(tmp_path, WAVE_SCENARIO)
    a, b = tmp_path / "serial", tmp_path / "parallel"
    assert main(["run", scen, "--out", str(a)]) == 0
    assert main(["run", scen, "--out", str(b), "--parallel"]) == 0
    assert tree_bytes(a) == tree_bytes(b)


def test_balance_tolerance_scales_with_the_starting_energy(tmp_path_factory):
    # z0 = 1000 e1 starts at V(0) = 5e5: the residual, about 1.3e-6 V(0)
    # here, is held to balance_tol V(0), as the energy rise is to
    # monotone_tol V(0); a tolerance of 1e-12 still fails.  The reports
    # are written outside tmp_path: at this V(0) the worst energy rise,
    # rounding residue near 1e-9, moves by a few percent with the BLAS
    # kernels, past the golden loose comparison
    tmp_path = tmp_path_factory.mktemp("balance")
    sim = {"kind": "simulate", "z0": [1000.0] + [0.0] * 15}
    doc = {"seed": 0, "horizon": 4.0, "dt_out": 1e-3,
           "system": {"kind": "wave-modal", "n_modes": 8, "damping": {"omega": [0.2, 0.6]}},
           "signal": {"gen": "periodic-gate", "period": 2.0, "pulse_halfwidth": 0.25,
                      "horizon": 4.0},
           "analyses": [sim]}
    for tol, code in ((None, 0), (1e-12, 1)):
        analysis = sim if tol is None else dict(sim, balance_tol=tol)
        scen = write_scenario(tmp_path, dict(doc, analyses=[analysis]))
        out = tmp_path / ("tol-%s" % tol)
        assert main(["run", scen, "--out", str(out)]) == code
        report = read_reports(out)["00_simulate.json"]["report"]
        assert report["V_start"] == 5e5 and report["balance_residual"] > 1e-5
        assert report["balance_ok"] is (code == 0)


def test_parallel_window_lps_match_serial(tmp_path):
    # two pe-windows analyses on one class, each with its own LP solver
    obs = {"kind": "observability", "n_cells": 32,
           "class": {"kind": "pe-windows", "T": 2.0, "mu": 0.5, "horizon": 4.0}}
    doc = {"seed": 3,
           "system": {"kind": "wave-modal", "n_modes": 2, "damping": {"omega": [0.2, 0.6]}},
           "analyses": [dict(obs, outer={"n_starts": 4}),
                        dict(obs, outer={"n_starts": 4, "seed": 5})]}
    scen = write_scenario(tmp_path, doc)
    a, b = tmp_path / "serial", tmp_path / "parallel"
    assert main(["run", scen, "--out", str(a)]) == 0
    assert main(["run", scen, "--out", str(b), "--parallel"]) == 0
    assert tree_bytes(a) == tree_bytes(b)


def test_cli_import_leaves_the_lp_stack_unloaded(tmp_path):
    # importing the CLI loads no LP stack, and a pe-windows run loads only
    # the HiGHS core: neither scipy.optimize nor scipy.sparse
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    scen = write_scenario(tmp_path, {"system": WAVE_SCENARIO["system"],
                                     "analyses": [WAVE_SCENARIO["analyses"][2]]})
    code = ("import sys, pexstab.cli\n"
            "def loaded(): return [m for m in ('scipy.optimize', 'scipy.sparse',"
            " 'scipy.optimize._highspy._core') if m in sys.modules]\n"
            "print(loaded())\n"
            "assert pexstab.cli.main(['run', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
            "print(loaded())")
    out = subprocess.run([sys.executable, "-c", code, scen, str(tmp_path / "out")],
                         env=env, capture_output=True, text=True, check=True, timeout=120)
    lines = out.stdout.splitlines()  # the run's own lines come between
    assert (lines[0], lines[-1]) == ("[]", "['scipy.optimize._highspy._core']")


def test_run_scan_scenario(tmp_path):
    scen = write_scenario(tmp_path, SCAN_SCENARIO)
    out = tmp_path / "out"
    assert main(["run", scen, "--out", str(out)]) == 0
    reports = read_reports(out)
    cx = reports["00_counterexample.json"]["report"]
    assert cx["ok"] and cx["max_overlap"] == 0.0
    assert cx["energy_drift"] <= 1e-8
    kappa = reports["01_kappa-scan.json"]["report"]
    assert kappa["kalman_index"] == 0
    assert abs(kappa["slope"] - 1.0) < 1e-6
    strong = reports["02_strong-stability.json"]["report"]
    assert strong["product_bound"]["ok"]
    assert "criterion" in strong
    scan_csv = (out / "01_kappa-scan.csv").read_text().splitlines()
    assert scan_csv[0] == "T,c"
    assert len(scan_csv) == 3
    strong_csv = (out / "02_strong-stability.csv").read_text().splitlines()
    assert strong_csv[0] == "n,factor,cumulative_bound,measured_ratio"


def test_failed_verification_exits_one(tmp_path):
    doc = {
        "seed": 0,
        "horizon": 10.0,
        "signal": {"gen": "periodic-gate", "period": 2.0,
                   "pulse_halfwidth": 0.2, "horizon": 12.0},
        "analyses": [{"kind": "check-pe", "T": 2.0, "mu": 0.5}],
    }
    scen = write_scenario(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", scen, "--out", str(out)]) == 1
    payload = read_reports(out)["00_check-pe.json"]
    assert payload["ok"] is False
    assert payload["report"]["worst_window_mass"] == pytest.approx(0.4)


def key_paths(value, prefix=""):
    """Dotted paths of every key of the dicts nested in ``value``."""
    if not isinstance(value, dict):
        return set()
    out = set()
    for key, v in value.items():
        out |= {prefix + key} | key_paths(v, prefix + key + ".")
    return out


CERTIFICATE_KEYS = {"M", "b_norm", "c", "derivation", "gamma", "q", "source", "theta"}
VERIFICATION_KEYS = {"certificate", "horizon", "n_trials", "ok", "slack", "window_slack",
                     "windows_checked", "worst_ratio", "worst_time", "worst_trial",
                     "worst_window_contraction", "worst_window_start",
                     "worst_window_trial"}


def nested(prefix, keys):
    return {prefix + "." + k for k in keys}


# one small analysis of each kind, and the key set each report must have
SHAPE_SCENARIO = {
    "seed": 0,
    "horizon": 4.0,
    "dt_out": 0.001,
    "system": {"kind": "wave-modal", "n_modes": 1, "damping": {"uniform": 1.0}},
    "signal": {"gen": "periodic-gate", "period": 2.0, "pulse_halfwidth": 0.5,
               "horizon": 4.0},
    "analyses": [
        {"kind": "simulate"},
        {"kind": "check-pe", "T": 2.0, "mu": 1.0},
        {"kind": "counterexample", "omega": [0.2, 0.6], "periods": 1},
        {"kind": "observability", "class": {"kind": "pe-windows", "T": 2.0, "mu": 1.0},
         "n_cells": 8, "outer": {"n_starts": 1}},
        {"kind": "kappa-scan", "rho": 0.5, "T_grid": [0.4, 0.2], "n_cells": 8,
         "outer": {"n_starts": 1}},
        {"kind": "certify", "theta": 2.0, "constant": 0.1,
         "verify": {"T": 2.0, "mu": 1.0, "n_trials": 1, "horizon": 4.0}},
        {"kind": "strong-stability", "intervals": [[0.0, 1.0], [2.0, 3.0]],
         "criterion": {"T0": 1.0, "cost": {"kind": "exp-gap"}}},
    ],
}
REPORT_KEYS = {
    "00_simulate.json": {
        "V_end", "V_start", "balance_ok", "balance_one_sided", "balance_residual",
        "balance_tol", "caveats", "monotone_ok", "monotone_tol", "samples",
        "worst_energy_rise", "z0"},
    "01_check-pe.json": {
        "T", "holds", "horizon", "mu", "tolerance", "worst_window_mass",
        "worst_window_start"},
    "02_counterexample.json": {
        "T", "energy_drift", "max_overlap", "mu", "n_periods", "n_windows_checked",
        "ok", "omega", "pe_ok", "quad_velocity_mass_max"},
    "03_observability.json": {
        "c", "caveats", "class", "class.T", "class.horizon", "class.kind", "class.mu",
        "class.rho", "grid", "grid.n_cells", "method", "n_starts", "runner_up_gap",
        "seed", "witness_signal", "witness_signal.breakpoints", "witness_signal.tail",
        "witness_signal.values", "witness_z0"},
    "04_kappa-scan.json": {
        "T_grid", "caveats", "constants", "expected_slope", "kalman_index", "kappa",
        "rho", "seed", "slope"},
    "05_certify.json": (
        {"caveats", "certificate", "verification"}
        | nested("certificate", CERTIFICATE_KEYS)
        | nested("verification", VERIFICATION_KEYS)
        | nested("verification.certificate", CERTIFICATE_KEYS)),
    "06_strong-stability.json": (
        {"criterion", "product_bound"}
        | nested("criterion", {
            "T0", "divergence_consistent", "lengths",
            "min_cost_on_band", "partial_sums", "refined_cost_sum",
            "refined_count_in_band", "refined_lengths", "refined_lower_bound",
            "rule", "verdict"})
        | nested("product_bound", {
            "caveats", "cost_partial_sums", "costs", "cumulative", "factors",
            "intervals", "measured_ratios", "ok", "tolerance"})),
}


def test_report_key_sets_per_analysis_kind(tmp_path):
    out = tmp_path / "out"
    assert main(["run", write_scenario(tmp_path, SHAPE_SCENARIO), "--out", str(out)]) == 0
    reports = read_reports(out)
    assert set(reports) == set(REPORT_KEYS)
    for name, payload in reports.items():
        assert set(payload) == ENVELOPE_KEYS
        assert key_paths(payload["report"]) == REPORT_KEYS[name], name


VIOLATION_TEXT = (
    "window contraction 0.172748 of trial 1 from s=0.875 exceeds q; trajectory 1 "
    "exceeded the certified envelope at t=8 by ratio 2.91659 (q=0.04, M=5, "
    "gamma=0.804719 from c=4.8): either c is not a lower bound for the class or "
    "the propagation is wrong")


def test_certificate_violation_exits_one(tmp_path):
    # c = 4.8 claims q = 0.04 per window of length 2, far more decay than a
    # gate that is on for half of each window gives the unit-damped string
    doc = {"seed": 0,
           "system": {"kind": "wave-modal", "n_modes": 1, "damping": {"uniform": 1.0}},
           "analyses": [{"kind": "certify", "theta": 2.0, "constant": 4.8,
                         "verify": {"T": 2.0, "mu": 1.0, "n_trials": 2,
                                    "horizon": 8.0}}]}
    out = tmp_path / "out"
    assert main(["run", write_scenario(tmp_path, doc), "--out", str(out)]) == 1
    payload = read_reports(out)["00_certify.json"]
    assert payload["ok"] is False
    verification = payload["report"]["verification"]
    assert set(verification) == VERIFICATION_KEYS | {"violation"}
    assert verification["ok"] is False
    assert verification["violation"] == VIOLATION_TEXT


def test_constant_just_above_one_gates_worst_window_exits_one(tmp_path):
    # the wave-pe bound passes; an explicit constant whose q lies 1e-9
    # relative below the worst window contraction it verified must fail on
    # that window alone, while the two trajectories stay in the envelope
    out = tmp_path / "bound"
    doc = _with(WAVE_SCENARIO, CERTIFY)
    assert main(["run", write_scenario(tmp_path, doc, "bound.json"), "--out", str(out)]) == 0
    passed = read_reports(out)["00_certify.json"]["report"]
    w = passed["verification"]["worst_window_contraction"]
    trial = passed["verification"]["worst_window_trial"]
    start = passed["verification"]["worst_window_start"]
    theta, b_norm = CERTIFY["theta"], passed["certificate"]["b_norm"]
    constant = (1.0 - w * (1.0 - 1e-9)) * (1.0 + theta ** 2 * b_norm ** 4)
    doc = _with(WAVE_SCENARIO, {"kind": "certify", "theta": theta, "constant": constant,
                                "verify": CERTIFY["verify"]})
    out = tmp_path / "explicit"
    assert main(["run", write_scenario(tmp_path, doc, "explicit.json"), "--out", str(out)]) == 1
    verification = read_reports(out)["00_certify.json"]["report"]["verification"]
    assert w > verification["certificate"]["q"] * (1.0 + verification["window_slack"])
    assert verification["worst_window_contraction"] == w
    assert verification["violation"].startswith(
        "window contraction %.6g of trial %d from s=%g exceeds q (" % (w, trial, start))
    assert verification["worst_ratio"] <= 1.0 + verification["slack"]


def test_schema_violations_exit_two(tmp_path, capsys):
    bad = dict(WAVE_SCENARIO)
    bad["extra"] = True
    scen = write_scenario(tmp_path, bad, "bad1.json")
    assert main(["run", scen, "--out", str(tmp_path / "o1")]) == 2
    assert "extra" in capsys.readouterr().err

    doc = {"seed": 0, "horizon": 10.0,
           "signal": {"gen": "constant", "level": 1.0},
           "analyses": [{"kind": "check-pe", "T": 1.0, "mu": 1.5}]}
    scen = write_scenario(tmp_path, doc, "bad2.json")
    assert main(["run", scen, "--out", str(tmp_path / "o2")]) == 2
    err = capsys.readouterr().err
    assert "analyses[0].mu" in err
    assert "exceeds the window length" in err

    doc = {"seed": 0, "analyses": [{"kind": "mystery"}]}
    scen = write_scenario(tmp_path, doc, "bad3.json")
    assert main(["run", scen, "--out", str(tmp_path / "o3")]) == 2
    assert "analyses[0].kind" in capsys.readouterr().err

    (tmp_path / "bad4.json").write_text("{not json")
    assert main(["run", str(tmp_path / "bad4.json"),
                 "--out", str(tmp_path / "o4")]) == 2


def test_wave_cubic_criterion_outside_its_range_exits_two(tmp_path, capsys):
    # lambda1 = 3 caps the cubic bound at lengths <= pi/6 = 0.52, below the
    # intervals' length 1
    doc = {"seed": 0,
           "system": {"kind": "wave-modal", "n_modes": 1,
                      "damping": {"uniform": 1.0}},
           "analyses": [{"kind": "strong-stability",
                         "intervals": [[2.0 * k, 2.0 * k + 1.0] for k in range(6)],
                         "costs": [0.5] * 6,
                         "criterion": {"T0": 1.0,
                                       "cost": {"kind": "wave-cubic", "rho": 1.0,
                                                "lambda1": 3.0, "d0": 1.0}}}]}
    cost = doc["analyses"][0]["criterion"]["cost"]
    cases = [(dict(cost), "analyses[0].criterion.cost: "),
             (dict(cost, lambda1=1.0, rho=1.5), "analyses[0].criterion.cost.rho: "),
             (dict(cost, lambda1=1.0, d0=0.0), "analyses[0].criterion.cost.d0: ")]
    for j, (bad, where) in enumerate(cases):
        doc["analyses"][0]["criterion"]["cost"] = bad
        scen = write_scenario(tmp_path, doc, "cubic%d.json" % j)
        assert main(["run", scen, "--out", str(tmp_path / ("o%d" % j))]) == 2
        assert where in capsys.readouterr().err
    # inside the range the same scenario runs through the library bound
    doc["analyses"][0]["criterion"]["cost"] = dict(cost, lambda1=1.0)
    scen = write_scenario(tmp_path, doc, "cubic_ok.json")
    assert main(["run", scen, "--out", str(tmp_path / "ok")]) == 0
    crit = read_reports(tmp_path / "ok")["00_strong-stability.json"]["report"]
    assert crit["criterion"]["partial_sums"][0] == pytest.approx(1.0 / 72.0, rel=1e-12)


# A 2-mode string with uniform damping 1: its lowest rotation speed is pi.
# d0 = 3 made every cost of this scenario 9 times too large, with exit 0.
STRING = {"kind": "wave-modal", "n_modes": 2, "damping": {"uniform": 1.0}}
CUBIC = {"kind": "wave-cubic", "rho": 1, "lambda1": 3.14159, "d0": 3.0}
CUBIC_SCENARIO = {
    "seed": 0, "system": STRING,
    "analyses": [{"kind": "strong-stability",
                  "intervals": [[0.0, 0.1], [0.3, 0.42], [0.8, 0.95]],
                  "criterion": {"T0": 0.3, "cost": CUBIC}}]}


def _cubic(system=None, **cost):
    strong = CUBIC_SCENARIO["analyses"][0]
    return dict(CUBIC_SCENARIO, system=dict(STRING, **(system or {})), analyses=[
        dict(strong, criterion=dict(strong["criterion"], cost=dict(CUBIC, **cost)))])


WAVE_CUBIC_OUTSIDE_THE_SYSTEM = [
    ("d0_above_the_damping", CUBIC_SCENARIO, "analyses[0].criterion.cost.d0"),
    ("lambda1_above_the_lowest_speed", _cubic(d0=1.0, lambda1=3.2),
     "analyses[0].criterion.cost.lambda1"),
    ("lambda1_above_given_eigenvalues",
     _cubic(system={"eigenvalues": [4.0, 9.0]}, d0=1.0), "analyses[0].criterion.cost.lambda1"),
    ("localized_damping", _cubic(system={"damping": {"omega": [0.2, 0.6]}}, d0=1.0),
     "analyses[0].criterion.cost"),
    ("quantum_particle", _cubic(system={"kind": "schrodinger-modal"}, d0=1.0),
     "analyses[0].criterion.cost"),
    ("matrices", dict(_cubic(d0=1.0), system=SCAN_SCENARIO["system"]),
     "analyses[0].criterion.cost"),
]


def test_wave_cubic_rho_above_the_level_exits_two(tmp_path, capsys):
    # intervals at level 0.5 carry half their length as mass; a cubic cost
    # at rho 1 would overstate every cost eightfold
    strong = dict(SCAN_SCENARIO["analyses"][2], level=0.5, criterion={
        "T0": 1.0, "cost": {"kind": "wave-cubic", "rho": 1.0, "lambda1": 1.0}})
    doc = dict(SCAN_SCENARIO, system=STRING, analyses=[strong])
    assert main(["validate", write_scenario(tmp_path, doc, "high.json")]) == 2
    assert "analyses[0].criterion.cost.rho: rho=1 exceeds the level 0.5" in (
        capsys.readouterr().err)
    cost = dict(strong["criterion"]["cost"], rho=0.5)
    doc = dict(doc, analyses=[dict(strong, criterion=dict(strong["criterion"], cost=cost))])
    assert main(["validate", write_scenario(tmp_path, doc, "at.json")]) == 0


@pytest.mark.parametrize("doc, path", [c[1:] for c in WAVE_CUBIC_OUTSIDE_THE_SYSTEM],
                         ids=[c[0] for c in WAVE_CUBIC_OUTSIDE_THE_SYSTEM])
def test_wave_cubic_outside_its_system_exits_two(tmp_path, capsys, doc, path):
    scen = write_scenario(tmp_path, doc)
    for argv in (["validate", scen], ["run", scen, "--out", str(tmp_path / "out")]):
        assert main(argv) == 2
        assert path + ": " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_wave_cubic_within_its_system_validates(tmp_path):
    # d0 at the system's damping, lambda1 just below pi and at the root of
    # the smallest given eigenvalue
    for j, doc in enumerate([_cubic(d0=1.0), _cubic(system={"eigenvalues": [4.0, 9.0]},
                                                    lambda1=2.0, d0=1.0)]):
        assert main(["validate", write_scenario(tmp_path, doc, "ok%d.json" % j)]) == 0


def test_missing_scenario_exits_three(tmp_path):
    assert main(["run", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path)]) == 3


def test_validate_subcommand(tmp_path, capsys):
    scen = write_scenario(tmp_path, WAVE_SCENARIO)
    assert main(["validate", scen]) == 0
    assert "valid (4 analyses)" in capsys.readouterr().out
    bad = write_scenario(tmp_path, {"analyses": []}, "empty.json")
    assert main(["validate", bad]) == 2


def test_kind_filter_subcommands(tmp_path, capsys):
    scen = write_scenario(tmp_path, SCAN_SCENARIO)
    out = tmp_path / "only"
    assert main(["kappa-scan", scen, "--out", str(out)]) == 0
    assert set(os.listdir(out)) == {"01_kappa-scan.json", "01_kappa-scan.csv"}
    capsys.readouterr()
    assert main(["observability", scen, "--out", str(tmp_path / "none")]) == 2
    assert "no 'observability' analysis" in capsys.readouterr().err


def test_counterexample_subcommand(tmp_path):
    out = tmp_path / "cx"
    assert main(["counterexample", "--omega", "0.2,0.6", "--periods", "2",
                 "--out", str(out)]) == 0
    assert set(os.listdir(out)) == {"00_counterexample.json",
                                    "00_counterexample.csv"}
    payload = read_reports(out)["00_counterexample.json"]
    assert payload["ok"] is True
    assert payload["report"]["energy_drift"] <= 1e-8
    assert main(["counterexample", "--omega", "oops",
                 "--out", str(out)]) == 2


def test_counterexample_bumps_down_to_the_quadrature_floor(tmp_path, capsys):
    # with 1 - b = 1e-6 the bump is 5e-7 wide; over 100 periods its energy
    # used to drift by 4.5e-8 (exit 1) when characteristics were evaluated at
    # raw t; 1e-11 is below what the quadrature resolves and is refused
    out = tmp_path / "cx"
    assert main(["counterexample", "--omega", "0.2,0.999999", "--periods", "100",
                 "--out", str(out)]) == 0
    report = read_reports(out)["00_counterexample.json"]["report"]
    assert report["energy_drift"] <= 1e-10
    assert main(["counterexample", "--omega", "0.2,0.99999999999", "--periods", "100",
                 "--out", str(tmp_path / "narrow")]) == 2
    assert "analyses[0].omega: " in capsys.readouterr().err
    assert not (tmp_path / "narrow").exists()


def test_output_dir_from_environment(tmp_path, monkeypatch):
    scen = write_scenario(tmp_path, SCAN_SCENARIO)
    target = tmp_path / "envout"
    monkeypatch.setenv("PEXSTAB_OUT", str(target))
    assert main(["kappa-scan", scen]) == 0
    assert "01_kappa-scan.json" in os.listdir(target)


def test_unknown_analysis_fields_exit_two(tmp_path, capsys):
    certify = WAVE_SCENARIO["analyses"][3]
    strong = SCAN_SCENARIO["analyses"][2]
    cases = [
        (dict(WAVE_SCENARIO, analyses=[dict(certify, verfy=certify["verify"])]),
         "analyses[0].verfy: unknown certify field"),
        (dict(WAVE_SCENARIO, analyses=[dict(certify, verify=dict(
            certify["verify"], n_trial=5))]),
         "analyses[0].verify.n_trial: unknown verify field"),
        (dict(WAVE_SCENARIO, analyses=[dict(certify, source=dict(
            certify["source"], lambda_mn=1.0))]),
         "analyses[0].source.lambda_mn: unknown wave-pe field"),
        (dict(SCAN_SCENARIO, analyses=[dict(strong, criterion=dict(
            strong["criterion"], TO=2.0))]),
         "analyses[0].criterion.TO: unknown criterion field"),
        (dict(SCAN_SCENARIO, analyses=[dict(strong, criterion=dict(
            strong["criterion"], cost={"kind": "exp-gap", "rho": 1.0}))]),
         "analyses[0].criterion.cost.rho: unknown exp-gap field"),
        (dict(WAVE_SCENARIO, analyses=[dict(WAVE_SCENARIO["analyses"][2],
                                            n_cell=16)]),
         "analyses[0].n_cell: unknown observability field"),
    ]
    for j, (doc, where) in enumerate(cases):
        scen = write_scenario(tmp_path, doc, "typo%d.json" % j)
        assert main(["run", scen, "--out", str(tmp_path / ("o%d" % j))]) == 2
        assert where in capsys.readouterr().err
        assert not (tmp_path / ("o%d" % j)).exists()


def test_unknown_system_and_signal_fields_exit_two(tmp_path, capsys):
    system, signal = WAVE_SCENARIO["system"], WAVE_SCENARIO["signal"]
    cases = [
        (dict(WAVE_SCENARIO, system=dict(system, damping={"uniform": 1.0,
                                                          "unifrom": 2.0})),
         "system.damping.unifrom: unknown damping field"),
        (dict(WAVE_SCENARIO, signal=dict(signal, phse=0.3)),
         "signal.phse: unknown periodic-gate field"),
        (dict(WAVE_SCENARIO, system=dict(system, n_mode=3)),
         "system.n_mode: unknown wave-modal field"),
        (dict(WAVE_SCENARIO, system=dict(system, kind="schrodinger-modal",
                                         eigenvalues=[1.0, 4.0])),
         "system.eigenvalues: quantum-particle systems fix the eigenvalues"),
        (dict(WAVE_SCENARIO, signal={"breakpoints": [1.0], "values": [1.0],
                                     "tial": 0.0, "tail": 0.0}),
         "signal.tial: unknown piecewise signal field"),
    ]
    for j, (doc, where) in enumerate(cases):
        scen = write_scenario(tmp_path, doc, "typo%d.json" % j)
        assert main(["validate", scen]) == 2
        assert where in capsys.readouterr().err
    assert main(["validate", write_scenario(tmp_path, WAVE_SCENARIO)]) == 0


def test_criterion_cost_above_length_bound_exits_two(tmp_path, capsys):
    # the table claims c(0.1) = 0.135 per interval, more than the
    # 0.1 * ||B||^2 = 0.1 any signal can reach on the unit-damped string
    doc = {"seed": 0,
           "system": {"kind": "wave-modal", "n_modes": 1,
                      "damping": {"uniform": 1.0}},
           "analyses": [{"kind": "strong-stability",
                         "intervals": [[k, k + 0.1] for k in range(4)],
                         "costs": [0.05] * 4,
                         "criterion": {"T0": 0.1,
                                       "cost": {"kind": "table", "T": [0.1, 0.2],
                                                "c": [0.135, 0.27]}}}]}
    scen = write_scenario(tmp_path, doc, "cost_high.json")
    assert main(["run", scen, "--out", str(tmp_path / "high")]) == 2
    err = capsys.readouterr().err
    assert "analyses[0].criterion.cost: cost 0.135" in err
    assert "length*||B||^2 = 0.1" in err
    # the exp-gap cost stays below the bound: e^-2 = 0.135 <= 1 at length 1
    doc["analyses"][0]["criterion"] = {"T0": 1.0, "cost": {"kind": "exp-gap"}}
    scen = write_scenario(tmp_path, doc, "cost_ok.json")
    assert main(["run", scen, "--out", str(tmp_path / "ok")]) == 0


def _with(doc, *analyses, **fields):
    return dict(doc, analyses=list(analyses), **fields)


# Each of these used to pass `validate` and then fail inside `run`: with a
# traceback, or (the z0 length) with exit 2 only once the run had started.
CERTIFY = WAVE_SCENARIO["analyses"][3]
STRONG = {"kind": "strong-stability", "intervals": [[0.0, 1.0], [2.0, 3.0]]}
RUNTIME_PRECONDITIONS = [
    ("nine_modes_observability",
     _with(WAVE_SCENARIO, WAVE_SCENARIO["analyses"][2],
           system=dict(WAVE_SCENARIO["system"], n_modes=9)),
     "analyses[0]"),
    ("simulate_z0_length",
     _with(WAVE_SCENARIO, {"kind": "simulate", "z0": [1.0, 0.0]}),
     "analyses[0].z0"),
    ("verify_horizon_below_T",
     _with(WAVE_SCENARIO, dict(CERTIFY, verify=dict(CERTIFY["verify"], horizon=1.0))),
     "analyses[0].verify.horizon"),
    # the windows [s, s + theta] of starts s in [0, T) would reach the gates'
    # zero tail
    ("verify_horizon_below_theta",
     _with(WAVE_SCENARIO, dict(CERTIFY, theta=4.0, verify=dict(CERTIFY["verify"],
                                                               horizon=3.0))),
     "analyses[0].verify.horizon"),
    ("negative_cost",
     _with(WAVE_SCENARIO, dict(STRONG, costs=[-0.1, 0.1])),
     "analyses[0].costs[0]"),
    ("constant_above_certificate_range",
     _with(WAVE_SCENARIO, {"kind": "certify", "theta": 1.0, "constant": 10.0}),
     "analyses[0].constant"),
    ("kappa_scan_non_skew",
     _with(SCAN_SCENARIO, SCAN_SCENARIO["analyses"][1],
           system={"kind": "matrices", "A": [[-1.0, 0.0], [0.0, -1.0]],
                   "B": [[1.0, 0.0], [0.0, 1.0]]}),
     "analyses[0]"),
]


@pytest.mark.parametrize("doc, path", [c[1:] for c in RUNTIME_PRECONDITIONS],
                         ids=[c[0] for c in RUNTIME_PRECONDITIONS])
def test_runtime_preconditions_exit_two_at_parse(tmp_path, capsys, doc, path):
    scen = write_scenario(tmp_path, doc)
    for argv in (["validate", scen], ["run", scen, "--out", str(tmp_path / "out")]):
        assert main(argv) == 2
        assert path + ": " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_class_horizon_beyond_theta_exits_two(tmp_path, capsys):
    # a constant over horizon 8 certified on windows of length 0.5 exceeded
    # its envelope 26048-fold once verified
    source = {"kind": "class-constant", "n_cells": 64,
              "class": {"kind": "pe-windows", "T": 2.0, "mu": 1.0, "horizon": 8.0}}
    doc = {"seed": 3,
           "system": {"kind": "wave-modal", "n_modes": 2,
                      "damping": {"omega": [0.2, 0.6]}},
           "analyses": [{"kind": "certify", "theta": 0.5, "source": source}]}
    scen = write_scenario(tmp_path, doc)
    for argv in (["validate", scen], ["run", scen, "--out", str(tmp_path / "out")]):
        assert main(argv) == 2
        assert "analyses[0].source.class.horizon: " in capsys.readouterr().err
    # a class horizon up to theta only lowers the constant
    doc["analyses"][0]["theta"] = 8.0
    assert main(["validate", write_scenario(tmp_path, doc, "ok.json")]) == 0


def test_wave_pe_theta_below_its_window_exits_two(tmp_path, capsys):
    # the constant of length-2 windows does not hold on windows of length 0.5
    doc = _with(WAVE_SCENARIO, dict(CERTIFY, theta=0.5))
    assert main(["validate", write_scenario(tmp_path, doc)]) == 2
    assert "analyses[0].theta: " in capsys.readouterr().err
    # a longer window contains one of length T
    doc = _with(WAVE_SCENARIO, dict(CERTIFY, theta=4.0))
    assert main(["validate", write_scenario(tmp_path, doc, "ok.json")]) == 0


def _wave_pe(system=None, **source):
    doc = _with(WAVE_SCENARIO, dict(CERTIFY, source=dict(CERTIFY["source"], **source)))
    if system is not None:
        doc["system"] = dict(WAVE_SCENARIO["system"], **system)
    return doc


# The wave-pe bound holds for string modes under uniform damping d0 with
# eigenvalues at least lambda_min.  The first three cases used to validate;
# with a verify block (T 2, mu 1, 20 trials, horizon 40) the first and the
# third passed at worst ratios 0.9913 and 0.9940, as the bound is loose.
WAVE_PE_OUTSIDE_THE_SYSTEM = [
    ("d0_above_the_damping", _wave_pe(d0=1.4), "analyses[0].source.d0"),
    ("lambda_min_above_the_spectrum", _wave_pe(lambda_min=1e6),
     "analyses[0].source.lambda_min"),
    ("localized_damping", _wave_pe(system={"damping": {"omega": [0.2, 0.6]}}),
     "analyses[0].source"),
    ("default_d0_above_the_damping", _wave_pe(system={"damping": {"uniform": 0.5}}),
     "analyses[0].source.d0"),
    ("lambda_min_above_given_eigenvalues",
     _wave_pe(system={"eigenvalues": [20.0, 40.0]}, lambda_min=30.0),
     "analyses[0].source.lambda_min"),
    ("quantum_particle", _wave_pe(system={"kind": "schrodinger-modal"}),
     "analyses[0].source"),
    ("matrices", _with(SCAN_SCENARIO, CERTIFY), "analyses[0].source"),
]


@pytest.mark.parametrize("doc, path", [c[1:] for c in WAVE_PE_OUTSIDE_THE_SYSTEM],
                         ids=[c[0] for c in WAVE_PE_OUTSIDE_THE_SYSTEM])
def test_wave_pe_outside_its_system_exits_two(tmp_path, capsys, doc, path):
    assert main(["validate", write_scenario(tmp_path, doc)]) == 2
    assert path + ": " in capsys.readouterr().err


def test_wave_pe_within_its_system_validates(tmp_path):
    # smaller values only weaken the bound; the default spectrum's smallest
    # eigenvalue (1 pi)^2 equals math.pi ** 2 bit for bit
    assert (1 * np.pi) ** 2 == math.pi ** 2
    docs = [_wave_pe(d0=0.5, lambda_min=1.0),
            _wave_pe(system={"damping": {"uniform": 2.0}}, d0=2.0),
            _wave_pe(system={"eigenvalues": [20.0, 40.0]}, lambda_min=20.0)]
    for j, doc in enumerate(docs):
        assert main(["validate", write_scenario(tmp_path, doc, "ok%d.json" % j)]) == 0


def test_omitted_wave_limits_take_the_system_values(tmp_path):
    # the string's smallest eigenvalue is pi^2 and its lowest rotation
    # speed pi: omitted, lambda_min and lambda1 take them
    def doc(pe, cubic):
        strong = CUBIC_SCENARIO["analyses"][0]
        return dict(CUBIC_SCENARIO, analyses=[
            {"kind": "certify", "theta": 2.0,
             "source": dict({"kind": "wave-pe", "T": 2.0, "mu": 1.0}, **pe)},
            dict(strong, criterion=dict(strong["criterion"],
                                        cost=dict({"kind": "wave-cubic", "rho": 1}, **cubic)))])

    reports = []
    for name, d in (("omitted", doc({}, {})),
                    ("explicit", doc({"lambda_min": math.pi ** 2}, {"lambda1": math.pi}))):
        out = tmp_path / name
        assert main(["run", write_scenario(tmp_path, d, name + ".json"), "--out", str(out)]) == 0
        reports.append({n: r["report"] for n, r in read_reports(out).items()})
    assert reports[0] == reports[1]
    assert set(reports[0]) == {"00_certify.json", "01_strong-stability.json"}


def test_table_cost_band_minimum_is_exact(tmp_path):
    # the table's minimum on [T0/2, T0] sits at its knot 0.503, between two
    # points of a 101-point grid of the band, whose smallest value is 4.71e-4
    cost = {"kind": "table", "T": [0.1, 0.503, 1.0], "c": [0.05, 1e-4, 0.5]}
    doc = {"seed": 0,
           "system": {"kind": "wave-modal", "n_modes": 2,
                      "damping": {"uniform": 1.0}},
           "analyses": [{"kind": "strong-stability",
                         "intervals": [[0.0, 0.6], [1.0, 1.7], [2.0, 2.9]],
                         "criterion": {"T0": 1.0, "cost": cost}}]}
    out = tmp_path / "out"
    assert main(["run", write_scenario(tmp_path, doc), "--out", str(out)]) == 0
    crit = read_reports(out)["00_strong-stability.json"]["report"]["criterion"]
    assert crit["min_cost_on_band"] == 1e-4
    assert crit["refined_count_in_band"] == 3
    assert crit["refined_lower_bound"] == 3 * 1e-4


def test_class_constant_source_takes_an_outer_search(tmp_path):
    # the pe-lp class: 8 starts on seed 7 find a constant 33 times too high
    source = {"kind": "class-constant", "n_cells": 256,
              "class": {"kind": "pe-windows", "T": 2.0, "mu": 0.5, "horizon": 4.0}}
    doc = {"seed": 7,
           "system": {"kind": "wave-modal", "n_modes": 8,
                      "damping": {"omega": [0.2, 0.6]}},
           "analyses": [{"kind": "certify", "theta": 4.0, "source": source},
                        {"kind": "certify", "theta": 4.0,
                         "source": dict(source, outer={"n_starts": 32})}]}
    out = tmp_path / "out"
    assert main(["run", write_scenario(tmp_path, doc), "--out", str(out)]) == 0
    reports = read_reports(out)
    c8 = reports["00_certify.json"]["report"]["certificate"]["c"]
    c32 = reports["01_certify.json"]["report"]["certificate"]["c"]
    assert c8 == pytest.approx(2.655e-3, rel=1e-3)
    assert c32 == pytest.approx(7.883e-5, rel=1e-3)


def test_outer_seed_zero_names_the_default_search(tmp_path):
    obs = {"kind": "observability", "n_cells": 16,
           "class": {"kind": "pe-windows", "T": 2.0, "mu": 0.5, "horizon": 4.0}}
    doc = {"system": {"kind": "wave-modal", "n_modes": 2,
                      "damping": {"omega": [0.2, 0.6]}},
           "analyses": [dict(obs, outer={"n_starts": 2}),
                        dict(obs, outer={"n_starts": 2, "seed": 0})]}
    out = tmp_path / "out"
    assert main(["run", write_scenario(tmp_path, doc), "--out", str(out)]) == 0
    reports = read_reports(out)
    assert reports["00_observability.json"]["report"] == \
        reports["01_observability.json"]["report"]


CLASS_CERTIFY = {
    "seed": 3,
    "system": {"kind": "wave-modal", "n_modes": 2, "damping": {"omega": [0.2, 0.6]}},
    "analyses": [
        {"kind": "certify", "theta": 4.0,
         "source": {"kind": "class-constant", "n_cells": 16, "outer": {"n_starts": 2},
                    "class": {"kind": "pe-windows", "T": 2.0, "mu": 1.0,
                              "horizon": 4.0}},
         "verify": {"T": 2.0, "mu": 1.0, "n_trials": 2, "horizon": 8.0}},
        {"kind": "certify", "theta": 4.0,
         "source": {"kind": "class-constant", "n_cells": 16, "outer": {"n_starts": 2},
                    "class": {"kind": "rho-integral", "rho": 0.5, "horizon": 4.0}},
         "verify": {"T": 2.0, "mu": 1.0, "n_trials": 2, "horizon": 8.0}},
        {"kind": "certify", "theta": 2.0, "constant": 0.1},
    ],
}


def test_class_constant_certificates_carry_the_upper_estimate_caveat(tmp_path):
    from pexstab.cli import UPPER_ESTIMATE_CAVEAT
    from pexstab.modal import TRUNCATION_CAVEAT

    # the wave-pe bound needs a uniformly damped string
    wave_pe = _with(CLASS_CERTIFY, {"kind": "certify", "theta": 2.0,
                                    "source": CERTIFY["source"]},
                    system=WAVE_SCENARIO["system"])
    caveats = []
    for j, doc in enumerate((CLASS_CERTIFY, wave_pe)):
        out = tmp_path / ("out%d" % j)
        scen = write_scenario(tmp_path, doc, "scenario%d.json" % j)
        assert main(["run", scen, "--out", str(out)]) == 0
        caveats += [p["report"]["caveats"] for p in read_reports(out).values()]
    # CLASS_CERTIFY's string is damped on an interval, the wave-pe one uniformly
    assert caveats == [[TRUNCATION_CAVEAT, UPPER_ESTIMATE_CAVEAT],
                       [TRUNCATION_CAVEAT, UPPER_ESTIMATE_CAVEAT], [TRUNCATION_CAVEAT], []]


@pytest.mark.parametrize("index, verify, path", [
    # pe-windows T=2, mu=1: the gates need the class window and at least its mass
    (0, {"T": 1.5, "mu": 1.0}, "analyses[0].verify.T"),
    (0, {"T": 2.5, "mu": 1.0}, "analyses[0].verify.T"),
    (0, {"T": 2.0, "mu": 0.5}, "analyses[0].verify.mu"),
    # rho-integral rho=0.5 over 4: floor(4/T) mu must reach 2
    (1, {"T": 2.0, "mu": 0.5}, "analyses[1].verify.mu"),
    (1, {"T": 3.0, "mu": 1.5}, "analyses[1].verify.mu"),
])
def test_verify_gates_outside_the_class_exit_two(tmp_path, capsys, index, verify, path):
    doc = json.loads(json.dumps(CLASS_CERTIFY))
    doc["analyses"][index]["verify"].update(verify)
    scen = write_scenario(tmp_path, doc)
    for argv in (["validate", scen], ["run", scen, "--out", str(tmp_path / "out")]):
        assert main(argv) == 2
        assert path + ": " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_verify_gate_floor_is_exact(tmp_path, capsys):
    # 13.299999999999999 / 0.7 rounds up to 19.0 in floats, but only 18
    # whole windows fit: the gates guarantee 18 * 0.5 = 9.0 < 0.7 * 13.3
    doc = json.loads(json.dumps(CLASS_CERTIFY))
    doc["analyses"] = [dict(doc["analyses"][1], theta=14.0,
                            verify={"T": 0.7, "mu": 0.5, "n_trials": 2, "horizon": 14.0})]
    doc["analyses"][0]["source"] = dict(doc["analyses"][0]["source"], **{
        "class": {"kind": "rho-integral", "rho": 0.7, "horizon": 13.299999999999999}})
    assert 13.299999999999999 / 0.7 == 19.0
    assert main(["validate", write_scenario(tmp_path, doc)]) == 2
    assert "analyses[0].verify.mu: " in capsys.readouterr().err


@pytest.mark.parametrize("verify, path", [
    ({"mu": 0.05}, "analyses[0].verify.mu"),
    ({"T": 20.0, "horizon": 40.0}, "analyses[0].verify.T"),
], ids=["mu_below_the_class", "window_beyond_the_class"])
def test_wave_pe_verify_gates_outside_its_class_exit_two(tmp_path, capsys, verify, path):
    # the wave-pe bound (T 2, mu 1) holds on the gates of its window class;
    # both used to validate and then fail verification, with worst windows
    # 0.99957 and 1.0 against q 0.98852
    doc = _with(WAVE_SCENARIO, dict(CERTIFY, verify=dict(CERTIFY["verify"], **verify)))
    scen = write_scenario(tmp_path, doc)
    for argv in (["validate", scen], ["run", scen, "--out", str(tmp_path / "out")]):
        assert main(argv) == 2
        assert path + ": " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_verify_gates_inside_the_class_validate(tmp_path):
    doc = json.loads(json.dumps(CLASS_CERTIFY))
    doc["analyses"][0]["verify"].update(mu=1.5)  # more mass per window
    doc["analyses"][1]["verify"].update(T=4.0, mu=2.0)  # floor(4/4) 2 = rho 4
    assert main(["validate", write_scenario(tmp_path, doc)]) == 0


# Each of these validated without building anything and then had `run` build
# it: 4e9 samples, 1e6 verification trials, a 120k-pulse gate per trial, ...
OBSERVE = WAVE_SCENARIO["analyses"][2]
# gates of period 1e-4 lie outside the wave-pe source's class (T 2, mu 1),
# so the caps on their pulses are tested with an explicit constant
EXPLICIT = {"kind": "certify", "theta": 2.0, "constant": 0.1}
KAPPA = SCAN_SCENARIO["analyses"][1]
OVERSIZED = [
    ("simulate_samples",
     _with(WAVE_SCENARIO, {"kind": "simulate"}, horizon=4.0, dt_out=1e-9), "dt_out"),
    ("verify_trials",
     _with(WAVE_SCENARIO, dict(CERTIFY, verify=dict(CERTIFY["verify"], n_trials=10 ** 6))),
     "analyses[0].verify.n_trials"),
    ("verify_gate_pulses",
     _with(WAVE_SCENARIO, dict(EXPLICIT, verify=dict(CERTIFY["verify"], T=1e-4, mu=5e-5))),
     "analyses[0].verify.T"),
    # the two simulated trials: 2 x 6.6e6 samples of (4 + 8) values
    ("verify_samples",
     _with(WAVE_SCENARIO, dict(CERTIFY, verify=dict(CERTIFY["verify"], horizon=2e5))),
     "analyses[0].verify.horizon"),
    # one trial's window check at N = 256: (2 x 136 steps + 4 x 67 starts) N^2
    ("verify_window_values",
     _with(WAVE_SCENARIO, CERTIFY, system=dict(WAVE_SCENARIO["system"], n_modes=128)),
     "analyses[0].verify.T"),
    # 41 trials x (136 steps + 67 starts) x 128^3 exceed 2^34
    ("verify_window_work",
     _with(WAVE_SCENARIO, dict(CERTIFY, verify=dict(CERTIFY["verify"], n_trials=41)),
           system=dict(WAVE_SCENARIO["system"], n_modes=64)),
     "analyses[0].verify.n_trials"),
    ("n_cells", _with(WAVE_SCENARIO, dict(OBSERVE, n_cells=4097)), "analyses[0].n_cells"),
    ("n_starts", _with(WAVE_SCENARIO, dict(OBSERVE, outer={"n_starts": 257})),
     "analyses[0].outer.n_starts"),
    ("n_iters", _with(WAVE_SCENARIO, dict(OBSERVE, outer={"n_iters": 1001})),
     "analyses[0].outer.n_iters"),
    # max(n_cells, 64) * n_starts * n_iters, times the T_grid length of a
    # kappa-scan, is at most 2^22
    ("outer_work", _with(WAVE_SCENARIO, dict(OBSERVE, n_cells=4096, outer={
        "n_starts": 256, "n_iters": 5})), "analyses[0].outer"),
    # 64 * 66 * 1000: an iteration on 4 cells costs what one on 64 does
    ("outer_work_few_cells", _with(WAVE_SCENARIO, dict(OBSERVE, n_cells=4, outer={
        "n_starts": 66, "n_iters": 1000})), "analyses[0].outer"),
    ("kappa_scan_outer_work", _with(SCAN_SCENARIO, dict(KAPPA, n_cells=4096, outer={
        "n_starts": 8, "n_iters": 100})), "analyses[0].outer"),
    ("certify_source_outer_work",
     _with(CLASS_CERTIFY, dict(CLASS_CERTIFY["analyses"][0], source=dict(
         CLASS_CERTIFY["analyses"][0]["source"], n_cells=4096,
         outer={"n_starts": 32, "n_iters": 100}))),
     "analyses[0].source.outer"),
    ("T_grid_length",
     _with(SCAN_SCENARIO, dict(KAPPA, T_grid=[1.0 - k / 100 for k in range(33)])),
     "analyses[0].T_grid"),
    ("counterexample_periods",
     _with(SCAN_SCENARIO, dict(SCAN_SCENARIO["analyses"][0], periods=101)),
     "analyses[0].periods"),
]


@pytest.mark.parametrize("doc, path", [c[1:] for c in OVERSIZED],
                         ids=[c[0] for c in OVERSIZED])
def test_oversized_runs_exit_two_at_validation(tmp_path, capsys, doc, path):
    assert main(["validate", write_scenario(tmp_path, doc)]) == 2
    assert path + ": " in capsys.readouterr().err


def test_inputs_at_the_caps_validate(tmp_path):
    cert = dict(EXPLICIT, verify=dict(CERTIFY["verify"], T=1e-4, mu=5e-5, horizon=10.0))
    docs = [
        # 1.6e6 samples of N = 4: 1.92e7 of the 2e7 values a run may keep
        _with(WAVE_SCENARIO, {"kind": "simulate"}, horizon=12.0, dt_out=12.0 / 1.6e6),
        _with(WAVE_SCENARIO, dict(cert, verify=dict(cert["verify"], n_trials=1))),
        # 40 trials of the window check at N = 128: 1.70e10 of 2^34
        _with(WAVE_SCENARIO, dict(CERTIFY, verify=dict(CERTIFY["verify"], n_trials=40)),
              system=dict(WAVE_SCENARIO["system"], n_modes=64)),
        # 4096 * 256 * 4 and 64 * 65 * 1000 cell-iterations, within 2^22; 16
        # cells count as 64
        _with(WAVE_SCENARIO, dict(OBSERVE, n_cells=4096, outer={"n_starts": 256,
                                                                 "n_iters": 4})),
        _with(WAVE_SCENARIO, dict(OBSERVE, n_cells=16, outer={"n_starts": 65,
                                                               "n_iters": 1000})),
        _with(SCAN_SCENARIO, dict(KAPPA, T_grid=[1.0 - k / 100 for k in range(32)])),
        # 32 * 64 * 8 * 100: the default search on every length of a full T_grid
        _with(SCAN_SCENARIO, {"kind": "kappa-scan", "rho": 0.5,
                              "T_grid": [1.0 - k / 100 for k in range(32)]}),
        _with(SCAN_SCENARIO, dict(SCAN_SCENARIO["analyses"][0], periods=100)),
    ]
    for j, doc in enumerate(docs):
        assert main(["validate", write_scenario(tmp_path, doc, "cap%d.json" % j)]) == 0


# Two analyses a patched runner stands in for.  The patched runners'
# reports are written outside tmp_path, whose reports the golden manifest
# holds to those of real analyses.
BLAS_SCENARIO = {
    "seed": 0,
    "horizon": 4.0,
    "signal": {"gen": "constant", "level": 1.0},
    "analyses": [{"kind": "check-pe", "T": 1.0, "mu": 0.5},
                 {"kind": "check-pe", "T": 1.0, "mu": 0.5}],
}


def thread_counts(controls):
    return [get() for get, _ in controls]


def counting_runner(controls, seen, outcome):
    """A runner that records the thread counts it sees, then returns a
    report with ``outcome`` as its ok or raises it."""
    def run(sc, a):
        seen.append(thread_counts(controls))
        if isinstance(outcome, Exception):
            raise outcome
        return {}, outcome, None
    return run


@pytest.mark.parametrize("outcome,argv,mu,calls,code", [
    (True, [], 0.5, 2, 0),
    (False, [], 0.5, 2, 1),
    (RuntimeError("solver gave up"), [], 0.5, 2, 1),
    (True, ["--parallel"], 0.5, 2, 0),
    (True, [], 1.5, 0, 2),  # mu above T fails validation
], ids=["ok", "failed-check", "runtime-error", "parallel", "invalid"])
def test_runs_compute_on_one_blas_thread_and_restore_the_count(
        tmp_path, tmp_path_factory, monkeypatch, two_blas_threads,
        outcome, argv, mu, calls, code):
    seen = []
    monkeypatch.setitem(cli._RUNNERS, "check-pe",
                        counting_runner(two_blas_threads, seen, outcome))
    doc = dict(BLAS_SCENARIO, analyses=[dict(a, mu=mu) for a in BLAS_SCENARIO["analyses"]])
    out = tmp_path_factory.mktemp("blas")
    assert main(["run", write_scenario(tmp_path, doc), "--out", str(out)] + argv) == code
    assert seen == [[1] * len(two_blas_threads)] * calls
    assert thread_counts(two_blas_threads) == [2] * len(two_blas_threads)


def test_concurrent_and_nested_runs_restore_the_blas_threads_at_the_last_exit(
        tmp_path, tmp_path_factory, monkeypatch, two_blas_threads):
    # run 1 returns while run 0 is still inside its analysis: the count
    # stays capped until run 0 returns too
    ones = [1] * len(two_blas_threads)
    both_inside, first_done = threading.Barrier(2), threading.Event()
    seen = {0: [], 1: []}

    def run(sc, a):
        both_inside.wait(timeout=60)
        if sc.seed == 0:
            assert first_done.wait(timeout=60)
        seen[sc.seed].append(thread_counts(two_blas_threads))
        return {}, True, None

    monkeypatch.setitem(cli._RUNNERS, "check-pe", run)
    codes = {}

    def run_scenario(seed):
        doc = dict(BLAS_SCENARIO, seed=seed, analyses=BLAS_SCENARIO["analyses"][:1])
        scen = write_scenario(tmp_path, doc, "seed%d.json" % seed)
        codes[seed] = main(["run", scen, "--out", str(tmp_path_factory.mktemp("blas"))])
        if seed == 1:
            first_done.set()

    workers = [threading.Thread(target=run_scenario, args=(seed,)) for seed in (0, 1)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=120)
    assert not any(w.is_alive() for w in workers)
    assert codes == {0: 0, 1: 0}
    assert seen == {0: [ones], 1: [ones]}
    assert thread_counts(two_blas_threads) == [2] * len(two_blas_threads)

    # a run inside a capped context leaves the count to that context
    monkeypatch.setitem(cli._RUNNERS, "check-pe",
                        counting_runner(two_blas_threads, seen[0], True))
    with cli._ONE_BLAS_THREAD:
        scen = write_scenario(tmp_path, BLAS_SCENARIO, "nested.json")
        assert main(["run", scen, "--out", str(tmp_path_factory.mktemp("blas"))]) == 0
        assert thread_counts(two_blas_threads) == ones
    assert seen[0] == [ones] * 3
    assert thread_counts(two_blas_threads) == [2] * len(two_blas_threads)


def test_blas_thread_cap_holds_under_many_threads(tmp_path, tmp_path_factory, monkeypatch,
                                                 two_blas_threads):
    # four threads, ten runs each, switching often: every analysis sees
    # one thread, and the count is back at two when all have returned
    seen = []
    monkeypatch.setitem(cli._RUNNERS, "check-pe",
                        counting_runner(two_blas_threads, seen, True))
    scen = write_scenario(tmp_path, BLAS_SCENARIO)
    codes = []

    def runs(out):
        for _ in range(10):
            codes.append(main(["run", scen, "--out", str(out)]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=runs, args=(tmp_path_factory.mktemp("blas"),))
                   for _ in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert codes == [0] * 40
    assert seen == [[1] * len(two_blas_threads)] * 80
    assert thread_counts(two_blas_threads) == [2] * len(two_blas_threads)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the cap reads the loaded libraries from /proc")
def test_blas_thread_cap_finds_numpys_openblas():
    # without this, a change in how the libraries are named would leave the
    # cap a silent no-op
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        pytest.skip("numpy does not name its BLAS")
    if "openblas" not in blas.lower():
        pytest.skip("numpy is built on %s" % blas)
    assert cli._openblas_threads()
