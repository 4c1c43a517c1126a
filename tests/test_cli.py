import json
import math
import os

import pytest

from pexstab.cli import main

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
         "criterion": {"T0": 1.0,
                       "cost": {"kind": "wave-cubic", "rho": 1.0,
                                "lambda1": 1.0}}},
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
    return {name: open(os.path.join(out_dir, name), "rb").read()
            for name in sorted(os.listdir(out_dir))}


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
    # lambda1 = pi^2 caps the cubic bound at lengths <= 1/(2 pi); at length 1
    # and d0 = 5 it would claim 33.8 per interval against L ||B||^2 = 1
    doc = {"seed": 0,
           "system": {"kind": "wave-modal", "n_modes": 1,
                      "damping": {"uniform": 1.0}},
           "analyses": [{"kind": "strong-stability",
                         "intervals": [[2.0 * k, 2.0 * k + 1.0] for k in range(6)],
                         "costs": [0.5] * 6,
                         "criterion": {"T0": 1.0,
                                       "cost": {"kind": "wave-cubic", "rho": 1.0,
                                                "lambda1": math.pi ** 2,
                                                "d0": 5.0}}}]}
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
    assert crit["criterion"]["partial_sums"][0] == pytest.approx(
        25.0 / 72.0, rel=1e-12)


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


def test_criterion_cost_above_length_bound_exits_two(tmp_path, capsys):
    # d0 = 10 claims c(0.1) = 100 pi^4 0.1^3 / 72 = 0.135 per interval, more
    # than the 0.1 * ||B||^2 = 0.1 any signal can reach on the unit-damped string
    doc = {"seed": 0,
           "system": {"kind": "wave-modal", "n_modes": 1,
                      "damping": {"uniform": 1.0}},
           "analyses": [{"kind": "strong-stability",
                         "intervals": [[k, k + 0.1] for k in range(4)],
                         "costs": [0.05] * 4,
                         "criterion": {"T0": 0.1,
                                       "cost": {"kind": "wave-cubic", "rho": 1.0,
                                                "lambda1": math.pi ** 2,
                                                "d0": 10.0}}}]}
    scen = write_scenario(tmp_path, doc, "cost_high.json")
    assert main(["run", scen, "--out", str(tmp_path / "high")]) == 2
    err = capsys.readouterr().err
    assert "analyses[0].criterion.cost: cost 0.135" in err
    assert "length*||B||^2 = 0.1" in err
    # the exp-gap cost stays below the bound: e^-2 = 0.135 <= 1 at length 1
    doc["analyses"][0]["criterion"] = {"T0": 1.0, "cost": {"kind": "exp-gap"}}
    scen = write_scenario(tmp_path, doc, "cost_ok.json")
    assert main(["run", scen, "--out", str(tmp_path / "ok")]) == 0
