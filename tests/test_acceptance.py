"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line (visible with ``pytest -s``); the
pytest verdict per test is the authoritative record.  Runtime budgets are
asserted with a wall clock, so a pathological slowdown fails loudly instead
of silently degrading.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import gap_estimate_check
from pexstab import (TRUNCATION_CAVEAT, CounterexampleScenario, GateSignalFamily,
                     IntervalSequence, LinearSystem, OuterSearch, SchrodingerModalSpec,
                     SignalClass, WaveModalSpec, build_schrodinger, build_wave, certificate_from_constant,
                     class_constant, energy_balance, energy_of_counterexample,
                     from_intervals, interval_product_bound, kappa_scan,
                     periodic_gate, simulate, verify_certificate,
                     verify_damping_inert, wave_pe_lower_bound)
from pexstab.cli import main as cli_main
from pexstab.dalembert import PERIOD
from pexstab.observability import _InnerProblem


@contextmanager
def criterion(n, name):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print("criterion %d (%s): FAIL [%.1fs]"
              % (n, name, time.monotonic() - started))
        raise
    print("criterion %d (%s): PASS [%.1fs]"
          % (n, name, time.monotonic() - started))


def unit(rng, n):
    z = rng.standard_normal(n)
    return z / np.linalg.norm(z)


def random_skew(rng, n):
    M = rng.standard_normal((n, n))
    return M - M.T


def test_c1_counterexample_reproduction():
    with criterion(1, "counterexample reproduction"):
        t0 = time.monotonic()
        sc = CounterexampleScenario((0.2, 0.6), n_periods=3)
        rep = verify_damping_inert(sc)
        assert rep.ok
        assert rep.pe.holds and rep.T == 2.0 and rep.mu == pytest.approx(0.2)
        assert rep.max_overlap == 0.0
        energies = energy_of_counterexample(sc, np.linspace(0.0, 3 * PERIOD, 61))
        drift = float(np.max(np.abs(energies - energies[0])))
        assert drift <= 1e-8 * energies[0]
        assert time.monotonic() - t0 < 1.0


def test_c2_gap_inequality_suite():
    with criterion(2, "gap inequality, 50 random triples"):
        t0 = time.monotonic()
        rng = np.random.default_rng(20250819)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            B = rng.standard_normal((n, int(rng.integers(1, n + 1))))
            sys = LinearSystem(random_skew(rng, n), B / math.sqrt(n))
            period = float(rng.uniform(0.5, 2.0))
            half = float(rng.uniform(0.05, period / 2))
            sig = periodic_gate(period, half, 8.0)
            a = float(rng.uniform(0.0, 1.0))
            b = a + float(rng.uniform(0.3, 2.0))
            chk = gap_estimate_check(sys, sig, unit(rng, n), a, b)
            assert chk.ok
            # windows with zero damping mass reduce to exact energy
            # conservation, where the margin is a rounding of 0
            assert chk.margin >= -1e-12
        assert time.monotonic() - t0 < 30.0


def test_c3_energy_law_on_trajectories():
    rng = np.random.default_rng(3)
    wave = build_wave(WaveModalSpec(2, omega=(0.2, 0.7)))
    schro = build_schrodinger(SchrodingerModalSpec(3, uniform=0.7))
    skew6 = LinearSystem(random_skew(rng, 6), rng.standard_normal((6, 2)))
    strict = LinearSystem([[-0.3, 1.0], [-1.0, -0.3]], [[0.5], [0.0]])
    gaps = from_intervals(
        IntervalSequence(((0.5, 1.5), (3.0, 4.2), (6.0, 7.0))), 0.8)
    cases = [
        (wave, periodic_gate(1.5, 0.4, 12.0), 10.0),
        (schro, periodic_gate(2.0, 0.5, 12.0), 10.0),
        (skew6, gaps, 8.0),
        (strict, periodic_gate(1.0, 0.25, 8.0), 6.0),
    ]
    with criterion(3, "energy law on every simulated trajectory"):
        for sys, sig, horizon in cases:
            t0 = time.monotonic()
            traj = simulate(sys, sig, unit(rng, sys.dim), horizon, 1e-3)
            V = traj.energies
            rises = np.diff(V)
            worst = float(max(0.0, rises.max()))
            assert worst <= 1e-9 * max(1.0, V[0])
            if sys.skew_flag:
                assert abs(energy_balance(traj).residual) <= 1e-5
            assert time.monotonic() - t0 < 10.0


def test_c4_wave_certificate_verified():
    with criterion(4, "analytic wave certificate, 20 random PE signals"):
        t0 = time.monotonic()
        sys = build_wave(WaveModalSpec(1, uniform=1.0))
        c = wave_pe_lower_bound(2.0, 1.0, math.pi ** 2)
        cert = certificate_from_constant(c, 2.0, sys.b_norm,
                                         source="analytic wave bound")
        family = GateSignalFamily(T=2.0, mu=1.0, horizon=100.0, seed=11)
        check = verify_certificate(sys, cert, family, n_trials=20)
        assert check.ok and check.n_trials == 20
        est = class_constant(sys, SignalClass.pe_windows(2.0, 1.0),
                             n_cells=32, outer=OuterSearch(n_starts=6))
        assert est.constant >= c
        assert time.monotonic() - t0 < 60.0


def vertex_minimum(g, dt, mass):
    # every LP vertex is 0/1 with at most one fractional coordinate
    g = np.asarray(g, dtype=float)
    n = len(g)
    masks = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    base = masks @ g
    cap = masks.sum(axis=1) * dt
    feasible = cap >= mass - 1e-12 * max(1.0, mass)
    best = float(base[feasible].min()) if feasible.any() else math.inf
    rem = mass - cap
    partial = (rem > 0.0) & (rem <= dt * (1.0 + 1e-12))
    if partial.any():
        blocked = np.where(masks.astype(bool), math.inf, g[None, :])
        cand = base + (rem / dt) * blocked.min(axis=1)
        best = min(best, float(cand[partial].min()))
    return best


def test_c5_inner_lp_matches_vertex_enumeration():
    with criterion(5, "greedy inner solve equals vertex enumeration"):
        t0 = time.monotonic()
        rng = np.random.default_rng(50001)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            B = rng.standard_normal((n, int(rng.integers(1, n + 1))))
            sys = LinearSystem(random_skew(rng, n), B / math.sqrt(n))
            n_cells = int(rng.integers(4, 13))
            horizon = float(rng.uniform(0.5, 3.0))
            rho = float(rng.uniform(0.05, 0.95))
            sclass = SignalClass.rho_integral(rho, horizon)
            z0 = unit(rng, n)
            prob = _InnerProblem(sys, sclass, n_cells)
            _, value = prob.minimise(z0)
            oracle = vertex_minimum(prob.cell_values(z0), prob.dt,
                                    rho * horizon)
            assert abs(value - oracle) <= 1e-10
        assert time.monotonic() - t0 < 20.0


def test_c6_kappa_scaling_slopes():
    with criterion(6, "small-window cost scaling"):
        t0 = time.monotonic()
        A = [[0.0, 1.0], [-1.0, 0.0]]
        grid = (0.4, 0.2, 0.1, 0.05)
        rank_one = kappa_scan(LinearSystem(A, [[0.0], [1.0]]), 0.5, grid)
        assert rank_one.expected_slope == 3
        assert 2.7 <= rank_one.slope <= 3.3
        full = kappa_scan(LinearSystem(A, np.eye(2)), 0.5, grid)
        assert full.expected_slope == 1
        assert 0.7 <= full.slope <= 1.3
        assert time.monotonic() - t0 < 300.0


def test_c7_strong_stability_product_bound():
    with criterion(7, "interval product bound, 30 growing gaps"):
        t0 = time.monotonic()
        sys = build_schrodinger(SchrodingerModalSpec(6, omega=(0.2, 0.55)))
        intervals = []
        start = 0.0
        for n in range(1, 31):
            intervals.append((start, start + 1.0))
            start += 1.0 + 0.2 * n
        seq = IntervalSequence(tuple(intervals))
        z0 = unit(np.random.default_rng(7), sys.dim)
        rep = interval_product_bound(sys, seq, z0)
        assert rep.ok
        measured = np.asarray(rep.measured_ratios)
        factors = np.asarray(rep.factors)
        assert measured.shape == (30,)
        assert np.all(measured <= factors + rep.tolerance)
        # damping is off between intervals and A is skew, so the product of
        # the first 29 ratios is exactly V(a_30)/V(0)
        v_ratio = float(np.prod(measured[:29]))
        assert v_ratio <= rep.cumulative[28] * (1.0 + 1e-9)
        assert time.monotonic() - t0 < 300.0


def test_c8_caveats_present_everywhere(tmp_path):
    with criterion(8, "truncation caveats"):
        sys = build_schrodinger(SchrodingerModalSpec(2, omega=(0.3, 0.8)))
        assert TRUNCATION_CAVEAT in sys.caveats

        est = class_constant(sys, SignalClass.rho_integral(0.5, 1.0),
                             n_cells=8, outer=OuterSearch(n_starts=2))
        assert TRUNCATION_CAVEAT in est.to_dict()["caveats"]

        seq = IntervalSequence(((0.0, 1.0),))
        z0 = unit(np.random.default_rng(8), sys.dim)
        bound = interval_product_bound(sys, seq, z0)
        assert TRUNCATION_CAVEAT in bound.caveats

        scenario = {
            "seed": 1, "horizon": 2.0, "dt_out": 0.001,
            "system": {"kind": "schrodinger-modal", "n_modes": 2,
                       "damping": {"omega": [0.3, 0.8]}},
            "signal": {"gen": "constant", "level": 1.0},
            "analyses": [{"kind": "simulate"}],
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / "out"
        assert cli_main(["run", str(path), "--out", str(out)]) == 0
        payload = json.loads((out / "00_simulate.json").read_text())
        assert TRUNCATION_CAVEAT in payload["report"]["caveats"]
