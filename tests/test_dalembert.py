from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import displacement
from pexstab.dalembert import (
    _support,
    build_counterexample,
    energy_of_counterexample,
    verify_damping_inert,
)
from pexstab.linsys import simulate
from pexstab.modal import WaveModalSpec, build_wave
from pexstab.signals import pe_check, periodic_gate


def test_gate_parameters_follow_the_region():
    sc = build_counterexample((0.2, 0.6))
    assert sc.b_prime == pytest.approx(0.8)
    assert sc.mu == pytest.approx(0.2)  # (1 - b) / 2
    assert sc.period == 2.0


def test_rejects_degenerate_regions():
    with pytest.raises(ValueError):
        build_counterexample((0.2, 1.0))  # no room right of the region
    with pytest.raises(ValueError):
        build_counterexample((0.6, 0.4))
    with pytest.raises(ValueError):
        build_counterexample((0.2, 0.6), n_periods=0)


def test_velocity_support_travels_along_characteristics():
    sc = build_counterexample((0.2, 0.6))
    bp = sc._fbp  # the bump edge b' = (1 + 0.6) / 2, exact in the float 0.6
    assert float(bp) == pytest.approx(0.8)
    assert sorted(_support(F(0), bp)) == [(bp, 1)]
    assert sorted(_support(F(1, 10), bp)) == [(bp - F(1, 10), F(9, 10))]
    # at t = 1 the bump has reflected to the left end
    sup = sorted(_support(F(1), bp))
    assert sup[0][0] == 0
    assert max(hi for _, hi in sup) == 1 - bp


def test_displacement_meets_dirichlet_ends():
    sc = build_counterexample((0.2, 0.6))
    for t in np.linspace(0.0, 6.0, 25):
        assert abs(float(displacement(sc, t, 0.0))) < 1e-14
        assert abs(float(displacement(sc, t, 1.0))) < 1e-14


def test_damping_inert_certificate():
    sc = build_counterexample((0.2, 0.6), n_periods=3)
    rep = verify_damping_inert(sc)
    assert rep.ok
    assert rep.max_overlap == 0.0  # exact interval bookkeeping, not a tolerance
    assert rep.quad_velocity_mass_max <= 1e-12
    assert rep.pe.holds
    assert rep.n_windows_checked >= 3
    d = rep.to_dict()
    assert d["ok"] and d["pe_ok"] and d["max_overlap"] == 0.0


def test_gate_passes_pe_check_with_zero_overlap():
    sc = build_counterexample((0.2, 0.6), n_periods=3)
    rep = pe_check(sc.signal, 2.0, sc.mu, 6.0)
    assert rep.holds
    assert rep.worst_window_mass_exact >= F(sc.mu)


def test_energy_constant_over_three_periods():
    sc = build_counterexample((0.2, 0.6))
    energies = energy_of_counterexample(sc, np.linspace(0.0, 6.0, 61))
    E0 = energies[0]
    assert E0 == pytest.approx(512.0 / 21.0, rel=1e-12)  # closed-form bump energy
    drift = float(np.max(np.abs(energies - E0)))
    assert drift <= 1e-8 * E0


def test_wider_gate_breaks_the_certificate():
    # keep the same bump but let the gate stay on while the support crosses
    # the damping region: the overlap certificate must go positive
    sc = build_counterexample((0.2, 0.6), n_periods=2)
    sc2 = replace(sc, signal=periodic_gate(2, F(3, 5), 4))
    rep = verify_damping_inert(sc2)
    assert not rep.ok
    assert rep.max_overlap > 0.0
    assert rep.quad_velocity_mass_max > 1e-6


@settings(max_examples=10, deadline=None)
@given(
    st.floats(0.05, 0.5),
    st.floats(0.55, 0.9),
)
def test_inert_for_random_regions(a, b):
    sc = build_counterexample((a, b), n_periods=2)
    rep = verify_damping_inert(sc)
    assert rep.ok
    assert rep.max_overlap == 0.0


def char_breaks_full_scan(sc, t):
    """Reference: every k from -3 to ceil(t / 2) + 2 scanned for crossings."""
    pts = set()
    for k in range(-3, int(np.ceil(t / 2.0)) + 3):
        for edge in (sc.b_prime, 1.0):
            for x in (edge + 2 * k - t, t - edge - 2 * k):
                if 0.0 < x < 1.0:
                    pts.add(x)
    return sorted(pts)


def test_char_breaks_equal_the_full_scan():
    rng = np.random.default_rng(11)
    for _ in range(16):
        a = float(rng.uniform(0.05, 0.5))
        sc = build_counterexample((a, float(rng.uniform(a + 0.05, 0.95))))
        # times of a 100-period energy series, integers and random times
        times = np.concatenate([np.linspace(0.0, 200.0, 6401)[::97],
                                np.arange(0.0, 40.0), rng.uniform(0.0, 2000.0, 40)])
        for t in times:
            assert sc._char_breaks(t) == char_breaks_full_scan(sc, t), (sc.omega, t)


def test_modal_truncation_corroborates_zero_decay():
    # project the traveling bump on 64 string modes and simulate with the
    # gate: the damping term never activates in the PDE, so the modal energy
    # must stay put except for truncation leakage
    sc = build_counterexample((0.2, 0.6))
    n_modes = 64
    spec = WaveModalSpec(n_modes=n_modes, omega=sc.omega)
    sys = build_wave(spec)
    xg, wg = np.polynomial.legendre.leggauss(96)
    x = 0.5 * (1.0 - sc.b_prime) * (xg + 1.0) + sc.b_prime
    w = 0.5 * (1.0 - sc.b_prime) * wg
    phi = np.sqrt(2.0) * np.sin(np.outer(np.arange(1, n_modes + 1), np.pi * x))
    coeff = phi @ (w * displacement(sc, 0.0, x))
    coeff_t = phi @ (w * sc.velocity(0.0, x))
    z0 = np.empty(2 * n_modes)
    z0[0::2] = np.sqrt(spec.spectrum()) * coeff
    z0[1::2] = coeff_t
    V0 = 0.5 * float(z0 @ z0)
    E0 = energy_of_counterexample(sc, np.array([0.0]))[0]
    assert abs(V0 - E0) <= 1e-3 * E0  # the bump is spectrally concentrated
    traj = simulate(sys, sc.signal, z0, 6.0, 0.05)
    assert traj.energies[-1] <= traj.energies[0] * (1 + 1e-12)
    assert traj.energies[-1] >= traj.energies[0] * (1 - 1e-3)
