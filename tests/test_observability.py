import numpy as np
import pytest
import scipy.linalg

from pexstab.linsys import LinearSystem, UncontrollableError
from pexstab.modal import (
    SchrodingerModalSpec,
    TRUNCATION_CAVEAT,
    WaveModalSpec,
    build_schrodinger,
    build_wave,
    gram_matrix,
)
from pexstab.observability import (
    EXPLORATION_LABEL,
    _cell_gramians,
    OuterSearch,
    SignalClass,
    class_constant,
    functional,
    inner_min_signal,
    kappa_scan,
    observability_gramian,
    pe_window_min,
    rho_greedy_min,
    wave_pe_lower_bound,
    wave_rho_lower_bound,
    wave_rho_threshold,
    window_scan,
)
from pexstab.signals import make_piecewise


def rotation(w=1.0):
    return np.array([[0.0, w], [-w, 0.0]])


def flat_system():
    return LinearSystem(np.zeros((1, 1)), np.eye(1))


def random_skew(rng, n):
    M = rng.standard_normal((n, n))
    return M - M.T


def skew_gramian_closed_form(A, B, t0, t1):
    """int_t0^t1 e^{tA^T} B B^T e^{tA} dt for skew A, U [(U^H B B^T U) o K] U^H.

    iA = U diag(w) U^H, so e^{tA} = U diag(e^{-iwt}) U^H and
    K_kl = int_t0^t1 e^{i (w_k - w_l) t} dt.
    """
    w, U = np.linalg.eigh(1j * np.asarray(A))
    BU = np.asarray(B).reshape(len(w), -1).T @ U
    d = w[:, None] - w[None, :]
    L, m = t1 - t0, (t0 + t1) / 2.0
    K = np.exp(1j * d * m) * L * np.sinc(d * L / (2.0 * np.pi))
    G = U @ ((BU.conj().T @ BU) * K) @ U.conj().T
    return np.real(G + G.conj().T) / 2.0


def test_signal_class_validation():
    with pytest.raises(ValueError):
        SignalClass.rho_integral(0.0, 1.0)
    with pytest.raises(ValueError):
        SignalClass.rho_integral(1.1, 1.0)
    with pytest.raises(ValueError):
        SignalClass.rho_integral(0.5, 0.0)
    with pytest.raises(ValueError):
        SignalClass.pe_windows(1.0, 1.5)
    with pytest.raises(ValueError):
        SignalClass.pe_windows(1.0, 0.5, horizon=0.5)
    with pytest.raises(ValueError):
        SignalClass(kind="other", horizon=1.0)
    assert SignalClass.pe_windows(1.0, 0.5).horizon == 1.0


def test_gramian_full_rotation_is_half_identity_scaled():
    # B^T e^{tA} = (-sin t, cos t): the Gramian over a full turn is pi I
    sys = LinearSystem(rotation(1.0), np.array([0.0, 1.0]))
    G = observability_gramian(sys, 0.0, 2.0 * np.pi)
    assert np.abs(G - np.pi * np.eye(2)).max() < 1e-12


def test_gramian_respects_signal_weights():
    sys = LinearSystem(rotation(1.0), np.array([0.0, 1.0]))
    sig = make_piecewise([0.5], [1.0], 0.3)
    G = observability_gramian(sys, 0.0, 1.0, signal=sig)
    G1 = observability_gramian(sys, 0.0, 0.5)
    G2 = observability_gramian(sys, 0.5, 1.0)
    assert np.abs(G - (G1 + 0.3 * G2)).max() < 1e-12


def test_gramian_matches_skew_closed_form():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        sys = LinearSystem(random_skew(rng, n),
                           rng.standard_normal((n, int(rng.integers(1, n + 1)))))
        t0 = float(rng.choice([0.0, rng.uniform(0.0, 3.0)]))
        t1 = t0 + float(rng.uniform(0.05, 3.0))
        ref = skew_gramian_closed_form(sys.A, sys.B, t0, t1)
        G = observability_gramian(sys, t0, t1)
        assert np.abs(G - ref).max() <= 1e-12 * np.abs(ref).max()


def test_gramian_matches_simpson_for_damped_drift():
    # A = skew - P^T P is dissipative but not skew: no eigenbasis shortcut
    rng = np.random.default_rng(22)
    P = rng.standard_normal((4, 4)) / 2.0
    A = random_skew(rng, 4) - P.T @ P
    B = rng.standard_normal((4, 2))
    sys = LinearSystem(A, B)
    assert not sys.skew_flag
    t0, t1, m = 0.5, 2.0, 10000
    ts = np.linspace(t0, t1, 2 * m + 1)
    weights = np.tile([2.0, 4.0], m + 1)[: 2 * m + 1]
    weights[0] = weights[-1] = 1.0
    ref = np.zeros((4, 4))
    for wk, t in zip(weights * (t1 - t0) / (6 * m), ts):
        C = B.T @ scipy.linalg.expm(A * t)
        ref += wk * C.T @ C
    assert np.abs(observability_gramian(sys, t0, t1) - ref).max() <= 1e-9


def test_cell_gramians_recursion_does_not_drift():
    edges = np.linspace(0.0, 1.0, 1025)
    sys = build_wave(WaveModalSpec(n_modes=4, omega=(0.2, 0.6)))
    Ms = _cell_gramians(sys, 1.0, 1024)
    direct = np.array([observability_gramian(sys, a, b)
                       for a, b in zip(edges[:-1], edges[1:])])
    assert np.abs(Ms - direct).max() <= 1e-12 * np.abs(direct).max()
    # at |A| t ~ 200 a single expm(A t) loses more than the recursion does,
    # so the high-frequency grid is checked against the closed form instead
    sys = build_schrodinger(SchrodingerModalSpec(n_modes=6, omega=(0.3, 0.5)))
    Ms = _cell_gramians(sys, 1.0, 1024)
    ref = np.array([skew_gramian_closed_form(sys.A, sys.B, a, b)
                    for a, b in zip(edges[:-1], edges[1:])])
    assert np.abs(Ms - ref).max() <= 1e-12 * np.abs(ref).max()


def test_gramian_cells_far_from_zero_match_closed_form():
    # a cell at c0 > 0 is the first-cell kernel congruenced by e^{c0 A}; at
    # |A c0| ~ 270 that factor must come from the orthogonal skew step, not
    # from a generic expm, to keep per-cell calls on the closed form
    edges = np.linspace(0.0, 1.0, 1025)
    sys = build_schrodinger(SchrodingerModalSpec(n_modes=6, omega=(0.3, 0.5)))
    got = np.array([observability_gramian(sys, a, b)
                    for a, b in zip(edges[:-1], edges[1:])])
    ref = np.array([skew_gramian_closed_form(sys.A, sys.B, a, b)
                    for a, b in zip(edges[:-1], edges[1:])])
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_gramian_validates_window():
    sys = flat_system()
    with pytest.raises(ValueError):
        observability_gramian(sys, 1.0, 0.5)
    with pytest.raises(ValueError):
        observability_gramian(sys, -0.1, 0.5)


def test_functional_flat_system():
    # A = 0, B = I: the functional is the signal mass
    one = make_piecewise([], [], 1.0)
    assert functional(flat_system(), one, [1.0], 2.0) == pytest.approx(2.0, abs=1e-12)
    gate = make_piecewise([0.5, 1.5], [1.0, 0.0], 0.5)
    mass = float(gate.integral(0, 2))
    assert functional(flat_system(), gate, [1.0], 2.0) == pytest.approx(mass, abs=1e-12)


def test_functional_one_mode_string():
    # unit damping on the velocity slot: J = int_0^1 sin^2(pi t) dt = 1/2
    sys = build_wave(WaveModalSpec(n_modes=1, uniform=1.0))
    one = make_piecewise([], [], 1.0)
    val = functional(sys, one, [1.0, 0.0], 1.0)
    assert val == pytest.approx(0.5, abs=1e-10)


def test_functional_requires_unit_state():
    with pytest.raises(ValueError):
        functional(flat_system(), make_piecewise([], [], 1.0), [2.0], 1.0)
    with pytest.raises(ValueError):
        functional(flat_system(), make_piecewise([], [], 1.0), [1.0], -1.0)


def test_greedy_fill_takes_cheapest_cells():
    alpha, val = rho_greedy_min([1 / 32, 3 / 32, 5 / 32, 7 / 32], 0.25, 0.5)
    assert val == pytest.approx(0.125, abs=1e-15)
    assert list(alpha) == [1.0, 1.0, 0.0, 0.0]


def test_greedy_fill_fractional_marginal_cell():
    alpha, val = rho_greedy_min([1 / 32, 3 / 32, 5 / 32, 7 / 32], 0.25, 0.3)
    assert list(alpha) == [1.0, pytest.approx(0.2), 0.0, 0.0]
    assert val == pytest.approx(1 / 32 + 0.2 * 3 / 32, abs=1e-15)


def test_greedy_fill_breaks_ties_toward_earlier_cells():
    alpha, val = rho_greedy_min([5.0, 1.0, 1.0, 9.0], 1.0, 1.0)
    assert list(alpha) == [0.0, 1.0, 0.0, 0.0]
    assert val == 1.0


def test_greedy_fill_budget_edge_cases():
    with pytest.raises(ValueError):
        rho_greedy_min([1.0, 2.0], 1.0, 2.5)
    alpha, val = rho_greedy_min([1.0, 2.0], 1.0, 2.0)
    assert list(alpha) == [1.0, 1.0]
    assert val == 3.0


def test_window_lp_degenerates_to_greedy_on_one_window():
    # horizon == T leaves a single constraint: total mass >= mu
    rng = np.random.default_rng(5)
    g = rng.uniform(0.0, 1.0, 16)
    _, v_lp = pe_window_min(g, 2.0 / 16, 2.0, 0.5, 2.0)
    _, v_gr = rho_greedy_min(g, 2.0 / 16, 0.5)
    assert abs(v_lp - v_gr) <= 1e-9


def test_window_lp_solution_is_admissible():
    rng = np.random.default_rng(6)
    g = rng.uniform(0.0, 1.0, 24)
    alpha, val = pe_window_min(g, 3.0 / 24, 1.0, 0.4, 3.0)
    edges = np.linspace(0.0, 3.0, 25)
    for s in np.linspace(0.0, 2.0, 201):
        cover = np.clip(np.minimum(edges[1:], s + 1.0) - np.maximum(edges[:-1], s),
                        0.0, None)
        assert float(cover @ alpha) >= 0.4 - 1e-7
    assert val <= float(g.sum()) + 1e-9  # never worse than alpha = 1


def test_inner_min_flat_system_both_classes():
    sys = flat_system()
    sig, val = inner_min_signal(sys, [1.0], SignalClass.rho_integral(0.25, 2.0),
                                n_cells=16)
    assert val == pytest.approx(0.5, abs=1e-12)
    assert float(sig.integral(0, 2)) == pytest.approx(0.5, abs=1e-12)
    _, val2 = inner_min_signal(sys, [1.0], SignalClass.pe_windows(2.0, 0.5),
                               n_cells=16)
    assert val2 == pytest.approx(0.5, abs=1e-9)


def test_inner_min_needs_enough_cells():
    with pytest.raises(ValueError):
        inner_min_signal(flat_system(), [1.0], SignalClass.rho_integral(0.5, 1.0),
                         n_cells=3)


def test_class_constant_flat_system():
    est = class_constant(flat_system(), SignalClass.pe_windows(2.0, 0.5),
                         n_cells=16, outer=OuterSearch(n_starts=2))
    assert est.constant == pytest.approx(0.5, abs=1e-9)
    assert est.runner_up_gap == 0.0
    assert "window LP" in est.method
    d = est.to_dict()
    assert d["constant"] == est.constant
    assert d["grid"] == {"n_cells": 16}


def test_witness_reproduces_estimate():
    sys = build_wave(WaveModalSpec(n_modes=1, uniform=1.0))
    est = class_constant(sys, SignalClass.pe_windows(2.0, 1.0), n_cells=32,
                         outer=OuterSearch(n_starts=4))
    val = functional(sys, est.witness_signal, est.witness_z0, 2.0)
    assert abs(val - est.constant) <= 1e-12
    assert abs(np.linalg.norm(est.witness_z0) - 1.0) <= 1e-9


def test_one_mode_string_window_constant():
    sys = build_wave(WaveModalSpec(n_modes=1, uniform=1.0))
    est = class_constant(sys, SignalClass.pe_windows(2.0, 1.0), n_cells=64)
    assert est.constant == pytest.approx(0.18169011381620948, abs=1e-9)
    J = sum(level * est.witness_z0 @ skew_gramian_closed_form(sys.A, sys.B, a, b)
            @ est.witness_z0
            for a, b, level in est.witness_signal.cells_between(0.0, 2.0))
    assert J == pytest.approx(est.constant, abs=1e-12)
    assert est.constant == pytest.approx(0.5 - 1.0 / np.pi, abs=5e-4)
    assert est.constant >= wave_pe_lower_bound(2.0, 1.0, np.pi ** 2)


def test_constant_monotone_in_required_mass():
    sys = build_wave(WaveModalSpec(n_modes=1, uniform=1.0))
    outer = OuterSearch(n_starts=3)
    vals = [class_constant(sys, SignalClass.pe_windows(2.0, mu), 32, outer).constant
            for mu in (0.5, 1.0, 1.5)]
    assert vals[0] <= vals[1] + 1e-12 <= vals[2] + 2e-12
    rhos = [class_constant(sys, SignalClass.rho_integral(r, 2.0), 32, outer).constant
            for r in (0.2, 0.5, 0.9)]
    assert rhos[0] <= rhos[1] + 1e-12 <= rhos[2] + 2e-12


def test_constant_scales_quadratically_with_input():
    A = rotation(1.0)
    outer = OuterSearch(n_starts=3)
    sclass = SignalClass.rho_integral(0.5, 1.0)
    base = class_constant(LinearSystem(A, np.array([0.0, 1.0])), sclass, 16, outer)
    scaled = class_constant(LinearSystem(A, np.array([0.0, 2.0])), sclass, 16, outer)
    assert scaled.constant == pytest.approx(4.0 * base.constant, rel=1e-10)


def test_constant_vanishes_without_input():
    sys = LinearSystem(rotation(1.0), np.zeros((2, 1)))
    est = class_constant(sys, SignalClass.rho_integral(0.5, 1.0), n_cells=16,
                         outer=OuterSearch(n_starts=2))
    assert est.constant == 0.0


def test_class_constant_dimension_guard():
    sys = build_schrodinger(SchrodingerModalSpec(n_modes=9, omega=(0.2, 0.6)))
    with pytest.raises(ValueError):
        class_constant(sys, SignalClass.rho_integral(0.5, 1.0))


def test_wave_window_bound_frozen_values():
    c = wave_pe_lower_bound(2.0, 1.0, np.pi ** 2)
    assert c == pytest.approx(0.0573861108137765, abs=1e-15)
    eps = (1.0 / 2.0) / (4.0 / np.pi + 2.0 / np.pi ** 2)
    assert c == pytest.approx(eps * eps / 2.0, rel=1e-15)
    assert wave_pe_lower_bound(2.0, 1.0, np.pi ** 2, d0=3.0) == pytest.approx(
        9.0 * c, rel=1e-15)


def test_wave_window_bound_validation():
    with pytest.raises(ValueError):
        wave_pe_lower_bound(2.0, 2.5, np.pi ** 2)
    with pytest.raises(ValueError):
        wave_pe_lower_bound(0.0, 0.0, np.pi ** 2)
    with pytest.raises(ValueError):
        wave_pe_lower_bound(2.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        wave_pe_lower_bound(2.0, 1.0, np.pi ** 2, d0=0.0)


def test_wave_cubic_bound_values_and_threshold():
    lam = np.pi ** 2
    assert wave_rho_lower_bound(0.1, 1.0, lam) == pytest.approx(
        np.pi ** 4 * 1e-3 / 72.0, rel=1e-13)
    assert wave_rho_lower_bound(0.15, 0.1, lam) == pytest.approx(
        4.56605114221886e-06, rel=1e-12)
    thr = wave_rho_threshold(1.0, lam)
    assert thr == pytest.approx(np.pi / (2.0 * lam), rel=1e-15)
    with pytest.raises(ValueError, match="threshold"):
        wave_rho_lower_bound(thr * 1.01, 1.0, lam)
    # cubic homogeneity: halving the window divides the bound by 8
    a = wave_rho_lower_bound(0.1, 0.5, lam)
    b = wave_rho_lower_bound(0.05, 0.5, lam)
    assert a == pytest.approx(8.0 * b, rel=1e-12)


def test_wave_cubic_bound_validation():
    with pytest.raises(ValueError):
        wave_rho_lower_bound(0.1, 0.0, np.pi ** 2)
    with pytest.raises(ValueError):
        wave_rho_lower_bound(0.1, 1.5, np.pi ** 2)
    with pytest.raises(ValueError):
        wave_rho_lower_bound(-0.1, 0.5, np.pi ** 2)


def test_kappa_scan_identity_input():
    # B = I keeps ||B^T e^{tA} z|| = 1, so the constant is exactly rho * T
    sys = LinearSystem(rotation(1.0), np.eye(2))
    rep = kappa_scan(sys, 0.5, (0.4, 0.2, 0.1), n_cells=16,
                     outer=OuterSearch(n_starts=2))
    assert rep.kalman_index == 0
    assert rep.expected_slope == 1.0
    for T, c in zip(rep.T_grid, rep.constants):
        assert c == pytest.approx(0.5 * T, rel=1e-9)
    assert rep.slope == pytest.approx(1.0, abs=1e-8)
    assert rep.kappa == pytest.approx(0.5, rel=1e-6)


def test_kappa_scan_validation():
    sys = LinearSystem(rotation(1.0), np.eye(2))
    with pytest.raises(ValueError):
        kappa_scan(sys, 0.5, (0.4,))
    with pytest.raises(ValueError):
        kappa_scan(sys, 0.5, (0.1, 0.4))  # not decreasing
    with pytest.raises(ValueError):
        kappa_scan(sys, 0.5, (1.4, 0.2))  # outside (0, 1]
    damped = LinearSystem(np.array([[-0.5, 1.0], [-1.0, -0.5]]), np.eye(2))
    with pytest.raises(ValueError):
        kappa_scan(damped, 0.5, (0.4, 0.2))  # A not skew
    dead = LinearSystem(np.zeros((2, 2)), np.array([1.0, 0.0]))
    with pytest.raises(UncontrollableError):
        kappa_scan(dead, 0.5, (0.4, 0.2))


def test_window_scan_full_region_is_flat():
    # omega = (0, 1) gives B B^T = I: the worst profile value is exactly mu
    spec = SchrodingerModalSpec(n_modes=2, omega=(0.0, 1.0))
    rep = window_scan(spec, T=1.0, mu=0.3, n_cells=8,
                      outer=OuterSearch(n_starts=2), n_modes_list=(1, 2))
    for v in rep.free_constants:
        assert v == pytest.approx(0.3, rel=1e-9)
    assert rep.trend == "plateau"
    assert rep.label == EXPLORATION_LABEL
    assert EXPLORATION_LABEL in rep.caveats
    assert TRUNCATION_CAVEAT in rep.caveats
    for f, iv in zip(rep.free_constants, rep.interval_constants):
        assert iv >= f - 1e-9  # restricting to one interval cannot help


def test_window_scan_single_mode_closed_form():
    omega = (0.2, 0.7)
    spec = SchrodingerModalSpec(n_modes=1, omega=omega)
    g11 = gram_matrix(omega, 1)[0, 0]
    rep = window_scan(spec, 1.0, 0.25, n_cells=8, outer=OuterSearch(n_starts=2))
    assert rep.free_constants[0] == pytest.approx(0.25 * g11, rel=1e-9)


def test_window_scan_detects_decreasing_trend():
    # a region straddling the node of mode 2 starves the higher truncations
    spec = SchrodingerModalSpec(n_modes=3, omega=(0.45, 0.55))
    rep = window_scan(spec, 1.0, 0.3, n_cells=8, outer=OuterSearch(n_starts=3),
                      n_modes_list=(1, 3))
    assert rep.free_constants[-1] < 0.95 * rep.free_constants[0]
    assert rep.trend == "decreasing"


def test_window_scan_validates_window():
    spec = SchrodingerModalSpec(n_modes=1, omega=(0.2, 0.6))
    with pytest.raises(ValueError):
        window_scan(spec, 1.0, 1.5)
