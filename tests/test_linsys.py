import bisect
import threading
import tracemalloc
from sys import getswitchinterval, setswitchinterval

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from oracles import energy_balance_from_states, gap_estimate_check
from pexstab.cli import _ONE_BLAS_THREAD
from pexstab.linsys import (
    LinearSystem,
    UncontrollableError,
    _levels,
    _propagate,
    _row_norms_sq,
    _sample_grid,
    _step_matrix,
    energy_balance,
    kalman_index,
    simulate,
)
from pexstab.modal import WaveModalSpec, build_wave
from pexstab.signals import make_piecewise, periodic_gate
from pexstab.stability import GateSignalFamily, _trial_windows, _window_contractions


def propagate_alone(sys, sig, z0, times, dt_out=None):
    """The states of one trajectory, collected from _propagate's pieces:
    ``times`` gridded at ``dt_out``, or a plain time list."""
    states = np.full((len(times), sys.dim), np.nan)

    def collect(rows, piece):
        states[rows] = piece

    _propagate(sys, sig, z0, times, dt_out, collect)
    return states


def piece_rows(sys, sig, z0, times, dt_out):
    """The rows of each piece _propagate hands to a sink, in order."""
    index, pieces = np.arange(len(times)), []
    _propagate(sys, sig, z0, times, dt_out,
               lambda rows, states: pieces.append(np.sort(index[rows])))
    return pieces


def rotation(w=1.0):
    return np.array([[0.0, w], [-w, 0.0]])


def random_skew(rng, n):
    M = rng.standard_normal((n, n))
    return M - M.T


def test_construction_checks_dissipativity():
    with pytest.raises(ValueError):
        LinearSystem(np.array([[1e-3]]), np.array([[1.0]]))
    LinearSystem(np.array([[0.0]]), np.array([[1.0]]))
    LinearSystem(np.array([[-1.0]]), np.array([[1.0]]))


def test_construction_checks_shapes():
    with pytest.raises(ValueError):
        LinearSystem(np.zeros((2, 3)), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        LinearSystem(np.zeros((2, 2)), np.zeros((3, 1)))


def test_skew_flag_and_input_norm():
    sys = LinearSystem(rotation(2.0), np.array([0.0, 3.0]))
    assert sys.skew_flag
    assert sys.b_norm == 3.0
    assert sys.B.shape == (2, 1)  # vector input promoted to a column
    sys2 = LinearSystem(np.array([[-0.5, 1.0], [-1.0, -0.5]]), np.eye(2))
    assert not sys2.skew_flag


def test_propagation_matches_direct_exponential_product():
    rng = np.random.default_rng(3)
    A = random_skew(rng, 4)
    sys = LinearSystem(A, rng.standard_normal((4, 2)))
    sig = make_piecewise([0.7, 1.3, 2.0], [1.0, 0.0, 0.5], 0.25)
    z0 = rng.standard_normal(4)
    times = _sample_grid(sig, 3.0, 0.5)
    P = np.eye(4)
    for c0, c1, level in sig.cells_between(0.0, 3.0):
        P = scipy.linalg.expm((sys.A - level * sys.B @ sys.B.T) * (c1 - c0)) @ P
    want = P @ z0
    got = propagate_alone(sys, sig, z0, times, 0.5)[-1]
    assert times[-1] == 3.0
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_sample_grid_holds_breakpoints_and_horizon():
    sig = make_piecewise([0.7, 1.3], [1.0, 0.0], 1.0)
    sys = LinearSystem(rotation(), np.array([0.0, 1.0]))
    traj = simulate(sys, sig, [1.0, 0.0], 2.0, 0.6)

    def on_grid(t):
        return bool(np.any(np.abs(traj.times - t) <= 1e-9 * (1 + abs(t))))

    for t in (0.0, 0.6, 0.7, 1.2, 1.3, 1.8, 2.0):
        assert on_grid(t), t
    assert not on_grid(0.65)


def test_simulate_validates_arguments():
    sys = LinearSystem(rotation(), np.array([0.0, 1.0]))
    one = make_piecewise([], [], 1.0)
    with pytest.raises(ValueError):
        simulate(sys, one, [1.0, 0.0], -1.0, 0.1)
    with pytest.raises(ValueError):
        simulate(sys, one, [1.0, 0.0], 1.0, 0.0)
    big = LinearSystem(np.zeros((257, 257)), np.zeros((257, 1)))
    with pytest.raises(ValueError):
        simulate(big, one, np.zeros(257), 1.0, 0.1)


def test_energy_never_increases_under_damping():
    rng = np.random.default_rng(7)
    for _ in range(5):
        n = 2 * int(rng.integers(1, 4))
        r = int(rng.integers(1, n + 1))
        sys = LinearSystem(random_skew(rng, n), rng.standard_normal((n, r)))
        gate = periodic_gate(1.0, 0.25, 12.0)
        z0 = rng.standard_normal(n)
        traj = simulate(sys, gate, z0, 10.0, 0.01)
        worst_rise = float(np.diff(traj.energies).max())
        assert worst_rise <= 1e-9 * max(1.0, traj.energies[0])


def test_energy_balance_constant_damping():
    sys = LinearSystem(rotation(np.pi), np.array([0.0, 1.0]))
    traj = simulate(sys, make_piecewise([], [], 1.0), [1.0, 0.0], 5.0, 1e-3)
    bal = energy_balance(traj)
    assert not bal.one_sided
    assert bal.residual <= 1e-5


def test_energy_balance_gate_damping():
    rng = np.random.default_rng(1)
    sys = LinearSystem(random_skew(rng, 6), rng.standard_normal((6, 2)))
    gate = periodic_gate(2.0, 0.5, 12.0)
    z0 = rng.standard_normal(6)
    traj = simulate(sys, gate, z0, 10.0, 1e-3)
    bal = energy_balance(traj)
    assert bal.residual <= 1e-5 * max(1.0, traj.energies[0])


@pytest.mark.parametrize("n_modes,dissipative", [(16, False), (32, False), (32, True)])
def test_output_norms_match_the_full_product_bit_for_bit(n_modes, dissipative):
    # N = 32 and 64 states, where OpenBLAS can round a product row by the
    # number of rows around it; simulate takes the norms from pieces of
    # states of many sizes, one row among them
    sys = string_system(n_modes, dissipative)
    gate = periodic_gate(2.0, 0.5, 12.0)
    z0 = np.random.default_rng(n_modes).standard_normal(sys.dim)
    traj = simulate(sys, gate, z0, 10.0, 1e-3)
    pieces = piece_rows(sys, gate, z0, traj.times, 1e-3)
    assert len(pieces) > 2 and min(len(rows) for rows in pieces) == 1
    states = propagate_alone(sys, gate, z0, traj.times, 1e-3)
    full = _row_norms_sq(states @ sys.B)
    assert np.array_equal(traj.output_sq, full)
    assert np.array_equal(traj.damping_rates, _levels(gate, traj.times) * full)
    assert energy_balance(traj) == energy_balance_from_states(traj, states)


def damped_string(n_modes, dissipative):
    """The string damped on (0.2, 0.6), whose B is dense, or the same with
    A - 0.3 I."""
    sys = build_wave(WaveModalSpec(n_modes, omega=(0.2, 0.6)))
    if dissipative:
        sys = LinearSystem(sys.A - 0.3 * np.eye(sys.dim), sys.B)
    return sys


@pytest.mark.parametrize("n_modes", [2, 16, 32])
@pytest.mark.parametrize("dissipative", [False, True], ids=["skew", "dissipative"])
def test_simulate_norms_match_the_collected_states_bit_for_bit(n_modes, dissipative):
    # N = 4, 32 and 64 states.  Every switch of the gate is a sample, and
    # its phase puts the switches off the output grid, so each of its 100
    # short cells is one run: a step from the switch, then grid points.
    # The lone row at t = 0 is a piece of its own
    sys = damped_string(n_modes, dissipative)
    gate = periodic_gate(0.2, 0.05, 12.0, 0.037)
    z0 = np.random.default_rng(n_modes).standard_normal(sys.dim)
    traj = simulate(sys, gate, z0, 10.0, 0.01)
    pieces = piece_rows(sys, gate, z0, traj.times, 0.01)
    # each run one piece of consecutive rows, the switch samples one piece
    edges = np.flatnonzero(np.isin(traj.times, gate.breakpoints))
    bounds = np.concatenate([[0], edges, [len(traj.times)]])
    runs = [list(range(a + 1, b)) for a, b in zip(bounds[:-1], bounds[1:])]
    assert sorted(rows.tolist() for rows in pieces) == sorted([[0], edges.tolist()] + runs)
    states = propagate_alone(sys, gate, z0, traj.times, 0.01)
    assert np.array_equal(traj.energies, 0.5 * _row_norms_sq(states))
    full = _row_norms_sq(states @ sys.B)
    assert np.array_equal(traj.output_sq, full)
    assert np.array_equal(traj.damping_rates, _levels(gate, traj.times) * full)


@pytest.mark.parametrize("dissipative", [False, True], ids=["skew", "dissipative"])
def test_simulate_is_bit_identical_on_two_blas_threads_and_under_the_cap(
        two_blas_threads, dissipative):
    # N = 64 states in runs of 1,500 rows, large enough for OpenBLAS to
    # split a product between two threads.  The CLI runs under the cap and
    # a library caller on its own thread count: both must get the same bits
    gate = periodic_gate(2.0, 0.25, 20.0)
    z0 = np.random.default_rng(3).standard_normal(64)
    two = simulate(damped_string(32, dissipative), gate, z0, 20.0, 1e-3)
    with _ONE_BLAS_THREAD:
        assert [get() for get, _ in two_blas_threads] == [1] * len(two_blas_threads)
        one = simulate(damped_string(32, dissipative), gate, z0, 20.0, 1e-3)
    assert np.array_equal(two.energies, one.energies)
    assert np.array_equal(two.output_sq, one.output_sq)


def test_simulate_holds_no_array_of_all_the_states():
    # 32 modes (N = 64) over 20,001 samples: all the states would take
    # 10.2 MB; the simulate path holds its per-sample plan and one run
    sys = string_system(32, False)
    gate = periodic_gate(2.0, 0.25, 20.0)
    z0 = np.random.default_rng(5).standard_normal(sys.dim)
    simulate(sys, gate, z0, 20.0, 1e-3)  # fills the step cache
    tracemalloc.start()
    try:
        traj = simulate(sys, gate, z0, 20.0, 1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    states_bytes = len(traj.times) * sys.dim * 8
    assert len(traj.times) == 20001
    assert peak < states_bytes / 2


def test_energy_conserved_without_damping():
    rng = np.random.default_rng(0)
    sys = LinearSystem(random_skew(rng, 6), np.zeros((6, 1)))
    z0 = rng.standard_normal(6)
    traj = simulate(sys, make_piecewise([], [], 1.0), z0, 100.0, 0.1)
    drift = float(np.abs(traj.energies - traj.energies[0]).max())
    assert drift <= 1e-12 * traj.energies[0]


def test_energy_balance_one_sided_for_dissipative_drift():
    A = np.array([[-0.3, 1.0], [-1.0, -0.3]])  # strictly dissipative, not skew
    sys = LinearSystem(A, np.array([0.0, 1.0]))
    traj = simulate(sys, make_piecewise([], [], 1.0), [1.0, 0.0], 4.0, 1e-2)
    bal = energy_balance(traj)
    assert bal.one_sided
    assert bal.residual <= 1e-9  # V + damping integral only ever undershoots


def test_undamped_propagation_skew_path_matches_expm():
    rng = np.random.default_rng(9)
    A = random_skew(rng, 5)
    sys = LinearSystem(A, np.zeros((5, 1)))
    z0 = rng.standard_normal(5)
    ts = np.linspace(0.0, 3.0, 7)
    out = propagate_alone(sys, make_piecewise([], [], 0.0), z0, ts)
    assert np.array_equal(out[0], z0)
    for t, z in zip(ts, out):
        want = scipy.linalg.expm(A * t) @ z0
        assert np.abs(z - want).max() < 1e-11


def test_flow_rejects_negative_time():
    # the undamped flow (level 0) refuses a negative time on a skew system too
    sys = LinearSystem(rotation(), np.zeros((2, 1)))
    zero = make_piecewise([], [], 0.0)
    for bad in ([0.5, -0.1], [-0.1, 0.5]):
        with pytest.raises(ValueError):
            propagate_alone(sys, zero, [1.0, 0.0], np.array(bad))


def test_undamped_propagation_ignores_damping():
    # at level 0 the step is e^{tA} whatever B is: the damping map never enters
    rng = np.random.default_rng(3)
    zero = make_piecewise([], [], 0.0)
    for A in (random_skew(rng, 4), random_skew(rng, 4) - 0.2 * np.eye(4)):
        sys = LinearSystem(A, rng.standard_normal((4, 2)))
        z0 = rng.standard_normal(4)
        ts = np.array([0.0, 0.5, 1.25, 2.0])
        for t, z in zip(ts, propagate_alone(sys, zero, z0, ts)):
            assert np.abs(z - scipy.linalg.expm(A * t) @ z0).max() < 1e-12


def test_kalman_index_cases():
    assert kalman_index(LinearSystem(rotation(), np.array([0.0, 1.0]))) == 1
    assert kalman_index(LinearSystem(rotation(), np.eye(2))) == 0
    # two rotation blocks reached through one shared input column
    A = np.zeros((4, 4))
    A[0, 1], A[1, 0] = 1.0, -1.0
    A[2, 3], A[3, 2] = 2.0, -2.0
    b = np.array([0.0, 1.0, 0.0, 1.0])
    assert kalman_index(LinearSystem(A, b)) == 3


def test_kalman_index_rejects_uncontrollable_pair():
    with pytest.raises(UncontrollableError):
        kalman_index(LinearSystem(np.zeros((2, 2)), np.array([1.0, 0.0])))
    # equal rotation speeds with one input column leave a dead direction
    A = np.zeros((4, 4))
    A[0, 1], A[1, 0] = 1.0, -1.0
    A[2, 3], A[3, 2] = 1.0, -1.0
    with pytest.raises(UncontrollableError):
        kalman_index(LinearSystem(A, np.array([0.0, 1.0, 0.0, 1.0])))


def test_gap_estimate_holds_on_random_draws():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = 2 * int(rng.integers(1, 5))
        r = int(rng.integers(1, 3))
        sys = LinearSystem(random_skew(rng, n), rng.standard_normal((n, r)))
        T = float(rng.uniform(0.5, 2.0))
        h = float(rng.uniform(0.1, 0.5)) * T / 2.0
        sig = periodic_gate(T, h, 12.0)
        z0 = rng.standard_normal(n)
        a = float(rng.uniform(0.0, 4.0))
        b = a + float(rng.uniform(0.5, 4.0))
        chk = gap_estimate_check(sys, sig, z0, a, b)
        assert chk.ok
        assert chk.margin >= 0.0
        assert chk.integral >= 0.0


def test_gap_estimate_validates_window():
    sys = LinearSystem(rotation(), np.array([0.0, 1.0]))
    one = make_piecewise([], [], 1.0)
    with pytest.raises(ValueError):
        gap_estimate_check(sys, one, [1.0, 0.0], 2.0, 1.0)
    with pytest.raises(ValueError):
        gap_estimate_check(sys, one, [1.0, 0.0], -0.5, 1.0)


def sequential_states(sys, sig, z0, times):
    """Reference: one expm step per piece between consecutive samples."""
    z = np.asarray(z0, dtype=float)
    out, t_prev = [], 0.0
    for t in times:
        for c0, c1, level in sig.cells_between(t_prev, float(t)):
            z = scipy.linalg.expm(sys.closed_loop(level) * (c1 - c0)) @ z
        out.append(z)
        t_prev = float(t)
    return np.array(out)


def cell_product_states(sys, sig, z0, times):
    """Reference: for each time, the product of per-cell expm from 0."""
    out = []
    for t in times:
        z = np.asarray(z0, dtype=float)
        for c0, c1, level in sig.cells_between(0.0, float(t)):
            z = scipy.linalg.expm(sys.closed_loop(level) * (c1 - c0)) @ z
        out.append(z)
    return np.array(out)


def assert_rows_close(got, want, rel=1e-12):
    err = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
    assert got.shape == want.shape
    assert err.max() <= rel, err.max()


def test_propagation_damped_non_skew_drift():
    rng = np.random.default_rng(21)
    A = random_skew(rng, 6) - 0.3 * np.eye(6)
    sys = LinearSystem(A, rng.standard_normal((6, 2)))
    assert not sys.skew_flag
    sig = make_piecewise([0.35, 1.1, 1.9], [1.0, 0.0, 0.6], 0.25)
    z0 = rng.standard_normal(6)
    times = np.arange(0, 61) * 0.05
    got = propagate_alone(sys, sig, z0, times, 0.05)
    assert_rows_close(got, cell_product_states(sys, sig, z0, times))


def test_propagation_samples_on_breakpoints():
    rng = np.random.default_rng(22)
    sys = LinearSystem(random_skew(rng, 4), rng.standard_normal((4, 2)))
    sig = make_piecewise([0.5, 1.25, 2.0], [1.0, 0.0, 0.5], 1.0)
    z0 = rng.standard_normal(4)
    times = np.arange(0, 13) * 0.25  # 0.5, 1.25 and 2.0 are samples
    got = propagate_alone(sys, sig, z0, times, 0.25)
    assert_rows_close(got, cell_product_states(sys, sig, z0, times))


def test_propagation_cell_with_one_sample():
    rng = np.random.default_rng(23)
    sys = LinearSystem(random_skew(rng, 4), rng.standard_normal((4, 1)))
    # the cell [0.95, 1.05) holds the single sample 1.0
    sig = make_piecewise([0.95, 1.05, 2.02], [0.0, 1.0, 0.0], 0.7)
    z0 = rng.standard_normal(4)
    times = np.arange(0, 31) * 0.1
    got = propagate_alone(sys, sig, z0, times, 0.1)
    assert_rows_close(got, cell_product_states(sys, sig, z0, times))


def test_propagation_many_tiny_cells():
    rng = np.random.default_rng(24)
    sys = LinearSystem(random_skew(rng, 4), rng.standard_normal((4, 2)))
    breaks = np.sort(np.concatenate([np.arange(1, 400) * 0.005,
                                     np.arange(1, 20) * 0.1 + 1e-9]))
    levels = rng.choice([0.0, 0.5, 1.0], size=len(breaks))
    sig = make_piecewise(breaks.tolist(), levels.tolist(), 0.0)
    z0 = rng.standard_normal(4)
    times = np.arange(0, 160) * 0.013
    got = propagate_alone(sys, sig, z0, times, 0.013)
    assert_rows_close(got, sequential_states(sys, sig, z0, times))


def test_propagation_times_not_starting_at_zero():
    rng = np.random.default_rng(25)
    sys = LinearSystem(random_skew(rng, 4), rng.standard_normal((4, 2)))
    sig = make_piecewise([0.7, 1.3, 2.0], [1.0, 0.0, 0.5], 0.25)
    z0 = rng.standard_normal(4)
    times = np.concatenate([[0.3, 0.31, 1.0], 1.5 + np.arange(40) * 0.03])
    got = propagate_alone(sys, sig, z0, times)
    assert_rows_close(got, cell_product_states(sys, sig, z0, times))


def test_propagation_long_uniform_run():
    rng = np.random.default_rng(26)
    sys = LinearSystem(random_skew(rng, 6), rng.standard_normal((6, 2)))
    one = make_piecewise([], [], 1.0)
    z0 = rng.standard_normal(6)
    times = np.arange(0, 5001) * 1e-3  # one cell, 5000 samples after t = 0
    got = propagate_alone(sys, one, z0, times, 1e-3)
    pick = np.r_[np.arange(0, 5001, 97), 4095, 4096, 5000]
    want = np.array([scipy.linalg.expm(sys.closed_loop(1.0) * times[k]) @ z0
                     for k in pick])
    assert_rows_close(got[pick], want)


def test_propagation_drifting_spacing_steps_singly():
    rng = np.random.default_rng(28)
    sys = LinearSystem(3.0 * random_skew(rng, 4), rng.standard_normal((4, 2)))
    one = make_piecewise([], [], 1.0)
    # consecutive gaps nearly agree, yet the spacing drifts by 2.8e-13: a
    # plain time list, so each sample steps from the one before
    times = np.cumsum(0.01 + np.arange(400) * 7e-16)
    z0 = rng.standard_normal(4)
    got = propagate_alone(sys, one, z0, times)
    assert_rows_close(got, sequential_states(sys, one, z0, times))


def test_undamped_fill_keeps_energy_to_rounding():
    # 9500 samples in one undamped cell: each row is a product of about
    # log2(9500) orthogonal steps, so the energy holds to a few eps
    rng = np.random.default_rng(29)
    sys = LinearSystem(3.0 * random_skew(rng, 8), rng.standard_normal((8, 2)))
    sig = make_piecewise([0.25, 9.75], [1.0, 0.0], 1.0)
    traj = simulate(sys, sig, rng.standard_normal(8), 10.0, 1e-3)
    V = traj.energies[(traj.times >= 0.25) & (traj.times <= 9.75)]
    assert np.abs(V - V[0]).max() <= 1e-13 * V[0]


def test_propagation_close_spacings_stay_apart():
    # two cells at one level, the first on the grid of 0.01, the second
    # sampled 3e-7 apart from it in spacing: its samples are off the grid
    # and must not take the grid step
    rng = np.random.default_rng(30)
    sys = LinearSystem(random_skew(rng, 4), rng.standard_normal((4, 2)))
    sig = make_piecewise([1.0], [1.0], 1.0)
    z0 = rng.standard_normal(4)
    k = np.arange(1, 100)
    times = np.concatenate([0.01 * k, 1.0 + 0.0100003 * k])
    got = propagate_alone(sys, sig, z0, times, 0.01)
    assert_rows_close(got, cell_product_states(sys, sig, z0, times))


def test_propagation_rejects_unordered_times():
    sys = LinearSystem(rotation(), np.array([0.0, 1.0]))
    one = make_piecewise([], [], 1.0)
    for bad in ([0.5, 0.5], [1.0, 0.5], [-0.1, 0.5], []):
        with pytest.raises(ValueError):
            propagate_alone(sys, one, [1.0, 0.0], np.array(bad))


def loop_sample_grid(sig, horizon, dt_out):
    """The sample grid built point by point, as the reference: a grid point
    within the tolerance of a breakpoint gives way to it (t = 0 stays), the
    horizon to the last grid point, and a grid point past the horizon to
    the horizon."""
    tol = 1e-12 * max(1.0, horizon)
    n = int(np.floor(horizon / dt_out + 1e-9))
    pts = [k * dt_out for k in range(n + 1) if k * dt_out <= horizon]
    if horizon - pts[-1] > tol:
        pts.append(horizon)
    inside = [b for b in sig.breakpoints if 0.0 < b < horizon]

    def near_a_breakpoint(p):
        i = bisect.bisect_left(inside, p)
        return any(abs(p - b) <= tol for b in inside[max(i - 1, 0):i + 1])

    keep = [p for p in pts if p == 0.0 or not near_a_breakpoint(p)]
    return np.asarray(sorted(set(keep) | set(inside)))


def test_sample_grid_matches_pointwise_loop():
    rng = np.random.default_rng(27)
    cases = [(periodic_gate(2.0, 0.25, 160.0), 150.0, 1e-3),
             (periodic_gate(1.0, 0.3, 12.0), 10.0, 0.01),
             (make_piecewise([0.7, 1.3, 2.0], [1.0, 0.0, 0.5], 0.25), 3.0, 0.5),
             (make_piecewise([0.1 + 1e-13, 0.3], [1.0, 0.0], 1.0), 1.05, 0.1)]
    for _ in range(5):
        breaks = np.sort(rng.uniform(0.0, 9.0, size=30))
        sig = make_piecewise(breaks.tolist(), [1.0, 0.0] * 15, 0.5)
        cases.append((sig, float(rng.uniform(2.0, 10.0)), float(rng.uniform(1e-3, 0.3))))
    for sig, horizon, dt_out in cases:
        got = _sample_grid(sig, horizon, dt_out)
        want = loop_sample_grid(sig, horizon, dt_out)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_sample_grid_keeps_every_breakpoint():
    # a grid point an ulp below a breakpoint (3 * 0.3 = 0.8999999999999999
    # below 0.9) gives way to it, so no sample interval straddles a switch
    sig = make_piecewise([0.9, 2.0], [0.0, 1.0], 0.0)
    grid = _sample_grid(sig, 3.0, 0.3)
    assert 0.9 in grid and 3 * 0.3 not in grid
    traj = simulate(string_system(2, False), sig, np.ones(4), 3.0, 0.3)
    assert np.array_equal(traj.times, grid)
    rng = np.random.default_rng(31)
    for dt_out in (0.3, 0.1, 0.7, 1 / 3, 2.3 / 64, 0.013):
        horizon = 200 * dt_out
        k = rng.integers(1, 200, size=40)
        # breakpoints on grid points, a few ulps either side, and off grid
        near = k * dt_out + rng.integers(-3, 4, size=40) * np.spacing(k * dt_out)
        breaks = np.unique(np.concatenate([near, rng.uniform(0.0, horizon, size=20)]))
        sig = make_piecewise(breaks.tolist(), [1.0, 0.0] * (len(breaks) // 2)
                             + [1.0] * (len(breaks) % 2), 0.5)
        grid = _sample_grid(sig, horizon, dt_out)
        inside = breaks[(breaks > 0.0) & (breaks < horizon)]
        assert np.isin(inside, grid).all()
        assert grid[0] == 0.0 and np.all(np.diff(grid) > 0.0)
        assert np.array_equal(grid, loop_sample_grid(sig, horizon, dt_out))


def test_sample_grid_ends_at_the_horizon():
    # horizon / dt_out lies within 1e-9 below an integer, so the last grid
    # point rounds past the horizon; it gives way to the horizon
    one = make_piecewise([], [], 1.0)
    for horizon, dt_out in ((3.0 - 1e-12, 0.3), (1.0 - 1e-13, 0.1), (150.0 - 1e-13, 1e-3),
                            (3.0, 0.3), (2.9, 0.3)):
        grid = _sample_grid(one, horizon, dt_out)
        assert grid[-1] == horizon
        assert np.all(np.diff(grid) > 0.0)
        assert np.array_equal(grid, loop_sample_grid(one, horizon, dt_out))
    traj = simulate(string_system(2, False), one, np.ones(4), 3.0 - 1e-12, 0.3)
    assert traj.times[-1] == 3.0 - 1e-12 and len(traj.times) == 11


@settings(max_examples=100, deadline=None)
@given(st.floats(1e-3, 1.0), st.integers(1, 200_000),
       st.lists(st.tuples(st.integers(1, 200_000), st.integers(-3, 3)), max_size=20),
       st.lists(st.floats(0.0, 1.0), max_size=10))
def test_sample_grid_points_carry_consecutive_grid_indices(dt_out, steps, near, anywhere):
    # breakpoints on grid points, a few ulps either side, and anywhere
    horizon = steps * dt_out
    k = np.array([j for j, _ in near], dtype=float)
    on = k * dt_out + np.array([u for _, u in near]) * np.spacing(k * dt_out)
    breaks = np.unique(np.concatenate([on, np.array(anywhere) * horizon]))
    breaks = breaks[breaks > 0.0]
    sig = make_piecewise(breaks.tolist(), [1.0, 0.0] * (len(breaks) // 2)
                         + [1.0] * (len(breaks) % 2), 0.5)
    grid = _sample_grid(sig, horizon, dt_out)
    index = np.rint(grid / dt_out)
    free = ~np.isin(grid, breaks) & (grid != horizon)
    assert np.array_equal(index[free] * dt_out, grid[free])
    # two such samples side by side lie in one cell
    side_by_side = free[1:] & free[:-1]
    assert (np.diff(index)[side_by_side] == 1.0).all()


def test_levels_match_pointwise_lookup():
    sig = periodic_gate(1.0, 0.3, 12.0).shifted(0.37)
    times = _sample_grid(sig, 15.0, 0.01)
    assert np.array_equal(_levels(sig, times),
                          np.array([sig.value_at(t) for t in times]))


def run_by_run_states(sys, sig, z0, times, dt_out=None):
    """Reference for _propagate: the same cell-edge chain, with each cell
    filled on its own, cell after cell, run by run, into one array.  A
    sample steps alone from the cell start or the sample before it; the
    grid points that follow it in the cell, each one index after the last,
    are filled by doubling with the steps over 2^j dt_out.  A plain time
    list (dt_out None) steps sample by sample."""
    times = np.asarray(times, dtype=float)
    z = np.asarray(z0, dtype=float).reshape(sys.dim)
    n = len(times)
    out = np.empty((n, sys.dim))
    cells = list(sig.cells_between(0.0, float(times[-1])))
    starts = np.array([c0 for c0, _, _ in cells])
    begin = np.searchsorted(times, starts, side="right")
    end = np.append(np.searchsorted(times, starts[1:], side="left"), n)
    index = np.full(n, np.nan)
    if dt_out is not None:
        on = np.rint(times / dt_out) * dt_out == times
        index[on] = np.rint(times[on] / dt_out)
    if times[0] == 0.0:
        out[0] = z
    for (c0, c1, level), b, e in zip(cells, begin.tolist(), end.tolist()):
        k = b
        while k < e:
            np.matmul(_step_matrix(sys, level, times[k] - (c0 if k == b else times[k - 1])),
                      z if k == b else out[k - 1], out=out[k])
            m = 0
            while k + m + 1 < e and index[k + m + 1] == index[k + m] + 1:
                m += 1
            rows = out[k + 1:k + 1 + m]
            if m:
                np.matmul(_step_matrix(sys, level, dt_out), out[k], out=rows[0])
            r = 1
            while r < m:
                c = min(r, m - r)
                np.matmul(rows[:c], _step_matrix(sys, level, dt_out * r).T, out=rows[r:r + c])
                r *= 2
            k += 1 + m
        if e == n:
            break
        z = _step_matrix(sys, level, c1 - c0) @ z
        if times[e] == c1:
            out[e] = z
    return out


def string_system(n_modes, dissipative):
    """The uniformly damped string (skew A), or the same with A - 0.3 I."""
    sys = build_wave(WaveModalSpec(n_modes, uniform=1.0))
    if dissipative:
        sys = LinearSystem(sys.A - 0.3 * np.eye(sys.dim), sys.B)
        assert not sys.skew_flag
    return sys


def assert_fill_is_run_by_run(sys, sig, z0, times, dt_out=None):
    want = run_by_run_states(sys, sig, z0, times, dt_out)
    got = propagate_alone(sys, sig, z0, times, dt_out)
    assert np.array_equal(got, want)


FILLS = pytest.mark.parametrize("dissipative", [False, True], ids=["skew", "dissipative"])


@FILLS
def test_fill_matches_run_by_run_on_verify_gates(dissipative):
    # gates drawn as verify_certificate draws them: T 2, width in [1, 2],
    # random phase, sampled 2/64 apart over 100 on the 8-state string
    sys = string_system(4, dissipative)
    family = GateSignalFamily(T=2.0, mu=1.0, horizon=100.0, seed=11)
    rng = np.random.default_rng(40)
    for i in range(5):
        sig = family.draw(i)
        times = _sample_grid(sig, family.horizon, 2.0 / 64)
        assert_fill_is_run_by_run(sys, sig, rng.standard_normal(8), times, 2.0 / 64)


@FILLS
def test_fill_matches_run_by_run_on_irregular_times(dissipative):
    sys = string_system(4, dissipative)
    rng = np.random.default_rng(41)
    breaks = np.sort(rng.uniform(0.0, 10.0, size=30))
    sig = make_piecewise(breaks.tolist(), rng.choice([0.0, 0.5, 1.0], size=30).tolist(), 0.3)
    times = np.sort(rng.uniform(0.0, 12.0, size=400))
    assert_fill_is_run_by_run(sys, sig, rng.standard_normal(8), times)
    # the same times starting at 0, and runs of grid points between them
    times = np.unique(np.concatenate([[0.0], times, np.arange(1, 600) * 0.02]))
    assert_fill_is_run_by_run(sys, sig, rng.standard_normal(8), times, 0.02)


@FILLS
def test_fill_matches_run_by_run_with_samples_on_cell_edges(dissipative):
    sys = string_system(4, dissipative)
    rng = np.random.default_rng(42)
    sig = periodic_gate(1.0, 0.25, 20.0).shifted(0.25)
    grid = np.arange(0, 1201) * 0.0125  # every breakpoint is a sample
    assert np.isin(sig.breakpoints, grid).any()
    for times in (grid, grid[1:], grid[7:]):  # from t = 0, then later
        assert_fill_is_run_by_run(sys, sig, rng.standard_normal(8), times, 0.0125)


@FILLS
def test_fill_matches_run_by_run_when_gaps_drift(dissipative):
    # consecutive gaps nearly agree, yet drift: a plain time list, so each
    # cell steps singly
    sys = string_system(4, dissipative)
    sig = make_piecewise([1.3, 2.6, 3.1], [1.0, 0.0, 0.5], 1.0)
    times = np.cumsum(0.01 + np.arange(400) * 7e-16)
    rng = np.random.default_rng(43)
    assert_fill_is_run_by_run(sys, sig, rng.standard_normal(8), times)


@FILLS
def test_lone_step_is_the_step_matrix_of_its_own_length(dissipative):
    # gaps a few ulps apart: each sample is the exponential over its own
    # gap times the sample before it, not a correction of an earlier step
    sys = string_system(4, dissipative)
    sig = make_piecewise([1.3, 2.6, 3.1], [1.0, 0.0, 0.5], 1.0)
    times = np.cumsum(0.01 + np.arange(400) * 7e-16)
    states = propagate_alone(sys, sig, np.random.default_rng(43).standard_normal(8), times)
    checked = 0
    for c0, c1, level in sig.cells_between(0.0, float(times[-1])):
        for k in np.flatnonzero((times[:-1] > c0) & (times[1:] < c1)) + 1:
            P = _step_matrix(sys, level, times[k] - times[k - 1])
            assert np.array_equal(states[k], P @ states[k - 1])
            checked += 1
    assert checked > 350


def distinct_expm_calls(monkeypatch, run):
    """Run ``run()``; the number of expm calls and of distinct matrices
    they were given."""
    calls = []
    expm = scipy.linalg.expm

    def counting(M):
        calls.append(M.tobytes())
        return expm(M)

    monkeypatch.setattr(scipy.linalg, "expm", counting)
    run()
    return len(calls), len(set(calls))


@FILLS
def test_each_step_is_made_once_per_call(monkeypatch, dissipative):
    # grid runs of up to 1000 samples double up to the step over 512 dt_out
    sys = string_system(4, dissipative)
    sig = periodic_gate(2.0, 0.5, 20.0, 0.37)
    calls, distinct = distinct_expm_calls(
        monkeypatch, lambda: simulate(sys, sig, np.ones(sys.dim), 20.0, 1e-3))
    assert calls == distinct > 10
    # a batch of trials of different step counts: the constant trial 0 and
    # two gates, which share their grid steps
    family = GateSignalFamily(T=2.0, mu=1.0, horizon=20.0, seed=11)
    trials = [_trial_windows(family.draw(i), 2.0, 2.0) for i in range(3)]
    assert len({len(keys) for _, keys, _, _ in trials}) > 1
    calls, distinct = distinct_expm_calls(monkeypatch, lambda: _window_contractions(sys, trials))
    assert calls == distinct > 2


@FILLS
def test_fill_matches_run_by_run_on_long_cells(dissipative):
    # seven damped cells of 2000 samples each, so long runs of doublings
    sys = string_system(4, dissipative)
    sig = periodic_gate(20.0, 5.0, 160.0)
    times = _sample_grid(sig, 150.0, 5e-3)
    rng = np.random.default_rng(44)
    assert_fill_is_run_by_run(sys, sig, rng.standard_normal(8), times, 5e-3)


def test_fill_matches_run_by_run_on_wide_states():
    # from 32 states on, OpenBLAS may round a row by the rows around it in
    # a product; each run is filled alone, so its products are the
    # reference's
    sys = string_system(16, False)
    family = GateSignalFamily(T=2.0, mu=1.0, horizon=20.0, seed=11)
    rng = np.random.default_rng(45)
    for i in range(1, 4):
        sig = family.draw(i)
        times = _sample_grid(sig, family.horizon, 2.0 / 64)
        z0 = rng.standard_normal(sys.dim)
        assert_fill_is_run_by_run(sys, sig, z0, times, 2.0 / 64)


@FILLS
def test_gridded_simulate_at_a_non_dyadic_spacing_matches_expm_from_each_cell_start(
        dissipative):
    # 150,001 samples 1e-3 apart, whose grid runs step over 1e-3 exactly;
    # every breakpoint is a sample, so each cell's start state is one
    sys = string_system(4, dissipative)
    sig = periodic_gate(2.0, 0.5, 160.0, 0.37)
    z0 = np.random.default_rng(53).standard_normal(sys.dim)
    traj = simulate(sys, sig, z0, 150.0, 1e-3)
    t = traj.times
    states = propagate_alone(sys, sig, z0, t, 1e-3)
    assert len(t) > 150_000
    assert np.array_equal(traj.energies, 0.5 * _row_norms_sq(states))
    rng = np.random.default_rng(54)
    for c0, c1, level in sig.cells_between(0.0, 150.0):
        first, stop = np.searchsorted(t, [c0, c1])
        assert t[first] == c0
        # the cell's last sample, the deepest in its run, and one inside
        pick = [stop - 1, int(rng.integers(first + 1, stop))]
        G = sys.closed_loop(level)
        want = np.array([scipy.linalg.expm(G * (t[k] - c0)) @ states[first] for k in pick])
        assert_rows_close(states[pick], want)


def test_step_matrix_is_an_owned_read_only_expm():
    sys = string_system(2, False)
    for level in (0.0, 1.0):  # the eigendecomposition path and expm
        P = _step_matrix(sys, level, 0.1)
        assert not P.flags.writeable
        assert P.base is None and P.flags.c_contiguous
        want = scipy.linalg.expm(sys.closed_loop(level) * 0.1)
        assert np.abs(P - want).max() <= 1e-13


@FILLS
def test_system_keeps_no_steps_between_calls(monkeypatch, dissipative):
    # a second identical simulate makes its steps again, and the system
    # holds its matrices, flags, caveats and, once used, its eigenbasis
    sys = string_system(4, dissipative)
    sig = periodic_gate(2.0, 0.5, 20.0, 0.37)
    first, _ = distinct_expm_calls(
        monkeypatch, lambda: simulate(sys, sig, np.ones(sys.dim), 20.0, 1e-3))
    second, _ = distinct_expm_calls(
        monkeypatch, lambda: simulate(sys, sig, np.ones(sys.dim), 20.0, 1e-3))
    assert first == second > 10
    held = {"A", "B", "b_norm", "skew_flag", "caveats"}
    assert set(vars(sys)) == (held if dissipative else held | {"_skew_eig_cache"})


def run_threads(target, args_per_thread):
    """Run one thread per argument tuple with a short switch interval, so
    the threads interleave often; every thread must finish in time."""
    interval = getswitchinterval()
    setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=target, args=args) for args in args_per_thread]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)


def test_threads_propagating_on_one_system_match_a_serial_run():
    family = GateSignalFamily(T=2.0, mu=1.0, horizon=40.0, seed=3)
    draws = [(family.draw(i), np.random.default_rng(i).standard_normal(8))
             for i in range(8)]

    def propagate_all(sys, picks, results):
        for i in picks:
            sig, z0 = draws[i]
            results[i] = propagate_alone(sys, sig, z0, _sample_grid(sig, 40.0, 2.0 / 64),
                                         2.0 / 64)

    serial = {}
    propagate_all(string_system(4, False), range(8), serial)
    shared, threaded = string_system(4, False), {}
    run_threads(propagate_all, [(shared, range(k, 8, 4), threaded) for k in range(4)])
    assert sorted(threaded) == list(range(8))
    for i in range(8):
        assert np.array_equal(threaded[i], serial[i])

