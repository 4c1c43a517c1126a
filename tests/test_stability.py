import math
from dataclasses import dataclass

import numpy as np
import pytest

from oracles import window_contractions_expm
from pexstab import stability
from pexstab.cli import _jsonable
from pexstab.linsys import DIM_LIMIT, LinearSystem, simulate
from pexstab.modal import (
    SchrodingerModalSpec,
    TRUNCATION_CAVEAT,
    WaveModalSpec,
    build_schrodinger,
    build_wave,
)
from pexstab.observability import (
    OuterSearch,
    SignalClass,
    class_constant,
    observability_gramian,
    wave_pe_lower_bound,
)
from pexstab.signals import (
    IntervalSequence,
    Signal,
    from_intervals,
    make_piecewise,
    pe_check,
    periodic_gate,
)
from pexstab.stability import (
    CertificateViolation,
    GateSignalFamily,
    certificate_from_constant,
    interval_product_bound,
    rho_class_criterion,
    verify_certificate,
)


@dataclass(frozen=True)
class FamilyWithAdversary(GateSignalFamily):
    """The gate family with ``adversary`` served as draw 1."""

    adversary: Signal = None

    def draw(self, i):
        return self.adversary if i == 1 else super().draw(i)


def test_certificate_arithmetic():
    cert = certificate_from_constant(1.0, 1.0, 1.0)
    assert cert.q == 0.5
    assert cert.M == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert cert.gamma == pytest.approx(math.log(2.0) / 2.0, rel=1e-15)
    assert "M = q^(-1/2)" in cert.derivation
    env = cert.envelope([0.0, 2.0])
    assert env[0] == pytest.approx(cert.M)
    assert env[1] == pytest.approx(cert.M * math.exp(-2.0 * cert.gamma))


def test_certificate_refuses_impossible_constants():
    with pytest.raises(ValueError):
        certificate_from_constant(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        certificate_from_constant(-0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        certificate_from_constant(2.0, 1.0, 1.0)  # reaches 1 + theta^2 b^4
    with pytest.raises(ValueError):
        certificate_from_constant(0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        certificate_from_constant(0.5, 1.0, -1.0)


def test_family_draws_are_persistently_exciting():
    fam = GateSignalFamily(T=2.0, mu=0.5, horizon=30.0, seed=3)
    first = fam.draw(0)
    assert first.breakpoints == () and first.tail_value == 1.0
    for i in range(6):
        rep = pe_check(fam.draw(i), 2.0, 0.5, 30.0)
        assert rep.holds


def test_family_refuses_mu_above_T_and_short_horizons():
    with pytest.raises(ValueError):
        GateSignalFamily(T=2.0, mu=2.5, horizon=30.0)
    with pytest.raises(ValueError):
        GateSignalFamily(T=2.0, mu=0.5, horizon=1.0)


def test_verify_accepts_a_true_bound():
    sys = build_wave(WaveModalSpec(n_modes=1, uniform=1.0))
    c = wave_pe_lower_bound(2.0, 1.0, np.pi ** 2)
    cert = certificate_from_constant(c, 2.0, sys.b_norm)
    fam = GateSignalFamily(T=2.0, mu=1.0, horizon=20.0, seed=1)
    rep = verify_certificate(sys, cert, fam, n_trials=5)
    assert rep.ok
    assert rep.worst_ratio <= 1.0 + rep.slack
    assert _jsonable(rep)["certificate"]["q"] == cert.q


def string_system(n_modes, dissipative):
    """The uniformly damped string (skew A), or the same with A - 0.3 I."""
    sys = build_wave(WaveModalSpec(n_modes=n_modes, uniform=1.0))
    if dissipative:
        sys = LinearSystem(sys.A - 0.3 * np.eye(sys.dim), sys.B)
    return sys


WINDOWS = pytest.mark.parametrize("dissipative", [False, True], ids=["skew", "dissipative"])


def window_batch(sys, sigs, T, theta):
    """_window_contractions of one batch of the gates ``sigs``."""
    return stability._window_contractions(
        sys, [stability._trial_windows(sig, T, theta) for sig in sigs])


@WINDOWS
@pytest.mark.parametrize("theta", [2.0, 2.3, 0.7])
def test_window_contractions_match_per_cell_expm_products(theta, dissipative):
    # gates as verify_certificate draws them, in one batch: the constant
    # trial 0 has fewer steps than the gates; theta 2.3 puts the grid off
    # the gate period, theta 0.7 makes windows shorter than it
    sys = string_system(4, dissipative)
    fam = GateSignalFamily(T=2.0, mu=1.0, horizon=10.0, seed=5)
    dt = theta / stability.SAMPLES_PER_THETA
    sigs = [fam.draw(i) for i in range(6)]
    assert len({len(stability._trial_windows(sig, fam.T, theta)[1]) for sig in sigs}) > 1
    trial, all_starts, all_got = window_batch(sys, sigs, fam.T, theta)
    assert np.array_equal(trial, np.sort(trial)) and set(trial) == set(range(6))
    for i, sig in enumerate(sigs):
        starts, got = all_starts[trial == i], all_got[trial == i]
        grid = np.arange(int(fam.T / dt) + 1) * dt
        edges = [b for b in sig.breakpoints if b < fam.T]
        assert np.array_equal(starts, np.union1d(grid[grid < fam.T], edges))
        want = window_contractions_expm(sys, sig, [(s, s + theta) for s in starts])
        assert np.abs(got - want).max() <= 1e-12 * want.max()
        assert (got < 1.0).all()


@pytest.mark.parametrize("theta", [2.0, 2.3])
@WINDOWS
def test_verification_matches_the_window_reference(theta, dissipative):
    sys = string_system(4, dissipative)
    cert = certificate_from_constant(wave_pe_lower_bound(2.0, 1.0, np.pi ** 2), theta,
                                     sys.b_norm)
    fam = GateSignalFamily(T=2.0, mu=1.0, horizon=20.0, seed=5)
    rep = verify_certificate(sys, cert, fam, n_trials=8)
    reference = []
    for i in range(8):
        sig = fam.draw(i)
        starts = stability._trial_windows(sig, fam.T, theta)[0]
        reference.append((starts, window_contractions_expm(
            sys, sig, [(s, s + theta) for s in starts])))
    value = max(want.max() for _, want in reference)
    assert abs(rep.worst_window_contraction - value) <= 1e-12 * value
    assert rep.worst_window_contraction <= cert.q
    # windows can tie to rounding: the reported one is a worst one
    starts, want = reference[rep.worst_window_trial]
    assert abs(want[starts == rep.worst_window_start][0] - value) <= 1e-12 * value
    # the two simulated trajectories: trial 0 and the worst window's trial
    assert rep.worst_trial in (0, rep.worst_window_trial)


@dataclass(frozen=True)
class RepeatingFamily(GateSignalFamily):
    """The gate family with every draw i >= 1 the gate of draw 1."""

    def draw(self, i):
        return super().draw(min(i, 1))


def batch_sizes(monkeypatch):
    """The number of trials of each _window_contractions call, as they come."""
    sizes = []
    window_contractions = stability._window_contractions

    def counting(sys, trials):
        sizes.append(len(trials))
        return window_contractions(sys, trials)

    monkeypatch.setattr(stability, "_window_contractions", counting)
    return sizes


def verify_with_budget(monkeypatch, budget, sys, cert, fam, n_trials):
    """verify_certificate with WINDOW_BATCH_VALUES = ``budget``; the report
    and the trial counts of its batches."""
    monkeypatch.setattr(stability, "WINDOW_BATCH_VALUES", budget)
    sizes = batch_sizes(monkeypatch)
    rep = verify_certificate(sys, cert, fam, n_trials=n_trials)
    monkeypatch.undo()
    return rep, sizes


@WINDOWS
def test_verification_does_not_depend_on_the_batches(monkeypatch, dissipative):
    # one trial a batch, the default (three trials of 8 states), all trials
    sys = string_system(4, dissipative)
    cert = certificate_from_constant(wave_pe_lower_bound(2.0, 1.0, np.pi ** 2), 2.3,
                                     sys.b_norm)
    fam = GateSignalFamily(T=2.0, mu=1.0, horizon=20.0, seed=5)
    one, sizes = verify_with_budget(monkeypatch, 0, sys, cert, fam, 8)
    assert sizes == [1] * 8
    default, sizes = verify_with_budget(monkeypatch, stability.WINDOW_BATCH_VALUES, sys,
                                        cert, fam, 8)
    assert sizes == [3, 3, 2]
    every, sizes = verify_with_budget(monkeypatch, 2 ** 40, sys, cert, fam, 8)
    assert sizes == [8]
    assert one == default == every


@pytest.mark.parametrize("budget", [0, 2 ** 40])
def test_earliest_trial_wins_a_tie_across_batches(monkeypatch, budget):
    # draws 1 to 6 are one gate, whose windows are worse than the constant
    # signal's: its bits are the same in every batch, so trial 1 is reported
    sys = string_system(4, False)
    cert = certificate_from_constant(wave_pe_lower_bound(2.0, 1.0, np.pi ** 2), 2.0,
                                     sys.b_norm)
    fam = RepeatingFamily(T=2.0, mu=1.0, horizon=20.0, seed=5)
    rep, sizes = verify_with_budget(monkeypatch, budget, sys, cert, fam, 7)
    assert len(sizes) == (7 if budget == 0 else 1)
    assert rep.worst_window_trial == 1
    trial, _, got = window_batch(sys, [fam.draw(i) for i in range(7)], fam.T, 2.0)
    assert got.max() > got[trial == 0].max()


@pytest.mark.parametrize("bad_trial", [1, 4])
def test_non_finite_windows_name_their_trial_inside_a_batch(monkeypatch, bad_trial):
    # a step of this trial's alone is nan; the default budget puts trials
    # 0-2 and 3-5 in one batch each, so the trial sits inside its batch
    sys = string_system(4, False)
    cert = certificate_from_constant(0.05, 2.0, sys.b_norm)
    fam = GateSignalFamily(T=2.0, mu=1.0, horizon=20.0, seed=5)
    keys = [set(stability._trial_windows(fam.draw(i), fam.T, 2.0)[1]) for i in range(6)]
    bad = min(keys[bad_trial].difference(*(k for i, k in enumerate(keys) if i != bad_trial)))
    step_matrix = stability._step_matrix

    def nan_step(sys, level, h):
        P = step_matrix(sys, level, h)
        return np.full_like(P, np.nan) if (level, h) == bad else P

    monkeypatch.setattr(stability, "_step_matrix", nan_step)
    sizes = batch_sizes(monkeypatch)
    with pytest.raises(RuntimeError, match="window propagators of trial %d are not finite"
                       % bad_trial):
        verify_certificate(sys, cert, fam, n_trials=6)
    assert sizes == [3] * (bad_trial // 3 + 1)


def test_verification_refuses_a_horizon_below_theta():
    sys = string_system(1, False)
    cert = certificate_from_constant(0.05, 4.0, sys.b_norm)
    fam = GateSignalFamily(T=2.0, mu=1.0, horizon=3.0, seed=1)
    with pytest.raises(ValueError, match="shorter than theta"):
        verify_certificate(sys, cert, fam, n_trials=2)


def test_family_builds_each_gate_once(monkeypatch):
    fam = GateSignalFamily(T=2.0, mu=1.0, horizon=20.0, seed=3)
    want = []
    for i in range(1, 6):
        rng = np.random.default_rng((fam.seed, i))
        width, phase = rng.uniform(fam.mu, min(fam.T, 2.0 * fam.mu)), rng.uniform(0.0, fam.T)
        want.append(periodic_gate(fam.T, width / 2.0, fam.horizon + 2.0 * fam.T).shifted(phase))

    def no_shift(self, t0):
        raise AssertionError("built the gate twice")

    monkeypatch.setattr(Signal, "shifted", no_shift)
    for i, sig in enumerate(want, start=1):
        got = fam.draw(i)
        assert (got._den, got._nbreaks, got._nvalues, got._ntail) \
            == (sig._den, sig._nbreaks, sig._nvalues, sig._ntail)


def test_verification_refuses_a_system_above_the_dimension_limit(monkeypatch):
    def no_propagation(*args):
        raise AssertionError("propagated before refusing the system")

    monkeypatch.setattr(stability, "_propagate", no_propagation)
    big = LinearSystem(np.zeros((DIM_LIMIT + 2, DIM_LIMIT + 2)), np.ones(DIM_LIMIT + 2))
    cert = certificate_from_constant(0.05, 2.0, big.b_norm)
    fam = GateSignalFamily(T=2.0, mu=1.0, horizon=20.0, seed=1)
    with pytest.raises(ValueError, match="dense-solver limit"):
        verify_certificate(big, cert, fam, n_trials=2)


def test_verify_rejects_non_pe_family_draws():
    sys = build_wave(WaveModalSpec(n_modes=1, uniform=1.0))
    cert = certificate_from_constant(0.05, 2.0, sys.b_norm)
    fam = FamilyWithAdversary(T=2.0, mu=1.0, horizon=20.0,
                              adversary=make_piecewise([], [], 0.0))
    with pytest.raises(ValueError, match="non-PE"):
        verify_certificate(sys, cert, fam, n_trials=2)


def test_verify_rejects_family_draws_that_are_not_periodic():
    # on for [0, 1) of every 2 up to t = 8, then always on: window mass at
    # least mu = 1 throughout, but 2-periodic only on [0, 8]
    sys = build_wave(WaveModalSpec(n_modes=1, uniform=1.0))
    cert = certificate_from_constant(0.05, 2.0, sys.b_norm)
    adversary = make_piecewise(list(range(1, 9)), [1.0, 0.0] * 4, 1.0)
    fam = FamilyWithAdversary(T=2.0, mu=1.0, horizon=20.0, adversary=adversary)
    assert pe_check(adversary, 2.0, 1.0, 20.0).holds
    with pytest.raises(ValueError, match="trial 1 that is not 2-periodic"):
        verify_certificate(sys, cert, fam, n_trials=2)


def test_inflated_constant_is_caught_by_the_witness_signal():
    # the periodically extended minimising witness re-aligns with the worst
    # state every window (the one-mode monodromy over T = 2 is the identity),
    # so compounding exposes any constant above the true one
    sys = build_wave(WaveModalSpec(n_modes=1, uniform=1.0))
    sclass = SignalClass.pe_windows(2.0, 1.0)
    est = class_constant(sys, sclass, n_cells=32, outer=OuterSearch(n_starts=4))
    # the witness's cells on [0, 2), lifted by 1e-8 and repeated past the horizon
    w = est.witness_signal
    m = sum(1 for b in w.breakpoints if b < 2.0)
    edges = list(w.breakpoints[:m]) + [2.0]
    levels = [min(1.0, v + 1e-8) for v in (w.values + (w.tail_value,))[:m + 1]]
    adversary = make_piecewise([2.0 * k + e for k in range(51) for e in edges],
                               levels * 51, levels[0])
    fam = FamilyWithAdversary(T=2.0, mu=1.0, horizon=100.0, adversary=adversary)
    bad = certificate_from_constant(10.0 * est.constant, 2.0, sys.b_norm)
    with pytest.raises(CertificateViolation, match="lower bound") as exc:
        verify_certificate(sys, bad, fam, n_trials=2)
    # the adversary's windows break the certificate, not just its trajectory
    assert exc.value.report.worst_window_trial == 1
    assert exc.value.report.worst_window_contraction > bad.q * (1 + stability.WINDOW_SLACK)
    assert exc.value.report.worst_ratio > 1.1
    # the honest certificate survives the same adversary
    good = certificate_from_constant(est.constant * 0.999, 2.0, sys.b_norm)
    rep = verify_certificate(sys, good, fam, n_trials=2)
    assert rep.ok


def test_product_bound_explicit_costs():
    sys = build_wave(WaveModalSpec(n_modes=1, uniform=1.0))  # ||B|| = 1
    seq = IntervalSequence(((0.0, 1.0), (2.0, 3.0)))
    rep = interval_product_bound(sys, seq, [1.0, 0.0], costs=(0.3, 0.1))
    assert rep.factors == (0.85, 0.95)
    assert rep.cumulative == (0.85, 0.85 * 0.95)
    assert rep.cost_partial_sums == (0.3, pytest.approx(0.4))
    # the simulated energy ratios between the checkpoints 0, 2 and 3
    traj = simulate(sys, from_intervals(seq), [1.0, 0.0], 3.0, 1.0)
    V = traj.energies
    assert rep.measured_ratios == (pytest.approx(V[2] / V[0], rel=1e-12),
                                   pytest.approx(V[3] / V[2], rel=1e-12))
    assert rep.ok


def test_product_bound_validates_costs():
    sys = build_wave(WaveModalSpec(n_modes=1, uniform=1.0))
    seq = IntervalSequence(((0.0, 1.0), (2.0, 3.0)))
    z0 = [1.0, 0.0]
    with pytest.raises(ValueError):
        interval_product_bound(sys, seq, z0, costs=(1.2, 0.1))  # above L ||B||^2
    with pytest.raises(ValueError):
        interval_product_bound(sys, seq, z0, costs=(-0.1, 0.1))
    with pytest.raises(ValueError):
        interval_product_bound(sys, seq, z0, costs=(0.1,))


def test_product_bound_computed_costs_match_direct_gramian():
    sys = build_wave(WaveModalSpec(n_modes=2, uniform=1.0))
    seq = IntervalSequence(((0.0, 1.0), (1.5, 2.5)))
    rep = interval_product_bound(sys, seq, [1.0, 0.0, 0.0, 0.0])
    G = observability_gramian(sys, 0.0, 1.0)
    assert rep.costs[0] == pytest.approx(float(np.linalg.eigvalsh(G)[0]), rel=1e-12)
    assert all(0.0 < f <= 1.0 for f in rep.factors)


def test_product_bound_measured_ratios_hold():
    sys = build_wave(WaveModalSpec(n_modes=2, uniform=1.0))
    seq = IntervalSequence(((0.0, 1.0), (1.5, 2.5), (4.0, 5.0)))
    rng = np.random.default_rng(2)
    z0 = rng.standard_normal(4)
    z0 /= np.linalg.norm(z0)
    rep = interval_product_bound(sys, seq, z0)
    assert rep.ok
    assert len(rep.measured_ratios) == 3
    for r, f in zip(rep.measured_ratios, rep.factors):
        assert r <= f + rep.tolerance
    for a, b in zip(rep.cumulative, rep.cumulative[1:]):
        assert b <= a + 1e-15
    assert rep.caveats == ()


def test_product_bound_carries_system_caveats():
    sys = build_schrodinger(SchrodingerModalSpec(n_modes=2, omega=(0.2, 0.6)))
    seq = IntervalSequence(((0.0, 1.0),))
    rep = interval_product_bound(sys, seq, np.eye(sys.dim)[0])
    assert TRUNCATION_CAVEAT in rep.caveats


def test_criterion_linear_sums_are_divergence_consistent():
    seq = IntervalSequence(tuple((2.0 * n, 2.0 * n + 1.0) for n in range(40)))
    rep = rho_class_criterion(seq, lambda L: 1e-3 * L ** 3, T0=1.0)
    assert rep.divergence_consistent
    assert rep.verdict == "divergence-consistent at horizon n=40"
    assert "stable" not in rep.verdict
    assert len(rep.partial_sums) == 40
    assert rep.partial_sums[-1] == pytest.approx(0.04, rel=1e-12)


def test_criterion_summable_costs_are_not_consistent():
    # lengths 1/log(n+2) with cost exp(-2/L) = (n+2)^(-2): a convergent series
    intervals, t = [], 0.0
    for n in range(60):
        L = 1.0 / math.log(n + 2)
        intervals.append((t, t + L))
        t += L + 1.0
    seq = IntervalSequence(tuple(intervals))
    rep = rho_class_criterion(seq, lambda L: math.exp(-2.0 / L), T0=1.0)
    assert not rep.divergence_consistent
    assert rep.verdict.startswith("not divergence-consistent")


def test_criterion_constant_costs_are_consistent():
    seq = IntervalSequence(tuple((3.0 * n, 3.0 * n + 1.0) for n in range(30)))
    rep = rho_class_criterion(seq, lambda L: math.exp(-2.0 / L), T0=1.0)
    assert rep.divergence_consistent


def test_criterion_single_interval_is_undecided():
    seq = IntervalSequence(((0.0, 1.0),))
    rep = rho_class_criterion(seq, lambda L: L, T0=1.0)
    assert not rep.divergence_consistent
    assert rep.verdict == "not divergence-consistent at horizon n=1"


def test_criterion_refined_bookkeeping():
    seq = IntervalSequence(((0.0, 0.4), (1.0, 3.5), (4.0, 11.0)))
    rep = rho_class_criterion(seq, lambda L: L * L, T0=1.0)
    assert rep.refined_lengths == (0.4, pytest.approx(2.5 / 3.0), 1.0)
    assert rep.refined_count_in_band == 2
    assert rep.min_cost_on_band == pytest.approx(0.25)
    assert rep.refined_lower_bound == pytest.approx(0.5)


def test_criterion_validates_cost_function():
    seq = IntervalSequence(((0.0, 1.0), (2.0, 3.0)))
    with pytest.raises(ValueError):
        rho_class_criterion(seq, lambda L: 0.0, T0=1.0)
    with pytest.raises(ValueError):
        rho_class_criterion(seq, lambda L: L - 0.6, T0=1.0)  # negative on band
    with pytest.raises(ValueError):
        rho_class_criterion(seq, lambda L: L, T0=0.0)

