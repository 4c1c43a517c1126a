import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pexstab.linsys import LinearSystem, Trajectory, simulate
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
    _frac,
    from_intervals,
    make_piecewise,
    pe_check,
    periodic_extension,
    periodic_gate,
)
from pexstab.stability import (
    CertificateViolation,
    GateSignalFamily,
    certificate_from_constant,
    decay_rate_fit,
    interval_product_bound,
    refine_intervals,
    rho_class_criterion,
    verify_certificate,
)

ONE = make_piecewise([], [], 1.0)


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


def test_family_serves_extras_before_random_draws():
    special = periodic_gate(2.0, 0.5, 30.0)
    fam = GateSignalFamily(T=2.0, mu=0.5, horizon=30.0, extras=(special,))
    assert fam.draw(1) is special
    assert fam.draw(2) is not special
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
    assert rep.to_dict()["certificate"]["q"] == cert.q


def test_verify_rejects_non_pe_family_draws():
    sys = build_wave(WaveModalSpec(n_modes=1, uniform=1.0))
    cert = certificate_from_constant(0.05, 2.0, sys.b_norm)
    fam = GateSignalFamily(T=2.0, mu=1.0, horizon=20.0,
                           extras=(make_piecewise([], [], 0.0),))
    with pytest.raises(ValueError, match="non-PE"):
        verify_certificate(sys, cert, fam, n_trials=2)


def test_inflated_constant_is_caught_by_the_witness_signal():
    # the periodically extended minimising witness re-aligns with the worst
    # state every window (the one-mode monodromy over T = 2 is the identity),
    # so compounding exposes any constant above the true one
    sys = build_wave(WaveModalSpec(n_modes=1, uniform=1.0))
    sclass = SignalClass.pe_windows(2.0, 1.0)
    est = class_constant(sys, sclass, n_cells=32, outer=OuterSearch(n_starts=4))
    lifted = make_piecewise(
        est.witness_signal.breakpoints,
        [min(1.0, v + 1e-8) for v in est.witness_signal.values],
        min(1.0, est.witness_signal.tail_value + 1e-8),
    )
    adversary = periodic_extension(lifted, 2.0, 100.0)
    fam = GateSignalFamily(T=2.0, mu=1.0, horizon=100.0, extras=(adversary,))
    bad = certificate_from_constant(10.0 * est.constant, 2.0, sys.b_norm)
    with pytest.raises(CertificateViolation, match="lower bound") as exc:
        verify_certificate(sys, bad, fam, n_trials=2)
    assert exc.value.report.worst_ratio > 1.1
    # the honest certificate survives the same adversary
    good = certificate_from_constant(est.constant * 0.999, 2.0, sys.b_norm)
    rep = verify_certificate(sys, good, fam, n_trials=2)
    assert rep.ok


def test_decay_rate_fit_matches_commuting_decay():
    d0 = 0.7
    sys = build_schrodinger(SchrodingerModalSpec(n_modes=2, uniform=d0))
    rng = np.random.default_rng(2)
    z0 = rng.standard_normal(4)
    traj = simulate(sys, ONE, z0, 10.0, 0.01)
    gamma_hat, r2 = decay_rate_fit(traj)
    assert gamma_hat == pytest.approx(d0 ** 2, rel=1e-9)
    assert r2 > 1.0 - 1e-12


def test_decay_rate_fit_flat_energy():
    sys = LinearSystem(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.zeros((2, 1)))
    traj = simulate(sys, ONE, [1.0, 0.0], 10.0, 0.01)
    gamma_hat, _ = decay_rate_fit(traj)
    assert abs(gamma_hat) < 1e-10


def test_decay_rate_fit_zero_energy_and_short_tail():
    sys = LinearSystem(np.zeros((1, 1)), np.eye(1))
    dead = Trajectory(times=np.linspace(0.0, 1.0, 20), states=np.zeros((20, 1)),
                      energies=np.zeros(20), damping_rates=np.zeros(20),
                      system=sys, signal=ONE)
    assert decay_rate_fit(dead) == (math.inf, 0.0)
    traj = simulate(sys, ONE, [1.0], 1.0, 0.2)
    with pytest.raises(ValueError):
        decay_rate_fit(traj, tail_fraction=0.5)
    with pytest.raises(ValueError):
        decay_rate_fit(traj, tail_fraction=0.0)


def test_product_bound_explicit_costs():
    sys = build_wave(WaveModalSpec(n_modes=1, uniform=1.0))  # ||B|| = 1
    seq = IntervalSequence(((0.0, 1.0), (2.0, 3.0)), rho=1.0)
    rep = interval_product_bound(sys, seq, costs=(0.3, 0.1))
    assert rep.factors == (0.85, 0.95)
    assert rep.cumulative == (0.85, 0.85 * 0.95)
    assert rep.cost_partial_sums == (0.3, pytest.approx(0.4))
    assert rep.measured_ratios is None
    assert rep.ok


def test_product_bound_validates_costs():
    sys = build_wave(WaveModalSpec(n_modes=1, uniform=1.0))
    seq = IntervalSequence(((0.0, 1.0), (2.0, 3.0)), rho=1.0)
    with pytest.raises(ValueError):
        interval_product_bound(sys, seq, costs=(1.2, 0.1))  # above L ||B||^2
    with pytest.raises(ValueError):
        interval_product_bound(sys, seq, costs=(-0.1, 0.1))
    with pytest.raises(ValueError):
        interval_product_bound(sys, seq, costs=(0.1,))
    with pytest.raises(ValueError):
        interval_product_bound(sys, seq)  # neither costs nor signal


def test_product_bound_computed_costs_match_direct_gramian():
    sys = build_wave(WaveModalSpec(n_modes=2, uniform=1.0))
    seq = IntervalSequence(((0.0, 1.0), (1.5, 2.5)), rho=1.0)
    sig = from_intervals(seq)
    rep = interval_product_bound(sys, seq, signal=sig)
    G = observability_gramian(sys, 0.0, 1.0)
    assert rep.costs[0] == pytest.approx(float(np.linalg.eigvalsh(G)[0]), rel=1e-12)
    assert all(0.0 < f <= 1.0 for f in rep.factors)


def test_product_bound_measured_ratios_hold():
    sys = build_wave(WaveModalSpec(n_modes=2, uniform=1.0))
    seq = IntervalSequence(((0.0, 1.0), (1.5, 2.5), (4.0, 5.0)), rho=1.0)
    sig = from_intervals(seq)
    rng = np.random.default_rng(2)
    z0 = rng.standard_normal(4)
    z0 /= np.linalg.norm(z0)
    rep = interval_product_bound(sys, seq, signal=sig, z0=z0)
    assert rep.ok
    assert len(rep.measured_ratios) == 3
    for r, f in zip(rep.measured_ratios, rep.factors):
        assert r <= f + rep.tolerance
    for a, b in zip(rep.cumulative, rep.cumulative[1:]):
        assert b <= a + 1e-15
    assert rep.caveats == ()


def test_product_bound_carries_system_caveats():
    sys = build_schrodinger(SchrodingerModalSpec(n_modes=2, omega=(0.2, 0.6)))
    seq = IntervalSequence(((0.0, 1.0),), rho=1.0)
    rep = interval_product_bound(sys, seq, signal=from_intervals(seq))
    assert TRUNCATION_CAVEAT in rep.caveats


def test_refine_passes_short_intervals_through():
    seq = IntervalSequence(((0.0, 0.8), (1.0, 1.9)), rho=0.5)
    sig = make_piecewise([], [], 1.0)
    out = refine_intervals(seq, sig, T0=1.0, rho=0.5)
    assert out.intervals == seq.intervals
    assert out.rho == 0.5


def test_refine_splits_and_keeps_a_qualifying_cell():
    # mass is concentrated mid-interval, so the first cell fails and the
    # second qualifies
    seq = IntervalSequence(((0.0, 2.5),), rho=0.3)
    sig = make_piecewise([0.9, 1.7], [0.0, 1.0], 0.0)
    out = refine_intervals(seq, sig, T0=1.0, rho=0.3)
    ((lo, hi),) = out.intervals
    assert lo == pytest.approx(2.5 / 3.0)
    assert hi == pytest.approx(5.0 / 3.0)
    assert float(sig.integral(lo, hi)) >= 0.3 * (hi - lo) - 1e-15


def test_refine_rejects_underfilled_intervals():
    seq = IntervalSequence(((0.0, 2.0),), rho=0.9)
    sig = make_piecewise([1.0], [1.0], 0.0)  # mass 1 < 0.9 * 2
    with pytest.raises(ValueError):
        refine_intervals(seq, sig, T0=1.0, rho=0.9)
    with pytest.raises(ValueError):
        refine_intervals(seq, sig, T0=0.0, rho=0.5)
    with pytest.raises(ValueError):
        refine_intervals(seq, sig, T0=1.0, rho=1.5)


@st.composite
def gapped_signals(draw):
    edges = sorted(draw(st.lists(
        st.floats(min_value=0.05, max_value=8.0, allow_nan=False),
        min_size=1, max_size=8, unique=True)))
    vals = draw(st.lists(st.floats(0.0, 1.0), min_size=len(edges),
                         max_size=len(edges)))
    tail = draw(st.floats(0.0, 1.0))
    return make_piecewise(edges, vals, tail)


@settings(max_examples=60, deadline=None)
@given(gapped_signals(), st.floats(0.6, 8.0), st.floats(0.3, 1.5))
def test_refine_property_band_and_mass(sig, L, T0):
    # use the exact mass fraction of the interval itself as rho: the
    # averaging argument is tight there and exact arithmetic must still
    # produce a qualifying cell
    q = sig.integral(0, L) / _frac(L)
    assume(q > 0)
    rho = min(float(q), 1.0)
    while _frac(rho) > q:
        rho = float(np.nextafter(rho, 0.0))
    assume(rho > 0)
    seq = IntervalSequence(((0.0, float(L)),), rho=rho)
    out = refine_intervals(seq, sig, T0=T0, rho=rho)
    ((lo, hi),) = out.intervals
    length = hi - lo
    assert length <= T0 + 1e-12
    assert length > T0 / 2.0 - 1e-12 or abs(length - L) < 1e-12
    assert sig.integral(lo, hi) >= _frac(rho) * (_frac(hi) - _frac(lo))


def test_criterion_linear_sums_are_divergence_consistent():
    seq = IntervalSequence(tuple((2.0 * n, 2.0 * n + 1.0) for n in range(40)),
                           rho=1.0)
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
    seq = IntervalSequence(tuple(intervals), rho=1.0)
    rep = rho_class_criterion(seq, lambda L: math.exp(-2.0 / L), T0=1.0)
    assert not rep.divergence_consistent
    assert rep.verdict.startswith("not divergence-consistent")


def test_criterion_constant_costs_are_consistent():
    seq = IntervalSequence(tuple((3.0 * n, 3.0 * n + 1.0) for n in range(30)),
                           rho=1.0)
    rep = rho_class_criterion(seq, lambda L: math.exp(-2.0 / L), T0=1.0)
    assert rep.divergence_consistent


def test_criterion_single_interval_is_undecided():
    seq = IntervalSequence(((0.0, 1.0),), rho=1.0)
    rep = rho_class_criterion(seq, lambda L: L, T0=1.0)
    assert not rep.divergence_consistent
    assert rep.verdict == "not divergence-consistent at horizon n=1"


def test_criterion_refined_bookkeeping():
    seq = IntervalSequence(((0.0, 0.4), (1.0, 3.5), (4.0, 11.0)), rho=1.0)
    rep = rho_class_criterion(seq, lambda L: L * L, T0=1.0)
    assert rep.refined_lengths == (0.4, pytest.approx(2.5 / 3.0), 1.0)
    assert rep.refined_count_in_band == 2
    assert rep.min_cost_on_band == pytest.approx(0.25)
    assert rep.refined_lower_bound == pytest.approx(0.5)


def test_criterion_validates_cost_function():
    seq = IntervalSequence(((0.0, 1.0), (2.0, 3.0)), rho=1.0)
    with pytest.raises(ValueError):
        rho_class_criterion(seq, lambda L: 0.0, T0=1.0)
    with pytest.raises(ValueError):
        rho_class_criterion(seq, lambda L: L - 0.6, T0=1.0)  # negative on band
    with pytest.raises(ValueError):
        rho_class_criterion(seq, lambda L: L, T0=0.0)


def test_criterion_reports_energy_trend_without_using_it():
    sys = build_wave(WaveModalSpec(n_modes=1, uniform=1.0))
    seq = IntervalSequence(tuple((2.0 * n, 2.0 * n + 1.0) for n in range(5)),
                           rho=1.0)
    sig = from_intervals(seq)
    traj = simulate(sys, sig, [1.0, 0.0], 9.0, 0.05)
    rep = rho_class_criterion(seq, lambda L: 1e-3 * L ** 3, T0=1.0, traj=traj)
    assert rep.energy_trend["ratio"] < 1.0
    assert rep.energy_trend["V_start"] == pytest.approx(0.5)
    rep2 = rho_class_criterion(seq, lambda L: 1e-3 * L ** 3, T0=1.0)
    assert rep2.divergence_consistent == rep.divergence_consistent
