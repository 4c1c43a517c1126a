import math
from dataclasses import dataclass

import numpy as np
import pytest

from pexstab.cli import _jsonable
from pexstab.linsys import simulate
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


def test_verify_rejects_non_pe_family_draws():
    sys = build_wave(WaveModalSpec(n_modes=1, uniform=1.0))
    cert = certificate_from_constant(0.05, 2.0, sys.b_norm)
    fam = FamilyWithAdversary(T=2.0, mu=1.0, horizon=20.0,
                              adversary=make_piecewise([], [], 0.0))
    with pytest.raises(ValueError, match="non-PE"):
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

