"""Decay certificates and their verification against simulated trajectories.

A positive class constant c for a signal class on windows of length theta
forces the energy V = ||z||^2 / 2 down by a fixed factor over every window:

    V(z(s + theta)) - V(z(s)) <= -(c / (1 + theta^2 ||B||^4)) V(z(s)).

This module turns such constants into explicit exponential certificates
(q, M, gamma), verifies them against simulation on randomly drawn admissible
signals, bounds the energy under damping that is on only on given
intervals by per-interval contraction products (checked against the
simulated trajectory), and runs the divergence bookkeeping that upgrades
interval costs to a strong-stability verdict at a finite horizon.

Divergence of an infinite series is undecidable from finitely many terms, so
verdicts here are worded "divergence-consistent / not divergence-consistent
at horizon n" and never "stable/unstable".
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .linsys import LinearSystem, _propagate, cost_within_bound, simulate
from .observability import observability_gramian
from .signals import (IntervalSequence, Signal, from_intervals, make_piecewise,
                      pe_check, periodic_gate)

# verify_certificate samples each trajectory theta / SAMPLES_PER_THETA apart
# and accepts a worst ratio up to 1 + VERIFY_SLACK
SAMPLES_PER_THETA = 64
VERIFY_SLACK = 1e-6
# slack of each measured ratio over its factor in interval_product_bound
PRODUCT_TOLERANCE = 1e-8

CERTIFICATE_DERIVATION = (
    "V is nonincreasing along trajectories and contracts by q over every "
    "window of length theta, so V(t) <= q^floor(t/theta) V(0) <= "
    "(1/q) q^(t/theta) V(0); with V = ||z||^2/2 this reads "
    "||z(t)|| <= M e^(-gamma t) ||z(0)|| for M = q^(-1/2) and "
    "gamma = ln(1/q) / (2 theta)."
)


@dataclass(frozen=True)
class DecayCertificate:
    """Exponential bound ||z(t)|| <= M e^{-gamma t} ||z(0)||.

    Built from an observability constant c on windows of length theta via
    q = 1 - c / (1 + theta^2 b_norm^4); the (M, gamma) instantiation follows
    the standard argument recorded in ``derivation`` (one valid choice, not
    the only one).
    """

    q: float
    theta: float
    M: float
    gamma: float
    c: float
    b_norm: float
    source: str = ""
    derivation: str = CERTIFICATE_DERIVATION

    def envelope(self, times) -> np.ndarray:
        """M e^{-gamma t} for each t (per unit initial norm)."""
        return self.M * np.exp(-self.gamma * np.asarray(times, dtype=float))


def certificate_from_constant(c: float, theta: float, b_norm: float,
                              source: str = "") -> DecayCertificate:
    """Certificate with q = 1 - c/(1 + theta^2 b_norm^4), gamma, M explicit.

    Requires 0 < c < 1 + theta^2 b_norm^4: a larger c would drive the
    contraction factor q to zero or below, which no true observability
    constant can do (they obey c <= theta b_norm^2), so such input is
    refused rather than clamped.
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    if b_norm < 0:
        raise ValueError("b_norm must be nonnegative")
    if c <= 0:
        raise ValueError("need a positive constant c (no decay certified by c=0)")
    denom = 1.0 + theta * theta * b_norm ** 4
    if c >= denom:
        raise ValueError(
            "c=%g reaches 1 + theta^2 b_norm^4 = %g; contraction factor would "
            "not be positive, refusing" % (c, denom)
        )
    q = 1.0 - c / denom
    return DecayCertificate(
        q=q,
        theta=theta,
        M=q ** -0.5,
        gamma=math.log(1.0 / q) / (2.0 * theta),
        c=c,
        b_norm=b_norm,
        source=source,
    )


@dataclass(frozen=True)
class GateSignalFamily:
    """Deterministic family of T-mu persistently exciting signals.

    ``draw(0)`` is the constant signal alpha = 1 (always in the class);
    every later ``draw(i)`` is a T-periodic gate with pulse width drawn
    uniformly from [mu, min(T, 2 mu)] and a uniform phase, both seeded by
    (seed, i).  A T-periodic signal has the same mass in every window of
    length T, so each gate carries window mass >= mu by construction; the
    verifier still re-checks every draw.
    """

    T: float
    mu: float
    horizon: float
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.mu <= self.T:
            raise ValueError("need 0 < mu <= T")
        if self.horizon < self.T:
            raise ValueError("horizon must cover at least one window")

    def draw(self, i: int) -> Signal:
        if i == 0:
            return make_piecewise([], [], 1.0)
        rng = np.random.default_rng((self.seed, i))
        width = rng.uniform(self.mu, min(self.T, 2.0 * self.mu))
        phase = rng.uniform(0.0, self.T)
        gate = periodic_gate(self.T, width / 2.0, self.horizon + 2.0 * self.T)
        return gate.shifted(phase)


@dataclass(frozen=True)
class CertificateCheck:
    """Outcome of checking a decay certificate against simulated trials.

    ``worst_ratio`` is the largest observed ||z(t)|| / (M e^{-gamma t}
    ||z0||) over all trials and samples; the certificate holds when it stays
    <= 1 + slack.
    """

    ok: bool
    worst_ratio: float
    worst_trial: int
    worst_time: float
    n_trials: int
    horizon: float
    slack: float
    certificate: DecayCertificate


class CertificateViolation(RuntimeError):
    """A simulated trajectory exceeded the certified envelope.

    Either the constant fed into the certificate is not a true lower bound
    for the signal class, or the simulation is wrong; the attached report
    records both sides (certificate parameters, violating trial, time and
    ratio) so the two can be told apart.
    """

    def __init__(self, message: str, report: CertificateCheck):
        super().__init__(message)
        self.report = report


def verify_certificate(sys: LinearSystem, cert: DecayCertificate,
                       family: GateSignalFamily, n_trials: int = 20) -> CertificateCheck:
    """Simulate random admissible (z0, signal) pairs against the envelope.

    Each trial runs over ``family.horizon``, sampled theta /
    SAMPLES_PER_THETA apart.  Every drawn signal is re-checked to be T-mu
    persistently exciting over the horizon before use (a family bug would
    otherwise produce vacuous verification).  Raises
    :class:`CertificateViolation` when any sample exceeds M e^{-gamma t}
    ||z0|| by more than the relative slack VERIFY_SLACK; otherwise returns
    the report with the worst observed ratio.
    """
    if n_trials < 1:
        raise ValueError("need at least one trial")
    horizon = family.horizon
    dt_out = cert.theta / SAMPLES_PER_THETA
    worst = (-math.inf, -1, 0.0)
    for i in range(n_trials):
        sig = family.draw(i)
        pe = pe_check(sig, family.T, family.mu, horizon)
        if not pe.holds:
            raise ValueError(
                "family drew a non-PE signal at trial %d (worst window mass "
                "%g < mu=%g)" % (i, pe.worst_window_mass, family.mu)
            )
        rng = np.random.default_rng((family.seed, 7 * n_trials + i))
        z0 = rng.standard_normal(sys.dim)
        z0 /= np.linalg.norm(z0)
        traj = simulate(sys, sig, z0, horizon, dt_out)
        norms = np.sqrt(2.0 * traj.energies)
        envelope = cert.envelope(traj.times) * norms[0]
        ratios = norms / envelope
        j = int(np.argmax(ratios))
        if ratios[j] > worst[0]:
            worst = (float(ratios[j]), i, float(traj.times[j]))
    ok = worst[0] <= 1.0 + VERIFY_SLACK
    report = CertificateCheck(
        ok=ok,
        worst_ratio=worst[0],
        worst_trial=worst[1],
        worst_time=worst[2],
        n_trials=n_trials,
        horizon=horizon,
        slack=VERIFY_SLACK,
        certificate=cert,
    )
    if not ok:
        raise CertificateViolation(
            "trajectory %d exceeded the certified envelope at t=%g by ratio "
            "%.6g (q=%g, M=%g, gamma=%g from c=%g): either c is not a lower "
            "bound for the class or the simulation is wrong"
            % (worst[1], worst[2], worst[0], cert.q, cert.M, cert.gamma, cert.c),
            report,
        )
    return report


@dataclass(frozen=True)
class ProductBoundReport:
    """Per-interval contraction factors and their cumulative product.

    ``cumulative[n]`` bounds V(z(a_{n+1})) / V(z0); it is nonincreasing in n
    since every factor lies in (0, 1].  ``measured_ratios`` are the
    simulated per-interval ratios V(z(a_{n+1})) / V(z(a_n)), each required
    to stay below its factor plus the tolerance.
    """

    intervals: tuple
    costs: tuple
    factors: tuple
    cumulative: tuple
    cost_partial_sums: tuple
    measured_ratios: tuple
    ok: bool
    tolerance: float = PRODUCT_TOLERANCE
    caveats: tuple = ()


def interval_product_bound(sys: LinearSystem, seq: IntervalSequence, z0,
                           level=1.0, costs=None) -> ProductBoundReport:
    """Energy bound V(z(a_{n+1})) <= prod_j (1 - c_j/(1+L_j^2 ||B||^4)) V(z0).

    The damping is ``from_intervals(seq, level)``: on at ``level`` on each
    interval, off between them.  Costs come either explicitly (``costs``,
    validated against the necessary bound c_n <= L_n ||B||^2) or as the
    smallest eigenvalue of the per-interval observability Gramian along the
    restarted undamped flow,

        G_n = int_0^{L_n} alpha(a_n + t) e^{tA^T} B B^T e^{tA} dt,

    which is the exact class constant of the single fixed signal and hence a
    valid c_n.  The trajectory from ``z0`` is evaluated at the interval
    checkpoints and each measured energy ratio is required to stay below its
    factor plus PRODUCT_TOLERANCE.
    """
    intervals = tuple(seq.intervals)
    lengths = seq.lengths
    b2 = sys.b_norm ** 2
    signal = from_intervals(seq, level)
    if costs is None:
        got = []
        for (a, b) in intervals:
            G = observability_gramian(sys, 0.0, b - a, signal=signal.shifted(a))
            got.append(max(float(np.linalg.eigvalsh(G)[0]), 0.0))
        costs = tuple(got)
    else:
        costs = tuple(float(c) for c in costs)
        if len(costs) != len(intervals):
            raise ValueError("need one cost per interval")
        for c, L in zip(costs, lengths):
            if c < 0:
                raise ValueError("costs must be nonnegative")
            if not cost_within_bound(c, L, sys.b_norm):
                raise ValueError(
                    "cost %g exceeds the necessary bound length*||B||^2 = %g"
                    % (c, L * b2)
                )
    factors = tuple(1.0 - c / (1.0 + L * L * b2 * b2)
                    for c, L in zip(costs, lengths))
    z0 = np.asarray(z0, dtype=float).reshape(sys.dim)
    checkpoints = [a for (a, _) in intervals] + [intervals[-1][1]]
    states = _propagate(sys, signal, z0, np.asarray(checkpoints))
    V = 0.5 * np.sum(states * states, axis=1)
    measured = tuple(float(v1 / v0) if v0 > 0.0 else 0.0 for v0, v1 in zip(V, V[1:]))
    return ProductBoundReport(
        intervals=intervals,
        costs=costs,
        factors=factors,
        cumulative=tuple(accumulate(factors, operator.mul)),
        cost_partial_sums=tuple(accumulate(costs)),
        measured_ratios=measured,
        ok=all(r <= f + PRODUCT_TOLERANCE for r, f in zip(measured, factors)),
        caveats=sys.caveats,
    )


DIVERGENCE_RULE = (
    "divergence-consistent at horizon n when the last half of the partial "
    "sums contributes at least the share a logarithmically divergent series "
    "would: S_n - S_{n//2} >= 0.5 * (ln 2 / ln n) * S_n (n >= 2)"
)


@dataclass(frozen=True)
class RhoCriterionReport:
    """Finite-horizon bookkeeping for the cost-divergence criterion.

    Deciding convergence to zero needs sum c(b_n - a_n) = inf; finitely many
    terms cannot settle that, so the verdict states consistency with
    divergence at the available horizon (rule recorded in ``rule``) next to
    the refined lower bound count * min c over [T0/2, T0] after long
    intervals are split.
    """

    verdict: str
    divergence_consistent: bool
    partial_sums: tuple
    lengths: tuple
    refined_lengths: tuple
    refined_cost_sum: float
    refined_count_in_band: int
    min_cost_on_band: float
    refined_lower_bound: float
    T0: float
    rule: str = DIVERGENCE_RULE


def rho_class_criterion(seq: IntervalSequence, c_of_T, T0: float,
                        knots=()) -> RhoCriterionReport:
    """Partial sums of interval costs and a divergence-consistency verdict.

    ``c_of_T`` maps an interval length to a positive cost (must be positive
    on every length encountered and on [T0/2, T0]) and must be monotone
    between consecutive ``knots`` (on the whole band when there are none).
    The partial sums use the raw lengths; the refined view replaces each
    length L > T0 by L / ceil(L / T0) (the common length of the equal cells
    that split it, which lands in (T0/2, T0]) and reports the
    count-times-minimum lower bound over the band [T0/2, T0].  A cost that
    is monotone between knots takes its band minimum at T0/2, at T0 or at a
    knot inside the band, so that minimum is exact.
    """
    if T0 <= 0:
        raise ValueError("T0 must be positive")
    lengths = seq.lengths
    costs = []
    for L in lengths:
        c = float(c_of_T(L))
        if not c > 0 or not math.isfinite(c):
            raise ValueError("cost function must be positive and finite at "
                             "length %g (got %g)" % (L, c))
        costs.append(c)
    partial = tuple(accumulate(costs))
    n = len(partial)
    if n >= 2:
        S_n = partial[-1]
        S_half = partial[n // 2 - 1]
        threshold = 0.5 * (math.log(2.0) / math.log(n)) if n > 2 else 0.5
        consistent = (S_n - S_half) >= threshold * S_n
    else:
        consistent = False
    refined = tuple(L if L <= T0 else L / math.ceil(L / T0 - 1e-12)
                    for L in lengths)
    band = [T0 / 2.0, T0] + [float(t) for t in knots if T0 / 2.0 < t < T0]
    band_costs = [float(c_of_T(t)) for t in band]
    if any(not c > 0 for c in band_costs):
        raise ValueError("cost function must be positive on [T0/2, T0]")
    min_band = min(band_costs)
    refined_sum = float(sum(c_of_T(L) for L in refined))
    in_band = sum(1 for L in refined if T0 / 2.0 - 1e-12 <= L <= T0 + 1e-12)
    word = "divergence-consistent" if consistent else "not divergence-consistent"
    return RhoCriterionReport(
        verdict="%s at horizon n=%d" % (word, n),
        divergence_consistent=consistent,
        partial_sums=partial,
        lengths=lengths,
        refined_lengths=refined,
        refined_cost_sum=refined_sum,
        refined_count_in_band=in_band,
        min_cost_on_band=min_band,
        refined_lower_bound=in_band * min_band,
        T0=T0,
    )
