"""Decay certificates and their verification against simulated trajectories.

A positive class constant c for a signal class on windows of length theta
forces the energy V = ||z||^2 / 2 down by a fixed factor over every window:

    V(z(s + theta)) - V(z(s)) <= -(c / (1 + theta^2 ||B||^4)) V(z(s)).

This module turns such constants into explicit exponential certificates
(q, M, gamma), verifies them against simulation on randomly drawn admissible
signals, bounds energy along sparse-in-time damping via per-interval
contraction products, and runs the divergence bookkeeping that upgrades
interval costs to a strong-stability verdict at a finite horizon.

Divergence of an infinite series is undecidable from finitely many terms, so
verdicts here are worded "divergence-consistent / not divergence-consistent
at horizon n" and never "stable/unstable".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linsys import LinearSystem, Trajectory, _propagate, simulate
from .observability import observability_gramian
from .signals import (IntervalSequence, Signal, _frac, make_piecewise,
                      pe_check, periodic_gate)

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

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "theta": self.theta,
            "M": self.M,
            "gamma": self.gamma,
            "c": self.c,
            "b_norm": self.b_norm,
            "source": self.source,
            "derivation": self.derivation,
        }


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
    any ``extras`` follow (adversarial class members supplied by the caller,
    e.g. a periodically extended minimising witness); every later ``draw(i)``
    is a T-periodic gate with pulse width drawn uniformly from
    [mu, min(T, 2 mu)] and a uniform phase, both seeded by (seed, i).  A
    T-periodic signal has the same mass in every window of length T, so each
    gate carries window mass >= mu by construction; the verifier still
    re-checks every draw.
    """

    T: float
    mu: float
    horizon: float
    seed: int = 0
    extras: tuple = ()

    def __post_init__(self):
        if not 0 < self.mu <= self.T:
            raise ValueError("need 0 < mu <= T")
        if self.horizon < self.T:
            raise ValueError("horizon must cover at least one window")
        object.__setattr__(self, "extras", tuple(self.extras))

    def draw(self, i: int) -> Signal:
        if i == 0:
            return make_piecewise([], [], 1.0)
        if i <= len(self.extras):
            return self.extras[i - 1]
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

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "worst_ratio": self.worst_ratio,
            "worst_trial": self.worst_trial,
            "worst_time": self.worst_time,
            "n_trials": self.n_trials,
            "horizon": self.horizon,
            "slack": self.slack,
            "certificate": self.certificate.to_dict(),
        }


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
                       family: GateSignalFamily, n_trials: int = 20,
                       horizon: float = None, dt_out: float = None,
                       slack: float = 1e-6) -> CertificateCheck:
    """Simulate random admissible (z0, signal) pairs against the envelope.

    Every drawn signal is re-checked to be T-mu persistently exciting over
    the horizon before use (a family bug would otherwise produce vacuous
    verification).  Raises :class:`CertificateViolation` when any sample
    exceeds M e^{-gamma t} ||z0|| by more than the relative slack; otherwise
    returns the report with the worst observed ratio.
    """
    if n_trials < 1:
        raise ValueError("need at least one trial")
    horizon = family.horizon if horizon is None else horizon
    if horizon < family.T:
        raise ValueError("horizon must cover at least one window")
    dt_out = cert.theta / 64.0 if dt_out is None else dt_out
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
    ok = worst[0] <= 1.0 + slack
    report = CertificateCheck(
        ok=ok,
        worst_ratio=worst[0],
        worst_trial=worst[1],
        worst_time=worst[2],
        n_trials=n_trials,
        horizon=horizon,
        slack=slack,
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


def decay_rate_fit(traj: Trajectory, tail_fraction: float = 0.5):
    """Least-squares decay rate from the tail of ln V(t).

    Fits ln V over the last ``tail_fraction`` of the samples and returns
    (gamma_hat, r_squared) with gamma_hat = -slope/2 (V scales like the
    squared norm).  When V hits zero the rate is reported as +inf with
    r_squared 0 (the log fit is undefined; zero energy means the decay
    already finished).
    """
    if not 0 < tail_fraction <= 1:
        raise ValueError("tail_fraction must lie in (0, 1]")
    V = traj.energies
    n = len(V)
    k = max(int(math.ceil(n * tail_fraction)), 2)
    times = traj.times[n - k:]
    tail = V[n - k:]
    if np.any(tail <= 0.0):
        return math.inf, 0.0
    if k < 10:
        raise ValueError("need at least 10 samples in the tail window, got %d" % k)
    y = np.log(tail)
    X = np.vstack([times, np.ones(k)]).T
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    fit = X @ coef
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(-coef[0] / 2.0), float(r2)


@dataclass(frozen=True)
class ProductBoundReport:
    """Per-interval contraction factors and their cumulative product.

    ``cumulative[n]`` bounds V(z(a_{n+1})) / V(z0); it is nonincreasing in n
    since every factor lies in (0, 1].  ``measured_ratios`` (when a
    simulation was attached) are the per-interval ratios
    V(z(a_{n+1})) / V(z(a_n)), each required to stay below its factor plus
    the tolerance.
    """

    intervals: tuple
    costs: tuple
    factors: tuple
    cumulative: tuple
    cost_partial_sums: tuple
    measured_ratios: tuple = None
    ok: bool = True
    tolerance: float = 1e-8
    b_norm: float = 0.0
    caveats: tuple = ()

    def to_dict(self) -> dict:
        return {
            "intervals": [list(ab) for ab in self.intervals],
            "costs": list(self.costs),
            "factors": list(self.factors),
            "cumulative": list(self.cumulative),
            "cost_partial_sums": list(self.cost_partial_sums),
            "measured_ratios": (None if self.measured_ratios is None
                                else list(self.measured_ratios)),
            "ok": self.ok,
            "tolerance": self.tolerance,
            "caveats": list(self.caveats),
        }


def interval_product_bound(sys: LinearSystem, seq: IntervalSequence,
                           signal: Signal = None, costs=None, z0=None,
                           tolerance: float = 1e-8) -> ProductBoundReport:
    """Energy bound V(z(a_{n+1})) <= prod_j (1 - c_j/(1+L_j^2 ||B||^4)) V(z0).

    Costs come either explicitly (``costs`` or ``seq.costs``) or are computed
    from the attached signal as the smallest eigenvalue of the per-interval
    observability Gramian along the restarted undamped flow,

        G_n = int_0^{L_n} alpha(a_n + t) e^{tA^T} B B^T e^{tA} dt,

    which is the exact class constant of the single fixed signal and hence a
    valid c_n.  Explicit costs are validated against the necessary bound
    c_n <= L_n ||B||^2.  With ``z0`` (and a signal) attached, the trajectory
    is evaluated at the interval checkpoints and each measured energy ratio
    is required to stay below its factor plus the tolerance.
    """
    intervals = tuple(seq.intervals)
    lengths = seq.lengths
    b2 = sys.b_norm ** 2
    if costs is None:
        costs = seq.costs
    if costs is None:
        if signal is None:
            raise ValueError("need either explicit costs or a signal to compute them")
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
            if c > L * b2 * (1 + 1e-9) + 1e-12:
                raise ValueError(
                    "cost %g exceeds the necessary bound length*||B||^2 = %g"
                    % (c, L * b2)
                )
    factors = tuple(1.0 - c / (1.0 + L * L * b2 * b2)
                    for c, L in zip(costs, lengths))
    cumulative = []
    run = 1.0
    for f in factors:
        run *= f
        cumulative.append(run)
    sums = []
    s = 0.0
    for c in costs:
        s += c
        sums.append(s)
    measured = None
    ok = True
    if z0 is not None:
        if signal is None:
            raise ValueError("measured ratios need the signal that was simulated")
        z0 = np.asarray(z0, dtype=float).reshape(sys.dim)
        checkpoints = [a for (a, _) in intervals] + [intervals[-1][1]]
        states = _propagate(sys, signal, z0, np.asarray(checkpoints))
        V = 0.5 * np.sum(states * states, axis=1)
        ratios = []
        for n in range(len(intervals)):
            if V[n] <= 0.0:
                ratios.append(0.0)
                continue
            r = float(V[n + 1] / V[n])
            ratios.append(r)
            if r > factors[n] + tolerance:
                ok = False
        measured = tuple(ratios)
    return ProductBoundReport(
        intervals=intervals,
        costs=tuple(costs),
        factors=factors,
        cumulative=tuple(cumulative),
        cost_partial_sums=tuple(sums),
        measured_ratios=measured,
        ok=ok,
        tolerance=tolerance,
        b_norm=sys.b_norm,
        caveats=sys.caveats,
    )


def refine_intervals(seq: IntervalSequence, sig: Signal, T0: float,
                     rho: float) -> IntervalSequence:
    """Split long intervals into cells of length in [T0/2, T0], keep one each.

    Every input interval must carry signal mass >= rho * length (checked in
    exact arithmetic).  Intervals of length <= T0 pass through; a longer one
    is split into ceil(L/T0) equal cells (their common length then lies in
    (T0/2, T0]), and the first cell with mass >= rho * cell-length is kept.
    Such a cell exists by averaging: the cells partition the interval, so if
    every cell fell short the whole interval would.  The mass tests run in
    exact rational arithmetic, which keeps the averaging argument airtight
    at the boundaries.
    """
    if T0 <= 0:
        raise ValueError("T0 must be positive")
    if not 0 < rho <= 1:
        raise ValueError("rho must lie in (0, 1]")
    frho = _frac(rho)
    chosen = []
    for (a, b) in seq.intervals:
        fa, fb = _frac(a), _frac(b)
        if sig.integral(a, b) < frho * (fb - fa):
            raise ValueError(
                "interval (%g, %g) carries mass below rho * length" % (a, b)
            )
        L = b - a
        if L <= T0:
            chosen.append((a, b))
            continue
        r = int(math.ceil(L / T0 - 1e-12))
        edges = [a + k * L / r for k in range(r + 1)]
        edges[-1] = b
        picked = None
        for k in range(r):
            lo, hi = edges[k], edges[k + 1]
            if sig.integral(lo, hi) >= frho * (_frac(hi) - _frac(lo)):
                picked = (lo, hi)
                break
        if picked is None:
            # unreachable by the averaging argument; guard stays for safety
            raise RuntimeError("no qualifying cell in (%g, %g)" % (a, b))
        chosen.append(picked)
    return IntervalSequence(tuple(chosen), rho=rho)


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
    the refined lower bound count * min c over [T0/2, T0] from the
    splitting step.
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
    energy_trend: dict = None

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "divergence_consistent": self.divergence_consistent,
            "partial_sums": list(self.partial_sums),
            "lengths": list(self.lengths),
            "refined_lengths": list(self.refined_lengths),
            "refined_cost_sum": self.refined_cost_sum,
            "refined_count_in_band": self.refined_count_in_band,
            "min_cost_on_band": self.min_cost_on_band,
            "refined_lower_bound": self.refined_lower_bound,
            "T0": self.T0,
            "rule": self.rule,
            "energy_trend": self.energy_trend,
        }


def rho_class_criterion(seq: IntervalSequence, c_of_T, T0: float,
                        traj: Trajectory = None) -> RhoCriterionReport:
    """Partial sums of interval costs and a divergence-consistency verdict.

    ``c_of_T`` maps an interval length to a positive cost (must be positive
    on every length encountered and on [T0/2, T0]).  The partial sums use
    the raw lengths; the refined view replaces each length L > T0 by
    L / ceil(L / T0) (the cell length the splitting step would keep, which
    lands in (T0/2, T0]) and reports the count-times-minimum lower bound
    over the band [T0/2, T0].  When a trajectory is attached its energy
    trend is reported alongside; it never influences the verdict.
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
    partial = []
    s = 0.0
    for c in costs:
        s += c
        partial.append(s)
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
    band = np.linspace(T0 / 2.0, T0, 101)
    band_costs = [float(c_of_T(float(t))) for t in band]
    if any(not c > 0 for c in band_costs):
        raise ValueError("cost function must be positive on [T0/2, T0]")
    min_band = min(band_costs)
    refined_sum = float(sum(c_of_T(L) for L in refined))
    in_band = sum(1 for L in refined if T0 / 2.0 - 1e-12 <= L <= T0 + 1e-12)
    trend = None
    if traj is not None:
        V0, V1 = float(traj.energies[0]), float(traj.energies[-1])
        trend = {
            "V_start": V0,
            "V_end": V1,
            "ratio": (V1 / V0) if V0 > 0 else 0.0,
        }
    word = "divergence-consistent" if consistent else "not divergence-consistent"
    return RhoCriterionReport(
        verdict="%s at horizon n=%d" % (word, n),
        divergence_consistent=consistent,
        partial_sums=tuple(partial),
        lengths=lengths,
        refined_lengths=refined,
        refined_cost_sum=refined_sum,
        refined_count_in_band=in_band,
        min_cost_on_band=min_band,
        refined_lower_bound=in_band * min_band,
        T0=T0,
        energy_trend=trend,
    )
