"""Decay certificates, their exact verification, and interval-product bounds.

A positive class constant c for a signal class on windows of length theta
forces the energy V = ||z||^2 / 2 down by a fixed factor over every window:

    V(z(s + theta)) - V(z(s)) <= -(c / (1 + theta^2 ||B||^4)) V(z(s)).

This module turns such constants into explicit exponential certificates
(q, M, gamma), verifies them on randomly drawn admissible signals (exactly,
by the window propagators, for every initial state, with two simulated
trajectories corroborating the envelope), bounds the energy under damping
that is on only on given intervals by per-interval contraction products
(checked against the simulated trajectory), and runs the divergence
bookkeeping that upgrades interval costs to a strong-stability verdict at a
finite horizon.

Divergence of an infinite series is undecidable from finitely many terms, so
verdicts here are worded "divergence-consistent / not divergence-consistent
at horizon n" and never "stable/unstable".
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .linsys import (LinearSystem, _grid_successors, _levels, _propagate, _sample_grid,
                     _step_matrix, check_sampling, cost_within_bound, simulate)
from .observability import observability_gramian
from .signals import (IntervalSequence, Signal, _periodic_on, from_intervals,
                      make_piecewise, pe_check, periodic_gate)

# verify_certificate grids its windows and trajectories theta /
# SAMPLES_PER_THETA apart, and accepts a window contraction up to
# q (1 + WINDOW_SLACK), rounding, and a trajectory ratio up to 1 + VERIFY_SLACK
SAMPLES_PER_THETA = 64
# verify_certificate multiplies out the windows of as many trials at once as
# hold at most this many values (see _checked_batches), and at least one trial
WINDOW_BATCH_VALUES = 2 ** 16
WINDOW_SLACK = 1e-12
VERIFY_SLACK = 1e-6
WINDOWS_CHECKED = ("every window [s, s + theta] of each T-periodic gate, exactly for every "
                   "initial state, from each start s in [0, T) on the output grid (theta/64 "
                   "apart) or at a breakpoint; starts between them are not checked")
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
    verifier still re-checks every draw.  Built over ``horizon``, a gate is exact
    on [0, horizon + T] (:func:`~pexstab.signals.periodic_gate`), which the verifier reads.
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
        return periodic_gate(self.T, width / 2.0, self.horizon, phase)


@dataclass(frozen=True)
class CertificateCheck:
    """Outcome of checking a decay certificate on drawn admissible signals.

    ``worst_window_contraction`` is the largest ||Phi(s + theta, s)||^2, the
    worst V(s + theta) / V(s) over all initial states, of the windows
    ``windows_checked`` (trial ``worst_window_trial``, start
    ``worst_window_start``); it may exceed q by the relative rounding
    ``window_slack``.  ``worst_ratio`` is the largest ||z(t)|| / (M
    e^{-gamma t} ||z0||) along the trajectories of trial 0 and of the worst
    window's trial; it may exceed 1 by ``slack``.  At t = 0 the ratio is
    1 / M = q^(1/2), so ``worst_ratio`` is at least q^(1/2) by construction
    and tells about the trajectories only where it is larger.
    """

    ok: bool
    worst_window_contraction: float
    worst_window_trial: int
    worst_window_start: float
    worst_ratio: float
    worst_trial: int
    worst_time: float
    n_trials: int
    horizon: float
    slack: float
    window_slack: float
    certificate: DecayCertificate
    windows_checked: str = WINDOWS_CHECKED


class CertificateViolation(RuntimeError):
    """A window contraction exceeded q, or a trajectory the envelope.

    Either the constant fed into the certificate is not a true lower bound
    for the signal class, or the propagation is wrong; the attached report
    records both sides (certificate parameters, violating trial, start or
    time, contraction or ratio) so the two can be told apart.
    """

    def __init__(self, message: str, report: CertificateCheck):
        super().__init__(message)
        self.report = report


def _trial_windows(sig: Signal, T: float, theta: float):
    """One trial's windows: (starts, keys, at, m).

    The starts s in [0, T) are the grid points k dt (dt = theta /
    SAMPLES_PER_THETA), whose windows end at grid point k +
    SAMPLES_PER_THETA, and the breakpoints of ``sig``.  ``keys`` holds the
    (level, h) of each step between consecutive sample times of
    [0, T + theta], two neighbouring grid points (see
    :func:`~pexstab.linsys._grid_successors`) one step over dt; the window
    from starts[i] is the product of the m[i] steps from step at[i] on.
    """
    dt = theta / SAMPLES_PER_THETA
    grid = _sample_grid(sig, T + theta, dt)
    starts = grid[grid < T]
    k = np.rint(starts / dt)
    ends = np.where(k * dt == starts, (k + SAMPLES_PER_THETA) * dt, starts + theta)
    times = np.union1d(grid, ends)
    at = np.searchsorted(times, starts)
    m = np.searchsorted(times, ends) - at
    h = np.where(_grid_successors(times, dt), dt, np.diff(times))
    keys = list(zip(_levels(sig, times[:-1]).tolist(), h.tolist()))
    return starts, keys, at, m


def _window_contractions(sys: LinearSystem, trials):
    """||Phi(s + theta, s)||^2 at every start of a batch of trials.

    ``trials`` are :func:`_trial_windows` of each trial of the batch;
    returns the flat arrays (trial, starts, contractions), trial the index
    into ``trials``, in trial order and each trial's starts in order.  Each
    step is :func:`~pexstab.linsys._step_matrix` of its own exact
    (level, h), made once for the call.  The trials' steps are concatenated
    into one table, and one doubling loop builds every window of the batch:
    D_{l+1}[j] = D_l[j + 2^l] D_l[j] is the product of the 2^(l+1) steps
    from step j, and a window of m steps takes D_l for each bit l of m.
    Products that run past the end of a trial's steps are formed but never
    read, so a trial's windows do not depend on the batch it is in.
    ||Phi||^2 is the top eigenvalue of Phi^T Phi, all of them in one
    ``eigvalsh``; a window whose product is not finite gets nan.
    """
    step = functools.cache(functools.partial(_step_matrix, sys))
    starts, keys, at, m = zip(*trials)
    table = np.array([step(*key) for k in keys for key in k])
    offsets = accumulate(map(len, keys[:-1]), initial=0)
    at = np.concatenate([a + first for a, first in zip(at, offsets)])
    trial = np.repeat(np.arange(len(trials)), list(map(len, starts)))
    starts, m = np.concatenate(starts), np.concatenate(m)
    phi = np.broadcast_to(np.eye(sys.dim), (len(starts), sys.dim, sys.dim)).copy()
    bit = 1
    while True:
        take = (m & bit) != 0
        phi[take] = table[at[take]] @ phi[take]
        at[take] += bit
        if 2 * bit > m.max():
            break
        table = table[bit:] @ table[:-bit]
        bit *= 2
    gram = np.swapaxes(phi, 1, 2) @ phi
    bad = ~np.isfinite(gram).all(axis=(1, 2))
    gram[bad] = 0.0
    top = np.linalg.eigvalsh(gram)[:, -1]
    top[bad] = np.nan
    return trial, starts, top


def _checked_batches(family: GateSignalFamily, n_trials: int, theta: float, dim: int):
    """Each trial's :func:`_trial_windows`, of its gate drawn and checked, in batches.

    A draw that is not T-periodic or not T-mu persistently exciting over
    ``family.horizon``, checked exactly, raises ValueError.  A batch holds
    the trials in order, as many as keep the two levels of their doubling
    tables and their window products, (2 steps + starts) N^2 values per
    trial, within WINDOW_BATCH_VALUES, and at least one.  No gate outlives
    its trial's windows; ``family.draw(i)`` gives it again.
    """
    batch, values = [], 0
    for i in range(n_trials):
        sig = family.draw(i)
        if not _periodic_on(sig, family.T, family.horizon):
            raise ValueError("family drew a signal at trial %d that is not %g-periodic on "
                             "[0, %g]" % (i, family.T, family.horizon))
        # a T-periodic draw has the same mass in the windows from t and t + T
        pe = pe_check(sig, family.T, family.mu, min(family.horizon, 2.0 * family.T))
        if not pe.holds:
            raise ValueError(
                "family drew a non-PE signal at trial %d (worst window mass "
                "%g < mu=%g)" % (i, pe.worst_window_mass, family.mu)
            )
        windows = starts, keys, _, _ = _trial_windows(sig, family.T, theta)
        size = (2 * len(keys) + len(starts)) * dim * dim
        if batch and values + size > WINDOW_BATCH_VALUES:
            yield batch
            batch, values = [], 0
        batch.append(windows)
        values += size
    yield batch


def verify_certificate(sys: LinearSystem, cert: DecayCertificate,
                       family: GateSignalFamily, n_trials: int = 20) -> CertificateCheck:
    """Check the certificate's window contraction exactly on drawn signals.

    Each trial's gate is re-checked, exactly, to be T-periodic and T-mu
    persistently exciting over ``family.horizon``; a draw that is not
    raises ValueError, since a family bug would otherwise make the check
    vacuous.  Being T-periodic, a gate's mass windows from [0, T] and its
    windows of :func:`_trial_windows` stand for every window of the
    horizon at their starts modulo T.  The checked gates go in batches of
    at most WINDOW_BATCH_VALUES values, never splitting a trial (see
    :func:`_checked_batches`), and each batch's windows are multiplied out
    by one :func:`_window_contractions`; a trial's contractions do not
    depend on its batch, and no gate is kept past it.  Trial 0 and the
    worst window's trial are also simulated (:func:`~pexstab.linsys.simulate`),
    each on its gate drawn again by ``family.draw``, over the horizon from a
    random unit z0 each, sampled theta / SAMPLES_PER_THETA apart, against
    the envelope M e^{-gamma t}.  Raises :class:`CertificateViolation`
    when a window contraction exceeds q by more than the relative
    WINDOW_SLACK or a sample the envelope by more than VERIFY_SLACK; else
    returns the report, earliest trial on a tie.
    """
    if n_trials < 1:
        raise ValueError("need at least one trial")
    horizon, theta = family.horizon, cert.theta
    if horizon < theta:
        raise ValueError("verification horizon %g is shorter than theta=%g: the windows "
                         "would run past the gates" % (horizon, theta))
    dt_out = theta / SAMPLES_PER_THETA
    check_sampling(sys, horizon, dt_out)
    window = (-math.inf, -1, 0.0)
    first = 0
    for batch in _checked_batches(family, n_trials, theta, sys.dim):
        trial, starts, contractions = _window_contractions(sys, batch)
        finite = np.isfinite(contractions)
        if not finite.all():
            raise RuntimeError("window propagators of trial %d are not finite"
                               % (first + trial[~finite][0]))
        j = int(np.argmax(contractions))
        if contractions[j] > window[0]:
            window = (float(contractions[j]), first + int(trial[j]), float(starts[j]))
        first += len(batch)
    worst = (-math.inf, -1, 0.0)
    for i in dict.fromkeys((0, window[1])):
        rng = np.random.default_rng((family.seed, 7 * n_trials + i))
        z0 = rng.standard_normal(sys.dim)
        z0 /= np.linalg.norm(z0)
        traj = simulate(sys, family.draw(i), z0, horizon, dt_out)
        # doubling V = ||z||^2 / 2 is exact, so these are the norms' own bits
        norms = np.sqrt(2.0 * traj.energies)
        ratios = norms / (cert.envelope(traj.times) * norms[0])
        j = int(np.argmax(ratios))
        if ratios[j] > worst[0]:
            worst = (float(ratios[j]), i, float(traj.times[j]))
    failed = []
    if window[0] > cert.q * (1.0 + WINDOW_SLACK):
        failed.append("window contraction %.6g of trial %d from s=%g exceeds q"
                      % (window[0], window[1], window[2]))
    if worst[0] > 1.0 + VERIFY_SLACK:
        failed.append("trajectory %d exceeded the certified envelope at t=%g by ratio %.6g"
                      % (worst[1], worst[2], worst[0]))
    report = CertificateCheck(
        ok=not failed,
        worst_window_contraction=window[0],
        worst_window_trial=window[1],
        worst_window_start=window[2],
        worst_ratio=worst[0],
        worst_trial=worst[1],
        worst_time=worst[2],
        n_trials=n_trials,
        horizon=horizon,
        slack=VERIFY_SLACK,
        window_slack=WINDOW_SLACK,
        certificate=cert,
    )
    if failed:
        raise CertificateViolation(
            "%s (q=%g, M=%g, gamma=%g from c=%g): either c is not a lower bound "
            "for the class or the propagation is wrong"
            % ("; ".join(failed), cert.q, cert.M, cert.gamma, cert.c),
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
        # the signal is on at ``level`` over each whole interval
        on = make_piecewise([], [], level)
        got = []
        for (a, b) in intervals:
            G = observability_gramian(sys, 0.0, b - a, signal=on)
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
    V = np.empty(len(checkpoints))

    def energies(rows, states):
        V[rows] = 0.5 * np.sum(states * states, axis=1)

    _propagate(sys, signal, z0, checkpoints, None, energies)
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
