"""Finite-dimensional systems dz/dt = A z - alpha(t) B B^T z and exact stepping.

``A`` must be dissipative (no eigenvalue of the symmetric part above a small
tolerance); the damping schedule ``alpha`` is a piecewise-constant
:class:`~pexstab.signals.Signal`.  On every cell where ``alpha`` holds a
constant level ``a`` the flow is the matrix exponential of
``(A - a B B^T) * dt``, so trajectories are computed exactly per cell (up to
the exponential's own rounding) rather than by an ODE stepper with local
truncation error.  For skew-symmetric ``A`` the undamped flow uses a unitary
eigendecomposition of ``iA``, which preserves the energy V = ||z||^2 / 2 to
machine precision.  Signal-weighted observability Gramians of the undamped
flow are exact too: one block matrix exponential per signal cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .signals import Signal

# guards against accidentally feeding a PDE-sized problem to dense solvers
DIM_LIMIT = 256

DISSIPATIVITY_TOL = 1e-9


class UncontrollableError(ValueError):
    """Raised when (A, B) fails the controllability rank condition."""


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """Constant system matrices with the damping structure B B^T.

    Attributes
    ----------
    A : ndarray, shape (N, N)
        Drift generator; its symmetric part must be negative semidefinite
        (checked at construction, tolerance 1e-9 on the largest eigenvalue).
    B : ndarray, shape (N, r)
        Damping input map; the feedback term is ``alpha(t) B B^T z``.
    b_norm : float
        Spectral norm of B, set at construction.
    skew_flag : bool
        True when A is skew-symmetric to machine precision; enables the
        energy-preserving eigendecomposition path for the undamped flow.
    caveats : tuple of str
        Free-text flags that reports built from this system must carry
        (e.g. the modal-truncation caveat for quantum-particle models).
    """

    A: np.ndarray
    B: np.ndarray
    b_norm: float = field(init=False, default=0.0)
    skew_flag: bool = field(init=False, default=False)
    caveats: tuple = ()

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.asarray(self.B, dtype=float)
        if B.ndim == 1:
            B = B[:, None]
        if A.shape[0] != A.shape[1]:
            raise ValueError("A must be square, got shape %s" % (A.shape,))
        if B.shape[0] != A.shape[0]:
            raise ValueError(
                "B must have one row per state, got A %s and B %s" % (A.shape, B.shape)
            )
        sym = (A + A.T) / 2
        top = float(np.linalg.eigvalsh(sym).max())
        if top > DISSIPATIVITY_TOL:
            raise ValueError(
                "A is not dissipative: lambda_max((A+A^T)/2) = %.3e exceeds %.1e"
                % (top, DISSIPATIVITY_TOL)
            )
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "b_norm", float(np.linalg.norm(B, 2)))
        scale = 1.0 + float(np.abs(A).max())
        object.__setattr__(self, "skew_flag", bool(np.abs(A + A.T).max() <= 1e-12 * scale))
        object.__setattr__(self, "caveats", tuple(self.caveats))

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    def closed_loop(self, level: float) -> np.ndarray:
        """Generator A - level * B B^T active while alpha(t) == level."""
        if level == 0.0:
            return self.A
        return self.A - level * (self.B @ self.B.T)

    def _skew_eig(self):
        """Cached unitary eigendecomposition of iA (A skew): A = U diag(-iw) U^H."""
        cache = getattr(self, "_skew_eig_cache", None)
        if cache is None:
            w, U = np.linalg.eigh(1j * self.A)
            cache = (w, U)
            object.__setattr__(self, "_skew_eig_cache", cache)
        return cache

    def flow(self, times, z0) -> np.ndarray:
        """Undamped flow e^{tA} z0 at the given times (1-d array-like)."""
        times = np.asarray(times, dtype=float)
        z0 = np.asarray(z0, dtype=float).reshape(self.dim)
        if self.skew_flag:
            w, U = self._skew_eig()
            c0 = U.conj().T @ z0
            phases = np.exp(np.outer(times, -1j * w))
            return np.real(phases * c0 @ U.T)
        out = np.empty((len(times), self.dim))
        order = np.argsort(times)
        t_prev, z = 0.0, z0.copy()
        for idx in order:
            dt = times[idx] - t_prev
            if dt < 0:
                raise ValueError("flow times must be nonnegative")
            if dt > 0:
                z = scipy.linalg.expm(self.A * dt) @ z
                t_prev = times[idx]
            out[idx] = z
        return out


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled solution of dz/dt = A z - alpha(t) B B^T z.

    ``times`` include every output instant and every signal breakpoint inside
    the horizon, so each inter-sample interval carries a single damping level.
    ``damping_rates[i]`` is the instantaneous rate alpha(t_i) ||B^T z_i||^2
    with alpha read right-continuously.
    """

    times: np.ndarray
    states: np.ndarray
    energies: np.ndarray
    damping_rates: np.ndarray
    system: LinearSystem
    signal: Signal

    def energy_at(self, t: float) -> float:
        i = int(np.searchsorted(self.times, t))
        for j in (i - 1, i):
            if 0 <= j < len(self.times) and abs(self.times[j] - t) <= 1e-9 * (1 + abs(t)):
                return float(self.energies[j])
        raise ValueError("time %s is not a sample instant" % t)


@dataclass(frozen=True)
class EnergyBalance:
    """Residual of V(t) - V(0) + int_0^t alpha ||B^T z||^2 along a trajectory."""

    residual: float
    one_sided: bool


@dataclass(frozen=True)
class GapCheck:
    """Outcome of the window decay estimate between two instants a < b."""

    lhs: float
    rhs: float
    integral: float
    margin: float
    ok: bool
    tolerance: float


def _propagate(sys: LinearSystem, sig: Signal, z0: np.ndarray, times: np.ndarray):
    """States at strictly increasing times >= 0, exact per signal cell."""
    z = np.asarray(z0, dtype=float).reshape(sys.dim)
    out = np.empty((len(times), sys.dim))
    cache = {}

    def step(z, level, dt):
        if dt == 0.0:
            return z
        if sys.b_norm == 0.0:
            level = 0.0  # B B^T vanishes identically; keep the skew fast path
        key = (level, dt)
        P = cache.get(key)
        if P is None:
            if level == 0.0 and sys.skew_flag:
                w, U = sys._skew_eig()
                P = np.real(U @ np.diag(np.exp(-1j * w * dt)) @ U.conj().T)
            else:
                P = scipy.linalg.expm(sys.closed_loop(level) * dt)
            cache[key] = P
        return P @ z

    pos = 0
    if len(times) and times[0] == 0.0:
        out[0] = z
        pos = 1
    t_prev = 0.0
    for i in range(pos, len(times)):
        t_next = float(times[i])
        # cross the signal cells between t_prev and t_next one at a time
        for c0, c1, level in sig.cells_between(t_prev, t_next):
            z = step(z, level, c1 - c0)
        t_prev = t_next
        out[i] = z
    if not np.isfinite(out).all():
        raise RuntimeError("propagation produced non-finite states")
    return out


def _sample_grid(sig: Signal, horizon: float, dt_out: float) -> np.ndarray:
    n = int(np.floor(horizon / dt_out + 1e-9))
    pts = [k * dt_out for k in range(n + 1)]
    if pts[-1] < horizon:
        pts.append(horizon)
    inside = [b for b in sig.breakpoints if 0.0 < b < horizon]
    merged = np.unique(np.concatenate([pts, inside]))
    # drop near-duplicates (grid point within 1e-12 of a breakpoint)
    keep = [merged[0]]
    for t in merged[1:]:
        if t - keep[-1] > 1e-12 * max(1.0, horizon):
            keep.append(t)
    return np.asarray(keep)


def simulate(sys: LinearSystem, sig: Signal, z0, horizon: float, dt_out: float) -> Trajectory:
    """Simulate dz/dt = A z - alpha(t) B B^T z by per-cell matrix exponentials.

    Output instants are the regular grid 0, dt_out, 2 dt_out, ... plus the
    signal breakpoints inside the horizon (so energy bookkeeping never
    straddles a damping switch) plus the horizon itself.

    Parameters
    ----------
    z0 : array-like, shape (N,)
        Initial state.
    horizon : float
        Final time, > 0.
    dt_out : float
        Output spacing, > 0; propagation itself is exact per cell and does
        not depend on dt_out.
    """
    if sys.dim > DIM_LIMIT:
        raise ValueError("state dimension %d exceeds the dense-solver limit %d"
                         % (sys.dim, DIM_LIMIT))
    if horizon <= 0 or dt_out <= 0:
        raise ValueError("horizon and dt_out must be positive")
    times = _sample_grid(sig, float(horizon), float(dt_out))
    states = _propagate(sys, sig, z0, times)
    energies = 0.5 * np.sum(states * states, axis=1)
    bz = states @ sys.B
    rates = np.array([sig.value_at(t) for t in times]) * np.sum(bz * bz, axis=1)
    return Trajectory(
        times=times,
        states=states,
        energies=energies,
        damping_rates=rates,
        system=sys,
        signal=sig,
    )


def energy_balance(traj: Trajectory) -> EnergyBalance:
    """Check V(t) - V(0) = -int_0^t alpha ||B^T z||^2 along a trajectory.

    The damping integral is accumulated by the trapezoid rule on each
    inter-sample interval; sample grids produced by :func:`simulate` are
    aligned with the signal cells, so the level is constant per interval and
    the only quadrature error is the smooth ||B^T z||^2 curvature.

    Returns the largest absolute residual for skew-symmetric A.  For merely
    dissipative A the identity becomes the inequality
    ``V(t) - V(0) + int <= 0`` and the positive part of the worst violation
    is returned with ``one_sided=True``.
    """
    t, states = traj.times, traj.states
    bz = states @ traj.system.B
    g = np.sum(bz * bz, axis=1)
    levels = np.array([traj.signal.value_at(ti) for ti in t[:-1]])
    inc = levels * 0.5 * (g[:-1] + g[1:]) * np.diff(t)
    cum = np.concatenate([[0.0], np.cumsum(inc)])
    drift = traj.energies - traj.energies[0] + cum
    if traj.system.skew_flag:
        return EnergyBalance(residual=float(np.abs(drift).max()), one_sided=False)
    return EnergyBalance(residual=float(max(drift.max(), 0.0)), one_sided=True)


def kalman_index(sys: LinearSystem) -> int:
    """Smallest K with rank [B, AB, ..., A^K B] = N.

    Rank is decided from singular values with relative tolerance 1e-9.
    Raises :class:`UncontrollableError` when even K = N - 1 is rank
    deficient (the pair can never become controllable beyond that by
    Cayley-Hamilton).
    """
    if sys.dim > DIM_LIMIT:
        raise ValueError("state dimension %d exceeds the dense-solver limit %d"
                         % (sys.dim, DIM_LIMIT))
    N = sys.dim
    blocks = [sys.B]
    for K in range(N):
        M = np.hstack(blocks)
        s = np.linalg.svd(M, compute_uv=False)
        rank = int(np.sum(s > 1e-9 * s[0])) if s.size else 0
        if rank == N:
            return K
        blocks.append(sys.A @ blocks[-1])
    raise UncontrollableError(
        "rank of [B, AB, ..., A^%d B] is below the state dimension %d" % (N - 1, N)
    )


def observability_gramian(sys: LinearSystem, t0: float, t1: float,
                          signal: Signal = None) -> np.ndarray:
    """Gramian int_{t0}^{t1} alpha(t) e^{tA^T} B B^T e^{tA} dt, exactly.

    With ``signal=None`` the weight alpha is 1; otherwise the integral is
    the level-weighted sum over the signal cells inside [t0, t1].  Each cell
    integral comes from Van Loan's block exponential (C. Van Loan, "Computing
    integrals involving the matrix exponential", IEEE TAC 1978): with
    E = expm([[-A^T, B B^T], [0, A]] L), int_0^L e^{sA^T} B B^T e^{sA} ds is
    E22^T E12, and a cell starting at c0 > 0 is that times the congruence by
    e^{c0 A}.  No quadrature is involved, so the smallest eigenvalue of the
    result is the observability constant of the fixed signal up to rounding.
    """
    if not 0 <= t0 < t1:
        raise ValueError("need 0 <= t0 < t1")
    N = sys.dim
    block = np.zeros((2 * N, 2 * N))
    block[:N, :N] = -sys.A.T
    block[:N, N:] = sys.B @ sys.B.T
    block[N:, N:] = sys.A
    pieces = [(t0, t1, 1.0)] if signal is None else signal.cells_between(t0, t1)
    G = np.zeros((N, N))
    for c0, c1, level in pieces:
        if level == 0.0:
            continue
        E = scipy.linalg.expm(block * (c1 - c0))
        cell = E[N:, N:].T @ E[:N, N:]
        if c0 > 0.0:
            P = scipy.linalg.expm(sys.A * c0)
            cell = P.T @ cell @ P
        G += level * cell
    return (G + G.T) / 2


def gap_estimate_check(sys: LinearSystem, sig: Signal, z0, a: float, b: float,
                       tolerance: float = 1e-9) -> GapCheck:
    """Check the per-window energy decay estimate between instants a < b.

    Verifies, along the damped trajectory from ``z0``,

        V(z(b)) - V(z(a)) <= -(2 + 2 (b-a)^2 ||B||^4)^{-1}
                              * int_0^{b-a} alpha(a+t) ||B^T e^{tA} z(a)||^2 dt

    where the integral runs along the *undamped* flow started at z(a) and
    equals z(a)^T G z(a) for the exact :func:`observability_gramian` G of
    the shifted signal over [0, b-a].
    """
    if not 0 <= a < b:
        raise ValueError("need 0 <= a < b, got a=%s b=%s" % (a, b))
    za, zb = _propagate(sys, sig, z0, np.array([float(a), float(b)]))
    Va = 0.5 * float(za @ za)
    Vb = 0.5 * float(zb @ zb)
    L = b - a
    total = float(za @ observability_gramian(sys, 0.0, L, sig.shifted(a)) @ za)
    rhs = -total / (2.0 + 2.0 * L * L * sys.b_norm ** 4)
    lhs = Vb - Va
    margin = rhs - lhs
    return GapCheck(lhs=lhs, rhs=rhs, integral=total, margin=margin,
                    ok=bool(lhs <= rhs + tolerance), tolerance=tolerance)
