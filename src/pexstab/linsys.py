"""Finite-dimensional systems dz/dt = A z - alpha(t) B B^T z and exact stepping.

``A`` must be dissipative (no eigenvalue of the symmetric part above a small
tolerance); the damping schedule ``alpha`` is a piecewise-constant
:class:`~pexstab.signals.Signal`.  On every cell where ``alpha`` holds a
constant level ``a`` the flow is the matrix exponential of
``(A - a B B^T) * dt``, so trajectories are computed exactly per cell (up to
the exponential's own rounding) rather than by an ODE stepper with local
truncation error.  Propagation steps from cell edge to cell edge, one step
per cell, and fills each cell from its start state, run by run: a run is a
sample one step from the cell start or the sample before it, then the
consecutive points of the output grid after it, filled by doubling with the
steps over 2^j grid spacings; the runs are read off the grid indices, not
inferred from the sample times.  Each run goes to a consumer as it is
filled, and the cell-edge states as one piece at the end; the consumer keeps
what it needs (simulate the energies and output norms, the strong-stability
bound the checkpoint energies), so no (samples, N) array of states is held.
Every step over h at level a is the exponential of its own exact (a, h),
fetched through a memo that lives for one propagation.  Step matrices are
also memoized on the system by exact (level, dt), as arrays of their own,
within STEP_CACHE_BYTES, so repeated trajectories on one system share
them.  For skew-symmetric ``A`` the undamped flow uses a unitary
eigendecomposition of ``iA``, which preserves the energy V = ||z||^2 / 2 to
machine precision.
Signal-weighted observability Gramians of the undamped flow are exact too:
one block matrix exponential per signal cell.  Every matrix exponential of
the package is made in this module, as a step of :func:`_step_matrix` or as
the block of :func:`observability_gramian`; the cell Gramians of a uniform
grid take one block and the cached steps.
"""

from __future__ import annotations

import functools
import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from sys import getsizeof

import numpy as np
import scipy.linalg

from .signals import Signal

# guards against accidentally feeding a PDE-sized problem to dense solvers
DIM_LIMIT = 256

DISSIPATIVITY_TOL = 1e-9

# most bytes the step cache of one system holds, keys included: 509 steps
# of 64 states, 31 of DIM_LIMIT states
STEP_CACHE_BYTES = 16 * 2 ** 20


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
        object.__setattr__(self, "_step_cache", {})
        object.__setattr__(self, "_step_lock", threading.Lock())

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


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled solution of dz/dt = A z - alpha(t) B B^T z.

    ``times`` include every output instant and every signal breakpoint inside
    the horizon, so each inter-sample interval carries a single damping level.
    ``energies[i]`` is V(z_i) = ||z_i||^2 / 2 and ``output_sq[i]`` the
    output norm ||B^T z_i||^2, computed once for both ``damping_rates`` and
    :func:`energy_balance`; ``damping_rates[i]`` is the instantaneous rate
    alpha(t_i) ||B^T z_i||^2 with alpha read right-continuously.  The
    states themselves are not kept: a trajectory holds a few floats per
    sample, whatever the state dimension.
    """

    times: np.ndarray
    energies: np.ndarray
    output_sq: np.ndarray
    damping_rates: np.ndarray
    system: LinearSystem
    signal: Signal


@dataclass(frozen=True)
class EnergyBalance:
    """Residual of V(t) - V(0) + int_0^t alpha ||B^T z||^2 along a trajectory."""

    residual: float
    one_sided: bool


def cost_within_bound(c: float, L: float, b_norm: float) -> bool:
    """Whether an interval cost obeys the necessary bound c <= L ||B||^2.

    No signal on an interval of length L can beat the always-on one, whose
    Gramian is at most L ||B||^2; the slack is 1e-9 relative plus 1e-12.
    """
    return c <= L * b_norm ** 2 * (1 + 1e-9) + 1e-12


def _step_matrix(sys: LinearSystem, level: float, dt: float) -> np.ndarray:
    """Exact step e^{(A - level B B^T) dt} of a cell at constant damping level.

    For skew A at level 0 the step comes from the cached unitary
    eigendecomposition of iA, so it is orthogonal to machine precision for
    any dt; every other step is ``scipy.linalg.expm``.  Either way it is a
    C-contiguous array of its own.  Steps are memoized on the system by
    exact (level, dt), read-only, up to STEP_CACHE_BYTES of keys and arrays;
    the function is pure, so what the cache holds never changes a result.
    """
    key = (level, dt)
    P = sys._step_cache.get(key)
    if P is not None:
        return P
    # B B^T vanishes identically when ||B|| = 0, whatever the level
    if sys.skew_flag and (level == 0.0 or sys.b_norm == 0.0):
        w, U = sys._skew_eig()
        P = np.ascontiguousarray(((U * np.exp(-1j * w * dt)) @ U.conj().T).real)
    else:
        P = scipy.linalg.expm(sys.closed_loop(level) * dt)
    P.flags.writeable = False
    # every entry is a key and an owned N x N array, so the budget is a count
    entries = STEP_CACHE_BYTES // (getsizeof(key) + getsizeof(P))
    with sys._step_lock:
        if len(sys._step_cache) < entries:
            sys._step_cache.setdefault(key, P)
    return P


def _grid_successors(times: np.ndarray, dt: float) -> np.ndarray:
    """Whether each sample after the first is the grid point right after the
    sample before it: both on the grid (rint(t / dt) dt == t, exactly) and
    one grid index apart."""
    k = np.rint(times / dt)
    on = k * dt == times
    return on[1:] & on[:-1] & (np.diff(k) == 1.0)


def _propagate(sys: LinearSystem, sig: Signal, z0, times, dt_out, sink):
    """The states of one trajectory, cell by cell and run by run.

    ``times`` are strictly increasing and >= 0; ``dt_out`` is the spacing
    they were gridded at (see :func:`_sample_grid`), or None for a plain
    time list.  ``sink(rows, states)`` gets each finished piece: the
    C-contiguous (k, N) states of the samples ``rows`` (a slice or an index
    array) of ``times``, every sample exactly once, in no fixed order.

    The state crosses each signal cell [c0, c1) in one exact step
    e^{(A - a B B^T)(c1 - c0)} from the cell's start state, so the
    cell-edge states do not depend on how densely the output is sampled.
    A cell's samples are filled in runs: a run opens at the cell's first
    sample and at each sample that is not the grid point after the one
    before it (see :func:`_grid_successors`; with no ``dt_out``, at every
    sample).  Its first sample is one step from the cell start or the
    sample before it; the m grid points after it are the rows P^k z,
    k = 1..m, with P the step over dt_out, filled by doubling: rows [k, 2k)
    are rows [0, k) times (P^k)^T, with P^k, k a power of two, the step
    over k dt_out.  Each run goes to the sink as one piece, and the
    cell-edge states as one piece at the end.

    Every step is :func:`_step_matrix` of its own exact (level, h), so a
    state does not depend on the order in which the steps are asked for.
    """
    N = sys.dim
    times = np.asarray(times, dtype=float).reshape(-1)
    if not len(times) or times[0] < 0.0 or not (np.diff(times) > 0.0).all():
        raise ValueError("propagation times must be nonempty, strictly increasing and >= 0")
    z0 = np.asarray(z0, dtype=float).reshape(N)

    def emit(rows, states):
        if not np.isfinite(states).all():
            raise RuntimeError("propagation produced non-finite states")
        sink(rows, states)

    if times[0] == 0.0:
        emit(np.array([0]), z0[None])
    if times[-1] == 0.0:
        return
    n = len(times)
    cells = list(sig.cells_between(0.0, float(times[-1])))
    starts = np.array([c for c, _, _ in cells])
    # cell k fills samples [begin[k], end[k]); a sample on a cell edge takes
    # the edge state instead
    begin = np.searchsorted(times, starts, side="right")
    end = np.append(np.searchsorted(times, starts[1:], side="left"), n)
    # the first sample of each run, in order
    opens = np.ones(n, dtype=bool)
    if dt_out is not None:
        opens[1:] = ~_grid_successors(times, dt_out)
    opens[begin] = True
    opens = np.flatnonzero(opens).tolist()
    # the system's cache can be full: each (level, h) is still made once
    step = functools.cache(functools.partial(_step_matrix, sys))
    z = z0  # the state at the start of the cell
    edges, edge_states = [], []
    for (c0, c1, level), b, e in zip(cells, begin.tolist(), end.tolist()):
        firsts = opens[bisect_left(opens, b):bisect_left(opens, e)]
        x = z
        for k, stop in zip(firsts, firsts[1:] + [e]):
            h = float(times[k] - (c0 if k == b else times[k - 1]))
            run = np.empty((stop - k, N))
            np.matmul(step(level, h), x, out=run[0])
            m = stop - k - 1
            if m:
                np.matmul(step(level, dt_out), run[0], out=run[1])
            r = 1
            while r < m:
                c = min(r, m - r)
                np.matmul(run[1:1 + c], step(level, dt_out * r).T, out=run[1 + r:1 + r + c])
                r *= 2
            emit(slice(k, stop), run)
            x = run[-1].copy()  # a copy, so the run is freed before the next one
        if e == n:
            break
        z = step(level, c1 - c0) @ z
        if times[e] == c1:
            edges.append(e)
            edge_states.append(z)
    if edges:
        emit(np.array(edges), np.array(edge_states))


def _sample_grid(sig: Signal, horizon: float, dt_out: float) -> np.ndarray:
    """The grid 0, dt_out, 2 dt_out, ... below the horizon, the horizon, and
    every breakpoint of ``sig`` inside (0, horizon), in order.

    Instants within 1e-12 max(1, horizon) of each other are one sample: a
    grid point that close to a breakpoint gives way to it (t = 0 stays), so
    no interval between samples straddles a switch; of two grid points, the
    first stays.  Grid point k is the float product k * dt_out, so
    np.rint(t / dt_out) * dt_out == t holds exactly at each of them, with
    no tolerance; :func:`_propagate` reads the runs of each cell off these
    indices.
    """
    n = int(np.floor(horizon / dt_out + 1e-9))
    pts = np.arange(n + 1) * dt_out
    # the last grid point can lie just past the horizon: it gives way to it
    pts = np.append(pts[pts < horizon], horizon)
    breaks = np.asarray(sig.breakpoints, dtype=float)
    inside = breaks[(breaks > 0.0) & (breaks < horizon)]
    merged = np.unique(np.concatenate([pts, inside]))
    keep = np.concatenate([[True], np.diff(merged) > 1e-12 * max(1.0, horizon)])
    if keep.all():
        return merged
    # the later of a close pair goes, unless it is a breakpoint: then the
    # earlier goes if it is a grid point other than 0
    later = np.flatnonzero(~keep)
    later = later[np.isin(merged[later], inside)]
    keep[later] = True
    earlier = later - 1
    keep[earlier[(merged[earlier] > 0.0) & ~np.isin(merged[earlier], inside)]] = False
    return merged[keep]


def _levels(sig: Signal, times: np.ndarray) -> np.ndarray:
    """alpha(t) at each of ``times`` (right-continuous), as one array."""
    table = np.append(np.asarray(sig.values, dtype=float), sig.tail_value)
    return table[np.searchsorted(sig.breakpoints, times, side="right")]


def _row_norms_sq(X: np.ndarray) -> np.ndarray:
    """||x_i||^2 of every row, with no temporary the size of X."""
    return np.einsum("ij,ij->i", X, X)


def _check_dim(sys: LinearSystem):
    """Refuse a system above DIM_LIMIT."""
    if sys.dim > DIM_LIMIT:
        raise ValueError("state dimension %d exceeds the dense-solver limit %d"
                         % (sys.dim, DIM_LIMIT))


def check_sampling(sys: LinearSystem, horizon: float, dt_out: float):
    """Refuse a system above DIM_LIMIT and a nonpositive horizon or spacing."""
    _check_dim(sys)
    if horizon <= 0 or dt_out <= 0:
        raise ValueError("horizon and dt_out must be positive")


def simulate(sys: LinearSystem, sig: Signal, z0, horizon: float, dt_out: float) -> Trajectory:
    """Simulate dz/dt = A z - alpha(t) B B^T z by per-cell matrix exponentials.

    Output instants are the regular grid 0, dt_out, 2 dt_out, ... plus the
    signal breakpoints inside the horizon (so energy bookkeeping never
    straddles a damping switch) plus the horizon itself.  The state steps
    from cell edge to cell edge and the samples inside each cell are filled
    run by run (see :func:`_propagate`).  The energies and output norms are
    taken from each run of states as it is filled, so no (samples, N)
    array of states is held.

    Parameters
    ----------
    z0 : array-like, shape (N,)
        Initial state.
    horizon : float
        Final time, > 0.
    dt_out : float
        Output spacing, > 0; the cell-edge states do not depend on dt_out.
    """
    check_sampling(sys, horizon, dt_out)
    times = _sample_grid(sig, float(horizon), float(dt_out))
    energies = np.empty(len(times))
    output_sq = np.empty(len(times))

    def norms(rows, states):
        energies[rows] = 0.5 * _row_norms_sq(states)
        # numpy hands a one-row product to gemv, which can round apart from
        # the same row in a matrix product, so a lone row is taken twice; a
        # test holds the norms to the bits of one product of all the states
        if len(states) == 1:
            out = (np.repeat(states, 2, axis=0) @ sys.B)[:1]
        else:
            out = states @ sys.B
        output_sq[rows] = _row_norms_sq(out)

    _propagate(sys, sig, z0, times, float(dt_out), norms)
    return Trajectory(
        times=times,
        energies=energies,
        output_sq=output_sq,
        damping_rates=_levels(sig, times) * output_sq,
        system=sys,
        signal=sig,
    )


def energy_balance(traj: Trajectory) -> EnergyBalance:
    """Check V(t) - V(0) = -int_0^t alpha ||B^T z||^2 along a trajectory.

    The damping integral is accumulated by the trapezoid rule on each
    inter-sample interval from the trajectory's ``output_sq``; sample grids
    produced by :func:`simulate` are aligned with the signal cells, so the
    level is constant per interval and the only quadrature error is the
    smooth ||B^T z||^2 curvature.

    Returns the largest absolute residual for skew-symmetric A.  For merely
    dissipative A the identity becomes the inequality
    ``V(t) - V(0) + int <= 0`` and the positive part of the worst violation
    is returned with ``one_sided=True``.
    """
    t, g = traj.times, traj.output_sq
    levels = _levels(traj.signal, t[:-1])
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
    _check_dim(sys)
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
            P = _step_matrix(sys, 0.0, c0)
            cell = P.T @ cell @ P
        G += level * cell
    return (G + G.T) / 2
