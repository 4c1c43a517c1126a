"""Finite-dimensional systems dz/dt = A z - alpha(t) B B^T z and exact stepping.

``A`` must be dissipative (no eigenvalue of the symmetric part above a small
tolerance); the damping schedule ``alpha`` is a piecewise-constant
:class:`~pexstab.signals.Signal`.  On every cell where ``alpha`` holds a
constant level ``a`` the flow is the matrix exponential of
``(A - a B B^T) * dt``, so trajectories are computed exactly per cell (up to
the exponential's own rounding) rather than by an ODE stepper with local
truncation error.  Propagation steps from cell edge to cell edge, one step
per cell, and fills the output samples inside a cell from its start state:
a run of equally spaced samples is the powers of one step matrix, built by
doubling.  The k-th runs of all cells are filled together, one matrix
product per doubling step over every run of one (level, spacing), up to a
block of 2^16 state entries; a lone run, and each run of a larger group,
is filled the same way in its own rows of the output.  Step matrices are
memoized on the system by exact (level, dt), as arrays of their own, within
STEP_CACHE_BYTES, so repeated trajectories on one system share them.  For
skew-symmetric ``A`` the undamped flow uses a unitary eigendecomposition of
``iA``, which preserves the energy V = ||z||^2 / 2 to machine precision.
Signal-weighted observability Gramians of the undamped flow are exact too:
one block matrix exponential per signal cell.
"""

from __future__ import annotations

import threading
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

# rows of the states that simulate multiplies by B at a time
_OUTPUT_CHUNK_ROWS = 4096


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
    ``output_sq[i]`` is the output norm ||B^T z_i||^2, computed once for
    both ``damping_rates`` and :func:`energy_balance`; ``damping_rates[i]``
    is the instantaneous rate alpha(t_i) ||B^T z_i||^2 with alpha read
    right-continuously.
    """

    times: np.ndarray
    states: np.ndarray
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


def _orthogonal_step(sys: LinearSystem, level: float) -> bool:
    """Whether steps at ``level`` are the undamped flow of a skew A."""
    # B B^T vanishes identically when ||B|| = 0, whatever the level
    return sys.skew_flag and (level == 0.0 or sys.b_norm == 0.0)


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
    if _orthogonal_step(sys, level):
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


# Sample spacings that agree within this many machine epsilons of t are one
# spacing: k * dt_out grids round each instant to within an ulp of t.
_SPACING_ULPS = 4.0

# Largest |G| |d| for which a cached step over h stands in for the step over
# h + d after a first-order correction; the dropped |G d|^2 / 2 is < eps / 4.
_NEAR_STEP = 1e-8

# Runs of one (level, h) that are filled together hold at most this many
# state entries in their (m, R, N) block; larger groups, and lone runs, are
# filled run by run into the output.
_BLOCK_ELEMENTS = 2 ** 16


def _runs(times: np.ndarray, prev: np.ndarray, heads: np.ndarray):
    """Maximal runs of equal spacing among ``times``.

    ``prev[k]`` is the point sample k is stepped from (the previous sample,
    or the start of its cell) and ``heads`` the samples that must open a run.
    Returns, per run: first index, length, mean spacing h, the largest
    distance of a sample from its place prev[first] + j h on the run's
    lattice, and the tolerance for that distance (a few ulps of t).
    """
    n = len(times)
    gaps = times - prev
    tol = _SPACING_ULPS * np.finfo(float).eps * np.maximum(1.0, times)
    head = np.zeros(n, dtype=bool)
    head[heads] = True
    head[0] = True
    head[1:] |= np.abs(np.diff(gaps)) > tol[1:]
    lo = np.flatnonzero(head)
    m = np.diff(lo, append=n)
    base = prev[lo]
    h = (times[lo + m - 1] - base) / m
    rid = np.cumsum(head) - 1
    j = np.arange(1, n + 1) - lo[rid]
    err = np.maximum.reduceat(np.abs(base[rid] + j * h[rid] - times), lo)
    return lo, m, h, err, tol[lo + m - 1]


def _spacings(level, h, m, err, tol):
    """Index of the spacing each multi-sample run is filled at, or -1 where
    its gaps drift too far for one spacing; and the spacings, in order.

    The runs are taken in order.  A run takes the first spacing already in
    use at its level that still lands every sample within tol; failing
    that, its own h when its lattice error is within tol, which puts h in
    use.  Reusing spacings keeps the step cache small.  Each pass settles
    the runs up to the next one that puts a new spacing in use.
    """
    pick = np.full(len(h), -1)
    used = []
    first = 0
    while True:
        new = np.flatnonzero((pick[first:] < 0) & (err[first:] <= tol[first:]))
        if not len(new):
            return pick, np.array(used)
        f = first + int(new[0])
        pick[f] = len(used)
        used.append(h[f])
        rest = slice(f + 1, None)
        near = ((pick[rest] < 0) & (level[rest] == level[f])
                & (err[rest] + m[rest] * np.abs(h[f] - h[rest]) <= tol[rest]))
        pick[rest][near] = pick[f]
        first = f + 1


def _propagate(sys: LinearSystem, sig: Signal, z0: np.ndarray, times: np.ndarray):
    """States at strictly increasing times >= 0, stepped from cell edge to edge.

    The state crosses each signal cell [c0, c1) in one exact step
    e^{(A - a B B^T)(c1 - c0)}, so the chain of cell-edge states does not
    depend on how densely the output is sampled.  The samples inside a cell
    are filled from the cell's start state: their times are split into
    maximal runs of equal spacing h (equal within a few ulps of t), and a run
    of m samples is the rows P_h^k z, k = 1..m, with P_h the step over h.
    The rows are filled by doubling: rows [k, 2k) are rows [0, k) times
    (P_h^k)^T.  The k-th runs of all cells form a wave, which needs only
    the (k-1)-th.  A wave's runs of one (level, h) are filled together on
    one time-major (m, R, N) block, so each doubling step is one matrix
    product over all R runs, and a trajectory costs a few array operations
    per (level, h) and wave, not per cell.  A lone run, and each run of a
    group whose block would exceed _BLOCK_ELEMENTS, is filled on a block
    that is a view of its own rows of the output.  Every row is the same
    product of the same matrices as in a run-by-run fill; a row formed from
    one row stays a matrix-vector product, which BLAS rounds apart from a
    matrix product.  A BLAS whose matrix product rounds a row by the rows
    around it (OpenBLAS from 32 states) can still move the last bits.

    Step matrices and their squarings are cached per (level, h) for the
    call, their exponentials also on the system (see :func:`_step_matrix`).
    A step whose length differs from an exponentiated one only by the
    rounding of cell edges is derived from it by a first-order correction
    that is exact to rounding.  An irregular time list is a sequence of runs
    of length 1, each one step as in sample-by-sample propagation.
    """
    times = np.asarray(times, dtype=float)
    z = np.asarray(z0, dtype=float).reshape(sys.dim)
    n, N = len(times), sys.dim
    out = np.empty((n, N))
    if n == 0:
        return out
    if times[0] < 0.0 or np.any(np.diff(times) <= 0.0):
        raise ValueError("propagation times must be strictly increasing and >= 0")
    if times[0] == 0.0:
        out[0] = z
    cells = list(sig.cells_between(0.0, float(times[-1])))
    if not cells:  # the single time 0
        return out
    starts = np.array([c0 for c0, _, _ in cells])
    levels = np.array([level for _, _, level in cells])
    # cell k fills samples [begin[k], end[k]); a sample on a cell edge takes
    # the edge state instead
    begin = np.searchsorted(times, starts, side="right")
    end = np.append(np.searchsorted(times, starts[1:], side="left"), n)
    prev = np.concatenate([[0.0], times[:-1]])
    held = begin < end
    prev[begin[held]] = starts[held]
    lo, m, h, err, tol = _runs(times, prev, np.concatenate([begin, end[:-1]]))

    # the cell each run fills; the runs of the sample at t = 0 and of the
    # samples on cell edges fill none
    cell = np.searchsorted(end, lo, side="right")
    keep = lo >= begin[cell]
    multi = np.flatnonzero(keep & (m > 1))
    pick, used = _spacings(levels[cell[multi]], h[multi], m[multi], err[multi], tol[multi])
    h[multi[pick >= 0]] = used[pick[pick >= 0]]
    # a run whose gaps drift off one lattice steps singly: runs of length 1
    single = np.zeros(len(lo), dtype=bool)
    single[multi[pick < 0]] = True
    kept = np.flatnonzero(keep)
    count = np.where(single[kept], m[kept], 1)
    rep = np.repeat(kept, count)
    run_lo = lo[rep] + np.arange(len(rep)) - np.repeat(np.cumsum(count) - count, count)
    run_m = np.where(single[rep], 1, m[rep])
    run_h = np.where(single[rep], times[run_lo] - prev[run_lo], h[rep])
    run_cell = cell[rep]
    run_level = levels[run_cell]
    wave = np.arange(len(rep)) - np.searchsorted(run_cell, run_cell, side="left")

    powers = {}     # (level, h) -> [P_h, P_h^2, P_h^4, ...]
    exact = {}      # level -> (generator, its 1-norm, [(h, P_h) from _step_matrix])

    def new_step(level, h):
        # Cell lengths that differ only by the rounding of their edges share
        # one exponential: e^{G (h' + d)} = P_h' (I + G d) + O(|G d|^2), exact
        # to rounding while |G| |d| <= _NEAR_STEP.
        if level not in exact:
            G = sys.closed_loop(level)
            exact[level] = (G, float(np.abs(G).sum(axis=0).max()), [])
        G, norm, anchors = exact[level]
        for h_near, P in anchors:
            if abs(h - h_near) * norm <= _NEAR_STEP:
                return P + (h - h_near) * (P @ G)
        P = _step_matrix(sys, level, h)
        anchors.append((h, P))
        return P

    def power(level, h, j):
        pw = powers.get((level, h))
        if pw is None:
            pw = powers[(level, h)] = [new_step(level, h)]
        while len(pw) <= j:
            if _orthogonal_step(sys, level):
                # squaring would let orthogonality slip by ~eps per doubling;
                # the eigendecomposition gives each power exactly
                pw.append(_step_matrix(sys, level, h * 2 ** len(pw)))
            else:
                pw.append(pw[-1] @ pw[-1])
        return pw[j]

    def fill_block(g, Z, level, h):
        # the rows P_h^k z, k = 1..m, of the runs g on one time-major
        # (m, R, N) block, a view of out's own rows for a lone run: row 0 and
        # every row made from one row (k = 1, or a run of m = k + 1) as
        # matrix-vector products, the others as one product over the block
        los, ms = run_lo[g], run_m[g]
        mx = int(ms.max())
        lone = len(g) == 1
        block = out[los[0]:los[0] + mx, None] if lone else np.empty((mx, len(g), N))
        np.matmul(power(level, h, 0), Z[:, :, None], out=block[0, :, :, None])
        if mx > 1:
            np.matmul(block[0, :, None, :], power(level, h, 0).T, out=block[1, :, None, :])
        k, j = 2, 1
        while k < mx:
            c = min(k, mx - k)
            np.matmul(block[:c].reshape(-1, N), power(level, h, j).T,
                      out=block[k:k + c].reshape(-1, N))
            k, j = 2 * k, j + 1
        if lone:
            return
        tail = ms - 1
        for k in np.unique(tail[(tail >= 2) & (tail & (tail - 1) == 0)]).tolist():
            last = ms == k + 1
            block[k, last] = np.matmul(block[0, last, None, :],
                                       power(level, h, k.bit_length() - 1).T)[:, 0]
        steps = np.arange(mx)[:, None]
        valid = steps < ms
        out[(los + steps)[valid]] = block[valid]

    # exponentiate each (level, h) where the run-by-run order first needs it:
    # a cell's runs, then its edge step; a cached step seeds the nearby ones.
    # The last cell holds the last sample, so no edge step leaves it.
    lengths = [c1 - c0 for c0, c1, _ in cells[:-1]]
    order = np.argsort(np.concatenate([2 * run_lo, 2 * end[:-1] - 1]), kind="stable")
    need = zip(np.concatenate([run_level, levels[:-1]])[order].tolist(),
               np.concatenate([run_h, lengths])[order].tolist())
    for level, step in dict.fromkeys(need):
        power(level, step, 0)

    # the state at each cell's start, and at the samples on cell edges
    chain = np.empty((len(cells), N))
    chain[0] = z
    for k, step in enumerate(zip(levels[:-1].tolist(), lengths)):
        np.matmul(powers[step][0], chain[k], out=chain[k + 1])
    edge = np.flatnonzero(times[end[:-1]] == starts[1:])
    out[end[edge]] = chain[edge + 1]

    order = np.lexsort((run_h, run_level, wave))
    key = np.stack([wave[order], run_level[order], run_h[order]])
    cuts = np.flatnonzero((np.diff(key, axis=1) != 0).any(axis=0)) + 1
    for g in np.split(order, cuts):
        level, step = float(run_level[g[0]]), float(run_h[g[0]])
        fits = int(run_m[g].max()) * len(g) * N <= _BLOCK_ELEMENTS
        for part in (g[None] if fits else g[:, None]):
            # a wave's first runs start at their cell's start, the others
            # where the previous run of their cell ended
            Z = chain[run_cell[part]] if wave[g[0]] == 0 else out[run_lo[part] - 1]
            fill_block(part, Z, level, step)
    if not np.isfinite(out).all():
        raise RuntimeError("propagation produced non-finite states")
    return out


def _sample_grid(sig: Signal, horizon: float, dt_out: float) -> np.ndarray:
    n = int(np.floor(horizon / dt_out + 1e-9))
    pts = np.arange(n + 1) * dt_out
    if pts[-1] < horizon:
        pts = np.append(pts, horizon)
    breaks = np.asarray(sig.breakpoints, dtype=float)
    inside = breaks[(breaks > 0.0) & (breaks < horizon)]
    merged = np.unique(np.concatenate([pts, inside]))
    # drop near-duplicates (grid point within 1e-12 of a breakpoint)
    keep = np.concatenate([[True], np.diff(merged) > 1e-12 * max(1.0, horizon)])
    return merged[keep]


def _levels(sig: Signal, times: np.ndarray) -> np.ndarray:
    """alpha(t) at each of ``times`` (right-continuous), as one array."""
    table = np.append(np.asarray(sig.values, dtype=float), sig.tail_value)
    return table[np.searchsorted(sig.breakpoints, times, side="right")]


def _row_norms_sq(X: np.ndarray) -> np.ndarray:
    """||x_i||^2 of every row, with no temporary the size of X."""
    return np.einsum("ij,ij->i", X, X)


def simulate(sys: LinearSystem, sig: Signal, z0, horizon: float, dt_out: float) -> Trajectory:
    """Simulate dz/dt = A z - alpha(t) B B^T z by per-cell matrix exponentials.

    Output instants are the regular grid 0, dt_out, 2 dt_out, ... plus the
    signal breakpoints inside the horizon (so energy bookkeeping never
    straddles a damping switch) plus the horizon itself.  The state steps
    from cell edge to cell edge and the samples inside each cell are filled
    in batches (see :func:`_propagate`).

    Parameters
    ----------
    z0 : array-like, shape (N,)
        Initial state.
    horizon : float
        Final time, > 0.
    dt_out : float
        Output spacing, > 0; the cell-edge states do not depend on dt_out.
    """
    if sys.dim > DIM_LIMIT:
        raise ValueError("state dimension %d exceeds the dense-solver limit %d"
                         % (sys.dim, DIM_LIMIT))
    if horizon <= 0 or dt_out <= 0:
        raise ValueError("horizon and dt_out must be positive")
    times = _sample_grid(sig, float(horizon), float(dt_out))
    states = _propagate(sys, sig, z0, times)
    energies = 0.5 * _row_norms_sq(states)
    # in row chunks, so no (samples, r) product is held; a test holds the
    # norms to the bits of the full product
    output_sq = np.empty(len(times))
    for lo in range(0, len(times), _OUTPUT_CHUNK_ROWS):
        hi = lo + _OUTPUT_CHUNK_ROWS
        output_sq[lo:hi] = _row_norms_sq(states[lo:hi] @ sys.B)
    return Trajectory(
        times=times,
        states=states,
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
            P = _step_matrix(sys, 0.0, c0)
            cell = P.T @ cell @ P
        G += level * cell
    return (G + G.T) / 2
