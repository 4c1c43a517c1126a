"""Observability functionals and their minimisation over damping-signal classes.

The central quantity is the damped observability functional along the
*undamped* flow,

    J(z0, alpha) = int_0^theta alpha(t) ||B^T e^{tA} z0||^2 dt.

A lower bound J >= c ||z0||^2 valid over a whole class of signals turns every
window of length theta into a guaranteed energy-contraction step, so the
class constant

    c = min over unit z0, min over admissible alpha of J(z0, alpha)

is the bridge between signal structure and decay certificates.  The weight
of a grid cell is z0^T M z0 with M the exact cell Gramian: the first cell's
is :func:`~pexstab.linsys.observability_gramian` (re-exported here), and the
others are its congruences by the undamped steps over 2^j cells, filled by
doubling (:func:`_cell_gramians`), so J is exact for every cell-constant
signal and the grid takes one matrix exponential besides the steps.  The
cell Gramians are held flat, one row of N*N entries per cell, so the cell
values of a state (the rows against the flattened z0 z0^T) and the
alpha-weighted Gramian (the levels against the rows) are each one
matrix-vector product.  Two signal classes are supported on a uniform grid
of ``n_cells`` cells over [0, theta]:

* ``rho-integral``: levels alpha_j in [0, 1] with total mass >= rho * theta.
  The inner minimisation is a continuous knapsack solved exactly by a greedy
  fill: switch on the cells with the smallest flow weight first, putting the
  leftover fractional mass on the marginal cell.
* ``pe-windows``: every window [t, t + T] inside [0, theta] must carry mass
  at least mu.  For cell-constant signals the window mass is piecewise linear
  in the start t, so finitely many window constraints (starts where a window
  edge meets a cell edge) are equivalent to the continuum of constraints.
  The finite LP is written in the cumulative mass F(t) = int_0^t alpha,
  linear between cell edges: a window row reads F(s + T) - F(s) >= mu with at
  most three nonzeros, and the levels are the slopes of F.  Its sparse
  constraint matrix, built in numpy, is passed once per inner problem to a
  HiGHS simplex solver, which re-optimises each new cost from its last
  basis.  The solver is the compiled HiGHS core that scipy ships, loaded
  from its file when the first window LP is built; neither
  ``scipy.optimize`` nor ``scipy.sparse`` is imported.

The outer minimisation over the unit sphere is nonconvex; it is attacked by
multi-start local descent with a fixed, recorded seed.  Each descent step
alternates the exact inner solve with the exact sphere minimiser for frozen
alpha (the smallest eigenvector of the alpha-weighted Gramian), so the value
is nonincreasing and the result is deterministic.  Estimates report the
number of starts and the gap to the second-best local value; they are upper
bounds on the true class constant and carry any caveats attached to the
system (e.g. modal truncation).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np
import scipy

from .linsys import (LinearSystem, _step_matrix, cost_within_bound, kalman_index,
                     observability_gramian)
from .signals import Signal, make_piecewise

# cells of the uniform grid the inner problem is solved on, unless a caller
# chooses another
DEFAULT_N_CELLS = 64
# a descent stops once a step improves its value by at most OUTER_TOL; the
# outer search refuses systems above dimension OUTER_DIM_LIMIT
OUTER_TOL = 1e-12
OUTER_DIM_LIMIT = 16


@dataclass(frozen=True)
class SignalClass:
    """Admissible damping-signal class on [0, horizon].

    ``rho-integral``: mass >= rho * horizon over the whole window.
    ``pe-windows``: mass >= mu over every subwindow of length T.
    """

    kind: str
    horizon: float
    rho: float = None
    T: float = None
    mu: float = None

    def __post_init__(self):
        if self.horizon is None or self.horizon <= 0:
            raise ValueError("class horizon must be positive")
        if self.kind == "rho-integral":
            if self.rho is None or not 0 < self.rho <= 1:
                raise ValueError("rho must lie in (0, 1]")
        elif self.kind == "pe-windows":
            if self.T is None or self.T <= 0:
                raise ValueError("window length T must be positive")
            if self.mu is None or not 0 < self.mu <= self.T:
                raise ValueError("need 0 < mu <= T")
            if self.horizon < self.T:
                raise ValueError("horizon must hold at least one window")
        else:
            raise ValueError("unknown signal class kind %r" % (self.kind,))

    @classmethod
    def rho_integral(cls, rho: float, horizon: float) -> "SignalClass":
        return cls(kind="rho-integral", horizon=horizon, rho=rho)

    @classmethod
    def pe_windows(cls, T: float, mu: float, horizon: float = None) -> "SignalClass":
        return cls(kind="pe-windows", horizon=T if horizon is None else horizon,
                   T=T, mu=mu)


@dataclass(frozen=True)
class OuterSearch:
    """Multi-start descent configuration for the sphere minimisation."""

    n_starts: int = 8
    n_iters: int = 100
    seed: int = 0


@dataclass(frozen=True)
class ObservabilityEstimate:
    """Best located value of the two-level minimisation with its witnesses.

    ``constant`` is an upper bound on the true class constant (the search is
    local); the witnesses reproduce it to rounding as the quadratic form
    ``witness_z0 @ observability_gramian(sys, 0.0, sclass.horizon,
    witness_signal) @ witness_z0``.  They come from the earliest descent
    start whose value lies within 1e-10 relative of the smallest, and
    ``constant`` is that start's own value; ``witness_z0`` is signed so that
    its largest-magnitude entry is positive.  ``runner_up_gap`` is the
    distance from the smallest to the second-best distinct local value
    found (0 when all starts agree).
    """

    constant: float
    witness_z0: np.ndarray
    witness_signal: Signal
    sclass: SignalClass
    n_cells: int
    seed: int
    n_starts: int
    runner_up_gap: float
    method: str = ""
    caveats: tuple = ()

    def to_dict(self) -> dict:
        """Report form: the constant as ``c``, the key of every observability
        report, the class as ``class``, ``n_cells`` under ``grid``."""
        return {
            "c": self.constant,
            "method": self.method,
            "witness_z0": self.witness_z0,
            "witness_signal": self.witness_signal,
            "class": self.sclass,
            "grid": {"n_cells": self.n_cells},
            "seed": self.seed,
            "n_starts": self.n_starts,
            "runner_up_gap": self.runner_up_gap,
            "caveats": self.caveats,
        }


def _cell_gramians(sys: LinearSystem, theta: float, n_cells: int) -> np.ndarray:
    """Cell integrals int_cell e^{tA^T} B B^T e^{tA} dt on a uniform grid.

    The first cell comes from the exact kernel; the rest are filled by
    doubling, as :func:`~pexstab.linsys._propagate` fills a grid run: cells
    [r, 2r) are the congruences P^T M_j P of cells [0, r) with P the
    undamped step :func:`~pexstab.linsys._step_matrix` over r dt, r a power
    of two, one batched product per r.  So every cell is at most log2
    n_cells congruences from the first, and each step is made once (for
    skew A, from the system's eigendecomposition).  Returns shape
    (n_cells, N, N).
    """
    dt = theta / n_cells
    out = np.empty((n_cells, sys.dim, sys.dim))
    out[0] = observability_gramian(sys, 0.0, dt)
    r = 1
    while r < n_cells:
        P = _step_matrix(sys, 0.0, dt * r)
        np.matmul(P.T @ out[:min(r, n_cells - r)], P, out=out[r:2 * r])
        r *= 2
    return out


def _greedy_plan(n: int, dt: float, mass_budget: float):
    """Plan (n, k, levels) of a greedy fill of ``n`` cells of width ``dt``:
    it switches k cells on, at ``levels`` in fill order.  A budget above
    n * dt raises ``ValueError``.

    The mass left before each cell is a sequential ``subtract.accumulate``
    of dt from the budget, so it rounds as a cell-by-cell fill does; every
    cell but the last gets level 1.  Nothing here depends on the cell
    values, so an inner problem builds its plan once, as its model, and
    every descent step reads it.
    """
    if mass_budget > n * dt * (1 + 1e-12):
        raise ValueError("mass budget %s exceeds the horizon %s" % (mass_budget, n * dt))
    steps = np.full(n, dt)
    steps[:1] = min(mass_budget, n * dt)
    remaining = np.subtract.accumulate(steps)
    k = int(np.count_nonzero(remaining > 0))
    levels = np.ones(k)
    if k:
        levels[-1] = min(dt, remaining[k - 1]) / dt
    return n, k, levels


def rho_greedy_min(cell_values, plan):
    """Exact minimiser of sum_j alpha_j * cell_values[j] over the mass class.

    ``cell_values`` holds one value per cell of ``plan``, the
    :func:`_greedy_plan` of the grid (cells of width dt) and mass budget:
    admissible levels alpha_j in [0, 1] must carry total mass
    sum_j alpha_j * dt >= mass_budget.  The greedy fill - switch on the
    cheapest cells first, fractional level on the marginal cell - is the
    exact optimum of this LP (continuous knapsack); ties break toward the
    earlier cell, so the result is deterministic.

    The number k of cells switched on and their levels come from the plan.
    The cell values are sorted once, and their order is never formed:

    * the cells switched on are those below v, the k-th smallest value,
      and the earliest cells equal to v up to k in all; the marginal cell,
      the one with the fractional level, is the last of those tied cells;
    * the value is a sequential running sum (``add.accumulate``, as
      ``cumsum`` forms it) of the levels times the k smallest sorted
      values, from a leading 0.0.  Equal values are interchangeable: two
      floats that compare equal differ in their bits only as 0.0 and -0.0,
      and a running sum from 0.0 takes the same value after adding either.
      So the sum is that of a loop over the cells in stable sorted order.

    Alpha and value are thus the same floats a cell-by-cell fill gives.  A
    cell value that is not finite raises ``RuntimeError``.

    Returns (alpha, value).
    """
    cell_values = np.asarray(cell_values, dtype=float)
    n, k, levels = plan
    if len(cell_values) != n:
        raise ValueError("%d cell values for a greedy plan of %d cells" % (len(cell_values), n))
    ranked = np.sort(cell_values)
    # the sort puts -inf first and +inf and nan last
    if n and not (math.isfinite(ranked[0]) and math.isfinite(ranked[-1])):
        raise RuntimeError("greedy fill of non-finite cell values")
    if not k:
        return np.zeros(n), 0.0
    v = ranked[k - 1]
    below = cell_values < v
    tied = (cell_values == v).nonzero()[0][: k - np.count_nonzero(below)]
    alpha = below.astype(float)
    alpha[tied] = 1.0
    alpha[tied[-1]] = levels[-1]
    # a leading 0.0 starts the running sum where a loop's accumulator starts
    value = np.add.accumulate(np.concatenate(([0.0], levels * ranked[:k])))[-1]
    return alpha, float(value)


def _window_constraints(n: int, T: float, mu: float, horizon: float):
    """Constraints of the window LP over the cumulative mass F_1..F_n.

    F_k is the mass of the levels on [0, edge_k] (F_0 = 0 is not a
    variable) and F is linear between edges.  Row j < n bounds the slope of
    cell j, 0 <= F_{j+1} - F_j <= dt.  Each further row asks
    F(s + T) - F(s) >= mu at one candidate start s: the range endpoints and
    every start where a window edge meets a cell edge.  A start within
    rounding of a cell edge is snapped to that edge, and near-duplicates are
    dropped.  One end of each candidate window lies on a cell edge, so a
    window row has at most three nonzeros.

    A is returned in compressed sparse column form, (indptr, indices,
    data): the entries of column k are data[indptr[k]:indptr[k + 1]], in
    rows indices[...] sorted upward.  When T < dt both ends of a window can
    fall on one cell, so a (row, column) entry is added at most twice; the
    two are summed (an exact zero sum stays an entry), which is the
    canonical form scipy.sparse would build from the same triples.

    Returns ((indptr, indices, data), row_lower, row_upper).
    """
    dt = horizon / n
    edges = np.array([horizon * j / n for j in range(n + 1)])
    tol = 1e-12 * max(1.0, horizon)

    def locate(t):
        # (m, w) with t at fraction w of cell m.  Within rounding of edge k,
        # t is that edge, (k, 0.0): a start computed as e - T that misses an
        # edge by a rounding error starts on that edge instead of
        # interpolating with a weight of about 1e-16.  Off every edge w != 0.
        k = min(max(round(t / dt), 0), n)
        if abs(t - edges[k]) <= tol:
            return k, 0.0
        m = min(max(int(np.searchsorted(edges, t, side="right")) - 1, 0), n - 1)
        return m, (t - edges[m]) / dt

    def snap(t):
        m, w = locate(t)
        return t if w else float(edges[m])

    last = snap(horizon - T)
    starts = {0.0, last}
    starts.update(float(e) for e in edges if 0.0 <= e <= last)
    starts.update(s for s in (snap(e - T) for e in edges) if 0.0 <= s <= last)
    starts = sorted(starts)
    kept = [starts[0]]
    for s in starts[1:]:
        if s - kept[-1] > tol:
            kept.append(s)

    rows, cols, vals = [], [], []

    def add_end(row, t, sign):
        # sign * F(t), F linear on the cell of t; F_0 = 0 has no column
        m, w = locate(t)
        for k, coef in ((m, sign * (1.0 - w)), (m + 1, sign * w)):
            if k > 0 and coef != 0.0:
                rows.append(row)
                cols.append(k - 1)
                vals.append(coef)

    for j in range(n):
        add_end(j, edges[j], -1.0)
        add_end(j, edges[j + 1], 1.0)
    for i, s in enumerate(kept):
        add_end(n + i, s, -1.0)
        add_end(n + i, s + T, 1.0)
    order = np.lexsort((rows, cols))  # by column, then row
    rows, cols = np.asarray(rows)[order], np.asarray(cols)[order]
    first = np.ones(len(order), dtype=bool)  # first entry of its (row, column)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    at = np.flatnonzero(first)
    # a pair of addends sums to the same float in either order
    data = np.add.reduceat(np.asarray(vals)[order], at)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(cols[at], minlength=n))))
    lb = np.concatenate([np.zeros(n), np.full(len(kept), mu)])
    ub = np.concatenate([np.full(n, dt), np.full(len(kept), np.inf)])
    return (indptr, rows[at], data), lb, ub


_HIGHS_CORE = "scipy.optimize._highspy._core"
_highs_lock = threading.Lock()


def _highs_core():
    """The compiled HiGHS core scipy ships, without ``scipy.optimize``.

    The extension module is loaded from its file in scipy's install and
    registered in ``sys.modules`` under its own name, so a later ``import
    scipy.optimize`` shares it; when that name is already there (scipy.optimize
    was imported first), that module is the one returned.
    """
    with _highs_lock:
        core = sys.modules.get(_HIGHS_CORE)
        if core is not None:
            return core
        where = os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy")
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(where, "_core" + suffix)
            if os.path.isfile(path):
                break
        else:
            raise ImportError("no HiGHS core (_core with an extension suffix) in %s"
                              % where)
        loader = importlib.machinery.ExtensionFileLoader(_HIGHS_CORE, path)
        core = importlib.util.module_from_spec(
            importlib.util.spec_from_file_location(_HIGHS_CORE, path, loader=loader))
        loader.exec_module(core)
        sys.modules[_HIGHS_CORE] = core
        return core


class _WindowLP:
    """The window LP of one grid and window, held by one HiGHS solver.

    The constraints of :func:`_window_constraints` are passed to HiGHS once
    (presolve off, columns in [0, inf)); each :meth:`solve` changes only the
    cost and re-optimises from the previous optimal basis, which is what the
    outer descent needs: consecutive steps change the cost and nothing else.
    The solver is scipy's compiled HiGHS core, a private extension module
    that :func:`_highs_core` loads from its file; the test suite checks
    every method used here.  A model is not shared between threads: each
    caller builds its own.  ``n`` and ``dt = horizon / n`` are the grid the
    model was built on.
    """

    def __init__(self, n: int, T: float, mu: float, horizon: float):
        highs = _highs_core()
        self.n, self.dt = n, horizon / n
        (indptr, indices, data), lb, ub = _window_constraints(n, T, mu, horizon)
        lp = highs.HighsLp()
        lp.num_col_, lp.num_row_ = n, len(lb)
        lp.col_cost_ = np.zeros(n)
        lp.col_lower_ = np.zeros(n)
        lp.col_upper_ = np.full(n, np.inf)
        lp.row_lower_, lp.row_upper_ = lb, ub
        lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
        lp.a_matrix_.num_col_, lp.a_matrix_.num_row_ = n, len(lb)
        lp.a_matrix_.start_ = indptr
        lp.a_matrix_.index_ = indices
        lp.a_matrix_.value_ = data
        self._h = highs._Highs()
        self._error = highs.HighsStatus.kError
        self._optimal = highs.HighsModelStatus.kOptimal
        self._cols = np.arange(n, dtype=np.int32)
        # a warning from passModel reports matrix entries below 1e-9 that
        # HiGHS drops; only an error is a failure
        statuses = (self._h.setOptionValue("output_flag", False),
                    self._h.setOptionValue("presolve", "off"),
                    self._h.passModel(lp))
        if self._error in statuses:
            raise RuntimeError("window LP failed: HiGHS refused the options or the model")

    def solve(self, cost) -> np.ndarray:
        """Optimal F for the cost vector over F_1..F_n."""
        h = self._h
        if h.changeColsCost(len(self._cols), self._cols, cost) == self._error:
            raise RuntimeError("window LP failed: HiGHS refused the cost")
        h.run()
        status = h.getModelStatus()
        if status != self._optimal:
            raise RuntimeError("window LP failed: %s" % h.modelStatusToString(status))
        return np.array(h.getSolution().col_value)


def pe_window_min(cell_values, model: _WindowLP):
    """Minimise sum_j alpha_j * cell_values[j] under sliding-window mass >= mu.

    ``cell_values`` holds one value per cell of ``model``, the
    :class:`_WindowLP` of the grid, window length T and mass mu, which is
    re-solved from its last basis.
    Constraints are imposed at every window start where a window edge meets a
    cell edge (plus the range endpoints); for cell-constant signals the
    window mass is piecewise linear in the start, so these finitely many
    constraints are equivalent to all starts in [0, horizon - T].  The LP is
    solved in the cumulative mass F (see :func:`_window_constraints`), where
    a window row has at most three nonzeros and the cost is
    sum_j g_j (F_{j+1} - F_j) / dt, by HiGHS's simplex method.  The levels
    are alpha = clip(diff(F) / dt, 0, 1).  Returns (alpha, value).
    """
    cell_values = np.asarray(cell_values, dtype=float)
    if len(cell_values) != model.n:
        raise ValueError("%d cell values for a window LP of %d cells"
                         % (len(cell_values), model.n))
    dt = model.dt
    # sum_j g_j (F_{j+1} - F_j) regrouped by F_k, k = 1..n
    cost = np.append(cell_values[:-1] - cell_values[1:], cell_values[-1]) / dt
    alpha = np.clip(np.diff(model.solve(cost), prepend=0.0) / dt, 0.0, 1.0)
    return alpha, float(cell_values @ alpha)


def _signal_from_levels(alpha, theta: float) -> Signal:
    """Cell-constant signal on [0, theta] from per-cell levels (tail 0)."""
    n = len(alpha)
    breaks, vals = [], []
    levels = np.clip(np.asarray(alpha, dtype=float), 0.0, 1.0)
    # merge equal neighbours; final edge at theta closes the last cell
    for j in range(n):
        edge = theta * (j + 1) / n
        if j + 1 < n and levels[j + 1] == levels[j]:
            continue
        breaks.append(edge)
        vals.append(levels[j])
    return make_piecewise(breaks, vals, 0.0)


class _InnerProblem:
    """Cell Gramians for a (system, class, grid) triple with inner solvers.

    The cell Gramians are held flat, as one C-contiguous (n_cells, N*N)
    matrix ``Mf`` (a reshape view of :func:`_cell_gramians`), so both
    contractions of the descent are one BLAS matrix-vector product: the
    cell values z0^T M_j z0 are ``Mf @ vec(z0 z0^T)`` and the alpha-weighted
    Gramian sum_j alpha_j M_j is ``alpha @ Mf`` read back as N x N.  Its
    solver's ``model`` (:func:`_greedy_plan` or :class:`_WindowLP`) is built once, with them.
    """

    def __init__(self, sys: LinearSystem, sclass: SignalClass, n_cells: int):
        if n_cells < 4:
            raise ValueError("need at least 4 cells")
        self.sclass = sclass
        self.dt = sclass.horizon / n_cells
        self.dim = sys.dim
        self.Mf = _cell_gramians(sys, sclass.horizon, n_cells).reshape(n_cells, -1)
        self.model = (_greedy_plan(n_cells, self.dt, sclass.rho * sclass.horizon)
                      if sclass.kind == "rho-integral"
                      else _WindowLP(n_cells, sclass.T, sclass.mu, sclass.horizon))

    def cell_values(self, z0) -> np.ndarray:
        return self.Mf @ (z0[:, None] * z0).ravel()

    def minimise(self, z0):
        solve = rho_greedy_min if self.sclass.kind == "rho-integral" else pe_window_min
        return solve(self.cell_values(z0), self.model)

    def weighted_gramian(self, alpha) -> np.ndarray:
        return (np.asarray(alpha, dtype=float) @ self.Mf).reshape(self.dim, self.dim)


def class_constant(sys: LinearSystem, sclass: SignalClass,
                   n_cells: int = DEFAULT_N_CELLS,
                   outer: OuterSearch = None) -> ObservabilityEstimate:
    """Two-level minimisation of the observability functional.

    Runs ``outer.n_starts`` local descents from random orthonormalised unit
    starts (fixed seed).  Each descent alternates the exact inner signal
    solve with the exact outer step for frozen signal - the unit eigenvector
    of the smallest eigenvalue of the alpha-weighted Gramian - so the value
    never increases; descent stops when the improvement drops below
    OUTER_TOL.

    The estimate is that of the earliest start within 1e-10 relative of the
    smallest local value (see :class:`ObservabilityEstimate`), so when
    several starts reach equal minima, rounding in the cell Gramians does
    not choose the witness.  The constant always satisfies the necessary
    upper bound c <= horizon * ||B||^2.
    """
    outer = outer or OuterSearch()
    N = sys.dim
    if N > OUTER_DIM_LIMIT:
        raise ValueError("outer search limited to dimension %d (got %d)"
                         % (OUTER_DIM_LIMIT, N))
    prob = _InnerProblem(sys, sclass, n_cells)
    rng = np.random.default_rng(outer.seed)
    starts = []
    while len(starts) < outer.n_starts:
        batch = rng.standard_normal((N, min(N, outer.n_starts - len(starts))))
        Q, _ = np.linalg.qr(batch)
        starts.extend(Q.T)
    locals_found = []
    for z in starts[: outer.n_starts]:
        z = z / np.linalg.norm(z)
        value = None
        alpha = None
        for _ in range(outer.n_iters):
            alpha, val = prob.minimise(z)
            W = prob.weighted_gramian(alpha)
            evals, evecs = np.linalg.eigh((W + W.T) / 2)
            z_new, val_new = evecs[:, 0], float(evals[0])
            if value is not None and value - val_new <= OUTER_TOL:
                z, value = z_new, min(val_new, value)
                break
            z, value = z_new, val_new
        locals_found.append((value, z, alpha))
    values = sorted(v for v, _, _ in locals_found)
    best_val, best_z, best_alpha = next(
        rec for rec in locals_found if rec[0] - values[0] <= 1e-10 * abs(values[0]))
    if best_z[np.argmax(np.abs(best_z))] < 0:
        best_z = -best_z
    distinct = [values[0]]
    for v in values[1:]:
        if v - distinct[-1] > 1e-10 * max(1.0, abs(values[0])):
            distinct.append(v)
    gap = (distinct[1] - distinct[0]) if len(distinct) > 1 else 0.0
    if not cost_within_bound(best_val, sclass.horizon, sys.b_norm):
        raise RuntimeError(
            "estimate %.6g exceeds the necessary bound horizon*||B||^2 = %.6g"
            % (best_val, sclass.horizon * sys.b_norm ** 2)
        )
    inner_tag = "greedy fill" if sclass.kind == "rho-integral" else "window LP"
    return ObservabilityEstimate(
        constant=float(best_val),
        witness_z0=best_z,
        witness_signal=_signal_from_levels(best_alpha, sclass.horizon),
        sclass=sclass,
        n_cells=n_cells,
        seed=outer.seed,
        n_starts=outer.n_starts,
        runner_up_gap=float(gap),
        method="multi-start alternating descent / " + inner_tag,
        caveats=sys.caveats,
    )


def wave_pe_lower_bound(T: float, mu: float, lambda_min: float, d0: float = 1.0) -> float:
    """Certified observability constant for uniformly damped string modes.

    For any mode mix with eigenvalues >= lambda_min and any T-mu
    persistently exciting signal,

        J(z0, alpha) >= d0^2 * mu * eps^2 / 2 * ||z0||^2,
        eps = min(1, (mu/2) / (2 T / pi + 2 / lambda_min)),

    independent of the number of modes: away from an eps-sublevel set of the
    mode oscillation (whose measure the term 2 T eps / pi + 2 eps / lambda
    controls), the squared sinusoid exceeds eps^2, and the signal keeps at
    least mu/2 of its window mass on that good set.
    """
    if T <= 0 or not 0 < mu <= T:
        raise ValueError("need T > 0 and 0 < mu <= T")
    if lambda_min <= 0 or d0 <= 0:
        raise ValueError("lambda_min and d0 must be positive")
    eps = min(1.0, (mu / 2.0) / (2.0 * T / math.pi + 2.0 / lambda_min))
    return d0 * d0 * mu * eps * eps / 2.0


def wave_rho_threshold(rho: float, lambda1: float) -> float:
    """Largest window length with a valid cubic strong-stability bound.

    Two conditions cap the window: eps = rho * lambda1 * T / 6 must stay
    <= 1, and the sublevel-measure estimate needs lambda1 * T <= pi / 2.
    The second is always the binding one for rho <= 1, but the minimum is
    taken literally.
    """
    return min(math.pi / (2.0 * lambda1), 6.0 / (rho * lambda1))


def wave_rho_lower_bound(T: float, rho: float, lambda1: float, d0: float = 1.0) -> float:
    """Interval cost c(T) = d0^2 rho^3 lambda1^2 T^3 / 72 for short windows.

    Valid for T up to :func:`wave_rho_threshold`: below it the choice
    eps = rho * lambda1 * T / 6 both stays within (0, 1] and keeps the
    sublevel-set measure small enough that a rho-fraction window retains
    half its mass on the good set.  Raises ValueError above the threshold
    (the bound's derivation breaks there, not merely its quality).
    """
    if T <= 0 or not 0 < rho <= 1:
        raise ValueError("need T > 0 and rho in (0, 1]")
    if lambda1 <= 0 or d0 <= 0:
        raise ValueError("lambda1 and d0 must be positive")
    thr = wave_rho_threshold(rho, lambda1)
    if T > thr:
        raise ValueError(
            "window length %g exceeds the validity threshold %g = pi/(2 lambda1); "
            "the cubic lower bound is only derived below it" % (T, thr)
        )
    return d0 * d0 * rho ** 3 * lambda1 ** 2 * T ** 3 / 72.0


@dataclass(frozen=True)
class KappaScanReport:
    """Log-log fit of the class constant against the window length."""

    T_grid: tuple
    constants: tuple
    slope: float
    kappa: float
    kalman_index: int
    expected_slope: float
    rho: float
    seed: int
    caveats: tuple = ()


def kappa_scan(sys: LinearSystem, rho: float, T_grid,
               n_cells: int = DEFAULT_N_CELLS,
               outer: OuterSearch = None) -> KappaScanReport:
    """Estimate c(T) ~ kappa T^(2K+1) over small windows for skew systems.

    For controllable (A, B) with skew A, the rho-integral class constant
    scales like T to the power 2K+1 where K is the Kalman index (smallest K
    with rank [B, AB, ..., A^K B] full).  The scan computes the class
    constant on each window length, fits log c against log T by least
    squares, and reports the fitted slope and prefactor next to the
    structural prediction.  A constant below 100 eps T ||B||^2 is made of
    the rounding of its cell values, not of the flow, and raises
    RuntimeError naming T, the constant and that floor.
    """
    if not sys.skew_flag:
        raise ValueError("kappa scan requires skew-symmetric A")
    K = kalman_index(sys)  # raises UncontrollableError when rank-deficient
    outer = outer or OuterSearch()
    T_grid = tuple(float(T) for T in T_grid)
    if len(T_grid) < 2:
        raise ValueError("need at least two window lengths to fit a slope")
    if any(not 0 < T <= 1 for T in T_grid):
        raise ValueError("window lengths must lie in (0, 1]")
    if any(b >= a for a, b in zip(T_grid, T_grid[1:])):
        raise ValueError("window lengths must be strictly decreasing")
    consts = []
    for T in T_grid:
        c = class_constant(sys, SignalClass.rho_integral(rho, T), n_cells, outer).constant
        # c sums cell values whose Gramians are of size T ||B||^2, each
        # rounded to eps of that; near the floor a constant is rounding noise
        floor = 100 * np.finfo(float).eps * T * sys.b_norm ** 2
        if c < floor:
            raise RuntimeError(
                "class constant %.3g at T = %g lies below the rounding floor "
                "100 eps T ||B||^2 = %.3g; the window is too short to resolve"
                % (c, T, floor))
        consts.append(c)
    consts = np.asarray(consts)
    X = np.vstack([np.log(T_grid), np.ones(len(T_grid))]).T
    coef, *_ = np.linalg.lstsq(X, np.log(consts), rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    return KappaScanReport(
        T_grid=T_grid,
        constants=tuple(float(c) for c in consts),
        slope=slope,
        kappa=float(math.exp(intercept)),
        kalman_index=K,
        expected_slope=float(2 * K + 1),
        rho=float(rho),
        seed=outer.seed,
        caveats=sys.caveats,
    )
