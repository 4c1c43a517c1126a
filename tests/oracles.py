"""Reference implementations that only tests read.

Each is a closed-form statement of the paper that a test checks the package
against; no report uses them, so they live here rather than in ``src/``.

* :func:`gap_estimate_check`: the per-window energy decay inequality along
  a damped trajectory (acceptance criterion 2 and ``tests/test_linsys.py``).
* :func:`displacement`: the traveling-bump displacement of the
  counterexample, which the modal-corroboration test projects onto string
  modes, built from the bump :func:`psi`.
* :func:`cell_values_einsum` and :func:`weighted_gramian_einsum`: the two
  contractions of the inner problem over the stacked cell Gramians, written
  index by index, against which its flat matrix-vector forms are checked.
* :func:`write_csv_rowwise`: the CSV report writer with one format string
  per row, against which the chunk-wide writer is checked byte for byte.
* :func:`energy_balance_from_states`: the energy balance with the output
  norms formed from the whole state array, against which the trajectory's
  own ``output_sq`` is checked bit for bit.
* :func:`window_contractions_expm`: the squared norms of window
  propagators, each the product of one ``scipy.linalg.expm`` per signal
  cell inside its window, against which the doubling-table window check of
  certificate verification is checked.
* :func:`window_rows_cumulative`: the window LP written in the cumulative
  mass, one slope row per cell and one row per start of
  :func:`window_starts`, which the tests solve from scratch as a second
  formulation of the window LP and whose starts its rows are checked
  against.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from pexstab.cli import CSV_CHUNK_ROWS
from pexstab.dalembert import CounterexampleScenario
from pexstab.linsys import (EnergyBalance, LinearSystem, _levels, _propagate,
                            _row_norms_sq, observability_gramian)
from pexstab.signals import Signal

# slack of gap_estimate_check's comparison, reported as GapCheck.tolerance
GAP_TOLERANCE = 1e-9


@dataclass(frozen=True)
class GapCheck:
    """Outcome of the window decay estimate between two instants a < b."""

    lhs: float
    rhs: float
    integral: float
    margin: float
    ok: bool
    tolerance: float


def gap_estimate_check(sys: LinearSystem, sig: Signal, z0, a: float, b: float) -> GapCheck:
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
    states = np.empty((2, sys.dim))

    def collect(rows, piece):
        states[rows] = piece

    _propagate(sys, sig, z0, [float(a), float(b)], None, collect)
    za, zb = states
    Va = 0.5 * float(za @ za)
    Vb = 0.5 * float(zb @ zb)
    L = b - a
    total = float(za @ observability_gramian(sys, 0.0, L, sig.shifted(a)) @ za)
    rhs = -total / (2.0 + 2.0 * L * L * sys.b_norm ** 4)
    lhs = Vb - Va
    margin = rhs - lhs
    return GapCheck(lhs=lhs, rhs=rhs, integral=total, margin=margin,
                    ok=bool(lhs <= rhs + GAP_TOLERANCE), tolerance=GAP_TOLERANCE)


def psi(sc: CounterexampleScenario, u):
    """C^1 bump ((u-b')(1-u))^2 on [b', 1], peak amplitude 1; its
    derivative is the counterexample's ``_psi_prime``."""
    u = np.asarray(u, dtype=float)
    half = (1.0 - sc.b_prime) / 2.0
    s = (u - sc.b_prime) * (1.0 - u)
    inside = (u >= sc.b_prime) & (u <= 1.0)
    return np.where(inside, (s / half ** 2) ** 2, 0.0)


def displacement(sc: CounterexampleScenario, t: float, x):
    """v(t, x) = Psi(x + t) - Psi(t - x), Psi the 2-periodised bump."""
    x = np.asarray(x, dtype=float)
    return psi(sc, np.mod(x + t, 2.0)) - psi(sc, np.mod(t - x, 2.0))


def cell_values_einsum(Ms, z0):
    """z0^T M_j z0 for each cell Gramian M_j of the (n_cells, N, N) stack."""
    return np.einsum("jnm,n,m->j", Ms, z0, z0)


def weighted_gramian_einsum(Ms, alpha):
    """sum_j alpha_j M_j over the (n_cells, N, N) stack."""
    return np.einsum("j,jnm->nm", np.asarray(alpha, dtype=float), Ms)


def write_csv_rowwise(path: str, header: str, rows):
    """Write ``rows`` (one value per header column) as %.17g CSV, one
    format string per row, in chunks of CSV_CHUNK_ROWS lines."""
    line = ",".join(["%.17g"] * len(header.split(","))) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        chunk = []
        for row in rows:
            chunk.append(line % tuple(row))
            if len(chunk) == CSV_CHUNK_ROWS:
                fh.write("".join(chunk))
                chunk.clear()
        fh.write("".join(chunk))


def energy_balance_from_states(traj, states) -> EnergyBalance:
    """Energy balance of ``traj`` with V and ||B^T z||^2 formed from its
    ``states`` (collected by ``_propagate``), ||B^T z||^2 from one product
    of all of them."""
    t = traj.times
    V = 0.5 * _row_norms_sq(states)
    g = _row_norms_sq(states @ traj.system.B)
    levels = _levels(traj.signal, t[:-1])
    inc = levels * 0.5 * (g[:-1] + g[1:]) * np.diff(t)
    cum = np.concatenate([[0.0], np.cumsum(inc)])
    drift = V - V[0] + cum
    if traj.system.skew_flag:
        return EnergyBalance(residual=float(np.abs(drift).max()), one_sided=False)
    return EnergyBalance(residual=float(max(drift.max(), 0.0)), one_sided=True)


def window_contractions_expm(sys: LinearSystem, sig: Signal, windows):
    """||Phi(e, s)||^2 for each (s, e) of ``windows``, with Phi(e, s) the
    product of e^{(A - a B B^T) L} over the cells [c0, c1) of ``sig``
    inside [s, e], each L = c1 - c0 exponentiated by ``scipy.linalg.expm``."""
    out = []
    for s, e in windows:
        phi = np.eye(sys.dim)
        for c0, c1, level in sig.cells_between(float(s), float(e)):
            phi = scipy.linalg.expm(sys.closed_loop(level) * (c1 - c0)) @ phi
        out.append(np.linalg.norm(phi, 2) ** 2)
    return np.array(out)


def _window_grid(n, T, horizon):
    """(edges, locate, starts) of n cells on [0, horizon] and windows of
    length T.

    ``locate(t)`` is (m, w) with t at fraction w of cell m; within
    1e-12 max(1, horizon) of edge k it is (k, 0.0).  ``starts`` are the
    kept candidate starts: the range endpoints and every start where a
    window edge meets a cell edge, each snapped to an edge within that
    distance of it, without near-duplicates.
    """
    dt = horizon / n
    edges = np.array([horizon * j / n for j in range(n + 1)])
    tol = 1e-12 * max(1.0, horizon)

    def locate(t):
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
    return edges, locate, kept


def window_starts(n, T, horizon):
    """The kept window starts of :func:`window_rows_cumulative`."""
    return _window_grid(n, T, horizon)[2]


def window_rows_cumulative(n, T, mu, horizon):
    """The window LP over the cumulative mass F_1..F_n of n cells on [0, horizon].

    F_k is the mass of the levels on [0, edge_k] (F_0 = 0 is not a
    variable) and F is linear between edges.  Row j < n bounds the slope of
    cell j, 0 <= F_{j+1} - F_j <= dt.  Each further row asks
    F(s + T) - F(s) >= mu at one start s of :func:`window_starts`; an end
    within rounding of an edge is that edge, any other end is interpolated
    between the two edges of its cell.

    Returns (A, row_lower, row_upper): A a ``scipy.sparse`` CSC array, with
    an entry added twice summed.
    """
    edges, locate, kept = _window_grid(n, T, horizon)
    rows, cols, vals = [], [], []

    def add_end(row, t, sign):
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
    A = scipy.sparse.csc_array((vals, (rows, cols)), shape=(n + len(kept), n))
    lb = np.concatenate([np.zeros(n), np.full(len(kept), mu)])
    ub = np.concatenate([np.full(n, horizon / n), np.full(len(kept), np.inf)])
    return A, lb, ub
