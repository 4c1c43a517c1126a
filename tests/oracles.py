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
"""

from dataclasses import dataclass

import numpy as np

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
    za, zb = _propagate(sys, sig, z0, np.array([float(a), float(b)]))
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


def energy_balance_from_states(traj) -> EnergyBalance:
    """Energy balance with ||B^T z||^2 from one product of all the states."""
    t, states = traj.times, traj.states
    g = _row_norms_sq(states @ traj.system.B)
    levels = _levels(traj.signal, t[:-1])
    inc = levels * 0.5 * (g[:-1] + g[1:]) * np.diff(t)
    cum = np.concatenate([[0.0], np.cumsum(inc)])
    drift = traj.energies - traj.energies[0] + cum
    if traj.system.skew_flag:
        return EnergyBalance(residual=float(np.abs(drift).max()), one_sided=False)
    return EnergyBalance(residual=float(max(drift.max(), 0.0)), one_sided=True)
