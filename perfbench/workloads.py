"""Seeded scenario documents for the four benchmark workloads.

Each workload is one ``pexstab run`` scenario.  The workload seed goes into
the scenario ``seed``, which drives the outer-search starts, the random
initial states and the certificate verification draws; everything else is
fixed, so the work a run does is the same shape on every seed.  The program
under test receives only the generated JSON.

Why each workload exists (the same text, shortened, is the ``why`` of the
workload in ``BENCHMARK.json``):

* ``pe-lp`` - the window-LP inner solve (scipy ``linprog``) inside the
  multi-start outer descent dominates; cell-Gramian assembly is a small
  share and nothing is propagated or written in bulk.
* ``rho-gramian`` - the same observability layer used the other way: the
  greedy inner solve is cheap and cell-Gramian assembly dominates; no LP
  runs, so an LP change must not move it.  Its modal frequencies are the
  highest, so quadrature error in the witness check is most visible here.
* ``simulate-long`` - one long dense-output trajectory: few ``expm`` calls,
  many Python-level propagation steps, a large CSV report and the largest
  peak memory; no observability work.
* ``certify-verify`` - the same propagation layer used the other way: many
  short trajectories over many distinct cells (hundreds of ``expm`` calls),
  plus exact rational PE checks, gate construction and interval Gramians.
"""

from __future__ import annotations

import math

WORKLOADS = ("pe-lp", "rho-gramian", "simulate-long", "certify-verify")


def _haraux_intervals(n_pulses: int) -> list:
    """Pulses I_n = (s_n, s_n + 1/n) with s_n = sum_{k<n} 2/k."""
    out, s = [], 0.0
    for n in range(1, n_pulses + 1):
        out.append([s, s + 1.0 / n])
        s += 2.0 / n
    return out


def _pe_lp(tiny: bool) -> dict:
    return {
        "system": {"kind": "wave-modal", "n_modes": 2 if tiny else 8,
                   "damping": {"omega": [0.2, 0.6]}},
        "analyses": [
            {"kind": "observability",
             "class": {"kind": "pe-windows", "T": 2.0, "mu": 0.5, "horizon": 4.0},
             "n_cells": 128 if tiny else 256,
             "outer": {"n_starts": 2 if tiny else 32}},
        ],
    }


def _rho_gramian(tiny: bool) -> dict:
    n_lengths = 2 if tiny else 6
    ratio = (0.16 / 0.5) ** (1.0 / (n_lengths - 1))
    grid = [round(0.5 * ratio ** k, 6) for k in range(n_lengths)]
    return {
        "system": {"kind": "schrodinger-modal", "n_modes": 2 if tiny else 6,
                   "damping": {"omega": [0.3, 0.5]}},
        "analyses": [
            {"kind": "kappa-scan", "rho": 0.5, "T_grid": grid,
             "n_cells": 16 if tiny else 512},
            {"kind": "observability",
             "class": {"kind": "rho-integral", "rho": 0.3, "horizon": 1.0},
             "n_cells": 32 if tiny else 1024},
        ],
    }


def _simulate_long(tiny: bool) -> dict:
    horizon = 4.0 if tiny else 150.0
    return {
        "horizon": horizon,
        "dt_out": 1e-3,
        "system": {"kind": "wave-modal", "n_modes": 4 if tiny else 32,
                   "damping": {"omega": [0.2, 0.6]}},
        "signal": {"gen": "periodic-gate", "period": 2.0,
                   "pulse_halfwidth": 0.25, "horizon": horizon},
        "analyses": [
            # The trapezoid damping integral of energy_balance leaves residuals
            # up to 1.2e-5 at this size, above the 1e-5 default on some seeds;
            # the residual is reported as linsys.balance_rel_residual.
            {"kind": "simulate", "balance_tol": 1e-4},
            {"kind": "check-pe", "T": 2.0, "mu": 0.5},
        ],
    }


def _certify_verify(tiny: bool) -> dict:
    return {
        "system": {"kind": "wave-modal", "n_modes": 4,
                   "damping": {"uniform": 1.0}},
        "analyses": [
            {"kind": "certify", "theta": 2.0,
             "source": {"kind": "wave-pe", "T": 2.0, "mu": 1.0,
                        "lambda_min": math.pi ** 2},
             "verify": {"T": 2.0, "mu": 1.0, "n_trials": 3 if tiny else 100,
                        "horizon": 10.0 if tiny else 100.0}},
            {"kind": "strong-stability",
             "intervals": _haraux_intervals(4 if tiny else 40),
             "criterion": {"T0": 1.0, "cost": {"kind": "exp-gap"}}},
        ],
    }


_BUILDERS = {
    "pe-lp": _pe_lp,
    "rho-gramian": _rho_gramian,
    "simulate-long": _simulate_long,
    "certify-verify": _certify_verify,
}


def generate(name: str, seed: int, tiny: bool = False) -> dict:
    """Scenario document of workload ``name`` for ``seed``.

    ``tiny`` shrinks every size so the whole workload runs in well under a
    second; the smoke test uses it, timed runs never do.
    """
    if name not in _BUILDERS:
        raise ValueError("unknown workload %r (expected one of %s)"
                         % (name, ", ".join(WORKLOADS)))
    if not isinstance(seed, int) or seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    doc = _BUILDERS[name](tiny)
    doc["seed"] = seed
    return doc
