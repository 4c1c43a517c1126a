"""Correctness gate: checks on the reports one ``pexstab run`` wrote.

Checks that look at the envelope of every report (exit code, ``ok``, byte
identity across repeated runs of one seed) live in ``run.py``; this module
holds the checks on report contents, each recomputed by the benchmark from
the scenario rather than trusted from the program:

* ``witness_rel_err``: the observability functional J(witness z0, witness
  signal) in closed form for skew A, against the reported constant c;
* every observability constant (and every kappa-scan constant) is at most
  horizon * ||B||^2, the value of the always-on signal's trivial bound;
* the final energy of a simulation against an independent per-cell ``expm``
  propagation of the same gate signal;
* the certificate verification's worst ratio at most 1 + slack.

Two accuracy figures come out of these checks and are reported, not only
gated: ``observability.witness_rel_err`` and ``linsys.balance_rel_residual``
(the simulate report's energy-balance residual over V(0), which measures the
trapezoid damping integral of ``energy_balance``).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

# Today's 16-node trapezoid leaves about 1e-4; a broken kernel is off by O(1).
WITNESS_REL_TOL = 1e-3
ENERGY_REL_TOL = 1e-9
BOUND_SLACK = 1e-9


def gramian_closed_form(A, B, t0: float, t1: float) -> np.ndarray:
    """int_t0^t1 e^{tA^T} B B^T e^{tA} dt for skew A, with no quadrature.

    With iA = U diag(w) U^H (so e^{tA} = U diag(e^{-iwt}) U^H) the integral is
    U [(U^H B B^T U) o K] U^H where K_kl = int e^{i (w_k - w_l) t} dt.
    """
    w, U = np.linalg.eigh(1j * np.asarray(A))
    BU = np.asarray(B).T @ U
    M = BU.conj().T @ BU
    d = w[:, None] - w[None, :]
    L, m = t1 - t0, (t0 + t1) / 2.0
    K = np.exp(1j * d * m) * L * np.sinc(d * L / (2.0 * np.pi))
    G = U @ (M * K) @ U.conj().T
    return np.real(G + G.conj().T) / 2.0


def signal_cells(sig: dict, t0: float, t1: float):
    """(start, end, level) of a report's piecewise signal over [t0, t1]."""
    edges = [0.0] + list(sig["breakpoints"])
    levels = list(sig["values"])
    out = []
    for a, b, v in zip(edges, edges[1:], levels):
        lo, hi = max(a, t0), min(b, t1)
        if hi > lo:
            out.append((lo, hi, v))
    lo = max(edges[-1], t0)
    if t1 > lo:
        out.append((lo, t1, sig["tail"]))
    return out


def witness_rel_err(system, report: dict) -> float:
    """|c - J(witness)| / J(witness) for one observability report."""
    z0 = np.asarray(report["witness_z0"], dtype=float)
    horizon = report["class"]["horizon"]
    J = 0.0
    for a, b, level in signal_cells(report["witness_signal"], 0.0, horizon):
        if level:
            J += level * float(z0 @ gramian_closed_form(system.A, system.B, a, b) @ z0)
    return abs(report["c"] - J) / J


def gate_cells(period: float, halfwidth: float, horizon: float):
    """Cells of the gate that is 1 on [k*period - h, k*period + h), else 0."""
    edges = [0.0, halfwidth]
    k = 1
    while edges[-1] < horizon:
        edges += [k * period - halfwidth, k * period + halfwidth]
        k += 1
    edges = [min(e, horizon) for e in edges]
    return [(a, b, 1.0 if i % 2 == 0 else 0.0)
            for i, (a, b) in enumerate(zip(edges, edges[1:])) if b > a]


def reference_final_energy(system, z0, cells) -> float:
    """V(horizon) = |z|^2 / 2 by one exact exponential step per cell."""
    z = np.asarray(z0, dtype=float)
    BBt = system.B @ system.B.T
    steps = {}
    for a, b, level in cells:
        key = (level, b - a)
        if key not in steps:
            steps[key] = scipy.linalg.expm((system.A - level * BBt) * (b - a))
        z = steps[key] @ z
    return 0.5 * float(z @ z)


def check_reports(scenario, doc: dict, reports: dict) -> tuple:
    """Content checks on the reports of one run.

    ``scenario`` is the parsed scenario (for the system matrices), ``doc``
    the scenario document and ``reports`` maps analysis index to the parsed
    JSON envelope.  Returns (failures, accuracy): failures as a list of
    (analysis index, message), accuracy as a dict of the figures above that
    the reports define (the worst one where several reports define it).
    """
    failures, accuracy = [], {}
    system = scenario.system
    b2 = system.b_norm ** 2 if system is not None else None
    for i, env in sorted(reports.items()):
        rep, kind = env["report"], env["kind"]
        if kind == "observability":
            bound = rep["class"]["horizon"] * b2
            if rep["c"] > bound * (1 + BOUND_SLACK):
                failures.append((i, "constant %r exceeds horizon*|B|^2 = %r"
                                 % (rep["c"], bound)))
            err = witness_rel_err(system, rep)
            accuracy["observability.witness_rel_err"] = max(
                err, accuracy.get("observability.witness_rel_err", 0.0))
            if not err <= WITNESS_REL_TOL:
                failures.append((i, "witness_rel_err %.3g above %g"
                                 % (err, WITNESS_REL_TOL)))
        elif kind == "kappa-scan":
            for T, c in zip(rep["T_grid"], rep["constants"]):
                if c > T * b2 * (1 + BOUND_SLACK):
                    failures.append((i, "constant %r at T=%r exceeds T*|B|^2"
                                     % (c, T)))
        elif kind == "simulate":
            sig = doc["signal"]
            if sig.get("gen") != "periodic-gate":
                failures.append((i, "no reference propagation for this signal"))
                continue
            cells = gate_cells(sig["period"], sig["pulse_halfwidth"], doc["horizon"])
            ref = reference_final_energy(system, rep["z0"], cells)
            rel = abs(rep["V_end"] - ref) / ref
            accuracy["linsys.balance_rel_residual"] = (
                abs(rep["balance_residual"]) / rep["V_start"])
            if not rel <= ENERGY_REL_TOL:
                failures.append((i, "final energy %r vs reference %r (rel %.3g)"
                                 % (rep["V_end"], ref, rel)))
        elif kind == "certify" and "verification" in rep:
            v = rep["verification"]
            if not v["worst_ratio"] <= 1.0 + v["slack"]:
                failures.append((i, "certificate worst_ratio %r above 1 + %r"
                                 % (v["worst_ratio"], v["slack"])))
    return failures, accuracy
