"""Reference implementations that only tests read.

Each is a closed-form statement of the paper that a test checks the package
against; no report uses them, so they live here rather than in ``src/``.

* :func:`gap_estimate_check`: the per-window energy decay inequality along
  a damped trajectory (acceptance criterion 2 and ``tests/test_linsys.py``).
* :func:`displacement`: the traveling-bump displacement of the
  counterexample, which the modal-corroboration test projects onto string
  modes.
"""

from dataclasses import dataclass

import numpy as np

from pexstab.dalembert import CounterexampleScenario
from pexstab.linsys import LinearSystem, _propagate, observability_gramian
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


def displacement(sc: CounterexampleScenario, t: float, x):
    """v(t, x) = Psi(x + t) - Psi(t - x), Psi the 2-periodised bump."""
    x = np.asarray(x, dtype=float)
    return sc._psi(np.mod(x + t, 2.0)) - sc._psi(np.mod(t - x, 2.0))
