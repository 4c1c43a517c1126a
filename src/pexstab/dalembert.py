"""A persistently excited damped string whose damping never acts.

Construction on the unit interval with Dirichlet ends, damping region
omega = (a, b) with b < 1: set b' = (1 + b)/2, mu = 1 - b' = (1 - b)/2 and
take the period-2 damping gate that is on within mu of every even time.
The displacement

    v(t, x) = Psi(x + t) - Psi(t - x)

built from the 2-periodic extension Psi of a C^1 bump supported in [b', 1]
solves the free wave equation, satisfies the Dirichlet conditions, and its
velocity support travels along characteristics: whenever the gate is on
(|t mod 2| <= mu up to periodicity) the support of v_t(t, .) stays inside
[b, 1], which is disjoint from (a, b).  The damping term alpha(t) d(x)^2 v_t
therefore vanishes identically along the orbit even though alpha passes the
T-mu persistent-excitation check with T = 2, and the wave keeps a constant
positive energy: persistent excitation of the signal alone cannot force
decay when the damping region misses the moving support.

The classical construction uses an indicator-profile bump, which does not
lie in the energy space; the profile here is the piecewise-polynomial C^1
bump psi(u) = ((u - b')(1 - u))^2 normalised to peak amplitude 1, which
keeps the orbit in H^1 x L^2 and every displayed identity intact.

Support bookkeeping is exact: for fixed t the velocity support is a finite
union of intervals with endpoints affine in t (:func:`_support`), so its
overlap with omega is piecewise linear in t and is certified zero over whole
activity windows by evaluating at interval endpoints and at the finitely many
times where a support endpoint crosses a or b.  Quadrature of v_t^2 over
omega corroborates the certificate numerically.  Both quadratures (velocity
mass and energy) cut their interval (omega or [0, 1]) at those endpoints, in
floats, and evaluate their integrand once over the Gauss nodes of all times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .signals import PEReport, Signal, pe_check, periodic_gate

GAUSS_NODES = 8
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(GAUSS_NODES)
# active times per gate pulse at which verify_damping_inert evaluates the
# quadrature of v_t^2 over omega
QUAD_TIMES_PER_WINDOW = 9


def _support(t, bp):
    """Support intervals (lo, hi) of v_t(t, .) within [0, 1], bump edge ``bp``.

    x contributes iff (x + t) mod 2 or (t - x) mod 2 lies in the bump support
    [b', 1].  The endpoints are affine in t: exact for rational t and b', the
    rounded values of the same expressions for floats.
    """
    # right-movers: x + t in [b' + 2k, 1 + 2k]
    for k in range(math.floor((t - 1) / 2), math.ceil((t + 1) / 2) + 1):
        lo, hi = max(bp + 2 * k - t, 0), min(1 + 2 * k - t, 1)
        if hi > lo:
            yield lo, hi
    # left-movers: t - x in [b' + 2k, 1 + 2k]
    for k in range(math.floor((t - 2) / 2), math.ceil(t / 2) + 1):
        lo, hi = max(t - 1 - 2 * k, 0), min(t - bp - 2 * k, 1)
        if hi > lo:
            yield lo, hi


@dataclass(frozen=True)
class CounterexampleScenario:
    """Damping region, the gate, and the traveling bump; the bump edge
    b' = (1 + b)/2 and the gate's halfwidth mu = 1 - b' are derived here."""

    omega: tuple
    period: float
    signal: Signal
    n_periods: int
    b_prime: float = field(init=False)
    mu: float = field(init=False)
    # exact mirrors of omega, b' and mu, read by the zero-overlap certificate
    # and the gate so that "zero" means exactly zero
    _fomega: tuple = field(init=False, repr=False, compare=False)
    _fbp: Fraction = field(init=False, repr=False, compare=False)
    _fmu: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fa, fb = Fraction(self.omega[0]), Fraction(self.omega[1])
        fbp = (1 + fb) / 2
        fmu = 1 - fbp
        for name, value in (("_fomega", (fa, fb)), ("_fbp", fbp), ("_fmu", fmu),
                            ("b_prime", float(fbp)), ("mu", float(fmu))):
            object.__setattr__(self, name, value)

    def _psi_prime(self, u):
        """Derivative of the C^1 bump ((u-b')(1-u))^2 on [b', 1], scaled to
        peak amplitude 1."""
        u = np.asarray(u, dtype=float)
        half = (1.0 - self.b_prime) / 2.0
        s = (u - self.b_prime) * (1.0 - u)
        ds = 1.0 + self.b_prime - 2.0 * u
        inside = (u >= self.b_prime) & (u <= 1.0)
        return np.where(inside, 2.0 * s * ds / half ** 4, 0.0)

    def _slopes(self, t, x):
        """Psi' on the two characteristics through (t, x): Psi'(x + t) and
        Psi'(t - x); t and x broadcast."""
        x = np.asarray(x, dtype=float)
        return self._psi_prime(np.mod(x + t, 2.0)), self._psi_prime(np.mod(t - x, 2.0))

    def velocity(self, t, x):
        """Time derivative v_t(t, x) = Psi'(x + t) - Psi'(t - x); t and x
        broadcast."""
        return np.subtract(*self._slopes(t, x))

    def _char_breaks(self, t: float):
        """x in (0, 1) where a characteristic crosses a bump-support edge:
        the endpoints of the float support intervals at ``t`` that lie in
        (0, 1), in increasing order."""
        return sorted({x for iv in _support(t, self.b_prime) for x in iv if 0.0 < x < 1.0})


@dataclass(frozen=True)
class InertReport:
    """Certificate that the damping term vanishes along the orbit."""

    ok: bool
    mu: float
    T: float
    max_overlap: float
    quad_velocity_mass_max: float
    pe: PEReport
    n_periods: int
    n_windows_checked: int

    def to_dict(self) -> dict:
        """Report form: the PE check as its verdict ``pe_ok``."""
        return {
            "ok": self.ok,
            "mu": self.mu,
            "T": self.T,
            "pe_ok": self.pe.holds,
            "max_overlap": self.max_overlap,
            "quad_velocity_mass_max": self.quad_velocity_mass_max,
            "n_periods": self.n_periods,
            "n_windows_checked": self.n_windows_checked,
        }


def build_counterexample(omega, n_periods: int = 8) -> CounterexampleScenario:
    """Gate-plus-bump scenario for a damping region omega = (a, b), b < 1.

    The gate has period 2 and pulse halfwidth mu = (1 - b)/2; the bump is
    supported in [b' , 1] with b' = (1 + b)/2.  ``n_periods`` controls how
    far the truncated gate extends (any window analysis within that horizon
    sees the exact periodic signal).
    """
    a, b = float(omega[0]), float(omega[1])
    if not 0.0 <= a < b < 1.0:
        raise ValueError(
            "omega must satisfy 0 <= a < b < 1 so that (b, 1) has positive measure"
        )
    if n_periods < 1:
        raise ValueError("need at least one period")
    # the gate is built from the scenario's own mu
    sc = CounterexampleScenario(omega=(a, b), period=2.0, signal=None, n_periods=n_periods)
    return replace(sc, signal=periodic_gate(2, sc._fmu, 2 * n_periods))


def _overlap_with_omega(sc: CounterexampleScenario, t: Fraction) -> Fraction:
    fa, fb = sc._fomega
    total = Fraction(0)
    for lo, hi in _support(t, sc._fbp):
        cut = min(hi, fb) - max(lo, fa)
        if cut > 0:
            total += cut
    return total


def verify_damping_inert(sc: CounterexampleScenario) -> InertReport:
    """Certify that supp v_t(t, .) avoids omega whenever the gate is on.

    For every active cell of the gate within the ``sc.n_periods`` periods the
    support overlap with omega is a piecewise-linear function of t, so it is
    evaluated at the cell endpoints, at every crossing time of a support
    endpoint with an edge of omega, and at midpoints between those
    candidates; the maximum is exact.  A quadrature sweep of
    int_omega v_t(t, .)^2 dx over sampled active times corroborates the
    analytic overlap (both must vanish for the certificate to hold).
    """
    fH = Fraction(sc.period) * sc.n_periods
    sig = sc.signal
    fa, fb = sc._fomega
    max_overlap = Fraction(0)
    quad_times = []
    n_windows = 0
    # walk the exact signal cells: edges are rational, activity is level > 0
    edges = [Fraction(0)] + [Fraction(nb, sig._den) for nb in sig._nbreaks]
    levels = sig._nvalues + (sig._ntail,)
    for i, (c0, lvl) in enumerate(zip(edges, levels)):
        if lvl == 0 or c0 >= fH:
            continue
        c1 = min(edges[i + 1] if i + 1 < len(edges) else fH, fH)
        if c1 <= c0:
            continue
        n_windows += 1
        # candidate times: cell edges and support-edge crossings of a and b;
        # the overlap is piecewise linear in t, so these candidates plus
        # midpoints between consecutive ones attain its maximum
        cands = {c0, c1}
        for k in range(math.floor(c0 / 2) - 2, math.ceil(c1 / 2) + 3):
            for edge in (sc._fbp, 1):
                for beta in (fa, fb):
                    for tstar in (edge + 2 * k - beta, beta + edge + 2 * k):
                        if c0 < tstar < c1:
                            cands.add(tstar)
        cands = sorted(cands)
        cands = sorted(set(cands) | {(u + v) / 2 for u, v in zip(cands, cands[1:])})
        for t in cands:
            ov = _overlap_with_omega(sc, t)
            if ov > max_overlap:
                max_overlap = ov
        # quadrature corroboration on a sample of active times
        quad_times.append(np.linspace(float(c0), float(c1), QUAD_TIMES_PER_WINDOW))
    masses = _panel_quadrature(sc, np.concatenate(quad_times), *sc.omega,
                               lambda t, x: sc.velocity(t, x) ** 2)
    quad_max = float(masses.max())
    pe = pe_check(sig, sc.period, sc.mu, float(fH))
    ok = bool(max_overlap == 0 and quad_max <= 1e-12 and pe.holds)
    return InertReport(
        ok=ok, mu=sc.mu, T=sc.period, max_overlap=float(max_overlap),
        quad_velocity_mass_max=float(quad_max), pe=pe, n_periods=sc.n_periods,
        n_windows_checked=n_windows,
    )


def _panel_quadrature(sc: CounterexampleScenario, times, lo: float, hi: float,
                      integrand) -> np.ndarray:
    """Gauss-Legendre quadrature of integrand(t, x) over x in [lo, hi], per time.

    Each time's [lo, hi] is cut into panels at the characteristic breaks
    inside it.  The integrand is evaluated once, over the Gauss nodes of
    every panel of every time; each panel's weighted sum is its own dot
    product, and a time's panels are added in panel order.
    """
    owner, los, his = [], [], []
    for i, t in enumerate(times):
        pts = [lo] + [x for x in sc._char_breaks(t) if lo < x < hi] + [hi]
        owner += [i] * (len(pts) - 1)
        los += pts[:-1]
        his += pts[1:]
    los, his = np.array(los), np.array(his)
    h = 0.5 * (his - los)
    rows = integrand(np.asarray(times, dtype=float)[owner, None],
                     los[:, None] + h[:, None] * (_GAUSS_X + 1.0))
    totals = np.zeros(len(times))
    for k, i in enumerate(owner):
        totals[i] += h[k] * float(np.dot(_GAUSS_W, rows[k]))
    return totals


def _energy_density(sc: CounterexampleScenario, t, x):
    """(v_x^2 + v_t^2) / 2 at (t, x)."""
    dp, dm = sc._slopes(t, x)
    vx, vt = dp + dm, dp - dm
    return 0.5 * (vx * vx + vt * vt)


def energy_of_counterexample(sc: CounterexampleScenario, times) -> np.ndarray:
    """Wave energy (1/2) int_0^1 (v_x^2 + v_t^2) dx at each of ``times``.

    The integrand is evaluated once for all times.  It is piecewise
    polynomial between characteristic break points, so panel-wise
    Gauss-Legendre quadrature is exact up to rounding.  Along the orbit the
    energy is constant (the damping never acts), equal to the Dirichlet
    energy of the bump profile.
    """
    return _panel_quadrature(sc, times, 0.0, 1.0,
                             lambda t, x: _energy_density(sc, t, x))
