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
union of intervals with endpoints affine in t, so its overlap with omega is
piecewise linear in t and is certified zero over whole activity windows by
evaluating at interval endpoints and at the finitely many times where a
support endpoint crosses a or b.  Quadrature of v_t^2 over omega corroborates
the certificate numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .signals import PEReport, Signal, _frac, pe_check, periodic_gate

GAUSS_NODES = 8


@dataclass(frozen=True)
class CounterexampleScenario:
    """Damping region, derived gate parameters, and the traveling bump."""

    omega: tuple
    b_prime: float
    mu: float
    period: float
    signal: Signal
    n_periods: int
    # exact rational mirrors of omega and the derived bump edge, used by the
    # zero-overlap certificate so that "zero" means exactly zero
    _fomega: tuple = field(init=False, repr=False, compare=False, default=())
    _fbp: Fraction = field(init=False, repr=False, compare=False, default=Fraction(0))

    def __post_init__(self):
        fa, fb = _frac(self.omega[0]), _frac(self.omega[1])
        object.__setattr__(self, "_fomega", (fa, fb))
        object.__setattr__(self, "_fbp", (1 + fb) / 2)

    @property
    def bump_support(self) -> tuple:
        return (self.b_prime, 1.0)

    def _psi(self, u):
        """C^1 bump ((u-b')(1-u))^2 on [b', 1], peak amplitude 1."""
        u = np.asarray(u, dtype=float)
        half = (1.0 - self.b_prime) / 2.0
        s = (u - self.b_prime) * (1.0 - u)
        inside = (u >= self.b_prime) & (u <= 1.0)
        return np.where(inside, (s / half ** 2) ** 2, 0.0)

    def _psi_prime(self, u):
        u = np.asarray(u, dtype=float)
        half = (1.0 - self.b_prime) / 2.0
        s = (u - self.b_prime) * (1.0 - u)
        ds = 1.0 + self.b_prime - 2.0 * u
        inside = (u >= self.b_prime) & (u <= 1.0)
        return np.where(inside, 2.0 * s * ds / half ** 4, 0.0)

    def displacement(self, t: float, x):
        """v(t, x) = Psi(x + t) - Psi(t - x), Psi the 2-periodised bump."""
        x = np.asarray(x, dtype=float)
        return self._psi(np.mod(x + t, 2.0)) - self._psi(np.mod(t - x, 2.0))

    def velocity(self, t: float, x):
        """Time derivative v_t(t, x) = Psi'(x + t) - Psi'(t - x)."""
        x = np.asarray(x, dtype=float)
        return self._psi_prime(np.mod(x + t, 2.0)) - self._psi_prime(np.mod(t - x, 2.0))

    def _support_exact(self, t: Fraction):
        """Support intervals of v_t(t, .) within [0, 1], exact in t.

        Characteristics: x contributes iff (x + t) mod 2 or (t - x) mod 2
        lies in the bump support [b', 1].  Endpoints are affine in t, so
        with rational t the intervals are exact.
        """
        out = []
        bp = self._fbp
        one = Fraction(1)
        # right-movers: x + t in [b' + 2k, 1 + 2k]
        for k in range(math.floor((t - 1) / 2), math.ceil((t + 1) / 2) + 1):
            lo, hi = max(bp + 2 * k - t, Fraction(0)), min(one + 2 * k - t, one)
            if hi > lo:
                out.append((lo, hi))
        # left-movers: t - x in [b' + 2k, 1 + 2k]
        for k in range(math.floor((t - 2) / 2), math.ceil(t / 2) + 1):
            lo, hi = max(t - 1 - 2 * k, Fraction(0)), min(t - bp - 2 * k, one)
            if hi > lo:
                out.append((lo, hi))
        return sorted(out)

    def velocity_support(self, t: float):
        """Support intervals of v_t(t, .) within [0, 1] as float pairs."""
        return [(float(lo), float(hi)) for lo, hi in self._support_exact(_frac(t))]

    def _char_breaks(self, t: float):
        """x in (0, 1) where a characteristic crosses a bump-support edge."""
        pts = set()
        for k in range(-3, int(np.ceil(t / 2.0)) + 3):
            for edge in (self.b_prime, 1.0):
                for x in (edge + 2 * k - t, t - edge - 2 * k):
                    if 0.0 < x < 1.0:
                        pts.add(x)
        return sorted(pts)


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
    fb_prime = (1 + _frac(b)) / 2
    fmu = 1 - fb_prime
    sig = periodic_gate(2, fmu, 2 * n_periods)
    return CounterexampleScenario(
        omega=(a, b), b_prime=float(fb_prime), mu=float(fmu), period=2.0,
        signal=sig, n_periods=n_periods,
    )


def _overlap_with_omega(sc: CounterexampleScenario, t: Fraction) -> Fraction:
    fa, fb = sc._fomega
    total = Fraction(0)
    for lo, hi in sc._support_exact(t):
        cut = min(hi, fb) - max(lo, fa)
        if cut > 0:
            total += cut
    return total


def verify_damping_inert(sc: CounterexampleScenario, n_periods: int = None,
                         quad_times_per_window: int = 9) -> InertReport:
    """Certify that supp v_t(t, .) avoids omega whenever the gate is on.

    For every active cell of the gate within the requested horizon the
    support overlap with omega is a piecewise-linear function of t, so it is
    evaluated at the cell endpoints, at every crossing time of a support
    endpoint with an edge of omega, and at midpoints between those
    candidates; the maximum is exact.  A quadrature sweep of
    int_omega v_t(t, .)^2 dx over sampled active times corroborates the
    analytic overlap (both must vanish for the certificate to hold).
    """
    if n_periods is None:
        n_periods = sc.n_periods
    fH = _frac(sc.period) * n_periods
    sig = sc.signal if fH <= _frac(sc.period) * sc.n_periods \
        else periodic_gate(sc.period, 1 - sc._fbp, float(fH))
    fa, fb = sc._fomega
    fbp = sc._fbp
    max_overlap = Fraction(0)
    quad_max = 0.0
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
            for edge in (fbp, Fraction(1)):
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
        for t in np.linspace(float(c0), float(c1), quad_times_per_window):
            quad_max = max(quad_max, _velocity_mass_on_omega(sc, float(t)))
    pe = pe_check(sig, sc.period, float(1 - fbp), float(fH))
    ok = bool(max_overlap == 0 and quad_max <= 1e-12 and pe.holds)
    return InertReport(
        ok=ok, mu=sc.mu, T=sc.period, max_overlap=float(max_overlap),
        quad_velocity_mass_max=float(quad_max), pe=pe, n_periods=n_periods,
        n_windows_checked=n_windows,
    )


def _gauss_panels(f, panels, nodes: int = GAUSS_NODES) -> float:
    """Gauss-Legendre quadrature of f over each (lo, hi) panel, summed."""
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for lo, hi in panels:
        h = 0.5 * (hi - lo)
        xs = lo + h * (xg + 1.0)
        total += h * float(np.dot(wg, f(xs)))
    return total


def _velocity_mass_on_omega(sc: CounterexampleScenario, t: float) -> float:
    a, b = sc.omega
    pts = [a] + [x for x in sc._char_breaks(t) if a < x < b] + [b]
    panels = list(zip(pts, pts[1:]))
    return _gauss_panels(lambda x: sc.velocity(t, x) ** 2, panels)


def energy_of_counterexample(sc: CounterexampleScenario, t: float) -> float:
    """Wave energy (1/2) int_0^1 (v_x^2 + v_t^2) dx at time t.

    The integrand is piecewise polynomial between characteristic break
    points, so panel-wise Gauss-Legendre quadrature is exact up to rounding.
    Along the orbit the energy is constant (the damping never acts), equal to
    the Dirichlet energy of the bump profile.
    """
    pts = [0.0] + sc._char_breaks(t) + [1.0]
    panels = list(zip(pts, pts[1:]))

    def integrand(x):
        up = np.mod(x + t, 2.0)
        um = np.mod(t - x, 2.0)
        dp = sc._psi_prime(up)
        dm = sc._psi_prime(um)
        vx = dp + dm
        vt = dp - dm
        return 0.5 * (vx * vx + vt * vt)

    return _gauss_panels(integrand, panels)
