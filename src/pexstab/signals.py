"""Piecewise-constant damping signals and persistent-excitation checks.

A damping signal is a function ``alpha : [0, inf) -> [0, 1]`` that switches
between finitely many levels.  All signal algebra here is exact and runs on
one integer lattice per signal: the breakpoints are integer numerators over a
single denominator (the lcm of their denominators), the levels are integer
numerators over a second one, and the prefix masses are numerators over the
product of the two.  Inputs enter exactly (a float is the dyadic rational it
stores): each query lifts its times onto the signal's lattice by one
method, ``Signal._lift``, and every lattice is the least common denominator
of ``_common``.  Integrals are exact integer sums over cells, and
:class:`fractions.Fraction` appears only in returned values.  The
persistent-excitation (PE) check minimises the sliding-window mass

    g(t) = integral of alpha over [t, t + T]

over candidate window starts rather than sampling.  Because ``g`` is piecewise
linear in ``t`` with kinks only where a window edge crosses a breakpoint, the
minimum over a closed range is attained at a breakpoint, at a breakpoint
shifted by ``-T``, or at an endpoint of the range; enumerating these gives the
exact minimiser.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational


def _ratio(x) -> tuple:
    """Exact ``(numerator, denominator)`` of a float or rational, as ints."""
    if isinstance(x, float):
        return x.as_integer_ratio()
    if isinstance(x, Rational):
        return int(x.numerator), int(x.denominator)
    return float(x).as_integer_ratio()


def _common(ratios) -> tuple:
    """Least common denominator of ``(num, den)`` pairs and the numerators over it."""
    den = math.lcm(*(d for _, d in ratios))
    return den, [n * (den // d) for n, d in ratios]


@dataclass(frozen=True)
class Signal:
    """Piecewise-constant damping level on [0, inf).

    ``values[i]`` applies on the cell ``[breakpoints[i-1], breakpoints[i])``
    (with an implicit left edge at 0), and ``tail_value`` applies beyond the
    last breakpoint.  With no breakpoints the signal is constantly
    ``tail_value``.

    Attributes
    ----------
    breakpoints : tuple of float
        Strictly increasing cell edges, all positive.  A breakpoint at 0
        would create an empty leading cell and is rejected.
    values : tuple of float
        One level per cell, each in [0, 1]; same length as ``breakpoints``.
    tail_value : float
        Level on ``[breakpoints[-1], inf)``.
    """

    breakpoints: tuple
    values: tuple
    tail_value: float
    # exact integer lattice, set by _set_lattice: breakpoints[i] is
    # _nbreaks[i] / _den, values[i] is _nvalues[i] / _vden, tail_value is
    # _ntail / _vden and the integral over [0, breakpoints[i]] is
    # _nprefix[i] / (_den * _vden); both denominators are the least possible
    _den: int = field(init=False, repr=False, compare=False, default=1)
    _nbreaks: tuple = field(init=False, repr=False, compare=False, default=())
    _vden: int = field(init=False, repr=False, compare=False, default=1)
    _nvalues: tuple = field(init=False, repr=False, compare=False, default=())
    _ntail: int = field(init=False, repr=False, compare=False, default=0)
    _nprefix: tuple = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self):
        den, nbreaks = _common([_ratio(b) for b in self.breakpoints])
        vden, nlevels = _common([_ratio(v) for v in self.values]
                                + [_ratio(self.tail_value)])
        self._set_lattice(den, nbreaks, vden, nlevels[:-1], nlevels[-1])

    @classmethod
    def _from_lattice(cls, den, nbreaks, vden, nvalues, ntail) -> "Signal":
        """Signal with edges ``nbreaks / den`` and levels ``nvalues / vden``.

        The tail level is ``ntail / vden``.  Runs the same checks as the
        public constructor.
        """
        sig = object.__new__(cls)
        sig._set_lattice(den, nbreaks, vden, nvalues, ntail)
        return sig

    def _set_lattice(self, den, nbreaks, vden, nvalues, ntail):
        g = math.gcd(den, *nbreaks)
        den, nbreaks = den // g, tuple(nb // g for nb in nbreaks)
        g = math.gcd(vden, ntail, *nvalues)
        vden, nvalues, ntail = vden // g, tuple(nv // g for nv in nvalues), ntail // g
        # int true division rounds correctly, as float(Fraction) does
        object.__setattr__(self, "breakpoints", tuple(nb / den for nb in nbreaks))
        object.__setattr__(self, "values", tuple(nv / vden for nv in nvalues))
        object.__setattr__(self, "tail_value", ntail / vden)
        if len(nbreaks) != len(nvalues):
            raise ValueError(
                "need exactly one value per cell: got %d breakpoints but %d values"
                % (len(nbreaks), len(nvalues))
            )
        prev = 0
        for nb in nbreaks:
            if nb <= prev:
                raise ValueError(
                    "breakpoints must be strictly increasing and positive; "
                    "a breakpoint at or before %s creates a degenerate cell" % (prev / den)
                )
            prev = nb
        for nv in nvalues + (ntail,):
            if not 0 <= nv <= vden:
                raise ValueError("signal levels must lie in [0, 1], got %s" % (nv / vden))
        prefix = []
        acc = lo = 0
        for nb, nv in zip(nbreaks, nvalues):
            acc += (nb - lo) * nv
            prefix.append(acc)
            lo = nb
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_nbreaks", nbreaks)
        object.__setattr__(self, "_vden", vden)
        object.__setattr__(self, "_nvalues", nvalues)
        object.__setattr__(self, "_ntail", ntail)
        object.__setattr__(self, "_nprefix", tuple(prefix))

    def value_at(self, t: float) -> float:
        """Level at time ``t`` (right-continuous at breakpoints)."""
        if t < 0:
            raise ValueError("signal domain is [0, inf), got t=%s" % t)
        i = bisect.bisect_right(self.breakpoints, t)
        if i < len(self.values):
            return self.values[i]
        return self.tail_value

    def _primitive(self, x: int, s: int) -> int:
        """Integral over [0, x / (s * _den)], as a numerator over ``s * _den * _vden``.

        ``x`` lives on the refined lattice with denominator ``s * _den``, on
        which breakpoint i sits at ``_nbreaks[i] * s``; since breakpoints are
        integers on the coarse lattice, ``x // s`` locates the cell exactly.
        """
        i = bisect.bisect_right(self._nbreaks, x // s)
        level = self._nvalues[i] if i < len(self._nvalues) else self._ntail
        if i == 0:
            return x * level
        return self._nprefix[i - 1] * s + (x - self._nbreaks[i - 1] * s) * level

    def _lift(self, *xs) -> tuple:
        """``(L, s, nums)``: the times ``xs`` as numerators ``nums`` over ``L``, the
        least common denominator of ``_den`` and theirs, and ``s = L // _den``."""
        L, nums = _common([(0, self._den)] + [_ratio(x) for x in xs])
        return L, L // self._den, nums[1:]

    def integral(self, a, b) -> Fraction:
        """Exact mass of the signal over [a, b], returned as a Fraction."""
        L, s, (xa, xb) = self._lift(a, b)
        if xa < 0 or xb < xa:
            raise ValueError("need 0 <= a <= b, got a=%s b=%s" % (a, b))
        return Fraction(self._primitive(xb, s) - self._primitive(xa, s), L * self._vden)

    def cells_between(self, a: float, b: float):
        """Yield (start, end, level) covering [a, b], split at breakpoints."""
        if a < 0 or b < a:
            raise ValueError("need 0 <= a <= b, got a=%s b=%s" % (a, b))
        if b == a:
            return
        lo = a
        i = bisect.bisect_right(self.breakpoints, a)
        while i < len(self.breakpoints) and self.breakpoints[i] < b:
            yield lo, self.breakpoints[i], self.values[i]
            lo = self.breakpoints[i]
            i += 1
        level = self.values[i] if i < len(self.values) else self.tail_value
        yield lo, b, level

    def shifted(self, t0: float) -> "Signal":
        """The signal ``t -> alpha(t0 + t)`` as a new Signal."""
        L, s, (x0,) = self._lift(t0)
        if x0 < 0:
            raise ValueError("shift must be nonnegative, got %s" % t0)
        # keep the breakpoints strictly after t0
        i = bisect.bisect_right(self._nbreaks, x0 // s)
        return Signal._from_lattice(L, [nb * s - x0 for nb in self._nbreaks[i:]],
                                    self._vden, self._nvalues[i:], self._ntail)

    def to_dict(self) -> dict:
        """Report form: the tail level as ``tail``, without the lattice."""
        return {
            "breakpoints": list(self.breakpoints),
            "values": list(self.values),
            "tail": self.tail_value,
        }


@dataclass(frozen=True)
class PEReport:
    """Result of an exact T-mu persistent-excitation check."""

    holds: bool
    T: float
    mu: float
    horizon: float
    worst_window_start: float
    worst_window_mass: float
    # float fields above are lossy views; the exact minimiser lives here
    worst_window_start_exact: Fraction
    worst_window_mass_exact: Fraction
    tolerance: float = 0.0

    def to_dict(self) -> dict:
        """Report form: the float fields, without the exact Fractions."""
        return {
            "holds": self.holds,
            "T": self.T,
            "mu": self.mu,
            "horizon": self.horizon,
            "worst_window_start": self.worst_window_start,
            "worst_window_mass": self.worst_window_mass,
            "tolerance": self.tolerance,
        }


@dataclass(frozen=True)
class IntervalSequence:
    """Ordered disjoint intervals (a_n, b_n)."""

    intervals: tuple

    def __post_init__(self):
        ivs = tuple((float(a), float(b)) for a, b in self.intervals)
        object.__setattr__(self, "intervals", ivs)
        if not ivs:
            raise ValueError("interval sequence must be nonempty")
        prev_end = None
        for a, b in ivs:
            if b <= a:
                raise ValueError("empty interval (%s, %s)" % (a, b))
            if prev_end is not None and a < prev_end:
                raise ValueError("intervals must be ordered and disjoint")
            prev_end = b

    @property
    def lengths(self) -> tuple:
        return tuple(b - a for a, b in self.intervals)


def make_piecewise(breakpoints, values, tail_value) -> Signal:
    """Build a piecewise-constant signal from cell edges, levels and a tail."""
    return Signal(tuple(breakpoints), tuple(values), tail_value)


def pe_check(sig: Signal, T, mu, horizon, tolerance: float = 0.0) -> PEReport:
    """Exact T-mu persistent-excitation check over [0, horizon].

    Verifies ``sig.integral(t, t + T) >= mu`` for every window start
    ``t in [0, horizon - T]`` by exact candidate enumeration: the window mass
    is piecewise linear in ``t``, so its minimum is attained where a window
    edge meets a breakpoint or at the range endpoints.

    Parameters
    ----------
    T, mu : float
        Window length and required mass, ``0 < mu <= T``.
    horizon : float
        Windows are scanned on [0, horizon]; must satisfy ``horizon >= T``.
    tolerance : float
        Slack in the comparison; 0 keeps the check exact.

    Returns
    -------
    PEReport
        ``holds`` is True iff the worst window mass is at least
        ``mu - tolerance``; ties in mass report the earliest window start.
    """
    # window starts and lengths on the lattice with denominator L
    L, s, (wT, H) = sig._lift(T, horizon)
    mn, md = _ratio(mu)
    if wT <= 0:
        raise ValueError("window length T must be positive")
    if not (0 < mn and mn * L <= wT * md):
        raise ValueError("need 0 < mu <= T (levels never exceed 1), got mu=%s T=%s" % (mu, T))
    if H < wT:
        raise ValueError("horizon must be at least one window long")
    last = H - wT
    cands = {0, last}
    for nb in sig._nbreaks:
        b = nb * s
        if b <= last:
            cands.add(b)
        if 0 <= b - wT <= last:
            cands.add(b - wT)
    worst_t, worst_m = None, None
    for t in sorted(cands):
        m = sig._primitive(t + wT, s) - sig._primitive(t, s)
        if worst_m is None or m < worst_m:
            worst_t, worst_m = t, m
    scale = L * sig._vden
    on, od = _ratio(tolerance)
    # worst_m / scale >= mu - tolerance, cleared of denominators
    holds = worst_m * md * od >= (mn * od - on * md) * scale
    return PEReport(
        holds=holds,
        T=wT / L,
        mu=mn / md,
        horizon=H / L,
        worst_window_start=worst_t / L,
        worst_window_mass=worst_m / scale,
        worst_window_start_exact=Fraction(worst_t, L),
        worst_window_mass_exact=Fraction(worst_m, scale),
        tolerance=float(tolerance),
    )


def _periodic_on(sig: Signal, T, horizon) -> bool:
    """Whether alpha(t + T) == alpha(t) for every t in [0, horizon - T], exactly.

    Both sides are right-continuous step functions, so they agree when they
    agree at t = 0 and change level at the same instants to the same
    levels.  The instants are read off the integer lattice in one pass over
    the breakpoints; no shifted signal is built.
    """
    _, s, (wT, H) = sig._lift(T, horizon)
    last = H - wT
    levels = sig._nvalues + (sig._ntail,)
    # (instant, level after it) of each breakpoint where the level changes
    switches = [(nb * s, after) for nb, before, after
                in zip(sig._nbreaks, levels, levels[1:]) if after != before]
    at_T = levels[bisect.bisect_right(sig._nbreaks, wT // s)]
    return (levels[0] == at_T
            and [(x, v) for x, v in switches if x <= last]
            == [(x - wT, v) for x, v in switches if wT < x <= last + wT])


def periodic_gate(period, pulse_halfwidth, horizon, phase=0.0) -> Signal:
    """Periodic on/off gate: level 1 on [k*period - h, k*period + h), else 0.

    The pulse train runs to the first pulse that switches on after ``horizon``
    plus one period and is then truncated (tail level 0), so the gate is the
    exact periodic signal on [0, horizon + 2 period].  ``h = period / 2``
    makes the pulses touch and the gate degenerates to the constant 1.  A
    ``phase`` >= 0 gives ``t -> gate(phase + t)``, whose pulse train ends
    ``phase`` earlier: the signal ``gate.shifted(phase)``, built in one pass,
    exact on [0, horizon + period] for any phase in [0, period).
    """
    L, (P, h, H, x0) = _common([_ratio(x) for x in (period, pulse_halfwidth, horizon, phase)])
    if P <= 0:
        raise ValueError("period must be positive")
    if not 0 < h <= P - h:
        raise ValueError("pulse halfwidth must lie in (0, period/2]")
    if H < 0:
        raise ValueError("horizon must be nonnegative")
    if x0 < 0:
        raise ValueError("phase must be nonnegative, got %s" % phase)
    if 2 * h == P:
        return Signal._from_lattice(1, (), 1, (), 1)
    # the first pulse is clipped to [0, h); pulse k sits at [kP - h, kP + h),
    # up to the first one that switches on after H + P
    n_pulses = (H + P + h) // P + 1
    breaks = [h] + [e for k in range(1, n_pulses + 1) for e in (k * P - h, k * P + h)]
    # the breakpoints after the phase, measured from it
    i = bisect.bisect_right(breaks, x0)
    return Signal._from_lattice(L, [b - x0 for b in breaks[i:]], 1,
                                ((1,) + (0, 1) * n_pulses)[i:], 0)


def haraux_gap(n_max: int):
    """Gate with shrinking pulses I_n = (s_n, s_n + 1/n), s_n = sum_{k<n} 2/k.

    The n-th pulse has length 1/n and is followed by a gap of the same
    length, so the long-run duty cycle is 1/2 while the per-pulse mass 1/n
    decays.  Returns the signal truncated after ``n_max`` pulses together
    with the pulse intervals as an :class:`IntervalSequence`.
    """
    if n_max < 1:
        raise ValueError("need at least one pulse")
    # every 1/n, hence every s_n, is a multiple of 1/L: 1/n is w / L
    L, widths = _common([(1, n) for n in range(1, n_max + 1)])
    breaks, vals, ivs = [], [], []
    s = 0
    for w in widths:
        a, b = s, s + w
        ivs.append((a / L, b / L))
        if a > 0:
            breaks.append(a)
            vals.append(0)
        breaks.append(b)
        vals.append(1)
        s += 2 * w
    sig = Signal._from_lattice(L, breaks, 1, vals, 0)
    return sig, IntervalSequence(tuple(ivs))


def from_intervals(seq: IntervalSequence, level=1.0) -> Signal:
    """Signal equal to ``level`` on each interval of ``seq`` and 0 elsewhere."""
    ln, ld = _ratio(level)
    if not 0 < ln <= ld:
        raise ValueError("level must lie in (0, 1]")
    den, ends = _common([_ratio(x) for iv in seq.intervals for x in iv])
    breaks, vals = [], []
    for a, b in zip(ends[::2], ends[1::2]):
        if a > 0 and (not breaks or breaks[-1] < a):
            breaks.append(a)
            vals.append(0)
        breaks.append(b)
        vals.append(ln)
    return Signal._from_lattice(den, breaks, ld, vals, 0)
