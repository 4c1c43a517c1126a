import bisect
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from pexstab.signals import (
    IntervalSequence,
    Signal,
    _periodic_on,
    from_intervals,
    haraux_gap,
    make_piecewise,
    pe_check,
    periodic_gate,
)


def test_constant_signal():
    s = make_piecewise([], [], 1.0)
    assert s.value_at(0.0) == 1.0
    assert s.value_at(123.4) == 1.0
    assert s.integral(0, 7) == 7


def test_single_breakpoint_cells():
    s = make_piecewise([1.0], [0.0], 1.0)
    assert s.value_at(0.0) == 0.0
    assert s.value_at(0.999) == 0.0
    assert s.value_at(1.0) == 1.0  # right-continuous at the edge
    assert s.integral(0.5, 1.5) == F(1, 2)


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        make_piecewise([1.0, 1.0], [0.0, 1.0], 0.0)  # repeated edge
    with pytest.raises(ValueError):
        make_piecewise([2.0, 1.0], [0.0, 1.0], 0.0)  # decreasing
    with pytest.raises(ValueError):
        make_piecewise([0.0], [0.5], 1.0)  # degenerate leading cell
    with pytest.raises(ValueError):
        make_piecewise([1.0], [1.5], 0.0)  # level above 1
    with pytest.raises(ValueError):
        make_piecewise([1.0], [0.5, 0.5], 0.0)  # value count mismatch
    with pytest.raises(ValueError):
        make_piecewise([1.0], [0.5], -0.1)  # negative tail


def test_gate_mass_over_first_period():
    # pulses of halfwidth 1/5 around even integers: mass 2/5 per period
    g = periodic_gate(2, F(1, 5), 20)
    assert g.integral(0, 2) == F(2, 5)
    assert g.integral(0, 20) == 10 * F(2, 5)


def test_integral_additivity_exact_simple():
    s = make_piecewise([0.3, 1.7], [1.0, 0.25], 0.5)
    assert s.integral(0, 2.5) == s.integral(0, 1.1) + s.integral(1.1, 2.5)


floats01 = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def signals(draw):
    edges = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=40.0, allow_nan=False),
            min_size=0,
            max_size=10,
            unique=True,
        )
    )
    edges = sorted(edges)
    vals = draw(
        st.lists(floats01, min_size=len(edges), max_size=len(edges))
    )
    tail = draw(floats01)
    return make_piecewise(edges, vals, tail)


@settings(max_examples=80, deadline=None)
@given(signals(), st.floats(0, 20), st.floats(0, 20), st.floats(0, 20))
def test_integral_additivity_property(s, x, y, z):
    a, b, c = sorted([x, y, z])
    assert s.integral(a, c) == s.integral(a, b) + s.integral(b, c)


@settings(max_examples=60, deadline=None)
@given(signals(), st.floats(0.1, 5.0), st.floats(0.01, 1.0), st.integers(3, 40))
def test_pe_check_is_true_window_minimum(s, T, mu_frac, n_grid):
    mu = mu_frac * T
    horizon = T + 17.0
    rep = pe_check(s, T, mu, horizon)
    # reported worst is attained (compare in exact arithmetic)
    t0 = rep.worst_window_start_exact
    assert s.integral(t0, t0 + F(rep.T)) == rep.worst_window_mass_exact
    # and is a lower bound over a dense grid of window starts
    fT, fH = F(T), F(horizon)
    for i in range(n_grid + 1):
        t = (fH - fT) * i / n_grid
        assert s.integral(t, t + fT) >= rep.worst_window_mass_exact
    assert rep.holds == (rep.worst_window_mass_exact >= F(mu))


def test_pe_check_gate_worst_mass():
    # halfwidth-0.2 gate with period 2: every length-2 window holds one
    # period of mass exactly 2/5, comfortably above the requirement 0.2
    g = periodic_gate(2, F(1, 5), 20)
    rep = pe_check(g, 2, F(1, 5), 20)
    assert rep.holds
    assert rep.worst_window_mass_exact == F(2, 5)
    rep2 = pe_check(g, 2, 0.41, 20)
    assert not rep2.holds


def test_pe_check_validates_arguments():
    g = periodic_gate(2, 0.2, 20)
    with pytest.raises(ValueError):
        pe_check(g, 2, 2.5, 20)  # mu > T can never hold
    with pytest.raises(ValueError):
        pe_check(g, 2, 0.2, 1.0)  # horizon shorter than one window
    with pytest.raises(ValueError):
        pe_check(g, 0, 0.0, 1.0)


def test_gate_degenerates_to_constant_one():
    g = periodic_gate(2, 1, 10)
    assert g.breakpoints == ()
    assert g.value_at(3.14) == 1.0
    with pytest.raises(ValueError):
        periodic_gate(2, 1.2, 10)
    with pytest.raises(ValueError):
        periodic_gate(2, 0.0, 10)


def test_haraux_gap_layout():
    sig, seq = haraux_gap(3)
    # pulse n sits at (s_n, s_n + 1/n) with s_n = sum_{k<n} 2/k
    assert seq.intervals[0] == (0.0, 1.0)
    assert seq.intervals[1] == (2.0, 2.5)
    assert seq.intervals[2] == (3.0, 3.0 + 1.0 / 3.0)
    assert sig.value_at(0.5) == 1.0
    assert sig.value_at(1.5) == 0.0
    assert sig.value_at(2.25) == 1.0


def test_haraux_gap_window_masses():
    # worst length-2 window over a long horizon sits at t = 1 with mass 1/2:
    # the window [1, 3] catches only the second pulse (2, 2.5)
    sig, _ = haraux_gap(120)
    s100 = sum(F(2, k) for k in range(1, 100))
    rep = pe_check(sig, 2, F(3, 10), s100)
    assert rep.holds
    assert rep.worst_window_start == 1.0
    assert rep.worst_window_mass_exact == F(1, 2)
    # duty cycle tends to 1/2, so the late window mass approaches 1 and any
    # requirement mu > 1 eventually fails
    rep2 = pe_check(sig, 2, 1.01, s100)
    assert not rep2.holds


def test_haraux_gap_late_window_mass_near_one():
    # frozen from exact enumeration: mass of [s_100, s_100 + 2] with full
    # pulse coverage; pulses are on for 1/n then off for 1/n, so the limit is 1
    sig, _ = haraux_gap(400)
    s100 = sum(F(2, k) for k in range(1, 100))
    m = sig.integral(s100, s100 + 2)
    assert abs(float(m) - 1.0001108149952802) < 1e-12


def test_from_intervals_levels():
    seq = IntervalSequence(((0.5, 1.0), (1.0, 1.5), (3.0, 4.0)))
    s = from_intervals(seq, 0.75)
    assert s.value_at(0.25) == 0.0
    assert s.value_at(0.75) == 0.75
    assert s.value_at(1.25) == 0.75  # touching intervals merge seamlessly
    assert s.value_at(2.0) == 0.0
    assert s.value_at(3.5) == 0.75
    assert s.value_at(10.0) == 0.0
    assert s.integral(0, 10) == F(3, 4) * 2


def test_interval_sequence_validation():
    with pytest.raises(ValueError):
        IntervalSequence(((0, 1), (0.5, 2)))  # overlap
    with pytest.raises(ValueError):
        IntervalSequence(((1, 1),))  # empty interval
    with pytest.raises(ValueError):
        IntervalSequence(())


@settings(max_examples=60, deadline=None)
@given(signals(), st.floats(0, 30), st.floats(0, 30))
def test_shift_matches_original(s, t0, t):
    sh = s.shifted(t0)
    ft0, ft = F(t0), F(t)
    assert sh.value_at(ft) == s.value_at(ft0 + ft)
    assert sh.integral(0, ft) == s.integral(ft0, ft0 + ft)


# --- Fraction reference -----------------------------------------------------
# The signal algebra as it stood before the integer lattice: one Fraction per
# breakpoint and level, re-normalised on every operation.  Every lattice path
# must agree with it exactly.


class RefSignal:
    def __init__(self, breaks, vals, tail):
        self.breaks = [F(b) for b in breaks]
        self.vals = [F(v) for v in vals]
        self.tail = F(tail)
        self.prefix, acc, lo = [], F(0), F(0)
        for b, v in zip(self.breaks, self.vals):
            acc += (b - lo) * v
            self.prefix.append(acc)
            lo = b

    def primitive(self, x):
        i = bisect.bisect_right(self.breaks, x)
        level = self.vals[i] if i < len(self.vals) else self.tail
        if i == 0:
            return x * level
        return self.prefix[i - 1] + (x - self.breaks[i - 1]) * level

    def integral(self, a, b):
        return self.primitive(F(b)) - self.primitive(F(a))

    def shifted(self, t0):
        f0 = F(t0)
        keep = [(b - f0, v) for b, v in zip(self.breaks, self.vals) if b > f0]
        return ([b for b, _ in keep], [v for _, v in keep], self.tail)


def ref_pe_check(ref, T, mu, horizon, tolerance=0.0):
    fT, fH = F(T), F(horizon)
    last = fH - fT
    cands = {F(0), last}
    for b in ref.breaks:
        if 0 <= b <= last:
            cands.add(b)
        if 0 <= b - fT <= last:
            cands.add(b - fT)
    worst_t, worst_m = None, None
    for t in sorted(cands):
        m = ref.primitive(t + fT) - ref.primitive(t)
        if worst_m is None or m < worst_m:
            worst_t, worst_m = t, m
    return worst_t, worst_m, worst_m >= F(mu) - F(tolerance)


def ref_periodic_gate(period, h, horizon):
    P, h, H = F(period), F(h), F(horizon)
    if 2 * h == P:
        return [], [], F(1)
    breaks, vals, k = [h], [F(1)], 0
    while True:
        k += 1
        breaks += [k * P - h, k * P + h]
        vals += [F(0), F(1)]
        if k * P - h > H + P:
            return breaks, vals, F(0)


def ref_periodic_on(ref, T, horizon):
    """alpha(t + T) == alpha(t) at 0, horizon - T and every instant between
    where either side switches; both sides are constant in between."""
    fT, last = F(T), F(horizon) - F(T)

    def level(t):
        i = bisect.bisect_right(ref.breaks, t)
        return ref.vals[i] if i < len(ref.vals) else ref.tail

    cands = {F(0), last} | {b for b in ref.breaks if b <= last} \
        | {b - fT for b in ref.breaks if fT <= b <= last + fT}
    return all(level(t) == level(t + fT) for t in cands)


def ref_haraux_gap(n_max):
    breaks, vals, ivs, s = [], [], [], F(0)
    for n in range(1, n_max + 1):
        a, b = s, s + F(1, n)
        ivs.append((float(a), float(b)))
        if a > 0:
            breaks.append(a)
            vals.append(F(0))
        breaks.append(b)
        vals.append(F(1))
        s += F(2, n)
    return (breaks, vals, F(0)), ivs


def ref_from_intervals(intervals, level):
    breaks, vals = [], []
    for a, b in intervals:
        fa, fb = F(a), F(b)
        if fa > 0 and (not breaks or breaks[-1] < fa):
            breaks.append(fa)
            vals.append(F(0))
        breaks.append(fb)
        vals.append(F(level))
    return breaks, vals, F(0)


def assert_same_signal(sig, breaks, vals, tail):
    """``sig`` is exactly the reference signal and its floats round the same."""
    assert [F(n, sig._den) for n in sig._nbreaks] == list(breaks)
    assert [F(n, sig._vden) for n in sig._nvalues] == list(vals)
    assert F(sig._ntail, sig._vden) == tail
    # the lattice denominators are the least ones
    assert math.gcd(sig._den, *sig._nbreaks) == 1
    assert math.gcd(sig._vden, sig._ntail, *sig._nvalues) == 1
    assert [x.hex() for x in sig.breakpoints] == [float(b).hex() for b in breaks]
    assert [x.hex() for x in sig.values] == [float(v).hex() for v in vals]
    assert sig.tail_value.hex() == float(tail).hex()


# Breakpoints and levels mix dyadic floats with small-denominator fractions,
# so every lattice holds both power-of-two and odd denominators.
def mixed(lo, hi):
    fractions = st.integers(1, 60).flatmap(
        lambda d: st.integers(math.ceil(lo * d), math.floor(hi * d)).map(lambda n: F(n, d)))
    return st.one_of(st.floats(min_value=lo, max_value=hi, allow_nan=False), fractions)


@st.composite
def raw_signals(draw, max_cells=12):
    edges = draw(st.lists(mixed(0.01, 40.0), max_size=max_cells))
    edges = sorted({F(e): e for e in edges}.values(), key=F)
    vals = draw(st.lists(mixed(0.0, 1.0), min_size=len(edges), max_size=len(edges)))
    return edges, vals, draw(mixed(0.0, 1.0))


@settings(max_examples=100, deadline=None)
@given(raw_signals())
def test_lattice_matches_inputs_exactly(raw):
    ref = RefSignal(*raw)
    assert_same_signal(make_piecewise(*raw), ref.breaks, ref.vals, ref.tail)


@settings(max_examples=100, deadline=None)
@given(raw_signals(), mixed(0.0, 45.0), mixed(0.0, 45.0), mixed(0.0, 45.0))
def test_integral_matches_fraction_reference(raw, x, y, z):
    sig, ref = make_piecewise(*raw), RefSignal(*raw)
    a, b, c = sorted([x, y, z], key=F)
    assert sig.integral(a, c) == ref.integral(a, c)
    assert sig.integral(a, c) == sig.integral(a, b) + sig.integral(b, c)


@settings(max_examples=100, deadline=None)
@given(raw_signals(), mixed(0.1, 5.0), st.fractions(F(1, 100), 1, max_denominator=100),
       mixed(0.0, 30.0), st.sampled_from([0.0, 0.01, F(1, 7)]))
def test_pe_check_matches_fraction_reference(raw, T, mu_share, extra, tolerance):
    sig, ref = make_piecewise(*raw), RefSignal(*raw)
    mu = F(T) * mu_share
    horizon = F(T) + F(extra)
    rep = pe_check(sig, T, mu, horizon, tolerance)
    worst_t, worst_m, holds = ref_pe_check(ref, T, mu, horizon, tolerance)
    assert rep.worst_window_start_exact == worst_t
    assert rep.worst_window_mass_exact == worst_m
    assert rep.holds is holds
    assert rep.worst_window_start == float(worst_t)
    assert rep.worst_window_mass == float(worst_m)


@settings(max_examples=100, deadline=None)
@given(raw_signals(), mixed(0.0, 45.0), mixed(0.0, 10.0), mixed(0.0, 10.0))
def test_shifted_matches_fraction_reference(raw, t0, x, y):
    sig, ref = make_piecewise(*raw), RefSignal(*raw)
    sh = sig.shifted(t0)
    assert_same_signal(sh, *ref.shifted(t0))
    a, b = sorted([x, y], key=F)
    assert sh.integral(a, b) == sig.integral(F(a) + F(t0), F(b) + F(t0))


@settings(max_examples=80, deadline=None)
@given(mixed(0.1, 4.0), st.fractions(F(1, 50), F(1, 2), max_denominator=50),
       mixed(0.0, 20.0))
def test_periodic_gate_matches_fraction_reference(period, share, horizon):
    h = F(period) * share
    assert_same_signal(periodic_gate(period, h, horizon),
                       *ref_periodic_gate(period, h, horizon))
    h = float(h)  # rounding may push a float halfwidth just past period / 2
    if 2 * F(h) <= F(period):
        assert_same_signal(periodic_gate(period, h, horizon),
                           *ref_periodic_gate(period, h, horizon))


@settings(max_examples=80, deadline=None)
@given(mixed(0.1, 4.0), st.fractions(F(1, 50), F(1, 2), max_denominator=50),
       mixed(0.0, 20.0), mixed(0.0, 30.0))
def test_phased_periodic_gate_is_the_shifted_gate(period, share, horizon, phase):
    h = F(period) * share
    gate = periodic_gate(period, h, horizon, phase)
    assert_same_signal(gate, *RefSignal(*ref_periodic_gate(period, h, horizon)).shifted(phase))
    shifted = periodic_gate(period, h, horizon).shifted(phase)
    assert (gate._den, gate._nbreaks, gate._vden, gate._nvalues, gate._ntail, gate._nprefix) \
        == (shifted._den, shifted._nbreaks, shifted._vden, shifted._nvalues,
            shifted._ntail, shifted._nprefix)


def test_phased_periodic_gate_rejects_a_negative_phase():
    with pytest.raises(ValueError, match="phase"):
        periodic_gate(2, 0.5, 10, -0.1)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 60))
def test_haraux_gap_matches_fraction_reference(n_max):
    sig, seq = haraux_gap(n_max)
    ref, ivs = ref_haraux_gap(n_max)
    assert_same_signal(sig, *ref)
    assert [tuple(x.hex() for x in iv) for iv in seq.intervals] \
        == [tuple(x.hex() for x in iv) for iv in ivs]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(0.0, 40.0, allow_nan=False), min_size=2, max_size=16, unique=True),
       mixed(0.01, 1.0))
def test_from_intervals_matches_fraction_reference(ends, level):
    ends = sorted(set(ends))
    if len(ends) % 2:
        ends = ends[:-1]
    intervals = tuple(zip(ends[::2], ends[1::2]))
    seq = IntervalSequence(intervals)
    assert_same_signal(from_intervals(seq, level),
                       *ref_from_intervals(seq.intervals, level))


def test_lattice_constructor_runs_the_public_checks():
    with pytest.raises(ValueError, match="one value per cell"):
        Signal._from_lattice(4, (1, 2), 1, (0,), 0)
    with pytest.raises(ValueError, match="strictly increasing"):
        Signal._from_lattice(4, (2, 2), 1, (0, 1), 0)
    with pytest.raises(ValueError, match="strictly increasing"):
        Signal._from_lattice(4, (0,), 1, (1,), 0)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        Signal._from_lattice(4, (1,), 2, (3,), 0)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        Signal._from_lattice(4, (1,), 2, (1,), -1)
    # equal to the public construction, reduced to the least denominators
    sig = Signal._from_lattice(12, (3, 6), 4, (2, 0), 4)
    assert sig == make_piecewise([0.25, 0.5], [0.5, 0.0], 1.0)
    assert (sig._den, sig._nbreaks, sig._vden, sig._nvalues, sig._ntail) \
        == (4, (1, 2), 2, (1, 0), 2)


def test_exact_for_long_odd_denominators():
    # haraux_gap(200) puts every breakpoint on lcm(1..200), about 280 bits;
    # a float horizon adds a power of two to the pe_check lattice
    sig, _ = haraux_gap(200)
    ref = RefSignal(*ref_haraux_gap(200)[0])
    horizon = sig.breakpoints[-1]
    rep = pe_check(sig, 2.0, 0.1, horizon)
    assert (rep.worst_window_start_exact, rep.worst_window_mass_exact, rep.holds) \
        == ref_pe_check(ref, 2.0, 0.1, horizon)
    assert sig.shifted(0.3).integral(1, 7) == ref.integral(F(0.3) + 1, F(0.3) + 7)


@settings(max_examples=100, deadline=None)
@given(raw_signals(), mixed(0.1, 5.0), mixed(0.0, 30.0))
def test_periodic_on_matches_fraction_reference(raw, T, extra):
    horizon = F(T) + F(extra)
    assert _periodic_on(make_piecewise(*raw), T, horizon) \
        is ref_periodic_on(RefSignal(*raw), T, horizon)


@settings(max_examples=80, deadline=None)
@given(mixed(0.1, 4.0), st.fractions(F(1, 50), F(1, 2), max_denominator=50),
       mixed(0.0, 20.0), st.fractions(0, 1, max_denominator=60))
def test_phased_gates_are_periodic_over_their_horizon(period, share, horizon, phase_share):
    # the pulse train of a gate runs a period past its horizon, less its
    # phase; a repeat of the train's last period, level 0 after it, is not
    h, phase = F(period) * share, F(period) * phase_share
    gate = periodic_gate(period, h, horizon, phase)
    horizon = max(F(horizon), F(period))
    ref = RefSignal([F(n, gate._den) for n in gate._nbreaks],
                    [F(n, gate._vden) for n in gate._nvalues], F(gate._ntail, gate._vden))
    assert _periodic_on(gate, period, horizon) and ref_periodic_on(ref, period, horizon)
    far = horizon + 4 * F(period)
    assert _periodic_on(gate, period, far) is (share == F(1, 2)) \
        is ref_periodic_on(ref, period, far)
