"""Scenario files: one declarative schema, checked and resolved in one walk.

A scenario is a JSON object naming one system, one damping signal and a
list of analyses.  Its schema, at the end of this module, is one table per
object kind (:class:`Obj`) giving each field's checker (type and bounds)
and default, or marking it required.  One walker, :func:`_walk`, applies a
table: it rejects unknown fields, enforces required ones, checks values,
fills defaults (``null`` counts as absent) and checks the top-level inputs
an analysis needs.  A small rule per kind then checks what ties fields
together (mu <= T, one of ``constant`` or ``source``, costs within
L ||B||^2) and resolves the object into what the library takes, so the
runners read every field as ``a[field]``.  Defaults the library declares
are read from it.  Errors carry the offending field's path
(``analyses[2].mu``), and every precondition of the library calls is
checked here: a scenario that validates fails at run time only for
numerical reasons (exit status 1).
"""

from __future__ import annotations

import bisect
import inspect
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linsys import DIM_LIMIT, LinearSystem, cost_within_bound, kalman_index
from .modal import (SchrodingerModalSpec, WaveModalSpec, build_schrodinger,
                    build_wave)
from .observability import (DEFAULT_N_CELLS, OUTER_DIM_LIMIT, OuterSearch,
                            SignalClass, wave_pe_lower_bound, wave_rho_lower_bound)
from .signals import (IntervalSequence, Signal, from_intervals, haraux_gap, make_piecewise,
                      pe_check, periodic_gate)
from .stability import SAMPLES_PER_THETA, certificate_from_constant, verify_certificate

# Parsing builds the system and the signal, so their sizes are bounded: a
# periodic gate with 200k breakpoints takes about 0.23 s and 50 MB to build,
# haraux_gap(1000) about 0.05 s.
MAX_MODES = 256
MAX_PULSES = 1000
MAX_BREAKPOINTS = 200_000

# What a run builds is bounded too.  Costs measured on 2 cores (numpy 2.4,
# scipy 1.17), wall time of `pexstab run` including start-up:
# - a trajectory writes one CSV row per sample and, while it is filled,
#   holds its longest run inside one signal cell, 8 N bytes per sample of
#   it at state dimension N (all of it on a constant signal): 150k samples
#   at N = 64 took 1.7 s and 190 MB when every state was kept, 1M samples
#   at N = 2 2.9 s, 150 MB and a 47 MB CSV.  So samples * (N + 8) is
#   capped, at about 300 MB, for a simulate analysis and for the two
#   trajectories a verify block simulates;
# - the window check of a verify trial holds two levels of its doubling
#   table and its windows, N x N values each, capped like the samples
#   (204 MB at N = 256 for T = theta: 136 steps, 66 starts).  Trials are
#   multiplied out in batches of at most max(one trial, 2^16 values)
#   (stability.WINDOW_BATCH_VALUES), so this per-trial cap still bounds
#   what a batch holds.  A trial took 1.4 s at N = 256, 0.25 s at N = 128
#   and, with its gate and PE check, about 2 ms at N <= 16 when each trial
#   was multiplied out alone: the cap on trials * (steps + starts) *
#   max(N, 16)^3 is about 40 s at N <= 16 and 10 s at N = 128;
# - a verify gate spans the horizon, exact on [0, horizon + T]; one of 50k
#   pulses takes about 0.5 s and 90 MB to build and check, so a trial's gate
#   is held to the breakpoints a scenario gate may have;
# - one inner solve on 4096 cells takes 25 ms (window LP, cold) or 4 ms
#   (greedy fill), and every start of the outer search makes 1 to n_iters
#   of them.  One descent iteration on a 16-dimensional system takes about
#   15 ms at 4096 cells, 4.8 ms at 1024 and 2.6 ms at 256 (window LP; 2.3,
#   1.4 and 0.7 ms with the greedy fill).  Below about 500 cells an
#   iteration's own cost, about 2 ms (the HiGHS call, the weighted Gramian
#   and its eigh), outweighs its cells, so an iteration counts as at least
#   DEFAULT_N_CELLS cells, and max(n_cells, 64) * n_starts * n_iters, times
#   the length of a kappa-scan's T_grid, is capped: at the cap a search
#   whose descents never converge takes about 16 s at 4096 cells, 43 s at
#   256 and, at about 2 ms an iteration, 2 min at 64 cells or fewer;
# - a counterexample over 100 periods takes 0.8-1.0 s, 0.23 s of it after
#   start-up; its quadrature holds the nodes of all times at once, which
#   over 1000 periods (a library call) takes 2.4 s and about 100 MB.
MAX_SAMPLE_VALUES = 20_000_000
MAX_WINDOW_WORK = 2 ** 34
MAX_GATE_PULSES = MAX_BREAKPOINTS // 2
MAX_CELLS = 4096
MAX_STARTS = 256
MAX_ITERS = 1000
MAX_OUTER_WORK = 2 ** 22
MAX_T_GRID = 32
MAX_PERIODS = 100


class ScenarioError(ValueError):
    """Schema or semantic violation in a scenario file, with a field path."""

    def __init__(self, path: str, message: str):
        super().__init__("%s: %s" % (path, message))
        self.path = path


@dataclass(frozen=True)
class Scenario:
    """Validated scenario: resolved system and signal, complete analyses."""

    seed: int
    system: LinearSystem
    signal: Signal
    horizon: float
    dt_out: float
    analyses: tuple


def _require(cond: bool, path: str, message: str):
    if not cond:
        raise ScenarioError(path, message)


def _at(path: str, key: str) -> str:
    return "%s.%s" % (path, key) if path else key


def _library_default(fn, name: str):
    return inspect.signature(fn).parameters[name].default


REQUIRED = object()


@dataclass(frozen=True)
class Obj:
    """Table of one object kind.

    ``fields`` maps a required field to its checker, an optional one to
    ``(checker, default)``; a checker is ``fn(value, path)`` returning the
    accepted value, or a table walked in place.  ``rule(obj, path, ctx)``
    checks the walked fields together and returns the resolved object;
    ``needs`` lists the top-level inputs an analysis needs; ``refuse`` maps
    a field the kind does not take to the reason.
    """

    name: str
    fields: dict
    rule: object = None
    needs: tuple = ()
    refuse: dict = None


@dataclass(frozen=True)
class Kinds:
    """Objects told apart by the value of their ``tag`` field; an object
    without the tag is ``untagged``, when that is given."""

    tag: str
    what: str
    kinds: dict
    untagged: Obj = None


def _walk(table, value, path: str, ctx: dict = None):
    """Check ``value`` against ``table``; return what the table's rule
    resolves.  A library ValueError inside a rule is reported at ``path``."""
    _require(isinstance(value, dict), path or "$", "expected an object")
    out = {}
    if isinstance(table, Kinds):
        if table.untagged is not None and table.tag not in value:
            table = table.untagged
        else:
            tag, tpath = value.get(table.tag), _at(path, table.tag)
            _require(table.tag in value, tpath, "missing required field")
            _require(isinstance(tag, str) and tag in table.kinds, tpath,
                     "unknown %s %r (expected one of %s)"
                     % (table.what, tag, ", ".join(table.kinds)))
            out[table.tag] = tag
            table = table.kinds[tag]
    for key in value:
        _require(key in out or key in table.fields, _at(path, key),
                 (table.refuse or {}).get(key, "unknown %s field" % table.name))
    for need in table.needs:
        _require(ctx[need] is not None, path,
                 "%s analyses need a scenario %s" % (table.name, need))
    for key, spec in table.fields.items():
        check, default = spec if isinstance(spec, tuple) else (spec, REQUIRED)
        v, vpath = value.get(key), _at(path, key)
        if v is None:
            _require(default is not REQUIRED, vpath, "missing required field")
            v = default
        if v is None:
            out[key] = None
        elif isinstance(check, (Obj, Kinds)):
            out[key] = _walk(check, v, vpath, ctx)
        else:
            out[key] = check(v, vpath)
    if table.rule is None:
        return out
    try:
        return table.rule(out, path, ctx)
    except ScenarioError:
        raise
    except ValueError as e:
        raise ScenarioError(path or "$", str(e))


# Field checkers.  Numbers are returned unchanged, so an integer echoed into
# a report stays an integer.

def _number(ok=None, message: str = ""):
    def check(x, path):
        _require(isinstance(x, (int, float)) and not isinstance(x, bool),
                 path, "expected a number, got %r" % (x,))
        _require(abs(x) <= sys.float_info.max, path, "must be finite")
        _require(ok is None or ok(x), path, message)
        return x
    return check


def _integer(lo: int, hi: int = None):
    def check(x, path):
        _require(isinstance(x, int) and not isinstance(x, bool),
                 path, "expected an integer, got %r" % (x,))
        _require(x >= lo, path, "must be at least %d" % lo)
        if hi is not None:
            _require(x <= hi, path, "must be at most %d" % hi)
        return x
    return check


def _list(item, min_len: int = 0, max_len: int = None):
    def check(x, path):
        _require(isinstance(x, list), path, "expected a list")
        _require(len(x) >= min_len, path, "need at least %d entries" % min_len)
        if max_len is not None:
            _require(len(x) <= max_len, path, "at most %d entries" % max_len)
        return [item(v, "%s[%d]" % (path, i)) for i, v in enumerate(x)]
    return check


NUMBER = _number()
POSITIVE = _number(lambda v: v > 0, "must be positive")
NONNEGATIVE = _number(lambda v: v >= 0, "must be nonnegative")
FRACTION = _number(lambda v: 0 < v <= 1, "must lie in (0, 1]")
NUMBERS = _list(NUMBER)
# shapes are LinearSystem's to check
MATRIX = _list(NUMBERS, min_len=1)
MATRIX_OR_VECTOR = _list(lambda x, path: (NUMBERS if isinstance(x, list) else NUMBER)(
    x, path), min_len=1)
MODES = _integer(1, MAX_MODES)
CELLS = _integer(4, MAX_CELLS)


def _omega(upper: str):
    """[a, b] with 0 <= a < b and b ``upper`` 1 (``upper`` is "<=" or "<")."""
    def check(x, path):
        _require(isinstance(x, list) and len(x) == 2, path, "expected [a, b]")
        a, b = NUMBERS(x, path)
        _require(0 <= a < b and (b <= 1 if upper == "<=" else b < 1), path,
                 "need 0 <= a < b %s 1" % upper)
        return x
    return check


def _t_grid(x, path):
    grid = _list(FRACTION, min_len=2, max_len=MAX_T_GRID)(x, path)
    _require(all(b < a for a, b in zip(grid, grid[1:])), path,
             "window lengths must be strictly decreasing")
    return grid


def _intervals(x, path):
    _require(isinstance(x, list) and x, path, "expected a nonempty list of [a, b]")
    ivs = []
    for i, ab in enumerate(x):
        p = "%s[%d]" % (path, i)
        _require(isinstance(ab, list) and len(ab) == 2, p, "expected [a, b]")
        a, b = NONNEGATIVE(ab[0], p + "[0]"), NUMBER(ab[1], p + "[1]")
        _require(b > a, p, "need a < b")
        ivs.append((a, b))
    try:
        return IntervalSequence(tuple(ivs))
    except ValueError as e:
        raise ScenarioError(path, str(e))


def _z0(x, path):
    return x if x == "random" else NUMBERS(x, path)


# Cross-field rules; each returns the resolved object.

def _window(o, path, ctx=None):
    _require(o["mu"] <= o["T"], _at(path, "mu"),
             "mu=%g exceeds the window length T=%g" % (o["mu"], o["T"]))
    return o


def _modal(o, path, ctx):
    d = o["damping"]  # the modal specs take exactly one of uniform and omega
    if o["kind"] == "wave-modal":
        spec = WaveModalSpec(o["n_modes"], uniform=d["uniform"], omega=d["omega"],
                             eigenvalues=o["eigenvalues"])
        return spec, build_wave(spec)
    spec = SchrodingerModalSpec(o["n_modes"], uniform=d["uniform"], omega=d["omega"])
    return spec, build_schrodinger(spec)


def _gate(o, path, ctx):
    count = 2.0 * o["horizon"] / o["period"]
    _require(count <= MAX_BREAKPOINTS, _at(path, "period"),
             "a gate of this period out to horizon %g needs about %.3g "
             "breakpoints (2 horizon/period); at most %d are built"
             % (o["horizon"], count, MAX_BREAKPOINTS))
    return periodic_gate(o["period"], o["pulse_halfwidth"], o["horizon"])


def _pe_class(o, path, ctx):
    _window(o, path)
    horizon = o["horizon"]
    _require(horizon is None or horizon >= o["T"], _at(path, "horizon"),
             "must hold at least one window")
    # class values reach the reports as floats
    return SignalClass.pe_windows(float(o["T"]), float(o["mu"]),
                                  None if horizon is None else float(horizon))


def _outer(o, path, ctx):
    seed = ctx["seed"] if o["seed"] is None else o["seed"]
    return OuterSearch(n_starts=o["n_starts"], n_iters=o["n_iters"], seed=seed)


def _table_cost(o, path, ctx):
    ts, cs = o["T"], o["c"]
    _require(len(ts) == len(cs) and len(ts) >= 2, path,
             "need matching T and c lists with at least two points")
    _require(all(a < b for a, b in zip(ts, ts[1:])), _at(path, "T"),
             "lengths must be strictly increasing")
    return (lambda L: float(np.interp(L, ts, cs))), tuple(ts), 0.0


def _dim_at_most(limit: int, what: str, path: str, ctx):
    dim = ctx["system"].dim
    _require(dim <= limit, path, "%s is limited to state dimension %d; the "
             "system has dimension %d" % (what, limit, dim))


def _search_dim(a, path, ctx):
    _dim_at_most(OUTER_DIM_LIMIT, "the outer search", path, ctx)
    return a


def _outer_work(o, path, runs=1):
    """Refuse ``runs`` outer searches on the ``n_cells`` and ``outer`` of
    ``o`` when runs * max(n_cells, DEFAULT_N_CELLS) * n_starts * n_iters
    exceeds MAX_OUTER_WORK: an iteration on few cells costs what one on
    DEFAULT_N_CELLS does."""
    outer = o["outer"]
    cells = max(o["n_cells"], DEFAULT_N_CELLS)
    work = runs * cells * outer.n_starts * outer.n_iters
    _require(work <= MAX_OUTER_WORK, _at(path, "outer"),
             "the outer search may run runs * max(n_cells, %d) * n_starts * n_iters "
             "= %d * %d * %d * %d = %d cell-iterations; at most %d are run"
             % (DEFAULT_N_CELLS, runs, cells, outer.n_starts, outer.n_iters, work,
                MAX_OUTER_WORK))


def _observability(a, path, ctx):
    _search_dim(a, path, ctx)
    _outer_work(a, path)
    return a


def _within_bound(c, L, system, path):
    _require(cost_within_bound(c, L, system.b_norm), path,
             "cost %g at length %g exceeds the necessary bound "
             "length*||B||^2 = %g" % (c, L, L * system.b_norm ** 2))


def _initial_state(a, path, ctx):
    """Resolve ``z0``: a unit state drawn from (scenario seed, analysis
    index), or the given state."""
    dim, path = ctx["system"].dim, _at(path, "z0")
    if a["z0"] == "random":
        z0 = np.random.default_rng((ctx["seed"], ctx["index"])).standard_normal(dim)
        a["z0"] = z0 / np.linalg.norm(z0)
        return
    z0 = a["z0"] = np.asarray(a["z0"], dtype=float)
    _require(z0.shape == (dim,), path, "expected %d components, got %d" % (dim, z0.size))
    _require(np.linalg.norm(z0) > 0, path, "must be nonzero")


def _sample_values(runs: int, samples: float, path: str, what: str, ctx):
    """Refuse ``runs`` trajectories of ``samples`` samples each when
    runs * samples * (N + 8) exceeds MAX_SAMPLE_VALUES."""
    dim = ctx["system"].dim
    # int-float comparison is exact, whatever the size of runs
    _require(runs <= MAX_SAMPLE_VALUES / (samples * (dim + 8)), path,
             "%s keeps %d trajectories of about %.3g samples of a state of "
             "dimension %d; at most %d values (samples * (dimension + 8)) are built"
             % (what, runs, samples, dim, MAX_SAMPLE_VALUES))


def _simulate(a, path, ctx):
    _dim_at_most(DIM_LIMIT, "simulation", path, ctx)
    # the output grid plus the signal breakpoints inside the horizon
    horizon = ctx["horizon"]
    breaks = bisect.bisect_left(ctx["signal"].breakpoints, horizon)
    _sample_values(1, horizon / ctx["dt_out"] + breaks + 2, "dt_out", "the simulation", ctx)
    _initial_state(a, path, ctx)
    return a


def _check_pe(a, path, ctx):
    _window(a, path)
    _require(a["T"] <= ctx["horizon"], _at(path, "T"),
             "window length T=%g exceeds the horizon %g" % (a["T"], ctx["horizon"]))
    return a


def _kappa_scan(a, path, ctx):
    _search_dim(a, path, ctx)
    _outer_work(a, path, runs=len(a["T_grid"]))
    _require(ctx["system"].skew_flag, path, "needs a skew-symmetric system A")
    kalman_index(ctx["system"])  # raises when (A, B) is not controllable
    return a


def _certify(a, path, ctx):
    system, src, theta = ctx["system"], a["source"], a["theta"]
    _require((a["constant"] is None) != (src is None), path,
             "exactly one of 'constant' or 'source' is required")
    if src is not None and src["kind"] == "wave-pe":
        # the bound holds on windows of length T, and so on any longer window,
        # which contains one (the integrand is nonnegative); not on a shorter one
        _require(theta >= src["T"], _at(path, "theta"),
                 "theta=%g is shorter than the window T=%g of the wave-pe "
                 "bound, which holds only on windows of length at least T"
                 % (theta, src["T"]))
        _wave_limits(src, _at(path, "source"), ctx["modal"], "wave-pe", "lambda_min")
    if src is not None and src["kind"] == "class-constant":
        _search_dim(a, path, ctx)
        _outer_work(src, _at(path, "source"))
        # a class horizon below theta only lowers the constant, so it stays sound
        _require(src["class"].horizon <= theta, _at(path, "source.class.horizon"),
                 "class horizon %g exceeds theta=%g: the constant would not bound "
                 "the functional on windows of length theta"
                 % (src["class"].horizon, theta))
    else:
        # the certificate of an explicit or analytic constant is built here,
        # once; the runner builds only the class-constant one
        if src is None:
            c, source = float(a["constant"]), "explicit"
        else:
            c = wave_pe_lower_bound(src["T"], src["mu"], src["lambda_min"], src["d0"])
            source = "analytic wave bound (T=%g, mu=%g)" % (src["T"], src["mu"])
        try:
            a["certificate"] = certificate_from_constant(c, theta, system.b_norm,
                                                         source=source)
        except ValueError as e:
            raise ScenarioError(_at(path, "constant" if src is None else "source"), str(e))
    verify = a["verify"]
    if verify is not None:
        if verify["horizon"] is None:
            verify["horizon"] = 50.0 * theta
        # the windows [s, s + theta], s < T, must not reach the gates' tail
        _require(verify["horizon"] >= max(verify["T"], theta), _at(path, "verify.horizon"),
                 "verification horizon %g is shorter than the window T=%g or theta=%g"
                 % (verify["horizon"], verify["T"], theta))
        _dim_at_most(DIM_LIMIT, "verification", path, ctx)
        T, pulses = verify["T"], verify["horizon"] / verify["T"]
        _require(pulses <= MAX_GATE_PULSES, _at(path, "verify.T"),
                 "each trial's gate has about %.3g pulses (horizon/T); at most %d "
                 "are built" % (pulses, MAX_GATE_PULSES))
        # two trials are simulated, sampled theta / SAMPLES_PER_THETA apart
        # and at every pulse edge; each trial's window check multiplies the
        # steps over [0, T + theta] (grid, pulse edges, window ends) into one
        # propagator per start in [0, T) (grid points, pulse edges)
        dt = theta / SAMPLES_PER_THETA
        _sample_values(2, verify["horizon"] / dt + 2 * pulses + 2,
                       _at(path, "verify.horizon"), "verification", ctx)
        steps, starts, dim = (T + theta) / dt + 2 * (T + theta) / T + 4, T / dt + 3, system.dim
        held = (2 * steps + 4 * starts) * dim * dim
        _require(held <= MAX_SAMPLE_VALUES, _at(path, "verify.T"),
                 "each trial's window check holds about %.3g values ((2 * %.3g steps "
                 "+ 4 * %.3g starts) * N^2 at N = %d); at most %d are built"
                 % (held, steps, starts, dim, MAX_SAMPLE_VALUES))
        # int-float comparison is exact, whatever the size of n_trials
        work = (steps + starts) * max(dim, 16) ** 3
        _require(verify["n_trials"] <= MAX_WINDOW_WORK / work, _at(path, "verify.n_trials"),
                 "%d trials of window checks that cost about %.3g each ((steps + starts) "
                 "* max(N, 16)^3); at most %d in all" % (verify["n_trials"], work,
                                                         MAX_WINDOW_WORK))
        if src is not None and src["kind"] == "class-constant":
            _verify_in_class(verify, src["class"], path)
    return a


def _wave_limits(o, path, spec, bound, lowest):
    """The wave-pe and wave-cubic bounds are derived for string modes under
    uniform damping d0, so their constants are read from the system: ``d0``
    may not exceed its uniform damping, and the field ``lowest`` may not
    exceed its smallest eigenvalue (``lambda_min``, wave-pe) or the root of
    that, its lowest rotation speed (``lambda1``, wave-cubic), which it
    takes when omitted.  A smaller d0 or lambda_min only weakens a bound; a
    larger value is refused."""
    _require(isinstance(spec, WaveModalSpec) and spec.uniform is not None, path,
             "the %s bound holds only for a wave-modal system with uniform "
             "damping" % bound)
    _require(o["d0"] <= spec.uniform, _at(path, "d0"),
             "d0=%g exceeds the system's uniform damping %g" % (o["d0"], spec.uniform))
    limit, what = float(spec.spectrum().min()), "smallest eigenvalue"
    if lowest == "lambda1":
        limit, what = math.sqrt(limit), "lowest rotation speed sqrt(lambda)"
    if o[lowest] is None:
        o[lowest] = limit
    _require(o[lowest] <= limit, _at(path, lowest),
             "%s=%g exceeds the system's %s %g" % (lowest, o[lowest], what, limit))


def _wave_cubic(o, path, ctx):
    _wave_limits(o, path, ctx["modal"], "wave-cubic", "lambda1")
    return (lambda L: wave_rho_lower_bound(L, o["rho"], o["lambda1"], o["d0"])), (), o["rho"]


def _verify_in_class(verify, sclass, path):
    """A class constant bounds the functional only for signals of its
    class, so the gates drawn to verify its certificate must lie in it."""
    T, mu = verify["T"], verify["mu"]
    if sclass.kind == "pe-windows":
        _require(T == sclass.T, _at(path, "verify.T"),
                 "gate window T=%g differs from the class window T=%g" % (T, sclass.T))
        _require(mu >= sclass.mu, _at(path, "verify.mu"),
                 "gate mass mu=%g is below the class mass mu=%g" % (mu, sclass.mu))
    else:
        # a T-mu gate carries at least floor(h/T) mu on every window of length
        # h; both the floor and the comparison are exact, since h / T in
        # floats can round up to a whole number
        h = sclass.horizon
        k = Fraction(h) // Fraction(T)
        _require(k * Fraction(mu) >= Fraction(sclass.rho) * Fraction(h), _at(path, "verify.mu"),
                 "a gate with T=%g and mu=%g guarantees mass %g on a window of "
                 "length %g, below the class mass rho*horizon=%g"
                 % (T, mu, k * mu, h, sclass.rho * h))


def _strong_stability(a, path, ctx):
    system, seq = ctx["system"], a["intervals"]
    if a["costs"] is not None:
        _require(len(a["costs"]) == len(seq.intervals), _at(path, "costs"),
                 "need one cost per interval")
        for j, (c, L) in enumerate(zip(a["costs"], seq.lengths)):
            _within_bound(c, L, system, "%s.costs[%d]" % (path, j))
    _initial_state(a, path, ctx)
    crit = a["criterion"]
    if crit is not None:
        # the criterion evaluates the cost on the interval lengths and on
        # [T0/2, T0]; each cost form that is positive at the shortest of
        # these is positive on all of them
        cost, _, rho = crit["cost"]
        cpath = _at(path, "criterion.cost")
        # c grows as rho^3, so a rho above the level overstates every cost
        _require(rho <= a["level"], _at(cpath, "rho"),
                 "rho=%g exceeds the level %g of the intervals: the cost assumes "
                 "a damping mass of rho times each interval's length"
                 % (rho, a["level"]))
        for L in seq.lengths + (crit["T0"] / 2.0, crit["T0"]):
            try:
                c = cost(L)
            except ValueError as e:
                raise ScenarioError(cpath, str(e))
            _require(c > 0, cpath, "cost %g at length %g is not positive" % (c, L))
            _within_bound(c, L, system, cpath)
    return a


def _scenario(top, path, ctx):
    _require(top["dt_out"] is None or top["horizon"] is None
             or top["dt_out"] <= top["horizon"], "dt_out", "must not exceed the horizon")
    # the analyses see the built system and, for a modal one, its spec
    modal, system = top["system"] or (None, None)
    analyses = tuple(_walk(ANALYSES, a, "analyses[%d]" % i,
                           dict(top, system=system, modal=modal, index=i))
                     for i, a in enumerate(top["analyses"]))
    return Scenario(seed=top["seed"], system=system, signal=top["signal"],
                    horizon=top["horizon"], dt_out=top["dt_out"], analyses=analyses)


# The schema.

DAMPING = Obj("damping", {"uniform": (POSITIVE, None), "omega": (_omega("<="), None)})

SYSTEMS = Kinds("kind", "system kind", {
    "matrices": Obj("matrices", {"A": MATRIX, "B": MATRIX_OR_VECTOR},
                    rule=lambda o, path, ctx: (None, LinearSystem(
                        np.asarray(o["A"], dtype=float), np.asarray(o["B"], dtype=float)))),
    "wave-modal": Obj("wave-modal", {
        "n_modes": MODES, "damping": DAMPING, "eigenvalues": (NUMBERS, None),
    }, rule=_modal),
    "schrodinger-modal": Obj("schrodinger-modal", {"n_modes": MODES, "damping": DAMPING},
                             rule=_modal, refuse={"eigenvalues": "quantum-particle "
                                                  "systems fix the eigenvalues (n pi)^2"}),
})

LEVEL_DEFAULT = _library_default(from_intervals, "level")

SIGNALS = Kinds("gen", "signal generator", {
    "constant": Obj("constant", {
        "level": _number(lambda v: 0 <= v <= 1, "must lie in [0, 1]"),
    }, rule=lambda o, path, ctx: make_piecewise([], [], o["level"])),
    "periodic-gate": Obj("periodic-gate", {
        "period": POSITIVE, "pulse_halfwidth": POSITIVE, "horizon": POSITIVE,
    }, rule=_gate),
    "haraux-gap": Obj("haraux-gap", {"n_max": _integer(1, MAX_PULSES)},
                      rule=lambda o, path, ctx: haraux_gap(o["n_max"])[0]),
    "intervals": Obj("intervals", {
        "intervals": _intervals, "level": (FRACTION, LEVEL_DEFAULT),
    }, rule=lambda o, path, ctx: from_intervals(o["intervals"], o["level"])),
}, untagged=Obj("piecewise signal", {
    "breakpoints": NUMBERS, "values": NUMBERS, "tail": NUMBER,
}, rule=lambda o, path, ctx: make_piecewise(o["breakpoints"], o["values"], o["tail"])))

CLASSES = Kinds("kind", "signal-class kind", {
    "rho-integral": Obj("rho-integral", {"rho": FRACTION, "horizon": POSITIVE},
                        rule=lambda o, path, ctx: SignalClass.rho_integral(
                            float(o["rho"]), float(o["horizon"]))),
    "pe-windows": Obj("pe-windows", {
        "T": POSITIVE, "mu": POSITIVE, "horizon": (POSITIVE, None),
    }, rule=_pe_class),
})

OUTER = Obj("outer-search", {
    "n_starts": (_integer(1, MAX_STARTS), OuterSearch.n_starts),
    "n_iters": (_integer(1, MAX_ITERS), OuterSearch.n_iters),
    "seed": (_integer(0), None),
}, rule=_outer)

SOURCES = Kinds("kind", "certificate source", {
    "wave-pe": Obj("wave-pe", {
        "T": POSITIVE, "mu": POSITIVE, "lambda_min": (POSITIVE, None),
        "d0": (POSITIVE, _library_default(wave_pe_lower_bound, "d0")),
    }, rule=_window),
    "class-constant": Obj("class-constant", {
        "class": CLASSES, "n_cells": (CELLS, DEFAULT_N_CELLS), "outer": (OUTER, {}),
    }),
})

VERIFY = Obj("verify", {
    "T": POSITIVE, "mu": POSITIVE,
    "n_trials": (_integer(1), _library_default(verify_certificate, "n_trials")),
    "horizon": (POSITIVE, None),
}, rule=_window)

# each cost form resolves to its interval cost function c(L), the knots
# between which c is monotone (the two closed forms increase in L) and the
# damping level its derivation needs on the intervals: the cubic bound
# assumes a rho-fraction of each interval's length as its damping mass
COSTS = Kinds("kind", "cost form", {
    "wave-cubic": Obj("wave-cubic", {
        "rho": FRACTION, "lambda1": (POSITIVE, None),
        "d0": (POSITIVE, _library_default(wave_rho_lower_bound, "d0")),
    }, rule=_wave_cubic),
    "exp-gap": Obj("exp-gap", {}, rule=lambda o, path, ctx: (
        (lambda L: math.exp(-2.0 / L)), (), 0.0)),
    "table": Obj("table", {"T": _list(POSITIVE), "c": _list(POSITIVE)}, rule=_table_cost),
})

ANALYSES = Kinds("kind", "analysis kind", {
    "simulate": Obj("simulate", {
        "z0": (_z0, "random"),
        "monotone_tol": (POSITIVE, 1e-9),
        "balance_tol": (POSITIVE, 1e-5),
    }, rule=_simulate, needs=("system", "signal", "horizon", "dt_out")),
    "check-pe": Obj("check-pe", {
        "T": POSITIVE, "mu": POSITIVE,
        "tolerance": (NONNEGATIVE, _library_default(pe_check, "tolerance")),
    }, rule=_check_pe, needs=("signal", "horizon")),
    "counterexample": Obj("counterexample", {
        "omega": _omega("<"),
        "periods": (_integer(1, MAX_PERIODS), 3),
        "drift_tol": (POSITIVE, 1e-8),
    }),
    "observability": Obj("observability", {
        "class": CLASSES, "n_cells": (CELLS, DEFAULT_N_CELLS), "outer": (OUTER, {}),
    }, rule=_observability, needs=("system",)),
    "kappa-scan": Obj("kappa-scan", {
        "rho": FRACTION, "T_grid": _t_grid,
        "n_cells": (CELLS, DEFAULT_N_CELLS), "outer": (OUTER, {}),
    }, rule=_kappa_scan, needs=("system",)),
    "certify": Obj("certify", {
        "constant": (POSITIVE, None), "source": (SOURCES, None),
        "theta": POSITIVE, "verify": (VERIFY, None),
    }, rule=_certify, needs=("system",)),
    "strong-stability": Obj("strong-stability", {
        "intervals": _intervals,
        "level": (FRACTION, LEVEL_DEFAULT),
        "costs": (_list(NONNEGATIVE), None),
        "z0": (_z0, "random"),
        "criterion": (Obj("criterion", {"T0": POSITIVE, "cost": COSTS}), None),
    }, rule=_strong_stability, needs=("system",)),
})

SCENARIO = Obj("scenario", {
    "seed": (_integer(0), 0),
    "system": (SYSTEMS, None),
    "signal": (SIGNALS, None),
    "horizon": (POSITIVE, None),
    "dt_out": (POSITIVE, None),
    "analyses": _list(lambda a, path: a, min_len=1),
}, rule=_scenario)


def parse_scenario(doc) -> Scenario:
    """Validate a scenario document and resolve everything its analyses use.

    Raises :class:`ScenarioError` with a field path on any violation,
    including semantic ones (mu > T, omega out of range, wrong dimensions).
    """
    return _walk(SCENARIO, doc, "")
