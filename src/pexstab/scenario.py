"""Scenario files: schema validation and construction of analysis inputs.

A scenario is a JSON object describing one system, one damping signal and a
list of analyses to run over them.  Validation is strict and every error
carries the path of the offending field (``analyses[2].mu`` style), so batch
users get machine-pointable diagnostics instead of stack traces.  Semantic
preconditions of the target modules (mu <= T, omega bounds, dimension
limits) are checked here, up front; analyses therefore only fail at run time
for numerical reasons, which is what exit status 1 is for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linsys import LinearSystem
from .modal import (SchrodingerModalSpec, WaveModalSpec, build_schrodinger,
                    build_wave)
from .observability import wave_rho_lower_bound, wave_rho_threshold
from .signals import Signal, from_intervals, haraux_gap, make_piecewise, periodic_gate
from .stability import cost_within_bound

# The fields each object of an analysis may carry besides its "kind", if it
# has one.  A field outside these sets is rejected: a misspelt optional
# field would otherwise be ignored, and the check it asks for would silently
# not run.
ANALYSIS_FIELDS = {
    "simulate": ("z0", "monotone_tol", "balance_tol"),
    "check-pe": ("T", "mu", "tolerance"),
    "counterexample": ("omega", "periods", "drift_tol"),
    "observability": ("class", "n_cells", "outer"),
    "kappa-scan": ("rho", "T_grid", "n_cells", "outer"),
    "certify": ("constant", "source", "theta", "verify"),
    "strong-stability": ("intervals", "level", "costs", "z0", "criterion"),
}
ANALYSIS_KINDS = tuple(ANALYSIS_FIELDS)
CLASS_FIELDS = {"rho-integral": ("rho", "horizon"),
                "pe-windows": ("T", "mu", "horizon")}
SOURCE_FIELDS = {"wave-pe": ("T", "mu", "lambda_min", "d0"),
                 "class-constant": ("class", "n_cells")}
COST_FIELDS = {"wave-cubic": ("rho", "lambda1", "d0"), "exp-gap": (),
               "table": ("T", "c")}
OUTER_FIELDS = ("n_starts", "n_iters", "seed")
VERIFY_FIELDS = ("T", "mu", "n_trials", "horizon")
CRITERION_FIELDS = ("T0", "cost")


class ScenarioError(ValueError):
    """Schema or semantic violation in a scenario file, with a field path."""

    def __init__(self, path: str, message: str):
        super().__init__("%s: %s" % (path, message))
        self.path = path


@dataclass(frozen=True)
class Scenario:
    """Validated scenario: resolved system/signal plus raw analysis specs."""

    seed: int
    system: LinearSystem
    signal: Signal
    horizon: float
    dt_out: float
    analyses: tuple
    raw: dict


def _require(cond: bool, path: str, message: str):
    if not cond:
        raise ScenarioError(path, message)


def _known_fields(obj: dict, fields, path: str, what: str):
    for key in obj:
        _require(key in fields, "%s.%s" % (path, key), "unknown %s field" % what)


def _get(obj: dict, key: str, path: str, required=True, default=None):
    if key not in obj:
        _require(not required, "%s.%s" % (path, key), "missing required field")
        return default
    return obj[key]


def _number(x, path: str, positive=False, nonnegative=False) -> float:
    _require(isinstance(x, (int, float)) and not isinstance(x, bool),
             path, "expected a number, got %r" % (x,))
    v = float(x)
    _require(np.isfinite(v), path, "must be finite")
    if positive:
        _require(v > 0, path, "must be positive")
    if nonnegative:
        _require(v >= 0, path, "must be nonnegative")
    return v


def _integer(x, path: str, minimum=None) -> int:
    _require(isinstance(x, int) and not isinstance(x, bool),
             path, "expected an integer, got %r" % (x,))
    if minimum is not None:
        _require(x >= minimum, path, "must be at least %d" % minimum)
    return x


def _number_list(x, path: str) -> list:
    _require(isinstance(x, list), path, "expected a list of numbers")
    return [_number(v, "%s[%d]" % (path, i)) for i, v in enumerate(x)]


def _omega(x, path: str) -> tuple:
    vals = _number_list(x, path)
    _require(len(vals) == 2, path, "expected [a, b]")
    a, b = vals
    _require(0.0 <= a < b <= 1.0, path, "need 0 <= a < b <= 1")
    return a, b


def build_system(spec, path: str) -> LinearSystem:
    _require(isinstance(spec, dict), path, "expected an object")
    kind = _get(spec, "kind", path)
    if kind == "matrices":
        A = _get(spec, "A", path)
        B = _get(spec, "B", path)
        _require(isinstance(A, list) and A and all(isinstance(r, list) for r in A),
                 path + ".A", "expected a matrix as list of rows")
        _require(isinstance(B, list) and B, path + ".B",
                 "expected a matrix as list of rows (or a vector)")
        try:
            return LinearSystem(np.asarray(A, dtype=float), np.asarray(B, dtype=float))
        except ValueError as e:
            raise ScenarioError(path, str(e))
    if kind in ("wave-modal", "schrodinger-modal"):
        n_modes = _integer(_get(spec, "n_modes", path), path + ".n_modes", minimum=1)
        damping = _get(spec, "damping", path)
        _require(isinstance(damping, dict), path + ".damping", "expected an object")
        uniform = damping.get("uniform")
        omega = damping.get("omega")
        _require((uniform is None) != (omega is None), path + ".damping",
                 "exactly one of 'uniform' or 'omega' is required")
        if uniform is not None:
            uniform = _number(uniform, path + ".damping.uniform", positive=True)
        if omega is not None:
            omega = _omega(omega, path + ".damping.omega")
        try:
            if kind == "wave-modal":
                eig = spec.get("eigenvalues")
                if eig is not None:
                    eig = _number_list(eig, path + ".eigenvalues")
                return build_wave(WaveModalSpec(n_modes, uniform=uniform,
                                                omega=omega, eigenvalues=eig))
            _require("eigenvalues" not in spec, path + ".eigenvalues",
                     "quantum-particle systems fix the eigenvalues (n pi)^2")
            return build_schrodinger(SchrodingerModalSpec(n_modes, uniform=uniform,
                                                          omega=omega))
        except ValueError as e:
            raise ScenarioError(path, str(e))
    raise ScenarioError(path + ".kind",
                        "unknown system kind %r (expected matrices, wave-modal "
                        "or schrodinger-modal)" % (kind,))


def build_signal(spec, path: str) -> Signal:
    _require(isinstance(spec, dict), path, "expected an object")
    if "gen" in spec:
        gen = spec["gen"]
        try:
            if gen == "constant":
                level = _number(_get(spec, "level", path), path + ".level")
                _require(0.0 <= level <= 1.0, path + ".level", "must lie in [0, 1]")
                return make_piecewise([], [], level)
            if gen == "periodic-gate":
                period = _number(_get(spec, "period", path), path + ".period",
                                 positive=True)
                h = _number(_get(spec, "pulse_halfwidth", path),
                            path + ".pulse_halfwidth", positive=True)
                horizon = _number(_get(spec, "horizon", path), path + ".horizon",
                                  positive=True)
                return periodic_gate(period, h, horizon)
            if gen == "haraux-gap":
                n_max = _integer(_get(spec, "n_max", path), path + ".n_max",
                                 minimum=1)
                return haraux_gap(n_max)[0]
            if gen == "intervals":
                ivs = _get(spec, "intervals", path)
                seq = build_intervals(ivs, path + ".intervals")
                level = spec.get("level", 1.0)
                level = _number(level, path + ".level")
                _require(0.0 < level <= 1.0, path + ".level", "must lie in (0, 1]")
                return from_intervals(seq, level)
        except ScenarioError:
            raise
        except ValueError as e:
            raise ScenarioError(path, str(e))
        raise ScenarioError(path + ".gen", "unknown signal generator %r" % (gen,))
    breaks = _number_list(_get(spec, "breakpoints", path), path + ".breakpoints")
    values = _number_list(_get(spec, "values", path), path + ".values")
    tail = _number(_get(spec, "tail", path), path + ".tail")
    try:
        return make_piecewise(breaks, values, tail)
    except ValueError as e:
        raise ScenarioError(path, str(e))


def build_intervals(x, path: str):
    from .signals import IntervalSequence
    _require(isinstance(x, list) and x, path, "expected a nonempty list of [a, b]")
    ivs = []
    for i, ab in enumerate(x):
        p = "%s[%d]" % (path, i)
        _require(isinstance(ab, list) and len(ab) == 2, p, "expected [a, b]")
        a = _number(ab[0], p + "[0]", nonnegative=True)
        b = _number(ab[1], p + "[1]")
        _require(b > a, p, "need a < b")
        ivs.append((a, b))
    try:
        return IntervalSequence(tuple(ivs), rho=1.0)
    except ValueError as e:
        raise ScenarioError(path, str(e))


def _validate_window(params: dict, path: str, horizon=None):
    T = _number(_get(params, "T", path), path + ".T", positive=True)
    mu = _number(_get(params, "mu", path), path + ".mu", positive=True)
    _require(mu <= T, path + ".mu", "mu=%g exceeds the window length T=%g" % (mu, T))
    if horizon is not None:
        _require(T <= horizon, path + ".T",
                 "window length T=%g exceeds the horizon %g" % (T, horizon))
    return T, mu


def _validate_outer(params, path: str) -> dict:
    if params is None:
        return {}
    _require(isinstance(params, dict), path, "expected an object")
    out = {}
    for key in OUTER_FIELDS:
        if key in params:
            out[key] = _integer(params[key], "%s.%s" % (path, key), minimum=1)
    _known_fields(params, OUTER_FIELDS, path, "outer-search")
    return out


def _validate_sclass(params, path: str) -> dict:
    _require(isinstance(params, dict), path, "expected an object")
    kind = _get(params, "kind", path)
    if kind in CLASS_FIELDS:
        _known_fields(params, ("kind",) + CLASS_FIELDS[kind], path, kind)
    if kind == "rho-integral":
        rho = _number(_get(params, "rho", path), path + ".rho", positive=True)
        _require(rho <= 1.0, path + ".rho", "must lie in (0, 1]")
        horizon = _number(_get(params, "horizon", path), path + ".horizon",
                          positive=True)
        return {"kind": kind, "rho": rho, "horizon": horizon}
    if kind == "pe-windows":
        T, mu = _validate_window(params, path)
        horizon = params.get("horizon", T)
        horizon = _number(horizon, path + ".horizon", positive=True)
        _require(horizon >= T, path + ".horizon", "must hold at least one window")
        return {"kind": kind, "T": T, "mu": mu, "horizon": horizon}
    raise ScenarioError(path + ".kind", "unknown signal-class kind %r" % (kind,))


def criterion_cost(cost: dict):
    """Interval cost c(L) of a validated strong-stability criterion ``cost``."""
    if cost["kind"] == "wave-cubic":
        return lambda L: wave_rho_lower_bound(L, cost["rho"], cost["lambda1"],
                                              cost.get("d0", 1.0))
    if cost["kind"] == "exp-gap":
        return lambda L: math.exp(-2.0 / L)
    ts, cs = cost["T"], cost["c"]
    return lambda L: float(np.interp(L, ts, cs))


def _validate_analysis(a, i: int, scenario: dict, system: LinearSystem) -> dict:
    path = "analyses[%d]" % i
    _require(isinstance(a, dict), path, "expected an object")
    kind = _get(a, "kind", path)
    _require(kind in ANALYSIS_KINDS, path + ".kind",
             "unknown analysis kind %r (expected one of %s)"
             % (kind, ", ".join(ANALYSIS_KINDS)))
    _known_fields(a, ("kind",) + ANALYSIS_FIELDS[kind], path, kind)
    needs_system = kind in ("simulate", "observability", "kappa-scan", "certify",
                            "strong-stability")
    needs_signal = kind in ("simulate", "check-pe")
    if needs_system:
        _require(scenario.get("system") is not None, path,
                 "analysis %r needs a scenario system" % kind)
    if needs_signal:
        _require(scenario.get("signal") is not None, path,
                 "analysis %r needs a scenario signal" % kind)
    a = dict(a)
    if kind == "simulate":
        if "z0" in a and a["z0"] != "random":
            _number_list(a["z0"], path + ".z0")
        for key in ("monotone_tol", "balance_tol"):
            if key in a:
                _number(a[key], "%s.%s" % (path, key), positive=True)
    elif kind == "check-pe":
        _validate_window(a, path, horizon=scenario.get("horizon"))
        if "tolerance" in a:
            _number(a["tolerance"], path + ".tolerance", nonnegative=True)
    elif kind == "counterexample":
        _omega(_get(a, "omega", path), path + ".omega")
        if "periods" in a:
            _integer(a["periods"], path + ".periods", minimum=1)
        if "drift_tol" in a:
            _number(a["drift_tol"], path + ".drift_tol", positive=True)
    elif kind == "observability":
        a["class"] = _validate_sclass(_get(a, "class", path), path + ".class")
        if "n_cells" in a:
            _integer(a["n_cells"], path + ".n_cells", minimum=4)
        _validate_outer(a.get("outer"), path + ".outer")
    elif kind == "kappa-scan":
        rho = _number(_get(a, "rho", path), path + ".rho", positive=True)
        _require(rho <= 1.0, path + ".rho", "must lie in (0, 1]")
        grid = _number_list(_get(a, "T_grid", path), path + ".T_grid")
        _require(len(grid) >= 2, path + ".T_grid", "need at least two lengths")
        for j, t in enumerate(grid):
            _require(0 < t <= 1, "%s.T_grid[%d]" % (path, j),
                     "window lengths must lie in (0, 1]")
        _require(all(b < a_ for a_, b in zip(grid, grid[1:])), path + ".T_grid",
                 "window lengths must be strictly decreasing")
        if "n_cells" in a:
            _integer(a["n_cells"], path + ".n_cells", minimum=4)
        _validate_outer(a.get("outer"), path + ".outer")
    elif kind == "certify":
        c = a.get("constant")
        source = a.get("source")
        _require((c is None) != (source is None), path,
                 "exactly one of 'constant' or 'source' is required")
        if c is not None:
            _number(c, path + ".constant", positive=True)
        else:
            _require(isinstance(source, dict), path + ".source", "expected an object")
            skind = _get(source, "kind", path + ".source")
            if skind in SOURCE_FIELDS:
                _known_fields(source, ("kind",) + SOURCE_FIELDS[skind],
                              path + ".source", skind)
            if skind == "wave-pe":
                _validate_window(source, path + ".source")
                _number(_get(source, "lambda_min", path + ".source"),
                        path + ".source.lambda_min", positive=True)
                if "d0" in source:
                    _number(source["d0"], path + ".source.d0", positive=True)
            elif skind == "class-constant":
                source = dict(source)
                source["class"] = _validate_sclass(
                    _get(source, "class", path + ".source"),
                    path + ".source.class")
                a["source"] = source
                if "n_cells" in source:
                    _integer(source["n_cells"], path + ".source.n_cells", minimum=4)
            else:
                raise ScenarioError(path + ".source.kind",
                                    "unknown certificate source %r" % (skind,))
        theta = _number(_get(a, "theta", path), path + ".theta", positive=True)
        verify = a.get("verify")
        if verify is not None:
            _require(isinstance(verify, dict), path + ".verify", "expected an object")
            _known_fields(verify, VERIFY_FIELDS, path + ".verify", "verify")
            _validate_window(verify, path + ".verify")
            if "n_trials" in verify:
                _integer(verify["n_trials"], path + ".verify.n_trials", minimum=1)
            if "horizon" in verify:
                _number(verify["horizon"], path + ".verify.horizon", positive=True)
    elif kind == "strong-stability":
        seq = build_intervals(_get(a, "intervals", path), path + ".intervals")
        if "level" in a:
            lv = _number(a["level"], path + ".level")
            _require(0 < lv <= 1, path + ".level", "must lie in (0, 1]")
        if "costs" in a and a["costs"] is not None:
            costs = _number_list(a["costs"], path + ".costs")
            _require(len(costs) == len(a["intervals"]), path + ".costs",
                     "need one cost per interval")
        if "z0" in a and a["z0"] != "random":
            _number_list(a["z0"], path + ".z0")
        crit = a.get("criterion")
        if crit is not None:
            _require(isinstance(crit, dict), path + ".criterion", "expected an object")
            _known_fields(crit, CRITERION_FIELDS, path + ".criterion", "criterion")
            T0 = _number(_get(crit, "T0", path + ".criterion"),
                         path + ".criterion.T0", positive=True)
            cpath = path + ".criterion.cost"
            cost = _get(crit, "cost", path + ".criterion")
            _require(isinstance(cost, dict), cpath, "expected an object")
            ckind = _get(cost, "kind", cpath)
            if ckind in COST_FIELDS:
                _known_fields(cost, ("kind",) + COST_FIELDS[ckind], cpath, ckind)
            if ckind == "wave-cubic":
                rho = _number(_get(cost, "rho", cpath), cpath + ".rho", positive=True)
                _require(rho <= 1.0, cpath + ".rho", "must lie in (0, 1]")
                lam = _number(_get(cost, "lambda1", cpath), cpath + ".lambda1",
                              positive=True)
                if "d0" in cost:
                    _number(cost["d0"], cpath + ".d0", positive=True)
                longest = max(max(seq.lengths), T0)
                thr = wave_rho_threshold(rho, lam)
                _require(longest <= thr, cpath,
                         "the cubic bound holds only for lengths up to %g "
                         "(pi / (2 lambda1)); the longest interval or T0 is %g"
                         % (thr, longest))
            elif ckind == "exp-gap":
                pass
            elif ckind == "table":
                ts = _number_list(_get(cost, "T", cpath), cpath + ".T")
                cs = _number_list(_get(cost, "c", cpath), cpath + ".c")
                _require(len(ts) == len(cs) and len(ts) >= 2, cpath,
                         "need matching T and c lists with at least two points")
            else:
                raise ScenarioError(cpath + ".kind",
                                    "unknown cost form %r" % (ckind,))
            c_of_T = criterion_cost(cost)
            for L in tuple(seq.lengths) + (T0,):
                c = c_of_T(L)
                _require(cost_within_bound(c, L, system.b_norm), cpath,
                         "cost %g at length %g exceeds the necessary bound "
                         "length*||B||^2 = %g" % (c, L, L * system.b_norm ** 2))
    return a


def parse_scenario(doc) -> Scenario:
    """Validate a scenario document and resolve its system and signal.

    Raises :class:`ScenarioError` with a field path on any violation,
    including semantic ones (mu > T, omega out of range, wrong dimensions).
    """
    _require(isinstance(doc, dict), "$", "scenario must be a JSON object")
    known = {"seed", "system", "signal", "horizon", "dt_out", "analyses"}
    for key in doc:
        _require(key in known, key, "unknown scenario field")
    seed = doc.get("seed", 0)
    seed = _integer(seed, "seed", minimum=0)
    horizon = doc.get("horizon")
    if horizon is not None:
        horizon = _number(horizon, "horizon", positive=True)
    dt_out = doc.get("dt_out")
    if dt_out is not None:
        dt_out = _number(dt_out, "dt_out", positive=True)
        _require(horizon is None or dt_out <= horizon, "dt_out",
                 "must not exceed the horizon")
    system = None
    if doc.get("system") is not None:
        system = build_system(doc["system"], "system")
    signal = None
    if doc.get("signal") is not None:
        signal = build_signal(doc["signal"], "signal")
    analyses = _get(doc, "analyses", "$")
    _require(isinstance(analyses, list) and analyses, "analyses",
             "expected a nonempty list")
    validated = tuple(_validate_analysis(a, i, doc, system)
                      for i, a in enumerate(analyses))
    for i, a in enumerate(validated):
        if a["kind"] == "simulate":
            _require(horizon is not None, "horizon",
                     "simulate analyses need a scenario horizon")
            _require(dt_out is not None, "dt_out",
                     "simulate analyses need a scenario dt_out")
        if a["kind"] == "check-pe":
            _require(horizon is not None, "horizon",
                     "check-pe analyses need a scenario horizon")
    return Scenario(seed=seed, system=system, signal=signal, horizon=horizon,
                    dt_out=dt_out, analyses=validated, raw=doc)
