"""Batch front-end: run scenario files and emit JSON/CSV artifacts.

Exit status contract:

* 0 - scenario ran and every requested verification passed
* 1 - a verification failed (certificate violated, PE check negative,
      monotonicity or balance breached, measured ratio above its factor),
      or an analysis stopped on a numerical failure (its report is
      ``{"error": message}``; the other analyses still run)
* 2 - schema or semantic violation in the scenario file (message carries
      the offending field's path)
* 3 - I/O failure (unreadable scenario, unwritable output directory)

Every JSON report embeds the tool version, the SHA-256 of the scenario file
bytes and the scenario seed; reruns of the same scenario are byte-identical.
Time series go to CSV (header ``t,V,damping_rate``), scan tables to CSV with
their own documented headers, everything else to JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import hashlib
import json
import math
import os
import sys
import threading
from dataclasses import fields, is_dataclass

import numpy as np

from . import __version__
from .dalembert import (build_counterexample, energy_of_counterexample,
                        verify_damping_inert)
from .linsys import energy_balance, simulate
from .observability import class_constant, kappa_scan
from .scenario import ANALYSES, Scenario, ScenarioError, parse_scenario
from .signals import pe_check
from .stability import (CertificateViolation, GateSignalFamily,
                        certificate_from_constant, interval_product_bound,
                        rho_class_criterion, verify_certificate)

OUT_ENV_VAR = "PEXSTAB_OUT"
# a class constant is the best value a local search found, so it may lie
# above the true constant that a certificate needs as a lower bound
UPPER_ESTIMATE_CAVEAT = "c is an upper estimate; the certificate is not rigorous"
CSV_CHUNK_ROWS = 4096


def _jsonable(x):
    """JSON value of ``x``, recursing into containers.

    A report is a dataclass: it is written as its fields by name, or as
    what its ``to_dict`` returns when its report is not just its fields.
    """
    if is_dataclass(x):
        if hasattr(x, "to_dict"):
            return _jsonable(x.to_dict())
        return {f.name: _jsonable(getattr(x, f.name)) for f in fields(x)}
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (np.floating, float)):
        v = float(x)
        return v if math.isfinite(v) else repr(v)
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.bool_,)):
        return bool(x)
    return x


def _write_json(path: str, payload: dict):
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")


# 10^k for k <= 22 is exact in float64 (5^22 < 2^53); each power is kept
# with its Veltkamp halves (high 26 bits, the rest), and as int64 up to 10^17
_POW10 = np.array([float(10 ** k) for k in range(23)])
_VELTKAMP = 134217729.0  # 2^27 + 1
_POW10_HI = _POW10 * _VELTKAMP - (_POW10 * _VELTKAMP - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_POW10_INT = np.array([10 ** k for k in range(18)], dtype=np.int64)
# the digits of the magnitudes in (1e-6, 1e17) are computed, those whose
# %.17g exponent lies in [-6, 16]; the float 1e-6 lies below 10^-6
_DIGITS_MIN, _DIGITS_MAX = 1e-6, 1e17


def _scaled_digits(a, exp):
    """p, e with p + e == a * 10^(16 - exp) exactly: Dekker's TwoProduct,
    each factor split in two halves of at most 26 bits (Veltkamp), so no
    partial product rounds."""
    k = 16 - exp
    p = a * _POW10[k]
    c = a * _VELTKAMP
    a_hi = c - (c - a)
    a_lo = a - a_hi
    s_hi, s_lo = _POW10_HI[k], _POW10_LO[k]
    e = ((a_hi * s_hi - p) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
    return p, e


def _digits17(a, estimate):
    """The 17 significant digits of each ``a`` in (1e-6, 1e17).

    Returns (D, E): D the int64 in [10^16, 10^17) that rounds the exact
    a * 10^(16 - E) half to even, as C's printf does, and E the decimal
    exponent of a.  ``estimate`` is floor(log10(a)) as a float
    ``log10`` gives it, which may be off by one near a power of ten: the
    exact product (p, e) is compared with 10^16 and 10^17 to correct it.
    """
    exp = np.minimum(np.maximum(estimate, -6), 16)
    p, e = _scaled_digits(a, exp)
    off = np.flatnonzero((p <= 1e16) | (p >= 1e17))
    while off.size:
        p_off, e_off = p[off], e[off]
        step = (((p_off > 1e17) | (p_off == 1e17) & (e_off >= 0)).astype(np.int64)
                - ((p_off < 1e16) | (p_off == 1e16) & (e_off < 0)))
        off, step = off[step != 0], step[step != 0]
        exp[off] += step
        p[off], e[off] = _scaled_digits(a[off], exp[off])
    # p >= 10^16 > 2^53 is an even integer and |e| <= ulp(p) / 2, so the
    # nearest integer to p + e, ties to even, is p plus e rounded so.  It
    # stays below 10^17: rounding up to a power of ten would take a float
    # within 5e-18 (relative) below it, and in this range the float below
    # a power of ten lies at least 8e-17 below it
    return p.astype(np.int64) + np.rint(e).astype(np.int64), exp


# the lookup tables are built at first use, so a run that writes no CSV
# spends neither their time nor their memory
@functools.cache
def _trailing_zeros_4():
    """Trailing decimal zeros of every 4-digit group, 0000 counting 4."""
    zeros = np.zeros(10000, dtype=np.int64)
    for p in (10, 100, 1000, 10000):
        zeros[::p] += 1
    return zeros


def _trailing_zeros(digits):
    """The number of trailing decimal zeros of each positive int64."""
    high = digits // 10000
    zeros = _trailing_zeros_4()[digits - high * 10000]
    more = np.flatnonzero(zeros == 4)
    if more.size:
        zeros[more] += _trailing_zeros(high[more])
    return zeros


@functools.cache
def _csv_templates():
    """The %d template of every CSV value, indexed by
    ((E + 6) * 17 + k) * 4 + 2 * sign + last: E the decimal exponent in
    [-6, 16], k 0 for a value with no fraction and else one more than the
    number of leading zeros of its fraction, sign 1 for a negative value
    and last 1 for the row's last column.  Four literal zeros follow."""
    out = []
    for exp in range(-6, 17):
        # printf's %g: fixed notation for E in [-4, 16], exponent form below
        head = "0" if -4 <= exp < 0 else "%d"
        suffix = "e-%02d" % -exp if exp < -4 else ""
        for k in range(17):
            body = head + ("." + "0" * (k - 1) + "%d" if k else "") + suffix
            out += [body + ",", body + "\n", "-" + body + ",", "-" + body + "\n"]
    out += ["0,", "0\n", "-0,", "-0\n"]
    return np.array(out, dtype=object)


def _format_csv_values(values):
    """The CSV text of ``values``, a float64 table whose rows are CSV rows,
    every value spelled as '%.17g' spells it.

    A value in (1e-6, 1e17) in magnitude is printed from its exact 17
    digits D (``_digits17``) as at most two integers, the digits before the
    point and the fraction without its leading and trailing zeros, through
    a template that supplies the sign, the point, the fraction's leading
    zeros, the exponent and the separator.  The chunk's templates are
    joined into one format string for one ``%`` over all its integers.
    Zeros are literals; nan, infinities and the magnitudes outside that
    range keep '%.17g' one value at a time.
    """
    # 2 * sign + last: each value's place in its block of four templates;
    # the sign bit is read off the bits, so -0.0 counts as negative
    slot = 2 * (values.view(np.int64) < 0)
    slot[:, -1] += 1
    slot = slot.ravel()
    x = values.ravel()
    a = np.abs(x)
    in_range = (a > _DIGITS_MIN) & (a < _DIGITS_MAX)
    fast = np.flatnonzero(in_range)
    a_fast = a[fast]
    digits, exp = _digits17(a_fast, np.floor(np.log10(a_fast)).astype(np.int64))
    # digits after the point before trailing zeros are stripped
    fraction = np.where(exp < -4, 16, 16 - exp)
    whole, rest = np.divmod(digits, _POW10_INT[np.minimum(fraction, 17)])
    has_fraction = rest > 0
    # zeros between the point and the first nonzero digit of the fraction
    leading = fraction - np.searchsorted(_POW10_INT, rest, side="right")
    k = np.where(has_fraction, leading + 1, 0)
    templates = _csv_templates()
    index = slot + (len(templates) - 4)
    index[fast] = ((exp + 6) * 17 + k) * 4 + slot[fast]
    templates = templates[index]
    for i in np.flatnonzero(~in_range & (a != 0)):
        templates[i] = "%.17g" % x[i] + ("\n" if slot[i] & 1 else ",")
    numbers = np.column_stack([whole, rest // _POW10_INT[_trailing_zeros(digits)]])
    # a fixed-notation value below 1 has the literal "0" before its point
    needed = np.column_stack([(exp >= 0) | (exp < -4), has_fraction])
    numbers = np.compress(needed.ravel(), numbers.ravel())
    return "".join(templates.tolist()) % tuple(numbers.tolist())


def _write_csv(path: str, header: str, columns):
    """Write ``columns`` (one array per header column) as %.17g CSV.

    Every value is C's '%.17g' of its float64: 17 significant digits of the
    exact binary value, rounded half to even, trailing zeros stripped, so
    it reads back as the same float.  Each chunk of CSV_CHUNK_ROWS rows is
    stacked into one float table whose digits numpy computes exactly as
    integers (``_format_csv_values``), so a long time series is streamed
    without a per-value float conversion.  Integer columns go through
    float64, which prints an integer below 2^53 as the same digits.
    """
    n = len(columns[0])
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for lo in range(0, n, CSV_CHUNK_ROWS):
            chunk = np.column_stack([c[lo:lo + CSV_CHUNK_ROWS] for c in columns])
            fh.write(_format_csv_values(chunk.astype(np.float64, copy=False)))


def _run_simulate(sc: Scenario, a: dict):
    traj = simulate(sc.system, sc.signal, a["z0"], sc.horizon, sc.dt_out)
    balance = energy_balance(traj)
    V = traj.energies
    rises = np.diff(V)
    worst_rise = float(max(0.0, np.max(rises))) if len(rises) else 0.0
    # both tolerances are relative to the starting energy, once it passes 1
    scale = max(1.0, float(V[0]))
    monotone_ok = worst_rise <= a["monotone_tol"] * scale
    balance_ok = abs(balance.residual) <= a["balance_tol"] * scale
    report = {
        "z0": a["z0"],
        "samples": len(V),
        "V_start": float(V[0]),
        "V_end": float(V[-1]),
        "worst_energy_rise": worst_rise,
        "monotone_tol": a["monotone_tol"],
        "monotone_ok": monotone_ok,
        "balance_residual": balance.residual,
        "balance_one_sided": balance.one_sided,
        "balance_tol": a["balance_tol"],
        "balance_ok": balance_ok,
        "caveats": list(sc.system.caveats),
    }
    columns = (traj.times, traj.energies, traj.damping_rates)
    return report, monotone_ok and balance_ok, ("t,V,damping_rate", columns)


def _run_check_pe(sc: Scenario, a: dict):
    rep = pe_check(sc.signal, a["T"], a["mu"], sc.horizon, tolerance=a["tolerance"])
    return rep, rep.holds, None


def _run_counterexample(sc: Scenario, a: dict):
    omega, periods = tuple(a["omega"]), a["periods"]
    cx = build_counterexample(omega, n_periods=periods)
    inert = verify_damping_inert(cx)
    times = np.linspace(0.0, periods * cx.period, 64 * periods + 1)
    energies = energy_of_counterexample(cx, times)
    drift = float(np.max(np.abs(energies - energies[0])) / energies[0])
    report = inert.to_dict()
    report["energy_drift"] = drift
    report["omega"] = list(omega)
    ok = bool(inert.ok and drift <= a["drift_tol"])
    return report, ok, ("t,V,damping_rate", (times, energies, np.zeros(len(times))))


def _run_observability(sc: Scenario, a: dict):
    return class_constant(sc.system, a["class"], a["n_cells"], a["outer"]), True, None


def _run_kappa_scan(sc: Scenario, a: dict):
    rep = kappa_scan(sc.system, a["rho"], a["T_grid"], a["n_cells"], a["outer"])
    return rep, True, ("T,c", (rep.T_grid, rep.constants))


def _run_certify(sc: Scenario, a: dict):
    caveats = list(sc.system.caveats)
    cert = a.get("certificate")
    if cert is None:  # a class-constant source: the search runs here
        src = a["source"]
        est = class_constant(sc.system, src["class"], src["n_cells"], src["outer"])
        cert = certificate_from_constant(
            est.constant, a["theta"], sc.system.b_norm,
            source="numerical class constant (%s)" % est.method)
        caveats.append(UPPER_ESTIMATE_CAVEAT)
    report = {"certificate": cert, "caveats": caveats}
    ok = True
    verify = a["verify"]
    if verify is not None:
        family = GateSignalFamily(T=verify["T"], mu=verify["mu"],
                                  horizon=verify["horizon"], seed=sc.seed)
        try:
            check = verify_certificate(sc.system, cert, family,
                                       n_trials=verify["n_trials"])
            report["verification"] = check
        except CertificateViolation as e:
            report["verification"] = dict(_jsonable(e.report), violation=str(e))
            ok = False
    return report, ok, None


def _run_strong_stability(sc: Scenario, a: dict):
    seq = a["intervals"]
    rep = interval_product_bound(sc.system, seq, a["z0"], level=a["level"],
                                 costs=a["costs"])
    report = {"product_bound": rep}
    ok = rep.ok
    crit = a["criterion"]
    if crit is not None:
        cost, knots, _ = crit["cost"]
        crit_rep = rho_class_criterion(seq, cost, crit["T0"], knots=knots)
        report["criterion"] = crit_rep
    columns = (np.arange(len(rep.factors)), rep.factors, rep.cumulative,
               rep.measured_ratios)
    return report, ok, ("n,factor,cumulative_bound,measured_ratio", columns)


_RUNNERS = {
    "simulate": _run_simulate,
    "check-pe": _run_check_pe,
    "counterexample": _run_counterexample,
    "observability": _run_observability,
    "kappa-scan": _run_kappa_scan,
    "certify": _run_certify,
    "strong-stability": _run_strong_stability,
}


def _load_scenario(path: str):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        print("pexstab: cannot read %s: %s" % (path, e), file=sys.stderr)
        return None, None, 3
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        print("pexstab: %s: not valid JSON: %s" % (path, e), file=sys.stderr)
        return None, None, 2
    try:
        sc = parse_scenario(doc)
    except ScenarioError as e:
        print("pexstab: %s: %s" % (path, e), file=sys.stderr)
        return None, None, 2
    return sc, hashlib.sha256(raw).hexdigest(), 0


def _resolve_out(arg_out: str) -> str:
    return arg_out or os.environ.get(OUT_ENV_VAR) or "."


def run_scenario(path: str, out_dir: str, parallel: bool = False,
                 only_kind: str = None) -> int:
    sc, digest, status = _load_scenario(path)
    if status:
        return status
    return _run_parsed(sc, digest, path, out_dir, parallel, only_kind)


# numpy's and scipy's wheels prefix OpenBLAS's names with scipy_, and a
# build with 64-bit integers suffixes them with 64_
_THREAD_FUNCTIONS = [(p + "get_num_threads" + s, p + "set_num_threads" + s)
                     for p in ("openblas_", "scipy_openblas_") for s in ("", "64_")]


def _openblas_threads() -> list:
    """(get, set) thread-count functions of every OpenBLAS loaded in this
    process, found by file name in /proc/self/maps; none where there is no
    such file (not Linux) or no OpenBLAS (MKL, Accelerate)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[-1].strip() for line in fh
                     if "openblas" in line}
    except OSError:
        return []
    controls = []
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
        try:  # RTLD_NOLOAD: a handle to the mapped library, never a new load
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for get_name, set_name in _THREAD_FUNCTIONS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return controls


class _OneBlasThread(contextlib.ContextDecorator):
    """Context in which every OpenBLAS loaded in the process computes on
    one thread.  The first of any concurrent or nested entries saves each
    library's thread count and the last exit restores it."""

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = []

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._saved = [(set_, get()) for get, set_ in _openblas_threads()]
                for set_, _ in self._saved:
                    set_(1)
            self._depth += 1

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for set_, count in self._saved:
                    set_(count)
                self._saved = []


# A run's products are at most a few hundred columns wide (the state
# dimension is bounded by MAX_MODES), too small to gain from BLAS threads,
# and one that waits on an OpenBLAS helper thread can take many times its
# one-thread time; a run's parallelism is its analyses (--parallel).
# OpenBLAS splits a product by rows and columns, never along the sum; on
# its AVX-512 kernels the thread count then leaves every digit as it is,
# but on the AVX2 ones (OPENBLAS_CORETYPE=Haswell) a row can round by how
# its product is split, so a caller on two threads may get other last
# digits than a run.
_ONE_BLAS_THREAD = _OneBlasThread()


@_ONE_BLAS_THREAD
def _run_parsed(sc: Scenario, digest: str, path: str, out_dir: str,
                parallel: bool = False, only_kind: str = None) -> int:
    """Run a validated scenario; ``digest`` is the sha256 of its bytes and
    ``path`` names it in messages."""
    jobs = [(i, a) for i, a in enumerate(sc.analyses)
            if only_kind is None or a["kind"] == only_kind]
    if not jobs:
        print("pexstab: %s: no %r analysis in scenario" % (path, only_kind),
              file=sys.stderr)
        return 2
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as e:
        print("pexstab: cannot create output directory %s: %s" % (out_dir, e),
              file=sys.stderr)
        return 3

    def run_one(job):
        _, a = job
        # a numerical failure that validation cannot foresee (a scan grid too
        # coarse, an LP the solver gives up on) fails this analysis alone
        try:
            return _RUNNERS[a["kind"]](sc, a)
        except RuntimeError as e:
            return {"error": str(e)}, False, None

    if parallel and len(jobs) > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=min(4, len(jobs))) as pool:
            results = list(pool.map(run_one, jobs))
    else:
        results = [run_one(job) for job in jobs]

    all_ok = True
    try:
        for (i, a), (report, ok, csv_spec) in zip(jobs, results):
            all_ok = all_ok and ok
            base = os.path.join(out_dir, "%02d_%s" % (i, a["kind"]))
            payload = {
                "tool": "pexstab",
                "version": __version__,
                "scenario_sha256": digest,
                "seed": sc.seed,
                "analysis_index": i,
                "kind": a["kind"],
                "ok": bool(ok),
                "report": report,
            }
            _write_json(base + ".json", payload)
            if csv_spec is not None:
                header, columns = csv_spec
                _write_csv(base + ".csv", header, columns)
            print("%s: %s -> %s.json" % (a["kind"], "ok" if ok else "FAIL", base))
    except OSError as e:
        print("pexstab: write failure: %s" % e, file=sys.stderr)
        return 3
    return 0 if all_ok else 1


def _cmd_validate(args) -> int:
    sc, _, status = _load_scenario(args.scenario)
    if status:
        return status
    print("%s: valid (%d analyses)" % (args.scenario, len(sc.analyses)))
    return 0


def _cmd_counterexample(args) -> int:
    try:
        a, b = (float(x) for x in args.omega.split(","))
    except ValueError:
        print("pexstab: --omega expects 'a,b'", file=sys.stderr)
        return 2
    doc = {
        "seed": args.seed,
        "analyses": [{"kind": "counterexample", "omega": [a, b],
                      "periods": args.periods}],
    }
    raw = json.dumps(doc, indent=2, sort_keys=True).encode("utf-8")
    try:
        sc = parse_scenario(doc)
    except ScenarioError as e:
        print("pexstab: counterexample: %s" % e, file=sys.stderr)
        return 2
    return _run_parsed(sc, hashlib.sha256(raw).hexdigest(), "counterexample",
                       _resolve_out(args.out))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pexstab",
        description="Persistent-excitation stability toolkit: simulate damped "
                    "conservative systems, check excitation, certify decay.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run every analysis in a scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", default=None,
                       help="output directory (default $%s or .)" % OUT_ENV_VAR)
    p_run.add_argument("--parallel", action="store_true",
                       help="run independent analyses in parallel")

    p_val = sub.add_parser("validate", help="check a scenario file against the schema")
    p_val.add_argument("scenario")

    p_cx = sub.add_parser("counterexample",
                          help="build and certify the inert-damping counterexample")
    p_cx.add_argument("--omega", required=True, help="damping region 'a,b'")
    p_cx.add_argument("--periods", type=int,
                      default=ANALYSES.kinds["counterexample"].fields["periods"][1])
    p_cx.add_argument("--seed", type=int, default=0)
    p_cx.add_argument("--out", default=None)

    for kind in ("observability", "kappa-scan", "certify", "strong-stability"):
        p_k = sub.add_parser(kind, help="run only the %s analyses of a scenario" % kind)
        p_k.add_argument("scenario")
        p_k.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "counterexample":
        return _cmd_counterexample(args)
    only = None if args.command == "run" else args.command
    parallel = getattr(args, "parallel", False)
    return run_scenario(args.scenario, _resolve_out(args.out), parallel=parallel,
                        only_kind=only)


if __name__ == "__main__":
    sys.exit(main())
