"""In-memory spans around pexstab's layer-boundary functions.

Tracing wraps functions from outside: each boundary function is replaced by
a wrapper under every name through which pexstab looks it up (for example
``cli.class_constant`` and ``observability.class_constant`` are the same
function object and both get the same wrapper).  Nothing under ``src/``
changes.  A span records its name, start, end, parent span and an optional
count (samples produced, trials run, bytes written, starts requested); spans
stay in memory and the child process writes them out once, at its end.

The run is serial with a single caller, so spans nest strictly and no layer
ever waits on another: there are no wait metrics to report.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

# (layer name, defining module, attribute, count taken after the call)
BOUNDARIES = (
    ("cli.run", "pexstab.cli", "run_scenario", None),
    ("cli.report_io", "pexstab.cli", "_write_json",
     lambda args, out: os.path.getsize(args[0])),
    ("cli.report_io", "pexstab.cli", "_write_csv",
     lambda args, out: os.path.getsize(args[0])),
    ("scenario.parse", "pexstab.scenario", "parse_scenario", None),
    ("signals.pe_check", "pexstab.signals", "pe_check", None),
    ("signals.gate_build", "pexstab.signals", "periodic_gate", None),
    ("signals.gate_build", "pexstab.signals.Signal", "shifted", None),
    ("linsys.simulate", "pexstab.linsys", "simulate",
     lambda args, out: len(out.times)),
    ("linsys.propagate", "pexstab.linsys", "_propagate", None),
    ("linsys.expm", "scipy.linalg", "expm", None),
    ("linsys.energy_balance", "pexstab.linsys", "energy_balance", None),
    ("observability.cell_gramians", "pexstab.observability", "_cell_gramians", None),
    ("observability.inner_lp", "pexstab.observability", "pe_window_min", None),
    ("observability.inner_greedy", "pexstab.observability", "rho_greedy_min", None),
    ("observability.class_constant", "pexstab.observability", "class_constant",
     lambda args, out: out.n_starts),
    ("observability.gramian", "pexstab.observability", "observability_gramian", None),
    ("stability.verify", "pexstab.stability", "verify_certificate",
     lambda args, out: out.n_trials),
    ("stability.product_bound", "pexstab.stability", "interval_product_bound", None),
)

PEXSTAB_MODULES = ("pexstab", "pexstab.cli", "pexstab.scenario", "pexstab.signals",
                   "pexstab.linsys", "pexstab.modal", "pexstab.observability",
                   "pexstab.stability", "pexstab.dalembert")


class Recorder:
    """Collects spans of one process; ``run_id`` tags every span it holds."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [id, name, start, end, parent id or None, count]
        self._stack = []

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(self.spans), name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else None, None]
            self.spans.append(span)
            self._stack.append(span[0])
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span[5] = count(args, out)
            return out
        return traced

    def record(self, name: str, start: float, end: float):
        """Add a finished root span timed by the caller."""
        self.spans.append([len(self.spans), name, start, end, None, None])

    def to_dict(self) -> dict:
        return {"run_id": self.run_id,
                "fields": ["id", "name", "start", "end", "parent", "count"],
                "spans": self.spans}


def _resolve(dotted: str):
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        mod, _, attr = dotted.rpartition(".")
        return getattr(importlib.import_module(mod), attr)


def install(recorder: Recorder):
    """Rebind every boundary function to a traced wrapper.

    A boundary is rebound on its defining object and on every pexstab module
    that imported it by name, so each call site sees the wrapper whichever
    name it uses.
    """
    modules = [importlib.import_module(m) for m in PEXSTAB_MODULES]
    for name, owner, attr, count in BOUNDARIES:
        holder = _resolve(owner)
        original = getattr(holder, attr)
        wrapper = recorder.wrap(name, original, count)
        for target in [holder] + modules:
            if getattr(target, attr, None) is original:
                setattr(target, attr, wrapper)


def self_times(spans) -> dict:
    """Per layer name: (self seconds, calls, summed counts).

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest strictly, so children never overlap.
    """
    child_time = {}
    for sid, _name, start, end, parent, _count in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out = {}
    for sid, name, start, end, _parent, count in spans:
        s, n, c = out.get(name, (0.0, 0, 0))
        out[name] = (s + (end - start) - child_time.get(sid, 0.0), n + 1,
                     c + (count or 0))
    return out


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced process, named as in BENCHMARK.json.

    Times are self times summed over calls.  ``scenario.parse_s`` covers both
    parses a sample makes: the set-up parse and the CLI's own.
    """
    t = self_times(spans)

    def s(name):
        return t.get(name, (0.0, 0, 0))[0]

    def n(name):
        return t.get(name, (0.0, 0, 0))[1]

    def c(name):
        return t.get(name, (0.0, 0, 0))[2]

    inner_calls = n("observability.inner_lp") + n("observability.inner_greedy")
    starts = c("observability.class_constant")
    return {
        "setup.import_s": s("setup.import"),
        "scenario.parse_s": s("scenario.parse"),
        "cli.run_self_s": s("cli.run"),
        "cli.report_io_s": s("cli.report_io"),
        "cli.report_bytes": c("cli.report_io"),
        "signals.pe_check_s": s("signals.pe_check"),
        "signals.pe_check_calls": n("signals.pe_check"),
        "signals.gate_build_s": s("signals.gate_build"),
        "signals.gate_build_calls": n("signals.gate_build"),
        "linsys.simulate_self_s": s("linsys.simulate"),
        "linsys.simulate_calls": n("linsys.simulate"),
        "linsys.samples": c("linsys.simulate"),
        "linsys.propagate_s": s("linsys.propagate"),
        "linsys.propagate_calls": n("linsys.propagate"),
        "linsys.expm_s": s("linsys.expm"),
        "linsys.expm_calls": n("linsys.expm"),
        "linsys.energy_balance_s": s("linsys.energy_balance"),
        "observability.cell_gramians_s": s("observability.cell_gramians"),
        "observability.inner_lp_s": s("observability.inner_lp"),
        "observability.inner_lp_calls": n("observability.inner_lp"),
        "observability.inner_greedy_s": s("observability.inner_greedy"),
        "observability.inner_greedy_calls": n("observability.inner_greedy"),
        "observability.outer_self_s": s("observability.class_constant"),
        "observability.class_constant_calls": n("observability.class_constant"),
        "observability.inner_calls_per_start": inner_calls / starts if starts else 0.0,
        "observability.gramian_s": s("observability.gramian"),
        "observability.gramian_calls": n("observability.gramian"),
        "stability.verify_self_s": s("stability.verify"),
        "stability.verify_trials": c("stability.verify"),
        "stability.product_bound_s": s("stability.product_bound"),
    }
