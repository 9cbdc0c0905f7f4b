"""Outside-in tracing of one ``gradflow run``: spans recorded by wrappers.

The tracer replaces named gradflow functions and methods with wrappers
that record a span (id, name, start, end, parent) per call and a few
counters, all in memory; the spans are written out when the run ends.
Nothing inside gradflow is edited, and every wrapper returns exactly what
the original returns, so the run's artifacts stay byte-identical.

A name that a later gradflow no longer defines is skipped at install
time; the metrics that need it are reported as absent, not as an error.

Run as a script, this file is the traced process:

    PYTHONPATH=src python3 perfbench/tracer.py CONFIG OUT_ROOT SPANS_JSON
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import statistics
import sys
import threading
import time
from dataclasses import replace

import numpy as np

# (module, attribute, span name).  A function is replaced in every loaded
# gradflow module that binds the same object, so a later
# ``from .density import kde`` elsewhere is still traced.
TARGETS = (
    ("gradflow.cli", "parse_config", "config.parse"),
    ("gradflow.cli", "run_experiment", "runner"),
    ("gradflow.runner", "run_sampler", "sample.run_sampler"),
    ("gradflow.sample", "bdl_step", "sample.bdl_step"),
    ("gradflow.sample", "ndtri", "rng.ndtri"),
    ("gradflow.rng", "ndtri", "rng.ndtri"),
    ("gradflow.rng", "RngStream.uniform_rows", "rng.uniform_rows"),
    ("gradflow.runner", "histogram", "density.histogram"),
    ("gradflow.runner", "tv_distance", "density.metrics"),
    ("gradflow.runner", "kl_divergence", "density.metrics"),
    ("gradflow.runner", "l2_pi_inv_norm", "density.metrics"),
    ("gradflow.density", "kde", "density.kde"),
    ("gradflow.runner", "fpe_step", "fpe.step"),
    ("gradflow.runner", "weighted_fpe_step", "fpe.step"),
    ("gradflow.runner", "bdl_fpe_step", "fpe.step"),
    ("gradflow.fpe", "FokkerPlanckSolver1D.drift_diffusion_step", "fpe.kernel"),
    ("gradflow.fpe", "FokkerPlanckSolver1D.reaction_half_step", "fpe.kernel"),
)
WRITERS_MODULE = "gradflow.runner"     # every write_* function there
POTENTIAL_FACTORY = ("gradflow.runner", "from_identifier")

# Generator methods that produce uniforms or Gaussians, counted where
# numpy makes them, whatever layout gradflow asks for.
_GENERATOR_METHODS = ("random", "uniform", "standard_normal", "normal")

# metric -> (unit, better, the traced names it needs)
PER_LAYER = {
    "rng.uniform_rows.calls": ("count", "lower", ("rng.uniform_rows",)),
    "rng.uniform_rows.self_s": ("s", "lower", ("rng.uniform_rows",)),
    "rng.draws_used": ("count", "lower", ("rng.uniform_rows",)),
    "rng.draws_generated": ("count", "lower", ()),
    "rng.useful_ratio": ("ratio", "higher", ("rng.uniform_rows",)),
    "rng.ndtri.calls": ("count", "lower", ("rng.ndtri",)),
    "rng.ndtri.self_s": ("s", "lower", ("rng.ndtri",)),
    "potentials.grad.calls": ("count", "lower", ("potentials",)),
    "potentials.grad.points": ("count", "lower", ("potentials",)),
    "potentials.grad.self_s": ("s", "lower", ("potentials",)),
    "potentials.value.calls": ("count", "lower", ("potentials",)),
    "potentials.value.points": ("count", "lower", ("potentials",)),
    "potentials.value.self_s": ("s", "lower", ("potentials",)),
    "sample.run_sampler.calls": ("count", "lower", ("sample.run_sampler",)),
    "sample.run_sampler.self_s": ("s", "lower", ("sample.run_sampler",)),
    "sample.bdl_step.self_s": ("s", "lower", ("sample.bdl_step",)),
    "sample.particle_steps": ("count", "higher", ("sample.run_sampler",)),
    "sample.accept_ratio": ("ratio", "higher", ("sample.run_sampler",)),
    "density.histogram.calls": ("count", "lower", ("density.histogram",)),
    "density.histogram.self_s": ("s", "lower", ("density.histogram",)),
    "density.n_outside": ("count", "lower", ("density.histogram",)),
    "density.metrics.self_s": ("s", "lower", ("density.metrics",)),
    "density.kde.self_s": ("s", "lower", ("density.kde",)),
    "fpe.steps": ("count", "lower", ("fpe.step",)),
    "fpe.step.self_s": ("s", "lower", ("fpe.step",)),
    "fpe.kernel.calls": ("count", "lower", ("fpe.kernel",)),
    "fpe.kernel.self_s": ("s", "lower", ("fpe.kernel",)),
    "fpe.step_growth": ("ratio", "lower", ("fpe.step",)),
    "fpe.dt_ratio": ("ratio", "higher", ("fpe.step",)),
    "fpe.mass_drift": ("ratio", "lower", ()),
    "runner.self_s": ("s", "lower", ("runner",)),
    "runner.wall_s": ("s", "lower", ("runner",)),
    "artifacts.write.calls": ("count", "lower", ("artifacts.write",)),
    "artifacts.write.self_s": ("s", "lower", ("artifacts.write",)),
    "artifacts.bytes": ("bytes", "lower", ("artifacts.write",)),
    "config.parse.self_s": ("s", "lower", ("config.parse",)),
    "trace.overhead_ratio": ("ratio", "lower", ()),
}


class Tracer:
    """Spans and counters of one traced run, plus the originals it replaced."""

    def __init__(self):
        self.spans = []            # (id, name, start, end, parent id or None)
        self.counters = {}
        self.absent = set()        # span or counter names that could not be traced
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._restore = []         # (owner, attribute, original)
        self._installed = set()    # ids of the replacements
        self._live = set()         # span names with at least one replacement
        self._observers = {
            "rng.uniform_rows": self._on_uniform_rows,
            "density.histogram": self._on_histogram,
            "sample.run_sampler": self._on_run_sampler,
            "fpe.step": self._on_fpe_step,
            "artifacts.write": self._on_write,
        }

    # --- recording -------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key, amount):
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn, name, observe=None):
        """``fn`` recording a span per call; ``observe(args, kwargs, result)``
        then updates counters.  A call on a worker thread whose own stack is
        empty is a child of the span the main thread has open, which is
        the one waiting for it."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent_stack = stack if stack else tracer._main_stack
            parent = parent_stack[-1] if parent_stack else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent))
            if observe is not None:
                try:
                    observe(args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError, ValueError,
                        OSError):
                    tracer.absent.add(name)  # the traced API changed shape
            return result

        return traced

    # --- counters, one observer per span name ------------------------------------

    def _on_uniform_rows(self, args, kwargs, result):
        self.count("rng.draws_used", int(result.size))

    def _on_histogram(self, args, kwargs, result):
        self.count("density.n_outside", int(result.meta["n_outside"]))

    def _on_run_sampler(self, args, kwargs, result):
        # run_sampler(method, p, init, tau, n_steps, ...)
        init = _arg(args, kwargs, 2, "init")
        n_steps = _arg(args, kwargs, 4, "n_steps")
        self.count("sample.particle_steps",
                   int(np.atleast_2d(init.particles).shape[0]) * int(n_steps))
        self.count("sample.n_moves", int(result.stats.n_moves))
        self.count("sample.n_accepted", int(result.stats.n_accepted))

    def _on_fpe_step(self, args, kwargs, result):
        # fpe_step(state, dt)
        self.count("fpe.dt_sum", float(_arg(args, kwargs, 1, "dt")))
        if "fpe.max_stable_dt" not in self.counters:
            state = _arg(args, kwargs, 0, "state")
            self.counters["fpe.max_stable_dt"] = float(state.solver.max_stable_dt())

    def _on_write(self, args, kwargs, result):
        self.count("artifacts.bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))

    # --- installation ------------------------------------------------------------

    def _replace(self, owner, attribute, new):
        self._restore.append((owner, attribute, owner.__dict__[attribute]))
        self._installed.add(id(new))
        setattr(owner, attribute, new)

    def _replace_everywhere(self, original, attribute, new):
        """Bind ``new`` wherever a gradflow module binds ``original``."""
        for name, module in list(sys.modules.items()):
            if (name == "gradflow" or name.startswith("gradflow.")) and module is not None \
                    and module.__dict__.get(attribute) is original:
                self._replace(module, attribute, new)

    def _install_function(self, module_name, attribute, span):
        original = getattr(sys.modules.get(module_name), attribute, None)
        if original is None:
            return
        if id(original) not in self._installed:
            self._replace_everywhere(
                original, attribute, self.wrap(original, span, self._observers.get(span)))
        self._live.add(span)

    def _install_method(self, module_name, dotted, span):
        cls_name, method = dotted.split(".")
        cls = getattr(sys.modules.get(module_name), cls_name, None)
        if cls is not None and method in cls.__dict__:
            self._replace(cls, method, self.wrap(cls.__dict__[method], span,
                                                 self._observers.get(span)))
            self._live.add(span)

    def install(self):
        """Import gradflow and replace every traced name that still exists."""
        for module_name in {t[0] for t in TARGETS} | {WRITERS_MODULE, POTENTIAL_FACTORY[0]}:
            try:
                importlib.import_module(module_name)
            except ImportError:
                pass
        for module_name, attribute, span in TARGETS:
            if "." in attribute:
                self._install_method(module_name, attribute, span)
            else:
                self._install_function(module_name, attribute, span)

        writers = sys.modules.get(WRITERS_MODULE)
        for name in [n for n in vars(writers) if n.startswith("write_")] if writers else []:
            self._install_function(WRITERS_MODULE, name, "artifacts.write")

        module_name, attribute = POTENTIAL_FACTORY
        factory = getattr(sys.modules.get(module_name), attribute, None)
        if factory is not None:
            self._replace_everywhere(factory, attribute, functools.wraps(factory)(
                lambda *a, **k: self._traced_potential(factory(*a, **k))))
            self._live.add("potentials")
        self.absent |= ({span for *_, span in TARGETS}
                        | {"artifacts.write", "potentials"}) - self._live

        self._replace(np.random, "Generator", self._counting(
            np.random.Generator, _GENERATOR_METHODS))
        self._replace(np.random, "Philox", self._counting(np.random.Philox, ("random_raw",)))
        return self

    def uninstall(self):
        """Put every original back, newest replacement first."""
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)
        self._installed.clear()

    def _traced_potential(self, potential):
        try:
            dim = potential.dim
            return replace(potential,
                           value=self.wrap(potential.value, "potentials.value",
                                           self._points("potentials.value", dim)),
                           grad=self.wrap(potential.grad, "potentials.grad",
                                          self._points("potentials.grad", dim)))
        except (AttributeError, TypeError):
            self.absent.add("potentials")
            return potential

    def _points(self, key, dim):
        def observe(args, kwargs, result):
            self.count(key + ".points", max(1, int(np.size(args[0])) // dim))
        return observe

    def _counting(self, base, methods):
        """Subclass of a numpy random class that counts the draws its
        ``methods`` return into ``rng.draws_generated``."""
        tracer = self

        def counted(method):
            original = getattr(base, method)

            def draw(self, *args, **kwargs):
                out = original(self, *args, **kwargs)
                if out is not None:
                    tracer.count("rng.draws_generated", int(np.size(out)))
                return out

            return draw

        return type("Counting" + base.__name__, (base,),
                    {m: counted(m) for m in methods})


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# --- arithmetic on recorded spans --------------------------------------------------


def self_times(spans) -> dict:
    """Span id -> duration minus the part of its interval that children cover.

    Overlapping children (worker threads) are merged before subtracting,
    so covered time is never counted twice.
    """
    children = {}
    for sid, _, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, start, end, _ in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sid] = (end - start) - covered
    return out


def step_growth(durations) -> float:
    """Median duration of the last tenth over that of the first tenth."""
    if not durations:
        return 0.0
    k = max(1, len(durations) // 10)
    first = statistics.median(durations[:k])
    return statistics.median(durations[-k:]) / first if first > 0 else 0.0


def layer_metrics(trace: dict, overhead_ratio: float, mass_drift: float):
    """Per-layer metrics of one traced run and the names that are absent.

    ``trace`` is what :func:`main` writes: spans, counters, absent names.
    A layer that did no work on this workload reports 0, ratios included.
    """
    spans = [tuple(s) for s in trace["spans"]]
    counters = trace["counters"]
    own = self_times(spans)
    calls, self_s, durations = {}, {}, {}
    for sid, name, start, end, _ in sorted(spans, key=lambda s: s[2]):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[sid]
        durations.setdefault(name, []).append(end - start)

    def ratio(num, den):
        return num / den if den else 0.0

    c = counters.get
    values = {
        "rng.uniform_rows.calls": calls.get("rng.uniform_rows", 0),
        "rng.uniform_rows.self_s": self_s.get("rng.uniform_rows", 0.0),
        "rng.draws_used": c("rng.draws_used", 0),
        "rng.draws_generated": c("rng.draws_generated", 0),
        "rng.useful_ratio": ratio(c("rng.draws_used", 0), c("rng.draws_generated", 0)),
        "rng.ndtri.calls": calls.get("rng.ndtri", 0),
        "rng.ndtri.self_s": self_s.get("rng.ndtri", 0.0),
        "sample.run_sampler.calls": calls.get("sample.run_sampler", 0),
        "sample.run_sampler.self_s": self_s.get("sample.run_sampler", 0.0),
        "sample.bdl_step.self_s": self_s.get("sample.bdl_step", 0.0),
        "sample.particle_steps": c("sample.particle_steps", 0),
        "sample.accept_ratio": ratio(c("sample.n_accepted", 0), c("sample.n_moves", 0)),
        "density.histogram.calls": calls.get("density.histogram", 0),
        "density.histogram.self_s": self_s.get("density.histogram", 0.0),
        "density.n_outside": c("density.n_outside", 0),
        "density.metrics.self_s": self_s.get("density.metrics", 0.0),
        "density.kde.self_s": self_s.get("density.kde", 0.0),
        "fpe.steps": calls.get("fpe.step", 0),
        "fpe.step.self_s": self_s.get("fpe.step", 0.0),
        "fpe.kernel.calls": calls.get("fpe.kernel", 0),
        "fpe.kernel.self_s": self_s.get("fpe.kernel", 0.0),
        "fpe.step_growth": step_growth(durations.get("fpe.step", [])),
        "fpe.dt_ratio": ratio(ratio(c("fpe.dt_sum", 0.0), calls.get("fpe.step", 0)),
                              c("fpe.max_stable_dt", 0.0)),
        "fpe.mass_drift": mass_drift,
        "runner.self_s": self_s.get("runner", 0.0),
        "runner.wall_s": sum(durations.get("runner", [])),
        "artifacts.write.calls": calls.get("artifacts.write", 0),
        "artifacts.write.self_s": self_s.get("artifacts.write", 0.0),
        "artifacts.bytes": c("artifacts.bytes", 0),
        "config.parse.self_s": self_s.get("config.parse", 0.0),
        "trace.overhead_ratio": overhead_ratio,
    }
    for op in ("grad", "value"):
        key = f"potentials.{op}"
        values[f"{key}.calls"] = calls.get(key, 0)
        values[f"{key}.points"] = c(f"{key}.points", 0)
        values[f"{key}.self_s"] = self_s.get(key, 0.0)

    missing = set(trace["absent"])
    absent = sorted(m for m, (_, _, needs) in PER_LAYER.items()
                    if any(n in missing for n in needs))
    return {m: values[m] for m in PER_LAYER if m not in absent}, absent


def main(argv) -> int:
    config, out_root, spans_path = argv
    tracer = Tracer().install()
    try:
        code = sys.modules["gradflow.cli"].main(["run", config, "--out-root", out_root])
    finally:
        tracer.uninstall()
    with open(spans_path, "w") as fh:
        json.dump({"spans": tracer.spans, "counters": tracer.counters,
                   "absent": sorted(tracer.absent)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
