"""The gradflow names that ``perfbench/tracer.py`` wraps must exist.

The tracer skips a name it cannot find and reports the metrics that need
it as absent, so a rename in gradflow would otherwise only show up as
missing benchmark metrics.  The tracer module is loaded read-only: these
tests check its name tables and never install it.
"""

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

import gradflow.runner
import gradflow.sample
from gradflow.config import parse_config
from gradflow.potentials import make_quadratic
from gradflow.rng import RngStream
from gradflow.runner import run_experiment
from gradflow.sample import Ensemble, run_sampler

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()


def test_every_traced_target_resolves():
    missing = []
    for module_name, attribute, _ in TRACER.TARGETS:
        module = importlib.import_module(module_name)
        if "." in attribute:
            cls_name, method = attribute.split(".")
            # the tracer replaces a method only where the class defines it
            if method not in vars(getattr(module, cls_name, object)):
                missing.append(f"{module_name}.{attribute}")
        elif not callable(getattr(module, attribute, None)):
            missing.append(f"{module_name}.{attribute}")
    assert missing == []


def test_writers_module_binds_a_writer():
    module = importlib.import_module(TRACER.WRITERS_MODULE)
    assert [name for name in vars(module) if name.startswith("write_")]


def test_potential_factory_resolves():
    module_name, attribute = TRACER.POTENTIAL_FACTORY
    assert callable(getattr(importlib.import_module(module_name), attribute, None))


def test_runs_call_the_traced_steps_by_their_module_names(monkeypatch, tmp_path):
    # a wrapper bound to the traced name sees every step, and the state it
    # is handed exposes the stability bound the tracer reads
    calls = {"bdl": 0, "fpe": []}
    bdl_step, fpe_step = gradflow.sample.bdl_step, gradflow.runner.fpe_step

    def counted_bdl(*args, **kwargs):
        calls["bdl"] += 1
        return bdl_step(*args, **kwargs)

    def counted_fpe(state, dt):
        calls["fpe"].append(state.solver.max_stable_dt())
        return fpe_step(state, dt)

    monkeypatch.setattr(gradflow.sample, "bdl_step", counted_bdl)
    monkeypatch.setattr(gradflow.runner, "fpe_step", counted_fpe)
    ens = Ensemble.gaussian(RngStream(2), 20, [0.0], [[1.0]])
    run_sampler("bdl", make_quadratic([0.5]), ens, 0.05, 3)
    run_experiment(parse_config("problem: quadratic:0.5\nmethod: fpe\ntau: 0.001\n"
                                "time: 0.01\ngrid: {lo: -4.0, hi: 4.0, n: 41}\n"
                                "init: {kind: gaussian, mean: 0.0, var: 1.0}\n"),
                   out_root=tmp_path)
    assert calls["bdl"] == 3
    assert len(calls["fpe"]) == 10
    assert np.all(np.array(calls["fpe"]) > 0.0)


def test_a_run_evaluates_the_potential_the_traced_factory_builds(monkeypatch, tmp_path):
    # the tracer binds its wrapper of the factory in every gradflow module
    # that binds the factory, and counts the value and grad calls of each
    # potential the wrapper returns; a run must evaluate that potential
    module_name, attribute = TRACER.POTENTIAL_FACTORY
    factory = getattr(importlib.import_module(module_name), attribute)
    calls = {"value": 0, "grad": 0}

    def counted(fn, key):
        def call(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return call

    def traced_factory(*args, **kwargs):
        p = factory(*args, **kwargs)
        return dataclasses.replace(p, value=counted(p.value, "value"),
                                   grad=counted(p.grad, "grad"))

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "gradflow" and vars(module).get(attribute) is factory:
            monkeypatch.setattr(module, attribute, traced_factory)
    run_experiment(parse_config("problem: quadratic:0.5\nmethod: mala\ntau: 0.1\n"
                                "steps: 5\nseed: 3\nparticles: 50\n"
                                "init: {kind: gaussian, mean: 0.0, var: 1.0}\n"
                                "outputs:\n  - {kind: stats, path: stats.txt}\n"),
                   out_root=tmp_path)
    assert calls["value"] > 0 and calls["grad"] > 0
