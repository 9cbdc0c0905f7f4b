"""Tests of the benchmark itself: span arithmetic, tracing, generator, gates.

    python3 -m pytest perfbench/tests -q
"""

import sys

import numpy as np
import pytest

import checks
import tracer
from workloads import WORKLOADS

import gradflow.cli
from gradflow.config import parse_config

SMALL_ULA = """\
problem: double_well
method: ula
tau: 0.01
steps: 20
seed: 3
particles: 500
init: {kind: points, points: [[-1.0], [1.0]]}
grid: {lo: -3.0, hi: 3.0, n: 30}
outputs:
  - {kind: histogram, path: "hist_t{t}.csv", times: [0.1, 0.2]}
  - {kind: metrics, path: metrics.csv, times: [0.1, 0.2]}
"""

SMALL_FPE = """\
problem: quadratic:0.5
method: fpe
tau: 0.01
time: 0.2
init: {kind: gaussian, mean: [0.0], var: 2.0}
grid: {lo: -6.0, hi: 6.0, n: 60}
outputs:
  - {kind: density, path: "density_t{t}.csv", times: [0.1, 0.2]}
  - {kind: rates, path: rates.csv}
"""

SMALL_MALA = """\
problem: quadratic:0.5,2.0
method: mala
tau: 0.05
steps: 6
seed: 9
particles: 300
workers: 2
thin: 3
init: {kind: gaussian, mean: [0.0, 0.0], var: 0.5}
outputs:
  - {kind: samples, path: samples.csv}
  - {kind: stats, path: stats.txt}
"""


def _run(tmp_path, text, label):
    config = tmp_path / f"{label}.yaml"
    config.write_text(text)
    out = tmp_path / label
    code = gradflow.cli.main(["run", str(config), "--out-root", str(out)])
    assert code == 0
    return checks.artifact_digests(out)


def _traced_run(tmp_path, text, label):
    t = tracer.Tracer().install()
    try:
        digests = _run(tmp_path, text, label)
    finally:
        t.uninstall()
    return t, digests


def _bindings():
    """Every attribute of every gradflow module and traced class, by identity."""
    out = {}
    for name, module in sys.modules.items():
        if name == "gradflow" or name.startswith("gradflow."):
            out.update({(name, k): id(v) for k, v in vars(module).items()})
    from gradflow.fpe import FokkerPlanckSolver1D
    from gradflow.rng import RngStream
    for cls in (FokkerPlanckSolver1D, RngStream):
        out.update({(cls.__name__, k): id(v) for k, v in vars(cls).items()})
    out[("numpy.random", "Generator")] = id(np.random.Generator)
    out[("numpy.random", "Philox")] = id(np.random.Philox)
    return out


# --- self-time arithmetic -------------------------------------------------------------

def test_self_time_subtracts_the_union_of_children():
    spans = [
        (0, "root", 0.0, 10.0, None),
        (1, "a", 1.0, 4.0, 0),
        (2, "b", 3.0, 6.0, 0),      # overlaps a, as a worker thread would
        (3, "leaf", 2.0, 3.0, 1),
        (4, "c", 9.0, 12.0, 0),     # runs past its parent's end: clipped
    ]
    own = tracer.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(3.0)


def test_layer_metrics_sum_self_time_per_name():
    trace = {"spans": [(0, "runner", 0.0, 10.0, None),
                       (1, "fpe.step", 1.0, 2.0, 0),
                       (2, "fpe.kernel", 1.2, 1.7, 1),
                       (3, "fpe.step", 2.0, 4.0, 0),
                       (4, "fpe.kernel", 2.5, 3.0, 3)],
             "counters": {"fpe.dt_sum": 0.3, "fpe.max_stable_dt": 0.2},
             "absent": []}
    metrics, absent = tracer.layer_metrics(trace, 1.1, 0.0)
    assert absent == []
    assert set(metrics) == set(tracer.PER_LAYER)
    assert metrics["runner.self_s"] == pytest.approx(7.0)
    assert metrics["runner.wall_s"] == pytest.approx(10.0)
    assert metrics["fpe.steps"] == 2
    assert metrics["fpe.step.self_s"] == pytest.approx(2.0)
    assert metrics["fpe.kernel.self_s"] == pytest.approx(1.0)
    assert metrics["fpe.step_growth"] == pytest.approx(2.0)
    assert metrics["fpe.dt_ratio"] == pytest.approx(0.75)
    assert metrics["rng.useful_ratio"] == 0.0     # no work: 0, not a division error
    assert metrics["trace.overhead_ratio"] == 1.1


def test_step_growth_compares_last_tenth_with_first():
    assert tracer.step_growth([1.0] * 10 + [2.0] * 80 + [3.0] * 10) == pytest.approx(3.0)
    assert tracer.step_growth([]) == 0.0


# --- wrappers -------------------------------------------------------------------------

@pytest.mark.parametrize("label,text", [("ula", SMALL_ULA), ("fpe", SMALL_FPE),
                                        ("mala", SMALL_MALA)])
def test_wrappers_leave_artifacts_unchanged_and_restore_originals(tmp_path, label, text):
    plain = _run(tmp_path, text, label + "_plain")
    before = _bindings()
    t, traced = _traced_run(tmp_path, text, label + "_traced")
    assert traced == plain
    assert _bindings() == before
    assert t.spans and not t.absent


def test_traced_counts_on_a_small_ula_run(tmp_path):
    t, _ = _traced_run(tmp_path, SMALL_ULA, "ula")
    metrics, absent = tracer.layer_metrics(
        {"spans": t.spans, "counters": t.counters, "absent": sorted(t.absent)}, 1.0, 0.0)
    assert absent == []
    assert metrics["rng.uniform_rows.calls"] == 20
    assert metrics["rng.draws_used"] == 20 * 500
    assert metrics["rng.useful_ratio"] == 0.25   # width 1 padded to 4 doubles a row
    assert metrics["sample.particle_steps"] == 20 * 500
    assert metrics["sample.run_sampler.calls"] == 2
    assert metrics["density.histogram.calls"] == 4
    assert metrics["artifacts.write.calls"] == 3
    assert metrics["runner.self_s"] > 0


def test_worker_thread_spans_are_children_of_the_waiting_span(tmp_path):
    t, _ = _traced_run(tmp_path, SMALL_MALA, "mala")
    names = {sid: name for sid, name, *_ in t.spans}
    parents = {names[p] for _, name, _, _, p in t.spans if name == "rng.uniform_rows"}
    assert parents <= {"sample.run_sampler", "runner"}


def test_missing_name_yields_absent_metrics(tmp_path, monkeypatch):
    import gradflow.runner
    import gradflow.sample
    monkeypatch.delattr(gradflow.runner, "histogram")
    monkeypatch.delattr(gradflow.runner, "run_sampler")
    monkeypatch.delattr(gradflow.sample, "ndtri")   # still bound in gradflow.rng
    t = tracer.Tracer().install()
    t.uninstall()
    metrics, absent = tracer.layer_metrics(
        {"spans": [], "counters": {}, "absent": sorted(t.absent)}, 1.0, 0.0)
    assert set(absent) == {"density.histogram.calls", "density.histogram.self_s",
                           "density.n_outside", "sample.run_sampler.calls",
                           "sample.run_sampler.self_s", "sample.particle_steps",
                           "sample.accept_ratio"}
    assert "rng.ndtri.calls" in metrics
    assert not set(absent) & set(metrics)
    assert set(absent) | set(metrics) == set(tracer.PER_LAYER)


# --- generator ------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_a_function_of_the_seed_alone(name):
    w = WORKLOADS[name]
    assert w.config(5) == w.config(5)
    a, b = w.config(5).splitlines(), w.config(6).splitlines()
    assert [(x, y) for x, y in zip(a, b) if x != y] == [("seed: 5", "seed: 6")]
    cfg = parse_config(w.config(5))
    assert cfg.seed == 5


# --- gates ----------------------------------------------------------------------------

def test_gibbs_tv_check_rejects_a_wrong_density(tmp_path):
    grid = (-3.0, 3.0, 30)
    x = checks.grid_centers(*grid)
    dx = x[1] - x[0]
    target = np.exp(-(0.5 * x**2))
    target /= target.sum() * dx
    flat = np.full(x.size, 1.0 / (x.size * dx))
    for label, values in (("good", target), ("flat", flat)):
        (tmp_path / f"{label}.csv").write_text(
            "x,value\n" + "".join(f"{a:.17g},{v:.17g}\n" for a, v in zip(x, values)))
    check = checks.gibbs_tv("good.csv", lambda v: 0.5 * v**2, grid, 0.01)
    assert check(tmp_path) is None
    check = checks.gibbs_tv("flat.csv", lambda v: 0.5 * v**2, grid, 0.01)
    assert "TV" in check(tmp_path)
