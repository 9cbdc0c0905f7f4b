"""Experiment execution: wire a config to potentials, methods, and artifacts.

One process runs one experiment.  All randomness flows through the seeded
address-seeded stream, so rerunning a config reproduces every data
artifact byte for byte; only the manifest's wall time differs.  The
config is taken as ``parse_config`` accepted it, and nothing decided
there is re-derived here: the run uses its ``potential``, its time plan
(``metric_times()``, ``step_at()``) says when each family reports, and
it writes exactly its file plan ``files()``, in that order.  A sampler
config is one ``run_sampler`` call that records every output time's step.
"""

from __future__ import annotations

import json
import os
import time as _time
from pathlib import Path

import numpy as np

from . import __version__
from .artifacts import (read_density_csv, read_samples_csv, write_chain_stats,
                        write_decay_report, write_density_csv, write_metrics_csv,
                        write_rates_report, write_samples_csv, write_trajectory_csv)
from .config import ExperimentConfig, config_to_dict, with_overrides
from .density import (Grid1D, GridDensity, gibbs_density, histogram, kl_divergence,
                      l2_pi_inv_norm, normalize, tv_distance)
from .errors import ConfigError, GradflowError
from .fpe import FokkerPlanckSolver1D, FpeState, bdl_fpe_step, decay_report, fpe_step, weighted_fpe_step
from .optimize import (PreconditionerField, bfgs_stepper, gradient_stepper,
                       implicit_stepper, mirror_stepper, negative_entropy_mirror_map,
                       preconditioned_stepper, quadratic_mirror_map, run_flow,
                       verify_rates)
# from_identifier is bound here only for perfbench/tracer.py, which traces it by this name
from .potentials import from_identifier
from .rng import RNG_LAYOUT, RngStream
from .sample import Ensemble, SampleRun, run_sampler

__all__ = ["run_experiment", "compare_files", "AssertionFailure"]


class AssertionFailure(GradflowError):
    """A config-declared assertion did not hold."""


def _resolve(path: str, out_root: Path) -> Path:
    p = Path(path)
    return p if p.is_absolute() else out_root / p


def run_experiment(cfg: ExperimentConfig, out_root=None, seed_override=None,
                   workers_override=None) -> dict:
    """Run a config as ``parse_config`` returned it; write its declared artifacts.

    Returns the manifest mapping (also written to the configured manifest
    path).  Raises ConfigError, before any work, for an override that its
    key refuses or two files that resolve to one under ``out_root``;
    AssertionFailure when a declared assertion fails; and GradflowError
    subclasses for runtime problems.
    """
    started = _time.perf_counter()
    out_root = Path(os.environ.get("GRADFLOW_OUT", ".") if out_root is None else out_root)
    cfg = with_overrides(cfg, seed=seed_override, workers=workers_override)

    files = cfg.files()
    written = {}  # each file the run writes -> the config's paths that name it
    for path in [cfg.manifest] + [path for _, path, _ in files]:
        written.setdefault(_resolve(path, out_root).resolve(), []).append(repr(path))
    clashes = [f"paths {' and '.join(paths)} name one file, {target}"
               for target, paths in written.items() if len(paths) > 1]
    if clashes:
        raise ConfigError(clashes)

    run_family = {"deterministic": _run_deterministic, "stochastic": _run_stochastic,
                  "grid": _run_grid}[cfg.family]
    # products: output kind -> (writer, label -> payload)
    products, endpoints, densities, target = run_family(cfg, cfg.potential)
    metrics_rows = [row for t, dens in densities.items()
                    for row in _metric_rows(t, dens, target)]
    products["metrics"] = (write_metrics_csv, lambda _: metrics_rows)

    artifacts = []
    for spec, path, label in files:
        writer, payload = products[spec.kind]
        artifacts.append(_resolve(path, out_root))
        writer(artifacts[-1], payload(label))

    _check_assertions(cfg, metrics_rows, endpoints)

    manifest = {
        "config": config_to_dict(cfg),
        "seed": cfg.seed,
        "version": __version__,
        "rng_layout": RNG_LAYOUT,
        "wall_time_s": _time.perf_counter() - started,
        "artifacts": [str(a) for a in artifacts],
    }
    manifest_path = _resolve(cfg.manifest, out_root)
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest


# --- deterministic flows ------------------------------------------------------

def _make_stepper(cfg: ExperimentConfig, potential):
    if cfg.method == "gd":
        return gradient_stepper(cfg.tau)
    if cfg.method == "gd_implicit":
        return implicit_stepper(cfg.tau)
    if cfg.method == "newton":
        return preconditioned_stepper(PreconditionerField.hessian_of(potential), cfg.tau)
    if cfg.method == "bfgs":
        return bfgs_stepper(cfg.tau)
    mmap = (quadratic_mirror_map() if cfg.mirror_map == "quadratic"
            else negative_entropy_mirror_map())
    return mirror_stepper(mmap, cfg.tau)


def _run_deterministic(cfg, potential):
    stepper = _make_stepper(cfg, potential)
    trajectories = [run_flow(potential, stepper, start, cfg.n_steps(), cfg.tau)
                    for start in cfg.init]
    products = {"trajectory": (write_trajectory_csv, trajectories.__getitem__),
                "rates": (write_rates_report,
                          lambda i: verify_rates(trajectories[i], potential))}
    return products, [t.final_state for t in trajectories], {}, None


# --- stochastic samplers ------------------------------------------------------

def _gaussian_law(spec):
    """The mean vector and covariance matrix of a gaussian init."""
    mean = np.asarray(spec["mean"], dtype=float)
    return mean, (spec["var"] * np.eye(mean.size) if "var" in spec
                  else np.asarray(spec["cov"], dtype=float))


def _initial_ensemble(cfg) -> Ensemble:
    rng = RngStream(cfg.seed)
    spec = cfg.init
    j = cfg.particles
    if isinstance(spec, list):  # a list of points, placed as kind: points
        return Ensemble.at_points(rng, j, spec)
    if spec["kind"] == "points":
        return Ensemble.at_points(rng, j, spec["points"])
    return Ensemble.gaussian(rng, j, *_gaussian_law(spec))


def _run_stochastic(cfg, potential):
    n_steps, step = cfg.n_steps(), cfg.step_at
    metric_times = cfg.metric_times()
    record = {0, n_steps, *map(step, metric_times)}
    if any(spec.kind == "samples" for spec in cfg.outputs):
        record.update(range(0, n_steps + 1, cfg.thin))
    run = run_sampler(cfg.method, potential, _initial_ensemble(cfg), cfg.tau, n_steps,
                      record=record, ridge=cfg.ridge, bandwidth=cfg.bandwidth)
    states = dict(zip(run.steps.tolist(), run.states))

    grid = Grid1D.from_bounds(**cfg.grid) if cfg.grid else None
    # one histogram per step, shared by the metrics and the histogram outputs
    hists = {step(t): histogram(states[step(t)][:, 0], grid) for t in metric_times}
    target = gibbs_density(potential, grid) if hists else None

    def thinned(_):
        keep = (run.steps % cfg.thin == 0) | (run.steps == n_steps)
        return SampleRun(times=run.times[keep], steps=run.steps[keep],
                         states=run.states[keep], stats=run.stats)

    products = {"samples": (write_samples_csv, thinned),
                "histogram": (write_density_csv, lambda t: hists[step(t)]),
                "stats": (write_chain_stats, lambda _: run.stats)}
    return products, [], {t: hists[step(t)] for t in metric_times}, target


def _metric_rows(t, dens, target):
    values = {"tv": tv_distance(dens, target), "kl": kl_divergence(dens, target)}
    try:
        values["l2pinv"] = l2_pi_inv_norm(dens, target)
    except ValueError:
        values["l2pinv"] = float("nan")
    return [{"time": t, "metric": metric, "value": v} for metric, v in values.items()]


# --- grid solves ---------------------------------------------------------------

def _initial_grid_density(cfg, solver: FokkerPlanckSolver1D) -> GridDensity:
    if cfg.init["kind"] == "gibbs":
        return solver.target()
    mean, cov = _gaussian_law(cfg.init)
    x = solver.grid.centers()
    return normalize(np.exp(-((x - mean[0]) ** 2) / (2.0 * cov[0, 0])), solver.grid)


def _run_grid(cfg, potential):
    grid = Grid1D.from_bounds(**cfg.grid)
    solver = FokkerPlanckSolver1D(potential, grid)
    state = FpeState(density=_initial_grid_density(cfg, solver), time=0.0, solver=solver)

    step_fn = {"fpe": fpe_step, "fpe_weighted": weighted_fpe_step,
               "fpe_bdl": bdl_fpe_step}[cfg.method]

    out_times = cfg.metric_times()

    snapshots = {0.0: state}
    for t_target in out_times:
        while state.time < t_target - 1e-12:
            mobility, extra = 1.0, {}
            if cfg.method == "fpe_weighted":
                # one variance pass bounds dt and sets the step's mobility
                var = state.density.variance()
                mobility, extra = max(var, 1e-12), {"variance": var}
            dt = min(cfg.tau, solver.max_stable_dt(mobility), t_target - state.time)
            state = step_fn(state, dt, **extra)
        snapshots[t_target] = state

    target = solver.target()
    # the start, then each output time after it: 0.0 keeps its first place
    products = {"density": (write_density_csv, lambda t: snapshots[t].density),
                "rates": (write_decay_report, lambda _: decay_report(
                    list(snapshots.values()), target, potential.alpha))}
    return products, [], {t: snapshots[t].density for t in out_times}, target


# --- assertions ----------------------------------------------------------------

def _check_assertions(cfg, metrics_rows, endpoint_states):
    # metric -> {time: value}, in time order; parsing has given metric_monotone
    # two or more times and each metric_max time a nearest metric time: itself,
    # or for a sampler the one time of its step
    series = {}
    for row in metrics_rows:
        series.setdefault(row["metric"], {})[row["time"]] = row["value"]
    for a in cfg.assertions:
        if a.check == "endpoint_near":
            point = np.asarray(a.params["point"], dtype=float)
            tol = a.params["tol"]
            for state in endpoint_states:
                dist = float(np.linalg.norm(state - point))
                if dist > tol:
                    raise AssertionFailure(
                        f"endpoint {state} is {dist:.3e} from {point} (tol {tol:g})")
        elif a.check == "metric_max":
            want_t, limit = a.params["time"], a.params["max"]
            metric = a.params["metric"]
            value = series[metric][min(series[metric], key=lambda t: abs(t - want_t))]
            if value > limit:
                raise AssertionFailure(
                    f"{metric} at t={want_t:g} is {value:.6g} > {limit:g}")
        else:  # metric_monotone
            values = list(series[a.params["metric"]].values())
            for earlier, later in zip(values[:-1], values[1:]):
                if later > earlier + 1e-12:
                    raise AssertionFailure(
                        f"{a.params['metric']} increased from {earlier:.6g} "
                        f"to {later:.6g}")


# --- file comparison -------------------------------------------------------------

def compare_files(path_a, path_b, metric: str) -> float:
    """Metric between two artifact files.

    ``tv``, ``kl``, ``l2pinv`` expect density CSVs on a common grid;
    ``w2`` expects 1-D samples CSVs (one ``theta`` column; more raise
    ``ValueError``) and compares the final recorded step of each.
    """
    if metric in ("tv", "kl", "l2pinv"):
        a = read_density_csv(path_a)
        b = read_density_csv(path_b)
        if metric == "tv":
            return tv_distance(a, b)
        if metric == "kl":
            return kl_divergence(a, b)
        return l2_pi_inv_norm(a, b)
    if metric == "w2":
        from .density import wasserstein1d
        sa, ta = read_samples_csv(path_a)
        sb, tb = read_samples_csv(path_b)
        for path, thetas in ((path_a, ta), (path_b, tb)):
            if thetas.shape[1] != 1:
                raise ValueError(f"{path}: w2 compares 1-D samples, this file "
                                 f"has {thetas.shape[1]} theta columns")
        return wasserstein1d(ta[sa == sa.max(), 0], tb[sb == sb.max(), 0])
    raise ValueError(f"unknown metric {metric!r} (choose tv, kl, l2pinv, w2)")
