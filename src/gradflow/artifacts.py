"""CSV and key-value artifact serialization.

Reals are written with 17 significant digits so 64-bit floats round-trip
exactly and repeated runs produce byte-identical files.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Sequence

import numpy as np

from .density import Grid1D, GridDensity
from .fpe import DecayReport
from .optimize import ConvergenceReport, Trajectory
from .sample import ChainStats, SampleRun

__all__ = [
    "format_real",
    "write_trajectory_csv",
    "write_samples_csv",
    "write_density_csv",
    "read_density_csv",
    "read_samples_csv",
    "write_chain_stats",
    "write_decay_report",
    "write_rates_report",
    "write_metrics_csv",
]


def format_real(x: float) -> str:
    return f"{float(x):.17g}"


def _open_writer(path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path.open("w", newline="")


def write_trajectory_csv(path, traj: Trajectory) -> None:
    """Columns: step, time, theta_0..theta_{d-1}, energy, grad_norm."""
    dim = traj.states.shape[1]
    with _open_writer(path) as fh:
        w = csv.writer(fh)
        w.writerow(["step", "time"] + [f"theta_{i}" for i in range(dim)]
                   + ["energy", "grad_norm"])
        for k in range(len(traj.times)):
            w.writerow([k, format_real(traj.times[k])]
                       + [format_real(v) for v in traj.states[k]]
                       + [format_real(traj.energies[k]),
                          format_real(traj.grad_norms[k])])


def write_samples_csv(path, run: SampleRun) -> None:
    """Columns: step, time, particle, theta_0..theta_{d-1}."""
    dim = run.states.shape[2]
    with _open_writer(path) as fh:
        w = csv.writer(fh)
        w.writerow(["step", "time", "particle"] + [f"theta_{i}" for i in range(dim)])
        for snap in range(len(run.times)):
            t = format_real(run.times[snap])
            step = int(run.steps[snap])
            for j in range(run.states.shape[1]):
                w.writerow([step, t, j]
                           + [format_real(v) for v in run.states[snap, j]])


def write_density_csv(path, dens: GridDensity) -> None:
    """Columns: x, value."""
    xs = dens.grid.centers()
    with _open_writer(path) as fh:
        w = csv.writer(fh)
        w.writerow(["x", "value"])
        for x, v in zip(xs, dens.values):
            w.writerow([format_real(x), format_real(v)])


def read_density_csv(path) -> GridDensity:
    """Rebuild a GridDensity; the grid is inferred from the x column."""
    with Path(path).open() as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:2] != ["x", "value"]:
            raise ValueError(f"{path}: not a density CSV (header {header})")
        xs, vals = [], []
        for row in reader:
            xs.append(float(row[0]))
            vals.append(float(row[1]))
    xs = np.asarray(xs)
    if xs.size < 2:
        raise ValueError(f"{path}: need at least two grid cells")
    dx = xs[1] - xs[0]
    if not np.allclose(np.diff(xs), dx, rtol=1e-9, atol=0):
        raise ValueError(f"{path}: grid spacing is not uniform")
    grid = Grid1D(x0=float(xs[0]), dx=float(dx), n=xs.size)
    return GridDensity(grid=grid, values=np.asarray(vals))


def read_samples_csv(path):
    """Rows of a samples CSV as (steps, thetas) arrays; thetas is (rows, dim)."""
    with Path(path).open() as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:3] != ["step", "time", "particle"]:
            raise ValueError(f"{path}: not a samples CSV (header {header})")
        steps, thetas = [], []
        for row in reader:
            steps.append(int(row[0]))
            thetas.append([float(v) for v in row[3:]])
    return np.asarray(steps), np.asarray(thetas)


def write_chain_stats(path, stats: ChainStats) -> None:
    """Flat key-value text block."""
    with _open_writer(path) as fh:
        fh.write(f"n_steps {stats.n_steps}\n")
        fh.write(f"n_moves {stats.n_moves}\n")
        fh.write(f"n_accepted {stats.n_accepted}\n")
        fh.write(f"acceptance_rate {format_real(stats.acceptance_rate)}\n")
        for i, m in enumerate(np.atleast_1d(stats.mean)):
            fh.write(f"mean_{i} {format_real(m)}\n")
        cov = np.atleast_2d(stats.cov)
        for i in range(cov.shape[0]):
            for j in range(cov.shape[1]):
                fh.write(f"cov_{i}_{j} {format_real(cov[i, j])}\n")


def write_decay_report(path, report: DecayReport) -> None:
    """Columns: time, l2_pi_inv, kl, envelope_l2, envelope_kl."""
    with _open_writer(path) as fh:
        w = csv.writer(fh)
        w.writerow(["time", "l2_pi_inv", "kl", "envelope_l2", "envelope_kl"])
        for row in report.rows():
            w.writerow([format_real(v) for v in row])


def write_rates_report(path, report: ConvergenceReport) -> None:
    """Flat key-value text block of a ``verify_rates`` report."""
    with _open_writer(path) as fh:
        fh.write(f"fitted_rate {format_real(report.fitted_rate)}\n")
        fh.write(f"dissipation_violations {report.dissipation_violations}\n")
        fh.write(f"rate_bound_satisfied {report.rate_bound_satisfied}\n")
        fh.write(f"bound_applicable {report.details['bound_applicable']}\n")


def write_metrics_csv(path, rows: Sequence[dict]) -> None:
    """Columns: time, metric, value; one row per computed discrepancy."""
    with _open_writer(path) as fh:
        w = csv.writer(fh)
        w.writerow(["time", "metric", "value"])
        for row in rows:
            w.writerow([format_real(row["time"]), row["metric"],
                        format_real(row["value"])])
