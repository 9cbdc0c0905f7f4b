"""CSV and key-value artifact serialization.

Reals are written with 17 significant digits so 64-bit floats round-trip
exactly and repeated runs produce byte-identical files.  CSV rows end in
CRLF, as ``csv.writer`` ends them, and are formatted a block of rows at a
time through one ``%`` row template.
"""

from __future__ import annotations

import warnings
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


# rows formatted per string by _write_rows; a whole snapshot at a time
# would hold its full text in memory at once
_BLOCK_ROWS = 2048
_REAL = "%.17g"  # the same text as format_real
_EOL = "\r\n"


def _open_writer(path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path.open("w", newline="")


def _write_rows(fh, row_template: str, *columns) -> None:
    """Write row ``i`` as ``row_template % (the i-th entry of every column)``.

    Columns are equal-length real sequences, each 1-D or 2-D (one value
    per entry, or one per entry and column).  Each block of up to
    ``_BLOCK_ROWS`` rows is copied into one float buffer and formatted by
    a single ``%`` operation; ``%d`` fields take integer-valued reals.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    columns = [c if c.ndim == 2 else c[:, None] for c in columns]
    n = len(columns[0])
    buf = np.empty((min(n, _BLOCK_ROWS), sum(c.shape[1] for c in columns)))
    for lo in range(0, n, _BLOCK_ROWS):
        rows = min(_BLOCK_ROWS, n - lo)
        at = 0
        for c in columns:
            buf[:rows, at:at + c.shape[1]] = c[lo:lo + rows]
            at += c.shape[1]
        fh.write((row_template * rows) % tuple(buf[:rows].ravel().tolist()))


def _reals(k: int) -> str:
    return ",".join([_REAL] * k)


def write_trajectory_csv(path, traj: Trajectory) -> None:
    """Columns: step, time, theta_0..theta_{d-1}, energy, grad_norm."""
    dim = traj.states.shape[1]
    with _open_writer(path) as fh:
        fh.write(",".join(["step", "time"] + [f"theta_{i}" for i in range(dim)]
                          + ["energy", "grad_norm"]) + _EOL)
        _write_rows(fh, "%d," + _reals(dim + 3) + _EOL,
                    np.arange(len(traj.times)), traj.times, traj.states,
                    traj.energies, traj.grad_norms)


def write_samples_csv(path, run: SampleRun) -> None:
    """Columns: step, time, particle, theta_0..theta_{d-1}."""
    n_particles, dim = run.states.shape[1:]
    particles = np.arange(n_particles, dtype=float)
    with _open_writer(path) as fh:
        fh.write(",".join(["step", "time", "particle"]
                          + [f"theta_{i}" for i in range(dim)]) + _EOL)
        for snap in range(len(run.times)):
            prefix = f"{int(run.steps[snap])},{format_real(run.times[snap])},"
            _write_rows(fh, prefix + "%d," + _reals(dim) + _EOL,
                        particles, run.states[snap])


def write_density_csv(path, dens: GridDensity) -> None:
    """Columns: x, value."""
    with _open_writer(path) as fh:
        fh.write("x,value" + _EOL)
        _write_rows(fh, _reals(2) + _EOL, dens.grid.centers(), dens.values)


def _read_table(path, kind: str, leading: list):
    """The (rows, columns) table of reals under a CSV artifact's header."""
    with Path(path).open() as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        if header[:len(leading)] != leading:
            raise ValueError(f"{path}: not a {kind} CSV (header {header})")
        with warnings.catch_warnings():
            # a header with no rows under it is reported below, not warned about
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(fh, delimiter=",", ndmin=2)
    if table.size == 0 or table.shape[1] != len(header):
        raise ValueError(f"{path}: expected rows of {len(header)} values "
                         "under the header")
    return table


def read_density_csv(path) -> GridDensity:
    """Rebuild a GridDensity; the grid is inferred from the x column."""
    table = _read_table(path, "density", ["x", "value"])
    xs = table[:, 0]
    if xs.size < 2:
        raise ValueError(f"{path}: need at least two grid cells")
    dx = xs[1] - xs[0]
    if not np.allclose(np.diff(xs), dx, rtol=1e-9, atol=0):
        raise ValueError(f"{path}: grid spacing is not uniform")
    grid = Grid1D(x0=float(xs[0]), dx=float(dx), n=xs.size)
    return GridDensity(grid=grid, values=table[:, 1])


def read_samples_csv(path):
    """Rows of a samples CSV as (steps, thetas) arrays; thetas is (rows, dim)."""
    table = _read_table(path, "samples", ["step", "time", "particle"])
    return table[:, 0].astype(int), table[:, 3:]


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
        fh.write("time,l2_pi_inv,kl,envelope_l2,envelope_kl" + _EOL)
        _write_rows(fh, _reals(5) + _EOL, report.rows())


def write_rates_report(path, report: ConvergenceReport) -> None:
    """Flat key-value text block of a ``verify_rates`` report."""
    with _open_writer(path) as fh:
        fh.write(f"fitted_rate {format_real(report.fitted_rate)}\n")
        fh.write(f"dissipation_violations {report.dissipation_violations}\n")
        fh.write(f"rate_bound_satisfied {report.rate_bound_satisfied}\n")
        fh.write(f"bound_applicable {report.details['bound_applicable']}\n")


def write_metrics_csv(path, rows: Sequence[dict]) -> None:
    """Columns: time, metric, value; one row per computed discrepancy."""
    row_template = f"{_REAL},%s,{_REAL}{_EOL}"
    with _open_writer(path) as fh:
        fh.write("time,metric,value" + _EOL)
        fh.write("".join([row_template % (row["time"], row["metric"], row["value"])
                          for row in rows]))
