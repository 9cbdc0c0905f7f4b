"""Correctness checks that do not depend on the gradflow version.

Each factory returns a check: a callable that takes a run's output
directory and returns ``None`` when the check holds, or a one-line
message saying what failed.  The checks read only the artifact files and
recompute their references with numpy, so a later change to gradflow's
own density or solver code cannot make a wrong run look right.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

MANIFEST = "manifest.json"


def artifact_digests(out_dir: Path) -> dict:
    """sha256 of every data artifact under ``out_dir``, keyed by relative path.

    The manifest is left out: it carries the run's wall time.
    """
    digests = {}
    for path in sorted(out_dir.rglob("*")):
        if path.is_file() and path.name != MANIFEST:
            digests[str(path.relative_to(out_dir))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return digests


def grid_centers(lo: float, hi: float, n: int) -> np.ndarray:
    dx = (hi - lo) / n
    return lo + (np.arange(n) + 0.5) * dx


def read_density(path: Path, centers: np.ndarray) -> np.ndarray:
    """Values of a ``x,value`` density CSV, after checking its grid."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (centers.size, 2) or not np.allclose(data[:, 0], centers,
                                                          rtol=0, atol=1e-9):
        raise ValueError(f"{path.name}: grid does not match the workload's grid")
    return data[:, 1]


def _normalized(weights: np.ndarray, dx: float) -> np.ndarray:
    return weights / (weights.sum() * dx)


def gibbs_tv(path: str, energy, grid: tuple, tol: float):
    """TV between the density in ``path`` and the discrete Gibbs density
    exp(-V)/Z of ``energy`` V on the same cell centres is below ``tol``."""
    centers = grid_centers(*grid)
    dx = centers[1] - centers[0]
    v = energy(centers)
    target = _normalized(np.exp(-(v - v.min())), dx)

    def check(out_dir: Path):
        tv = 0.5 * np.abs(read_density(out_dir / path, centers) - target).sum() * dx
        if not tv < tol:
            return f"{path}: TV to exp(-V)/Z is {tv:.4g} (tolerance {tol:g})"
        return None

    return check


def unit_mass(path: str, grid: tuple, tol: float):
    """The density in ``path`` has mass 1 within ``tol``."""

    def check(out_dir: Path):
        drift = density_mass_drift(out_dir / path, grid)
        if not drift < tol:
            return f"{path}: mass differs from 1 by {drift:.3g} (tolerance {tol:g})"
        return None

    return check


def final_snapshot(path: Path, particles: int) -> np.ndarray:
    """Coordinates of the last recorded step of a samples CSV, (J, dim)."""
    with path.open() as fh:
        lines = fh.readlines()[-particles:]
    rows = np.array([line.split(",") for line in lines], dtype=float)
    if rows.shape[0] != particles or np.unique(rows[:, 0]).size != 1:
        raise ValueError(f"{path.name}: last {particles} rows are not one snapshot")
    return rows[:, 3:]


def coordinate_variance(path: str, coeffs, particles: int, rtol: float):
    """Per-coordinate variance of the final snapshot is within ``rtol`` of
    the exact 1/(2 a_i) of V = sum a_i x_i^2."""
    exact = 1.0 / (2.0 * np.asarray(coeffs, dtype=float))

    def check(out_dir: Path):
        snap = final_snapshot(out_dir / path, particles)
        if snap.shape[1] != exact.size:
            return f"{path}: {snap.shape[1]} coordinates, expected {exact.size}"
        rel = np.abs(snap.var(axis=0, ddof=1) / exact - 1.0)
        worst = int(np.argmax(rel))
        if not rel[worst] < rtol:
            return (f"{path}: variance of coordinate {worst} is off by "
                    f"{rel[worst]:.2%} of 1/(2 a_i) (tolerance {rtol:.0%})")
        return None

    return check


def density_mass_drift(path: Path, grid: tuple) -> float:
    """|mass - 1| of a density artifact; the FPE's conservation error."""
    centers = grid_centers(*grid)
    return abs(float(read_density(path, centers).sum() * (centers[1] - centers[0])) - 1.0)
