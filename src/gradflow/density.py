"""1-D grid densities and discrepancy measures.

All quadrature is the midpoint rule on cell centers, matching the finite
volume oracle, so a density is a vector of per-length values with mass
``sum(values) * dx``.  Metrics require both densities on the same grid;
comparing particle clouds to analytic targets goes through ``histogram``
or ``kde`` so estimator bias stays explicit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import GridMismatchError

__all__ = [
    "Grid1D",
    "GridDensity",
    "check_cell_values",
    "cell_variance",
    "normalize",
    "gibbs_density",
    "histogram",
    "kde",
    "silverman_bandwidth",
    "kl_divergence",
    "tv_distance",
    "l2_pi_inv_norm",
    "vanishes",
    "underflows",
    "wasserstein1d",
    "moments",
]


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell-centered grid: centers x0 + k dx for k = 0..n-1."""

    x0: float
    dx: float
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("grid needs at least 2 cells")
        if not 0.0 < self.dx < np.inf:
            raise ValueError("dx must be positive and finite")

    @classmethod
    def from_bounds(cls, lo: float, hi: float, n: int) -> "Grid1D":
        """n cells covering [lo, hi], centers at lo + (k + 1/2) dx."""
        if hi <= lo:
            raise ValueError("need hi > lo")
        dx = (hi - lo) / n
        return cls(x0=lo + 0.5 * dx, dx=dx, n=n)

    def centers(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)

    def edges(self) -> np.ndarray:
        return self.x0 + self.dx * (np.arange(self.n + 1) - 0.5)


def check_cell_values(values: np.ndarray, grid: Grid1D) -> None:
    """Refuse cell values that are not one per cell of ``grid`` or that
    have a negative entry.  NaN passes, but a negative value beside it does
    not."""
    if values.shape != (grid.n,):
        raise ValueError("values length must match grid size")
    # min() alone would pass a negative value beside a NaN; it goes first
    # because it costs half the elementwise test, which then runs only when
    # the minimum is negative or NaN
    if not values.min() >= 0 and (values < 0).any():
        raise ValueError("density values must be nonnegative")


def cell_variance(values: np.ndarray, centers: np.ndarray, dx: float) -> float:
    """Midpoint-rule variance of cell values at ``centers``, spaced ``dx``."""
    m = float(np.sum(centers * values) * dx)
    return float(np.sum((centers - m) ** 2 * values) * dx)


@dataclass(frozen=True)
class GridDensity:
    """Nonnegative values per unit length on a grid.

    ``log_norm`` records the log of the mass divided out by ``normalize``;
    ``meta`` carries incidental counters (e.g. samples outside the grid).
    """

    grid: Grid1D
    values: np.ndarray
    log_norm: Optional[float] = None
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        check_cell_values(vals, self.grid)

    def __eq__(self, other):
        # the generated __eq__ compares ``values`` inside a tuple, which
        # raises on arrays of more than one element
        if not isinstance(other, GridDensity):
            return NotImplemented
        return (self.grid == other.grid and self.log_norm == other.log_norm
                and np.array_equal(self.values, other.values))

    def mass(self) -> float:
        return float(self.values.sum() * self.grid.dx)

    def mean(self) -> float:
        return float(np.sum(self.grid.centers() * self.values) * self.grid.dx)

    def variance(self) -> float:
        return cell_variance(self.values, self.grid.centers(), self.grid.dx)


def _check_same_grid(a: GridDensity, b: GridDensity):
    if a.grid != b.grid:
        raise GridMismatchError(f"grids differ: {a.grid} vs {b.grid}")


def normalize(values, grid: Grid1D) -> GridDensity:
    """Scale nonnegative grid values to unit midpoint-rule mass.

    Records log of the divided-out mass in ``log_norm``; idempotent up to
    rounding.  Raises on all-zero input.
    """
    vals = np.asarray(values, dtype=float)
    check_cell_values(vals, grid)
    mass = float(vals.sum() * grid.dx)
    if mass <= 0.0:
        raise ValueError("cannot normalize an all-zero density")
    return GridDensity(grid=grid, values=vals / mass, log_norm=float(np.log(mass)))


def gibbs_density(potential, grid: Grid1D) -> GridDensity:
    """Normalized exp(-V) on the grid for a 1-D potential.

    Shifts by min V before exponentiating, so steep potentials do not
    underflow; ``log_norm`` still reports log of the true unshifted mass.
    """
    if potential.dim != 1:
        raise ValueError("gibbs_density needs a 1-D potential")
    v = potential.value(grid.centers()[:, None])
    v_min = float(v.min())
    raw = np.exp(-(v - v_min))
    dens = normalize(raw, grid)
    return GridDensity(grid=grid, values=dens.values,
                       log_norm=dens.log_norm - v_min)


def histogram(samples, grid: Grid1D) -> GridDensity:
    """Bin counts over grid cells divided by (N dx).

    Samples outside the grid are excluded from the mass and counted in
    ``meta['n_outside']``, out of ``meta['n_samples']``.
    """
    s = np.asarray(samples, dtype=float).ravel()
    if s.size == 0:
        raise ValueError("histogram needs at least one sample")
    counts, _ = np.histogram(s, bins=grid.edges())
    n_outside = int(s.size - counts.sum())
    values = counts / (s.size * grid.dx)
    return GridDensity(grid=grid, values=values,
                       meta={"n_outside": n_outside, "n_samples": s.size})


def kde(samples, bandwidth, eval_points) -> np.ndarray:
    """Gaussian product-kernel density estimate averaged over samples.

    ``samples`` is (N,) or (N, 1) on the line, with ``eval_points``
    flattened to M points, or (N, d) with (M, d) ``eval_points``.
    ``bandwidth`` is a positive scalar or a per-axis (d,) array.  Returns
    the (M,) density values.  Squared distances are expanded as
    |a|^2 + |b|^2 - 2 a.b on points centered at the sample mean and then
    bandwidth-scaled (centering keeps the expansion from cancelling when
    the points sit far from the origin), clamped at 0, over blocks of
    evaluation points so the pairwise matrix stays small.
    """
    s = np.asarray(samples, dtype=float)
    if s.ndim < 2:
        s = s.reshape(-1, 1)
    n, dim = s.shape
    if n == 0:
        raise ValueError("kde needs at least one sample")
    x = np.asarray(eval_points, dtype=float)
    if dim == 1:
        x = x.reshape(-1, 1)
    if x.ndim != 2 or x.shape[1] != dim:
        raise ValueError(f"eval_points must be (M, {dim}) for (N, {dim}) samples")
    h = np.broadcast_to(np.asarray(bandwidth, dtype=float), (dim,))
    if not np.all(h > 0):
        raise ValueError("bandwidth must be positive")
    norm = 1.0 / (n * np.prod(h * np.sqrt(2.0 * np.pi)))
    center = s.mean(axis=0)
    s, x = (s - center) / h, (x - center) / h
    s_sq, x_sq = np.sum(s**2, axis=1), np.sum(x**2, axis=1)
    out = np.empty(x.shape[0])
    chunk = max(1, 4_000_000 // n)
    for lo in range(0, x.shape[0], chunk):
        d2 = x_sq[lo:lo + chunk, None] + s_sq[None, :] - 2.0 * x[lo:lo + chunk] @ s.T
        np.maximum(d2, 0.0, out=d2)
        out[lo:lo + chunk] = np.exp(-0.5 * d2).sum(axis=1)
    return norm * out


def silverman_bandwidth(samples) -> float:
    """Rule-of-thumb Gaussian bandwidth 1.06 std N^(-1/5).

    Degenerate samples (zero spread) get a relative floor and a warning:
    any density estimate built from them is meaningless.
    """
    s = np.asarray(samples, dtype=float).ravel()
    if s.size < 2:
        raise ValueError("bandwidth needs at least 2 samples")
    std = float(np.std(s, ddof=1))
    if std == 0.0:
        warnings.warn("samples have zero spread; bandwidth floored",
                      stacklevel=2)
        return 1e-3 * max(1.0, abs(float(s[0])))
    return 1.06 * std * s.size ** (-0.2)


def kl_divergence(rho: GridDensity, pi: GridDensity) -> float:
    """sum rho log(rho/pi) dx with 0 log 0 = 0; +inf where rho > 0, pi = 0."""
    _check_same_grid(rho, pi)
    r, p = rho.values, pi.values
    if np.any((r > 0) & (p == 0)):
        return np.inf
    mask = r > 0
    return float(np.sum(r[mask] * np.log(r[mask] / p[mask])) * rho.grid.dx)


def tv_distance(rho: GridDensity, pi: GridDensity) -> float:
    """Total variation 1/2 sum |rho - pi| dx."""
    _check_same_grid(rho, pi)
    return float(0.5 * np.abs(rho.values - pi.values).sum() * rho.grid.dx)


def vanishes(pi: GridDensity) -> bool:
    """Whether ``pi`` is 1e-300 or less in some cell, too small to weight by
    1/pi: ``l2_pi_inv_norm`` refuses such a reference."""
    return bool(np.any(pi.values <= 1e-300))


def underflows(pi: GridDensity) -> bool:
    """Whether ``pi`` is zero in some cell, where log pi is -inf: the grid
    oracle's reaction step refuses such a target."""
    return bool(np.any(pi.values == 0.0))


def l2_pi_inv_norm(rho: GridDensity, pi: GridDensity) -> float:
    """Weighted norm sqrt(sum (rho - pi)^2 / pi dx); needs pi > 0 on the grid."""
    _check_same_grid(rho, pi)
    if vanishes(pi):
        raise ValueError("reference density vanishes on the grid")
    diff = rho.values - pi.values
    return float(np.sqrt(np.sum(diff**2 / pi.values) * rho.grid.dx))


def wasserstein1d(samples_a, samples_b) -> float:
    """Quadratic Wasserstein distance between two 1-D sample clouds.

    Sorting realizes the optimal coupling; unequal counts are compared at
    common quantile levels.
    """
    a = np.sort(np.asarray(samples_a, dtype=float).ravel())
    b = np.sort(np.asarray(samples_b, dtype=float).ravel())
    if a.size == 0 or b.size == 0:
        raise ValueError("wasserstein1d needs nonempty samples")
    if a.size != b.size:
        m = max(a.size, b.size)
        levels = (np.arange(m) + 0.5) / m
        a = np.quantile(a, levels, method="inverted_cdf")
        b = np.quantile(b, levels, method="inverted_cdf")
    return float(np.sqrt(np.mean((a - b) ** 2)))


def moments(samples):
    """Sample mean and unbiased covariance (divisor N - 1).

    1-D input returns scalars; (N, d) input returns a (d,) mean and
    (d, d) covariance.
    """
    s = np.asarray(samples, dtype=float)
    if s.ndim == 1:
        if s.size < 2:
            raise ValueError("moments needs at least 2 samples")
        return float(s.mean()), float(s.var(ddof=1))
    if s.shape[0] < 2:
        raise ValueError("moments needs at least 2 samples")
    mean = s.mean(axis=0)
    centered = s - mean
    cov = centered.T @ centered / (s.shape[0] - 1)
    return mean, cov
