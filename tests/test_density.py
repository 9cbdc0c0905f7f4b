"""Grid densities and discrepancy measures against quadrature/Monte-Carlo oracles."""

import numpy as np
import pytest
from scipy.stats import norm

from gradflow.density import (Grid1D, GridDensity, gibbs_density, histogram,
                              kde, kl_divergence, l2_pi_inv_norm, moments,
                              normalize, silverman_bandwidth, tv_distance,
                              wasserstein1d)
from gradflow.errors import GridMismatchError
from gradflow.potentials import make_double_well

RNG = np.random.default_rng(42)


def gaussian_on(grid, mean=0.0, std=1.0):
    return normalize(norm.pdf(grid.centers(), loc=mean, scale=std), grid)


# --- normalize ---------------------------------------------------------------

def test_normalize_constant_already_unit():
    grid = Grid1D.from_bounds(0.0, 1.0, 50)
    dens = normalize(np.ones(50), grid)
    assert np.allclose(dens.values, 1.0)
    assert dens.log_norm == pytest.approx(0.0, abs=1e-14)


def test_normalize_records_gaussian_log_partition():
    grid = Grid1D.from_bounds(-8.0, 8.0, 1601)
    x = grid.centers()
    dens = normalize(np.exp(-0.5 * x**2), grid)
    assert dens.log_norm == pytest.approx(0.5 * np.log(2 * np.pi), abs=1e-6)


def test_normalize_double_well_and_idempotence():
    grid = Grid1D.from_bounds(-3.0, 3.0, 400)
    dw = make_double_well()
    dens = gibbs_density(dw, grid)
    assert dens.mass() == pytest.approx(1.0, abs=1e-12)
    again = normalize(dens.values, grid)
    assert np.allclose(again.values, dens.values, rtol=1e-14)
    assert again.log_norm == pytest.approx(0.0, abs=1e-12)


def test_normalize_rejects_zero_and_negative():
    grid = Grid1D.from_bounds(0.0, 1.0, 10)
    with pytest.raises(ValueError):
        normalize(np.zeros(10), grid)
    with pytest.raises(ValueError):
        normalize(-np.ones(10), grid)
    with pytest.raises(ValueError):
        GridDensity(grid=grid, values=-np.ones(10))


def test_grid_density_rejects_a_negative_value_beside_a_nan():
    # a min()-based check would miss this: nan.min() is nan, and nan < 0 is False
    grid = Grid1D.from_bounds(0.0, 1.0, 10)
    with pytest.raises(ValueError, match="nonnegative"):
        GridDensity(grid=grid, values=[np.nan, -1.0] + [1.0] * 8)


# --- histogram -----------------------------------------------------------------

def test_histogram_single_bin():
    grid = Grid1D.from_bounds(0.0, 1.0, 10)
    dens = histogram(np.full(100, 0.55), grid)
    assert dens.values[5] == pytest.approx(1.0 / grid.dx)
    assert dens.values.sum() * grid.dx == pytest.approx(1.0)


def test_histogram_centers_give_uniform():
    grid = Grid1D.from_bounds(-1.0, 1.0, 20)
    dens = histogram(grid.centers(), grid)
    assert np.allclose(dens.values, 0.5)


def test_histogram_gaussian_tv():
    grid = Grid1D.from_bounds(-5.0, 5.0, 100)
    samples = RNG.standard_normal(1_000_000)
    dens = histogram(samples, grid)
    assert tv_distance(dens, gaussian_on(grid)) < 0.01


def test_histogram_counts_outside():
    grid = Grid1D.from_bounds(0.0, 1.0, 4)
    dens = histogram(np.array([0.5, 0.5, 2.0, -1.0]), grid)
    assert dens.meta["n_outside"] == 2
    assert dens.mass() == pytest.approx(0.5)
    with pytest.raises(ValueError):
        histogram(np.array([]), grid)


# --- kde -------------------------------------------------------------------------

def test_kde_peak_value():
    assert kde([0.0], 1.0, [0.0])[0] == pytest.approx(1 / np.sqrt(2 * np.pi))


def test_kde_integrates_to_one():
    samples = RNG.standard_normal(200)
    grid = Grid1D.from_bounds(-12.0, 12.0, 3000)
    vals = kde(samples, 0.4, grid.centers())
    assert vals.sum() * grid.dx == pytest.approx(1.0, abs=1e-8)


def test_kde_two_sample_hand_formula():
    h = 0.5
    got = kde([-1.0, 1.0], h, [0.0])[0]
    phi = np.exp(-0.5 * (1.0 / h) ** 2) / (h * np.sqrt(2 * np.pi))
    assert got == pytest.approx(phi)
    with pytest.raises(ValueError):
        kde([0.0], 0.0, [0.0])


def test_kde_product_kernel_with_per_axis_bandwidth():
    samples = RNG.standard_normal((40, 2))
    points = RNG.standard_normal((7, 2))
    h = np.array([0.3, 0.8])
    z = (points[:, None, :] - samples[None, :, :]) / h
    want = (np.exp(-0.5 * z**2) / (h * np.sqrt(2 * np.pi))).prod(axis=2).mean(axis=1)
    assert np.allclose(kde(samples, h, points), want, rtol=1e-12, atol=0)
    with pytest.raises(ValueError):
        kde(samples, [0.3, 0.0], points)
    with pytest.raises(ValueError):
        kde(samples, h, points[:, :1])


def test_kde_column_input_equals_the_line():
    samples = RNG.standard_normal(50)
    points = np.linspace(-3.0, 3.0, 11)
    line = kde(samples, 0.4, points)
    assert np.array_equal(kde(samples[:, None], 0.4, points[:, None]), line)
    assert np.array_equal(kde(samples[:, None], [0.4], points[:, None]), line)


def test_kde_far_from_the_origin_matches_direct_differences():
    # scaled points near 5e6: expanding |a-b|^2 on raw points cancels badly
    rng = np.random.default_rng(7)
    samples = 1e4 + rng.uniform(-0.01, 0.01, 200)
    h = 0.002
    z = (samples[:, None] - samples[None, :]) / h
    want = np.exp(-0.5 * z**2).mean(axis=1) / (h * np.sqrt(2 * np.pi))
    assert np.allclose(kde(samples, h, samples), want, rtol=1e-12, atol=0)


# --- bandwidth --------------------------------------------------------------------

def test_silverman_formula_and_scaling():
    samples = RNG.standard_normal(100_000)
    std = np.std(samples, ddof=1)
    assert silverman_bandwidth(samples) == pytest.approx(1.06 * std * 0.1)
    assert silverman_bandwidth(2.0 * samples) == pytest.approx(
        2.0 * silverman_bandwidth(samples))
    with pytest.raises(ValueError):
        silverman_bandwidth([1.0])
    # degenerate samples get a floor rather than zero, and a warning
    with pytest.warns(UserWarning, match="zero spread"):
        assert silverman_bandwidth(np.full(10, 3.0)) > 0


# --- divergences -------------------------------------------------------------------

def test_kl_zero_inf_and_gaussian_value():
    grid = Grid1D.from_bounds(-10.0, 11.0, 4000)
    a = gaussian_on(grid, 0.0)
    assert kl_divergence(a, a) == pytest.approx(0.0, abs=1e-14)

    left = normalize(np.r_[np.ones(2000), np.zeros(2000)], grid)
    right = normalize(np.r_[np.zeros(2000), np.ones(2000)], grid)
    assert kl_divergence(left, right) == np.inf

    b = gaussian_on(grid, 1.0)
    assert kl_divergence(a, b) == pytest.approx(0.5, abs=1e-4)

    other = Grid1D.from_bounds(-10.0, 11.0, 4001)
    with pytest.raises(GridMismatchError):
        kl_divergence(a, gaussian_on(other))


def test_kl_nonnegative_on_random_densities():
    grid = Grid1D.from_bounds(-1.0, 1.0, 64)
    for _ in range(50):
        a = normalize(RNG.random(64) + 1e-3, grid)
        b = normalize(RNG.random(64) + 1e-3, grid)
        assert kl_divergence(a, b) >= 0.0


def test_tv_examples_and_metric_axioms():
    grid = Grid1D.from_bounds(-8.0, 8.0, 3200)
    a = gaussian_on(grid)
    assert tv_distance(a, a) == 0.0
    assert tv_distance(a, gaussian_on(grid, 0.1)) == pytest.approx(
        2 * norm.cdf(0.05) - 1, abs=1e-3)

    small = Grid1D.from_bounds(0.0, 1.0, 10)
    left = normalize(np.r_[np.ones(5), np.zeros(5)], small)
    right = normalize(np.r_[np.zeros(5), np.ones(5)], small)
    assert tv_distance(left, right) == pytest.approx(1.0)

    for _ in range(30):
        u = normalize(RNG.random(10) + 1e-3, small)
        v = normalize(RNG.random(10) + 1e-3, small)
        w = normalize(RNG.random(10) + 1e-3, small)
        assert tv_distance(u, v) == pytest.approx(tv_distance(v, u), abs=1e-12)
        assert tv_distance(u, w) <= tv_distance(u, v) + tv_distance(v, w) + 1e-12


def test_l2_pi_inv_norm():
    grid = Grid1D.from_bounds(-8.0, 8.0, 1601)
    pi = gaussian_on(grid)
    assert l2_pi_inv_norm(pi, pi) == 0.0

    # linear perturbation: rho = (1 + eps f) pi with f grid-mean-zero under pi
    # and unit pi-weighted norm makes the distance exactly eps
    x = grid.centers()
    f = np.sin(x)
    f = f - np.sum(f * pi.values) * grid.dx
    f = f / np.sqrt(np.sum(f**2 * pi.values) * grid.dx)
    eps = 1e-4
    rho = GridDensity(grid=grid, values=(1 + eps * f) * pi.values)
    assert l2_pi_inv_norm(rho, pi) == pytest.approx(eps, abs=1e-10)

    zero_cell = GridDensity(grid=grid, values=np.r_[0.0, pi.values[1:]])
    with pytest.raises(ValueError):
        l2_pi_inv_norm(pi, zero_cell)


def test_l2_pi_inv_norm_grid_refinement_stable():
    # the value is a quadrature of a fixed integrand: refining the grid
    # must not drift the result beyond the discretization error
    vals = []
    for n in (400, 800, 1600):
        grid = Grid1D.from_bounds(-10.0, 10.0, n)
        vals.append(l2_pi_inv_norm(gaussian_on(grid, 0.0, 1.3), gaussian_on(grid)))
    assert abs(vals[-1] - vals[-2]) < 1e-4


# --- wasserstein -----------------------------------------------------------------

def test_wasserstein_examples():
    a = RNG.standard_normal(1000)
    assert wasserstein1d(a, a) == 0.0
    assert wasserstein1d([0.0], [1.0]) == pytest.approx(1.0)
    big = RNG.standard_normal(100_000)
    assert wasserstein1d(big, big + 2.0) == pytest.approx(2.0, abs=0.02)
    # constant shift property is exact
    assert wasserstein1d(a, a + 0.7) == pytest.approx(0.7, abs=1e-12)


def test_wasserstein_unequal_counts():
    a = RNG.standard_normal(5000)
    b = RNG.standard_normal(7000)
    assert wasserstein1d(a, b) < 0.1
    with pytest.raises(ValueError):
        wasserstein1d([], [1.0])


# --- moments ---------------------------------------------------------------------

def test_moments():
    mean, var = moments(np.array([-1.0, 1.0]))
    assert mean == 0.0 and var == 2.0
    _, var0 = moments(np.full(10, 3.3))
    assert var0 == 0.0
    draws = RNG.standard_normal(1_000_000)
    m, v = moments(draws)
    assert abs(m) < 0.005 and abs(v - 1.0) < 0.01
    mean2, cov2 = moments(RNG.standard_normal((5000, 2)))
    assert mean2.shape == (2,) and cov2.shape == (2, 2)
    with pytest.raises(ValueError):
        moments(np.array([1.0]))
