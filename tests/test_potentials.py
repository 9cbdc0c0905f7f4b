"""Catalog potentials against finite-difference and closed-form oracles."""

import warnings

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.special import logsumexp

from gradflow.density import Grid1D, moments, normalize
from gradflow.potentials import (GaussianSpec, Potential, _logsumexp, _spd_inverse,
                                 estimate_pl_constant, finite_diff_grad, from_identifier,
                                 make_boltzmann, make_double_well,
                                 make_gaussian_mixture, make_gaussian_posterior,
                                 make_pl_not_convex, make_quadratic)

RNG = np.random.default_rng(20240601)


def catalog():
    post, _ = make_gaussian_posterior(
        GaussianSpec(mean=[0.0, 0.0], covariance=np.eye(2)),
        design=np.eye(2), noise_cov=np.eye(2), data=[2.0, 0.0])
    return [
        make_double_well(),
        make_quadratic([0.5]),
        make_quadratic([0.05, 1.0]),
        make_pl_not_convex(),
        post,
        make_gaussian_mixture([(0.5, GaussianSpec([-2.0], [[0.25]])),
                               (0.5, GaussianSpec([2.0], [[0.25]]))]),
        make_boltzmann(make_quadratic([0.5]), make_quadratic([0.5]), beta=2.0),
    ]


@pytest.mark.parametrize("p", catalog(), ids=lambda p: p.name)
def test_gradient_matches_finite_differences(p):
    # 100 pseudo-random probes per potential, relative error < 1e-6
    probes = RNG.normal(scale=1.5, size=(100, p.dim))
    for theta in probes:
        g = p.grad(theta)
        fd = finite_diff_grad(p, theta, 1e-5)
        assert np.linalg.norm(g - fd) / (1.0 + np.linalg.norm(g)) < 1e-6


@pytest.mark.parametrize("p", catalog(), ids=lambda p: p.name)
def test_hessian_symmetric_when_present(p):
    if p.hessian is None:
        return
    for theta in RNG.normal(size=(5, p.dim)):
        h = p.hessian(theta)
        assert np.allclose(h, h.T, atol=1e-12)


def test_double_well_values():
    p = make_double_well()
    assert p.grad(np.array([0.0]))[0] == 0.0
    assert p.grad(np.array([1.0]))[0] == pytest.approx(0.0, abs=1e-15)
    assert p.grad(np.array([-1.0]))[0] == pytest.approx(0.0, abs=1e-15)
    assert p.value(np.array([1.0])) == pytest.approx(-0.375)
    assert p.grad(np.array([2.0]))[0] == pytest.approx(9.0)
    assert p.v_star == -0.375
    assert p.alpha is None
    # minimum value cross-checked by a scan
    xs = np.linspace(-3, 3, 20001)[:, None]
    assert p.value(xs).min() == pytest.approx(-0.375, abs=1e-7)


def test_quadratic_metadata_and_derivatives():
    p = make_quadratic([0.5])
    assert p.alpha == 1.0 and p.lipschitz == 1.0
    p2 = make_quadratic([1.0, 2.0])
    assert np.allclose(p2.grad(np.array([1.0, 1.0])), [2.0, 4.0])
    assert np.allclose(p2.hessian(np.zeros(2)), np.diag([2.0, 4.0]))
    with pytest.raises(ValueError):
        make_quadratic([1.0, 0.0])
    with pytest.raises(ValueError):
        make_quadratic([-1.0])


def test_pl_not_convex_shape():
    p = make_pl_not_convex()
    assert np.allclose(p.grad(np.array([0.0, 5.0])), [0.0, 0.0])
    assert p.value(np.array([2.0, 7.0])) == pytest.approx(2.0)
    # PL ratio is identically 1 off the flat axis
    for theta in RNG.normal(size=(20, 2)):
        if abs(theta[0]) < 1e-6:
            continue
        ratio = np.sum(p.grad(theta) ** 2) / (2 * (p.value(theta) - p.v_star))
        assert ratio == pytest.approx(1.0, rel=1e-12)


def test_gaussian_posterior_1d_conjugate():
    pot, post = make_gaussian_posterior(
        GaussianSpec([0.0], [[1.0]]), design=[[1.0]], noise_cov=[[1.0]], data=[2.0])
    assert post.mean[0] == pytest.approx(1.0)
    assert post.covariance[0, 0] == pytest.approx(0.5)
    # independent oracle: normalize exp(-V) on a grid and take moments
    grid = Grid1D.from_bounds(-8.0, 10.0, 4001)
    dens = normalize(np.exp(-pot.value(grid.centers()[:, None])), grid)
    assert dens.mean() == pytest.approx(1.0, abs=1e-6)
    assert dens.variance() == pytest.approx(0.5, abs=1e-6)
    assert pot.log_partition == pytest.approx(dens.log_norm, abs=1e-6)


def test_gaussian_posterior_no_data_information():
    prior = GaussianSpec([1.5], [[2.0]])
    _, post = make_gaussian_posterior(prior, design=[[0.0]],
                                      noise_cov=[[1.0]], data=[3.0])
    assert post.mean[0] == pytest.approx(1.5)
    assert post.covariance[0, 0] == pytest.approx(2.0)


def test_gaussian_posterior_2d_componentwise():
    pot, post = make_gaussian_posterior(
        GaussianSpec([0.0, 0.0], np.eye(2)), design=np.eye(2),
        noise_cov=np.eye(2), data=[2.0, 0.0])
    assert np.allclose(post.mean, [1.0, 0.0])
    assert np.allclose(post.covariance, 0.5 * np.eye(2))
    assert pot.alpha == pytest.approx(2.0)
    assert pot.lipschitz == pytest.approx(2.0)


def test_gaussian_posterior_map_equals_mean():
    # Newton from the prior mean lands on the posterior mean (MAP == mean)
    prior = GaussianSpec([0.3, -0.2], [[2.0, 0.3], [0.3, 1.0]])
    pot, post = make_gaussian_posterior(
        prior, design=[[1.0, 0.5], [0.0, 2.0], [1.0, 1.0]],
        noise_cov=np.diag([0.5, 1.0, 2.0]), data=[1.0, -1.0, 0.5])
    theta = prior.mean.copy()
    for _ in range(50):
        theta = theta - np.linalg.solve(pot.hessian(theta), pot.grad(theta))
    assert np.linalg.norm(theta - post.mean) < 1e-8


def test_gaussian_posterior_dimension_errors():
    with pytest.raises(ValueError):
        make_gaussian_posterior(GaussianSpec([0.0], [[1.0]]),
                                design=[[1.0, 2.0]], noise_cov=[[1.0]], data=[1.0])
    with pytest.raises(ValueError):
        make_gaussian_posterior(GaussianSpec([0.0], [[1.0]]),
                                design=[[1.0]], noise_cov=[[-1.0]], data=[1.0])


def test_mixture_single_component_is_standard_gaussian_energy():
    p = make_gaussian_mixture([(1.0, GaussianSpec([0.0], [[1.0]]))])
    xs = np.linspace(-3, 3, 7)[:, None]
    expected = 0.5 * xs[:, 0] ** 2 + 0.5 * np.log(2 * np.pi)
    assert np.allclose(p.value(xs), expected, atol=1e-12)
    assert p.log_partition == 0.0


def test_mixture_symmetry_and_mode_gradient():
    p = make_gaussian_mixture([(0.5, GaussianSpec([-2.0], [[0.25]])),
                               (0.5, GaussianSpec([2.0], [[0.25]]))])
    for x in RNG.normal(scale=2.0, size=12):
        assert p.value(np.array([x])) == pytest.approx(
            p.value(np.array([-x])), abs=1e-12)
    # locate the right mode numerically, check the gradient vanishes there
    xs = np.linspace(1.0, 3.0, 200001)
    vals = p.value(xs[:, None])
    mode = xs[np.argmin(vals)]
    assert abs(finite_diff_grad(p, [mode], 1e-5)[0]) < 1e-6


def test_mixture_validation():
    spec = GaussianSpec([0.0], [[1.0]])
    with pytest.raises(ValueError):
        make_gaussian_mixture([])
    with pytest.raises(ValueError):
        make_gaussian_mixture([(0.7, spec), (0.7, spec)])
    with pytest.raises(ValueError):
        make_gaussian_mixture([(1.5, spec), (-0.5, spec)])


@pytest.mark.parametrize("k", [1, 2, 3, 5])
@pytest.mark.parametrize("shape", [(), (6,), (3, 4)])
def test_logsumexp_is_scipys_bit_for_bit(shape, k):
    rng = np.random.default_rng(k)
    a = rng.normal(scale=30.0, size=shape + (k,))
    # rows with ties at the top, a -inf entry, all -inf, and a NaN
    tied = np.round(a / 30.0)
    tied[..., 0] = tied.max(axis=-1)
    holed = a.copy()
    holed[..., -1] = -np.inf
    cases = [a, tied, holed, np.full(shape + (k,), -np.inf)]
    nan = a.copy()
    nan.flat[0] = np.nan
    cases.append(nan)
    if shape:
        mixed = a.copy()
        mixed[0] = tied[0]
        mixed.reshape(-1, k)[-1] = -np.inf
        cases.append(mixed)
    for case in cases:
        for keepdims in (False, True):
            got = _logsumexp(case, keepdims=keepdims)
            want = logsumexp(case, axis=-1, keepdims=keepdims)
            assert type(got) is type(want)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_spd_inverse_is_the_cholesky_solve():
    rng = np.random.default_rng(7)
    for var in 10.0 ** rng.uniform(-6, 6, size=200):
        cov = np.array([[var]])
        assert _spd_inverse(cov).tobytes() == cho_solve(cho_factor(cov), np.eye(1)).tobytes()
    for d in (2, 3):
        x = rng.normal(size=(d, d))
        cov = x @ x.T + d * np.eye(d)
        assert np.allclose(_spd_inverse(cov), cho_solve(cho_factor(cov), np.eye(d)),
                           rtol=1e-12, atol=0.0)
    with pytest.raises(np.linalg.LinAlgError):
        _spd_inverse(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError, match="finite"):
        _spd_inverse(np.array([[np.inf]]))


def test_boltzmann_separable():
    u = make_quadratic([0.5])
    k = make_quadratic([0.5])
    b1 = make_boltzmann(u, k, beta=1.0)
    qp = np.array([1.2, -0.7])
    assert b1.value(qp) == pytest.approx(0.5 * (1.2**2 + 0.7**2))
    b2 = make_boltzmann(u, k, beta=2.0)
    for pt in RNG.normal(size=(8, 2)):
        assert b2.value(pt) == pytest.approx(2.0 * b1.value(pt), rel=1e-14)
    # block separability: d/dq does not depend on p
    g1 = b1.grad(np.array([1.0, 5.0]))
    g2 = b1.grad(np.array([1.0, -3.0]))
    assert g1[0] == pytest.approx(g2[0], abs=1e-15)
    with pytest.raises(ValueError):
        make_boltzmann(u, k, beta=0.0)


def test_boltzmann_density_matches_gibbs_product():
    # exp(-V) must reproduce the product of per-block Gibbs factors
    u = make_quadratic([0.7])
    k = make_quadratic([0.3])
    beta = 1.7
    b = make_boltzmann(u, k, beta)
    pt = np.array([0.9, -1.1])
    direct = np.exp(-beta * (u.value(pt[:1]) + k.value(pt[1:])))
    assert np.exp(-b.value(pt)) == pytest.approx(float(direct), rel=1e-14)


def test_finite_diff_grad_examples():
    dw = make_double_well()
    assert finite_diff_grad(dw, [2.0], 1e-5)[0] == pytest.approx(9.0, abs=1e-6)
    assert finite_diff_grad(dw, [1.0], 1e-5)[0] == pytest.approx(0.0, abs=1e-6)
    q = make_quadratic([1.0])
    assert finite_diff_grad(q, [3.0], 1e-5)[0] == pytest.approx(6.0, abs=1e-8)
    with pytest.raises(ValueError):
        finite_diff_grad(q, [1.0], 0.0)


def test_estimate_pl_constant():
    q = make_quadratic([0.5])
    probes = [[x] for x in RNG.normal(size=10) if abs(x) > 1e-3]
    assert estimate_pl_constant(q, probes) == pytest.approx(1.0, abs=1e-9)
    # 2-D: the minimum over probes that include the slow axis is 2 min a_i
    q2 = make_quadratic([0.05, 1.0])
    probes2 = [[1.0, 0.0], [0.5, 0.7], [0.1, -2.0]]
    assert estimate_pl_constant(q2, probes2) == pytest.approx(0.1, abs=1e-9)

    pl = make_pl_not_convex()
    assert estimate_pl_constant(pl, [[1.0, 3.0], [-0.5, 0.0]]) == pytest.approx(1.0)

    dw = make_double_well()
    vals = estimate_pl_constant(dw, [[x] for x in np.linspace(0.05, 0.95, 10)])
    assert vals < 1.0

    anon = Potential(dim=1, value=lambda t: t[..., 0] ** 2,
                     grad=lambda t: 2 * t)
    with pytest.raises(ValueError):
        estimate_pl_constant(anon, [[1.0]])
    with pytest.raises(ValueError):
        estimate_pl_constant(q, [])
    with pytest.raises(ValueError):
        estimate_pl_constant(q, [[0.0]])  # every probe sits at the minimum


def test_potential_metadata_validation():
    with pytest.raises(ValueError):
        Potential(dim=1, value=lambda t: t[..., 0], grad=lambda t: t,
                  alpha=2.0, lipschitz=1.0)
    with pytest.raises(ValueError):
        GaussianSpec([0.0], [[0.0]])


def test_from_identifier_grammar():
    assert from_identifier("double_well").name == "double_well"
    q = from_identifier("quadratic:0.05,1")
    assert q.dim == 2 and q.alpha == pytest.approx(0.1)
    post = from_identifier("gaussian_posterior:0,1,1,1,2")
    assert post.dim == 1
    mix = from_identifier("mixture:0.5,-2,0.5;0.5,2,0.5")
    assert mix.dim == 1
    boltz = from_identifier("boltzmann:1,0.5,0.5")
    assert boltz.dim == 2
    for bad in ("nope", "quadratic:", "quadratic:0,-1", "mixture:1,0",
                "double_well:3", "gaussian_posterior:0,1,1,inf,2",
                "gaussian_posterior:0,inf,1,1,2"):
        with pytest.raises(ValueError):
            from_identifier(bad)
    # a precision that overflows is refused naming what overflowed, silently
    for bad, match in (("gaussian_posterior:0,1,1,1e-320,2", "noise covariance is too small"),
                       ("gaussian_posterior:0,1e-320,1,1,2", "prior covariance is too small"),
                       ("gaussian_posterior:0,1,1e200,1,2", "design is too large")):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=match):
                from_identifier(bad)


def test_moments_of_posterior_samples_shape():
    # moments() is the downstream consumer of posterior sampling; smoke here
    mean, var = moments(np.array([-1.0, 1.0]))
    assert mean == 0.0 and var == 2.0
