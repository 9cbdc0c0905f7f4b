"""Samplers against closed-form chains, brute-force densities, and the
determinism contract."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

from gradflow.errors import DivergenceError, PreconditionerError
from gradflow.optimize import explicit_euler_step
from gradflow.potentials import (GaussianSpec, Potential, make_double_well,
                                 make_gaussian_mixture, make_gaussian_posterior,
                                 make_quadratic)
from gradflow import sample
from gradflow.rng import RngStream
from gradflow.sample import (Ensemble, bdl_step, ensemble_covariance,
                             ensemble_langevin_step, integrated_autocorr_time,
                             mala_acceptance, run_sampler, ula_step)

RNG = np.random.default_rng(123)
STD_GAUSSIAN = make_quadratic([0.5])  # V = theta^2 / 2


# --- ULA -----------------------------------------------------------------------

def test_ula_zero_noise_is_explicit_euler():
    dw = make_double_well()
    theta = RNG.normal(size=(6, 1))
    got = ula_step(dw, theta, 0.1, np.zeros_like(theta))
    want = explicit_euler_step(dw, theta, 0.1)
    assert np.array_equal(got, want)


def test_ula_pure_diffusion_arithmetic():
    out = ula_step(STD_GAUSSIAN, np.array([0.0]), 0.5, np.array([1.0]))
    assert out[0] == pytest.approx(1.0)


def test_ula_step_is_the_plain_expression_bit_for_bit():
    # every pairing of signed zeros, a normal value and a tiny one (whose
    # products underflow to signed zeros) in theta, the gradient and the
    # noise; the gradient is one cached array, as a potential may hand
    # back, and no input array is written
    values = np.array([0.0, -0.0, 1.5, -2.25e-300])
    theta, cached, noise = (a.reshape(-1, 1).copy()
                            for a in np.meshgrid(values, values, values, indexing="ij"))
    p = Potential(dim=1, value=lambda t: np.zeros(len(t)), grad=lambda t: cached)
    before = [a.tobytes() for a in (theta, cached, noise)]
    for tau in (0.1, 0.5, 1e-300):
        want = theta - tau * cached + np.sqrt(2.0 * tau) * noise
        got = ula_step(p, theta, tau, noise)
        assert got.tobytes() == want.tobytes()
        assert [a.tobytes() for a in (theta, cached, noise)] == before


def test_ula_stationary_variance_matches_ar1_fixed_point():
    # v = (1 - tau)^2 v + 2 tau  =>  v = 1 / (1 - tau/2)
    tau = 0.5
    j = 20000
    ens = Ensemble.gaussian(RngStream(314), j, [0.0], [[1.0]])
    run = run_sampler("ula", STD_GAUSSIAN, ens, tau, 400, record=())
    var = run.final[:, 0].var()
    target = 1.0 / (1.0 - tau / 2.0)
    assert abs(var - target) < 3.0 * target * np.sqrt(2.0 / j)


# --- MALA acceptance --------------------------------------------------------------

def test_mala_acceptance_identical_states():
    assert mala_acceptance(STD_GAUSSIAN, np.array([0.7]), np.array([0.7]), 0.3) == 1.0


def test_mala_acceptance_constant_shift_invariance():
    dw = make_double_well()
    shifted = dw.shifted(137.5)
    for _ in range(20):
        a, b = RNG.normal(size=(2, 1))
        base = mala_acceptance(dw, a, b, 0.2)
        assert mala_acceptance(shifted, a, b, 0.2) == pytest.approx(base, rel=1e-12)


def test_mala_acceptance_zero_density_proposal_rejected():
    # infinite energy at the proposal means target density 0: never accept
    from gradflow.potentials import Potential
    walled = Potential(
        dim=1,
        value=lambda t: np.where(np.abs(t[..., 0]) > 1, np.inf, 0.5 * t[..., 0] ** 2),
        grad=lambda t: np.clip(t, -1, 1))
    assert mala_acceptance(walled, np.array([0.0]), np.array([2.0]), 0.1) == 0.0


def test_mala_acceptance_brute_force_oracle():
    # independent evaluation of both proposal densities with scipy.stats
    tau = 0.5
    th, st = np.array([0.0]), np.array([1.0])

    def log_q(x, y):
        mean = x - tau * STD_GAUSSIAN.grad(x)
        return norm.logpdf(y[0], loc=mean[0], scale=np.sqrt(2 * tau))

    expected = min(1.0, np.exp(-0.5 * st[0]**2 + 0.5 * th[0]**2
                               + log_q(st, th) - log_q(th, st)))
    assert mala_acceptance(STD_GAUSSIAN, th, st, tau) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(np.exp(-0.125), rel=1e-12)


def test_mala_detailed_balance_pointwise():
    # pi(x) q(x,y) a(x->y) == pi(y) q(y,x) a(y->x) on random pairs
    dw = make_double_well()
    tau = 0.15

    def log_q(x, y):
        mean = x - tau * dw.grad(x)
        return float(norm.logpdf(y[0], loc=mean[0], scale=np.sqrt(2 * tau)))

    for _ in range(1000):
        x, y = RNG.normal(scale=0.8, size=(2, 1))
        lhs = (-float(dw.value(x)) + log_q(x, y)
               + np.log(mala_acceptance(dw, x, y, tau)))
        rhs = (-float(dw.value(y)) + log_q(y, x)
               + np.log(mala_acceptance(dw, y, x, tau)))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def _quartic(dim):
    """A non-Gaussian target in any dimension: V = sum x^4/4 + a_i x^2/2."""
    a = np.linspace(0.5, 2.0, dim)
    return Potential(dim=dim, value=lambda t: np.sum(0.25 * t**4 + 0.5 * a * t**2, axis=-1),
                     grad=lambda t: t**3 + a * t)


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 3), j=st.integers(1, 20), tau=st.floats(0.01, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_mala_kernel_equals_the_reference_accept_reject(dim, j, tau, seed):
    # each batched step is the ULA proposal from the step's Gaussian columns,
    # accepted particle by particle where the next column's uniform u is below
    # mala_acceptance, with fresh V and grad V
    p = _quartic(dim)
    rng = RngStream(seed)
    ens = Ensemble.gaussian(rng, j, np.zeros(dim), np.eye(dim))
    run = run_sampler("mala", p, ens, tau, 3)
    x, n_accepted = ens.particles, 0
    for k in range(3):
        proposal = ula_step(p, x, tau, rng.normal_rows(k, j, dim))
        u = rng.uniform_rows(k, j, 1, column=dim)[:, 0]
        accept = np.array([u[i] < mala_acceptance(p, x[i], proposal[i], tau)
                           for i in range(j)])
        x = np.where(accept[:, None], proposal, x)
        n_accepted += int(accept.sum())
        assert run.states[k + 1].tobytes() == x.tobytes()
    assert run.stats.n_accepted == n_accepted


def test_mala_removes_ula_bias_small():
    # tau large enough that ULA bias is visible; MALA variance stays near 1
    tau = 0.5
    j = 20000
    ens = Ensemble.gaussian(RngStream(2718), j, [0.0], [[1.0]])
    run = run_sampler("mala", STD_GAUSSIAN, ens, tau, 400, record=())
    var = run.final[:, 0].var()
    assert abs(var - 1.0) < 3.0 * np.sqrt(2.0 / j)
    assert 0.5 < run.stats.acceptance_rate < 1.0


# --- ensemble covariance and preconditioned step -------------------------------------

def test_ensemble_covariance_hand_cases():
    assert ensemble_covariance(np.array([[1.0], [-1.0]]))[0, 0] == pytest.approx(1.0)

    assert np.allclose(ensemble_covariance(np.full((5, 2), 3.0)), 0.0)

    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    got = ensemble_covariance(pts)
    # brute-force summation oracle with divisor J
    mean = pts.mean(axis=0)
    want = sum(np.outer(q - mean, q - mean) for q in pts) / 3.0
    assert np.allclose(got, want, atol=1e-15)
    assert np.allclose(got, [[2 / 9, -1 / 9], [-1 / 9, 2 / 9]], atol=1e-15)


def test_ensemble_covariance_psd_random():
    for _ in range(20):
        eigs = np.linalg.eigvalsh(ensemble_covariance(RNG.normal(size=(7, 3))))
        assert eigs.min() > -1e-12


def test_ensemble_step_identity_mobility_reduces_to_ula():
    # identical particles: covariance 0, ridge 1 gives unit mobility
    j, tau = 8, 0.05
    x = np.full((j, 1), 0.7)
    noise = RngStream(9).normal_rows(3, j, 1)
    stepped = ensemble_langevin_step(STD_GAUSSIAN, x, tau, noise, ridge=1.0)
    want = ula_step(STD_GAUSSIAN, x, tau, noise)
    assert np.allclose(stepped, want, atol=1e-15)


def test_ensemble_step_singular_covariance_error():
    noise = RngStream(3).normal_rows(0, 4, 2)
    with pytest.raises(PreconditionerError, match="ridge"):
        ensemble_langevin_step(make_quadratic([1.0, 1.0]), np.zeros((4, 2)), 0.1, noise,
                               ridge=0.0)


def test_ensemble_tracks_gaussian_posterior_loose():
    pot, post = make_gaussian_posterior(GaussianSpec([0.0], [[1.0]]),
                                        design=[[1.0]], noise_cov=[[1.0]], data=[2.0])
    ens = Ensemble.gaussian(RngStream(100), 400, [0.0], [[1.0]])
    run = run_sampler("ensemble", pot, ens, 0.01, 4000, record=())
    final = run.final[:, 0]
    assert abs(final.mean() - post.mean[0]) < 0.15
    assert abs(final.var() - post.covariance[0, 0]) / post.covariance[0, 0] < 0.3


# --- birth-death ------------------------------------------------------------------------

def test_bdl_exact_density_is_a_no_op():
    # with exact log-density every centered rate vanishes: pure Langevin
    rng = RngStream(77)
    ens = Ensemble.gaussian(rng, 50, [0.0], [[1.0]], )
    exact = lambda pts: -STD_GAUSSIAN.value(pts)
    noise, uniforms = rng.normal_rows(0, 50, 1), rng.uniform_rows(0, 50, 2, column=1)
    stepped = bdl_step(STD_GAUSSIAN, ens.particles, 0.05, noise, uniforms,
                       log_density_fn=exact)
    want = ula_step(STD_GAUSSIAN, ens.particles, 0.05, noise)
    assert np.array_equal(stepped, want)


def test_bdl_constant_shift_leaves_exchange_unchanged():
    mix = make_gaussian_mixture([(0.5, GaussianSpec([-2.0], [[0.25]])),
                                 (0.5, GaussianSpec([2.0], [[0.25]]))])
    ens = Ensemble.gaussian(RngStream(31), 64, [-2.0], [[0.25]])
    noise, uniforms = ens.rng.normal_rows(0, 64, 1), ens.rng.uniform_rows(0, 64, 2, column=1)
    a = bdl_step(mix, ens.particles, 0.05, noise, uniforms)
    b = bdl_step(mix.shifted(250.0), ens.particles, 0.05, noise, uniforms)
    assert np.allclose(a, b, atol=1e-12)


def test_bdl_conserves_particle_count_and_validates():
    mix = make_gaussian_mixture([(0.5, GaussianSpec([-2.0], [[0.25]])),
                                 (0.5, GaussianSpec([2.0], [[0.25]]))])
    x = Ensemble.gaussian(RngStream(5), 33, [-2.0], [[0.25]]).particles
    noise = RngStream(5).normal_rows(0, 33, 1)
    uniforms = RngStream(5).uniform_rows(0, 33, 2, column=1)
    stepped = bdl_step(mix, x, 0.05, noise, uniforms)
    assert stepped.shape == (33, 1)
    with pytest.raises(ValueError):
        bdl_step(mix, np.array([[0.0]]), 0.05, noise[:1], uniforms[:1])
    with pytest.raises(ValueError):
        bdl_step(mix, x, 0.05, noise, uniforms, bandwidth=-1.0)
    with pytest.raises(ValueError):
        bdl_step(mix, x, 0.0, noise, uniforms)


def test_bdl_moves_mass_between_modes():
    # all particles but one left; the exchange should fill the right mode
    # from that one faster than diffusion alone at this horizon.  The
    # exchange cannot create mass where no particle is: from an all-left
    # start the outcome would hang on some particle first crossing the
    # barrier by diffusion, which fails at about one seed in four.
    mix = make_gaussian_mixture([(0.5, GaussianSpec([-2.0], [[0.25]])),
                                 (0.5, GaussianSpec([2.0], [[0.25]]))])
    left = Ensemble.gaussian(RngStream(8), 300, [-2.0], [[0.25]])
    ens = Ensemble(np.vstack([left.particles[:-1], [[2.0]]]), left.rng)
    run = run_sampler("bdl", mix, ens, 0.01, 600, record=())
    right = float(np.mean(run.final[:, 0] > 0))
    ula = run_sampler("ula", mix, ens, 0.01, 600, record=())
    right_ula = float(np.mean(ula.final[:, 0] > 0))
    assert right > right_ula + 0.1


def _serial_exchange(moved, beta, uniforms, tau):
    """Reference exchange: the per-particle loop over every particle, in
    index order, with the kill and duplicate thresholds written apart."""
    particles = moved.copy()
    j = particles.shape[0]
    u_decide, u_partner = uniforms[:, 0], uniforms[:, 1]
    partners = np.minimum(np.floor(u_partner * (j - 1)).astype(int), j - 2)
    for i in range(j):
        b = beta[i]
        if b == 0.0:
            continue
        partner = partners[i] + (1 if partners[i] >= i else 0)
        if b > 0:
            if u_decide[i] < -np.expm1(-b * tau):
                particles[i] = particles[partner]
        else:
            if u_decide[i] < -np.expm1(b * tau):
                particles[partner] = particles[i]
    return particles


@settings(max_examples=80, deadline=None)
@given(dim=st.integers(1, 2), j=st.integers(2, 12), tau=st.sampled_from([0.01, 0.2, 1.0]),
       seed=st.integers(0, 2**32 - 1), step=st.integers(0, 50), data=st.data())
def test_bdl_exchange_equals_the_serial_sweep(dim, j, tau, seed, step, data):
    # whole quarter rates with a whole-quarter mean: zero, positive and
    # negative excesses all occur exactly
    ks = data.draw(st.lists(st.integers(-40, 40), min_size=j, max_size=j))
    ks[-1] -= sum(ks) % j
    rates = 0.25 * np.array(ks, dtype=float)
    flat = Potential(dim=dim, value=lambda t: np.zeros(t.shape[:-1]), grad=np.zeros_like)
    rng = RngStream(seed)
    start = Ensemble.gaussian(rng, j, np.zeros(dim), np.eye(dim)).particles
    noise = rng.normal_rows(step, j, dim)
    uniforms = rng.uniform_rows(step, j, 2, column=dim)
    got = bdl_step(flat, start, tau, noise, uniforms, log_density_fn=lambda pts: rates)
    moved = ula_step(flat, start, tau, noise)
    assert np.array_equal(got, _serial_exchange(moved, rates - rates.mean(), uniforms, tau))


# --- run_sampler mechanics ---------------------------------------------------------------

def test_run_sampler_zero_steps_returns_initial():
    ens = Ensemble.gaussian(RngStream(4), 10, [0.0], [[1.0]])
    run = run_sampler("ula", STD_GAUSSIAN, ens, 0.1, 0)
    assert run.states.shape == (1, 10, 1)
    assert np.array_equal(run.states[0], ens.particles)
    assert run.stats.acceptance_rate == 1.0


def test_run_sampler_restart_matches_single_run():
    # stepping 25+15 through a carried ensemble equals one 40-step run
    ens = Ensemble.gaussian(RngStream(91), 12, [0.0], [[1.0]])
    once = run_sampler("ula", STD_GAUSSIAN, ens, 0.1, 40, record=())
    first = run_sampler("ula", STD_GAUSSIAN, ens, 0.1, 25, record=())
    carried = Ensemble(particles=first.final, rng=ens.rng, step=25)
    second = run_sampler("ula", STD_GAUSSIAN, carried, 0.1, 15, record=())
    assert np.array_equal(once.final, second.final)


@pytest.mark.parametrize("method", ["ula", "ensemble", "bdl"])
def test_run_sampler_divergence_error_names_step_and_particle(method):
    quartic = Potential(dim=1, value=lambda t: t[..., 0] ** 4,
                        grad=lambda t: 4.0 * t**3)
    bad = Ensemble(particles=np.array([[1e200], [0.0], [0.5]]), rng=RngStream(1))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DivergenceError) as err:
        run_sampler(method, quartic, bad, 1.0, 10)
    assert (err.value.step, err.value.particle) == (1, 0)


def test_mala_rejects_proposals_whose_log_ratio_is_nan():
    # MALA cannot diverge from finite particles: from 1e200 on a quartic,
    # V and grad V overflow, every log ratio there is NaN, and NaN rejects
    quartic = Potential(dim=1, value=lambda t: t[..., 0] ** 4,
                        grad=lambda t: 4.0 * t**3)
    start = Ensemble(particles=np.array([[1e200], [0.0], [0.5]]), rng=RngStream(1))
    with np.errstate(over="ignore", invalid="ignore"):
        run = run_sampler("mala", quartic, start, 1.0, 10)
    assert np.all(run.states[:, 0, 0] == 1e200)
    assert np.all(np.isfinite(run.states))


def test_run_sampler_thin_and_stats():
    ens = Ensemble.gaussian(RngStream(12), 5, [0.0], [[1.0]])
    run = run_sampler("ula", STD_GAUSSIAN, ens, 0.1, 10, record=range(0, 11, 2))
    assert len(run.times) == 6
    assert np.allclose(np.diff(run.times), 0.2)
    assert run.stats.n_moves == 50
    with pytest.raises(ValueError):
        run_sampler("nope", STD_GAUSSIAN, ens, 0.1, 10)


def _chained_segments(method, p, ens, tau, record):
    """Reference for ``record=``: one run per gap between recorded steps,
    each resumed from the last state, with acceptances summed."""
    states = {0: ens.particles}
    n_accepted = 0
    for prev, nxt in zip(record[:-1], record[1:]):
        run = run_sampler(method, p, ens, tau, nxt - prev, record=())
        ens = Ensemble(particles=run.final, rng=ens.rng, step=nxt)
        states[nxt] = run.final
        n_accepted += run.stats.n_accepted
    return np.stack([states[k] for k in record]), n_accepted


@settings(max_examples=40, deadline=None)
@given(method=st.sampled_from(["ula", "mala", "ensemble", "bdl"]),
       n_steps=st.integers(0, 9), data=st.data())
def test_recorded_run_equals_chained_segments(method, n_steps, data):
    picks = data.draw(st.sets(st.integers(0, n_steps), max_size=4))
    record = sorted(picks | {0, n_steps})
    p = make_quadratic([0.5, 4.0])
    ens = Ensemble.gaussian(RngStream(17), 12, [0.5, -0.3], [[1.0, 0.2], [0.2, 0.5]])
    run = run_sampler(method, p, ens, 0.2, n_steps, record=set(record))
    states, n_accepted = _chained_segments(method, p, ens, 0.2, record)
    assert run.steps.tolist() == record
    assert np.array_equal(run.states, states)
    assert run.stats.n_accepted == n_accepted
    assert run.stats.n_moves == 12 * n_steps
    assert np.array_equal(run.stats.mean, states[-1].mean(axis=0))
    assert np.array_equal(run.stats.cov, np.cov(states[-1].T))


@pytest.mark.parametrize("method", ["ula", "mala", "ensemble", "bdl"])
def test_stats_are_the_moments_of_the_final_ensemble(method):
    p = make_quadratic([0.5, 4.0])
    ens = Ensemble.gaussian(RngStream(5), 30, [0.5, -0.3], [[1.0, 0.2], [0.2, 0.5]])
    # recording every 5th step never records step 12, yet the stats still describe it
    runs = [run_sampler(method, p, ens, 0.1, 12, record=range(0, 13, k))
            for k in (1, 5, 12)]
    runs.append(run_sampler(method, p, ens, 0.1, 12, record={0, 3, 12}))
    final = runs[0].final
    for run in runs:
        assert np.array_equal(run.stats.mean, final.mean(axis=0))
        assert np.array_equal(run.stats.cov, np.cov(final.T))


def test_final_is_the_state_after_the_last_step():
    # 5 does not divide 12, yet the run still ends on step 12's ensemble
    ens = Ensemble.gaussian(RngStream(5), 30, [0.5, -0.3], [[1.0, 0.2], [0.2, 0.5]])
    run = run_sampler("ula", make_quadratic([0.5, 4.0]), ens, 0.1, 12,
                      record=range(0, 13, 5))
    assert list(run.steps) == [0, 5, 10, 12]
    assert np.array_equal(run.final.mean(axis=0), run.stats.mean)


def test_stats_of_one_particle_have_zero_covariance():
    ens = Ensemble(particles=[[0.3, -0.2]], rng=RngStream(2))
    run = run_sampler("mala", make_quadratic([0.5, 4.0]), ens, 0.1, 4)
    assert np.array_equal(run.stats.mean, run.final[0])
    assert np.array_equal(run.stats.cov, np.zeros((2, 2)))


def test_run_sampler_rejects_record_outside_the_run():
    ens = Ensemble.gaussian(RngStream(4), 10, [0.0], [[1.0]])
    with pytest.raises(ValueError, match="record"):
        run_sampler("ula", STD_GAUSSIAN, ens, 0.1, 5, record={2, 6})


# --- autocorrelation diagnostics ------------------------------------------------------------

def test_integrated_autocorr_time_ar1():
    # AR(1) with phi = 0.8 has integrated time (1 + phi)/(1 - phi) = 9
    phi = 0.8
    n, chains = 6000, 200
    x = np.zeros((n, chains))
    noise = RNG.normal(size=(n, chains)) * np.sqrt(1 - phi**2)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + noise[t]
    est = integrated_autocorr_time(x[500:])
    assert est == pytest.approx(9.0, rel=0.2)
    assert integrated_autocorr_time(RNG.normal(size=(4000, 50))) == pytest.approx(1.0, abs=0.2)


def test_integrated_autocorr_time_is_the_direct_lag_sum():
    # 1 + 2 sum of the chain-summed lag products, normalized at lag 0 and
    # cut at the first nonpositive lag; 2n = 74 pads to 75 = 3 * 5^2
    x = np.cumsum(RNG.normal(size=(37, 3)), axis=0)
    c = x - x.mean(axis=0)
    n = len(c)
    acf = np.array([np.sum(c[:n - lag] * c[lag:]) for lag in range(n)]) / np.sum(c * c)
    cut = next((lag for lag in range(1, n) if acf[lag] <= 0.0), n)
    assert integrated_autocorr_time(x) == pytest.approx(1.0 + 2.0 * acf[1:cut].sum(),
                                                        rel=1e-12)


# --- draws made ahead on helper threads ----------------------------------------------------

INLINE, AHEAD = float("inf"), 1  # values of the threshold that force each path
QUARTIC = Potential(dim=1, value=lambda t: t[..., 0] ** 4, grad=lambda t: 4.0 * t**3)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("method", ["ula", "mala", "ensemble", "bdl"])
def test_draws_made_ahead_give_the_inline_run_bit_for_bit(monkeypatch, method, dim):
    p = make_quadratic([0.5 * (d + 1) for d in range(dim)])
    start = Ensemble.gaussian(RngStream(8), 9, np.zeros(dim), np.eye(dim))
    ens = Ensemble(particles=start.particles, rng=start.rng, step=5)
    rings, aliased = [], []
    drawn_ahead, check_finite = sample._drawn_ahead, sample._check_finite

    def spied_ahead(draw, ring, steps):
        rings.append(ring)
        return drawn_ahead(draw, ring, steps)

    def spied_check(particles, step):
        aliased.append(np.shares_memory(particles, rings[-1]))
        check_finite(particles, step)

    for n_steps in (0, 1, 7):
        monkeypatch.setattr(sample, "_PREFETCH_MIN", INLINE)
        inline = run_sampler(method, p, ens, 0.2, n_steps)
        monkeypatch.setattr(sample, "_PREFETCH_MIN", AHEAD)
        monkeypatch.setattr(sample, "_drawn_ahead", spied_ahead)
        monkeypatch.setattr(sample, "_check_finite", spied_check)
        ahead = run_sampler(method, p, ens, 0.2, n_steps)
        monkeypatch.undo()
        assert ahead.states.tobytes() == inline.states.tobytes()
        assert ahead.steps.tolist() == inline.steps.tolist()
        assert ahead.stats.n_accepted == inline.stats.n_accepted
        assert not any(np.shares_memory(state, rings[-1]) for state in ahead.states)
    assert len(rings) == 3 and len(aliased) == 8 and not any(aliased)


def test_draws_made_ahead_hold_under_rapid_thread_switches(monkeypatch):
    # two helpers and the caller on at most two cores, switching every
    # microsecond: a slot refilled while its step still reads it changes bits
    ens = Ensemble.gaussian(RngStream(6), 7, [0.0, 0.0], np.eye(2))
    p = make_quadratic([0.5, 2.0])
    monkeypatch.setattr(sample, "_PREFETCH_MIN", INLINE)
    inline = run_sampler("mala", p, ens, 0.3, 400, record=())
    monkeypatch.setattr(sample, "_PREFETCH_MIN", AHEAD)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        ahead = run_sampler("mala", p, ens, 0.3, 400, record=())
    finally:
        sys.setswitchinterval(interval)
    assert ahead.final.tobytes() == inline.final.tobytes()
    assert ahead.stats.n_accepted == inline.stats.n_accepted


@pytest.mark.parametrize("method,step,particle", [("ula", 7, 2), ("ensemble", 5, 0)])
def test_a_divergence_drawn_ahead_is_the_inline_one_and_stops_the_helpers(
        monkeypatch, method, step, particle):
    ens = Ensemble(particles=np.array([[0.0], [0.5], [3.0], [-0.3]]), rng=RngStream(1))
    for threshold in (INLINE, AHEAD):
        monkeypatch.setattr(sample, "_PREFETCH_MIN", threshold)
        before = threading.active_count()
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError) as err:
            run_sampler(method, QUARTIC, ens, 0.1, 20)
        assert (err.value.step, err.value.particle) == (step, particle)
        assert threading.active_count() == before


def test_a_draw_that_fails_on_a_helper_is_raised_to_the_caller(monkeypatch):
    fill_columns = RngStream.fill_columns

    def failing(self, out, method, step, context=0, column=0):
        if step == 3:
            raise MemoryError("no room for step 3")
        fill_columns(self, out, method, step, context, column)

    monkeypatch.setattr(RngStream, "fill_columns", failing)
    monkeypatch.setattr(sample, "_PREFETCH_MIN", AHEAD)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="step 3"):
        run_sampler("ula", STD_GAUSSIAN, Ensemble.gaussian(RngStream(2), 5, [0.0], [[1.0]]),
                    0.1, 10)
    assert threading.active_count() == before


def test_only_steps_that_draw_enough_values_start_helpers(monkeypatch):
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    for j in (sample._PREFETCH_MIN - 1, sample._PREFETCH_MIN):
        ens = Ensemble.gaussian(RngStream(3), j, [0.0], [[1.0]])
        run_sampler("ula", STD_GAUSSIAN, ens, 0.1, 3, record=())
        assert len(started) == (0 if j < sample._PREFETCH_MIN else sample._AHEAD)
    assert not any(thread.is_alive() for thread in started)
