"""Descent steps against closed forms; dissipation and rate reports."""

import numpy as np
import pytest

from gradflow.config import DETERMINISTIC_METHODS
from gradflow.errors import (ConvergenceError, DivergenceError, LineSearchError,
                             PreconditionerError)
from gradflow.optimize import (Trajectory, backtracking_line_search,
                               bfgs_update, bregman_divergence,
                               explicit_euler_step, flow_step,
                               implicit_euler_step,
                               mirror_descent_step, negative_entropy_mirror_map,
                               preconditioned_step,
                               quadratic_mirror_map, run_flow, verify_rates)
from gradflow.potentials import (Potential, make_double_well,
                                 make_gaussian_posterior, make_quadratic,
                                 GaussianSpec)

RNG = np.random.default_rng(7)


# --- explicit Euler ------------------------------------------------------------

def test_explicit_euler_basics():
    q = make_quadratic([0.5])
    assert explicit_euler_step(q, np.array([1.0]), 0.5)[0] == pytest.approx(0.5)
    # fixed point at a stationary point
    assert explicit_euler_step(q, np.array([0.0]), 0.3)[0] == 0.0
    dw = make_double_well()
    assert explicit_euler_step(dw, np.array([2.0]), 0.1)[0] == pytest.approx(1.1)
    with pytest.raises(ValueError):
        explicit_euler_step(q, np.array([1.0]), 0.0)


def test_explicit_euler_matches_closed_form_recursion():
    # on a diagonal quadratic each axis contracts by (1 - 2 tau a_i) per step
    a = np.array([0.3, 1.2])
    p = make_quadratic(a)
    tau = 0.25
    theta = np.array([2.0, -1.5])
    expected = theta.copy()
    for n in range(1, 40):
        theta = explicit_euler_step(p, theta, tau)
        expected = expected * (1 - 2 * tau * a)
        assert np.all(np.abs(theta - expected) < 1e-12)


# --- implicit Euler --------------------------------------------------------------

def test_implicit_euler_quadratic_closed_form():
    q = make_quadratic([0.5])  # V = t^2/2, prox is t/(1+tau)
    got = implicit_euler_step(q, np.array([1.0]), 1.0)
    assert got[0] == pytest.approx(0.5, abs=1e-10)


def test_implicit_euler_limits():
    q = make_quadratic([0.5])
    tiny = implicit_euler_step(q, np.array([1.0]), 1e-12)
    assert tiny[0] == pytest.approx(1.0, abs=1e-9)
    at_min = implicit_euler_step(q, np.array([0.0]), 2.0)
    assert at_min[0] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("tau", [0.1, 1.0, 10.0, 100.0])
def test_implicit_euler_decreases_any_tau(tau):
    # proximal inequality V(x) + |x - t|^2/(2 tau) <= V(t), no smoothness used
    dw = make_double_well()
    for t0 in (-2.0, -0.4, 0.3, 0.8, 2.5):
        theta = np.array([t0])
        new = implicit_euler_step(dw, theta, tau)
        lhs = dw.value(new) + np.sum((new - theta) ** 2) / (2 * tau)
        assert lhs <= dw.value(theta) + 1e-12


def test_implicit_euler_gradient_fallback_path():
    # no Hessian supplied: exercise the backtracked-gradient inner solver
    p = Potential(dim=1, value=lambda t: t[..., 0] ** 4,
                  grad=lambda t: 4 * t**3 * np.ones_like(t))
    new = implicit_euler_step(p, np.array([1.0]), 0.5)
    # stationarity: x - t + tau 4 x^3 = 0
    assert new[0] + 0.5 * 4 * new[0] ** 3 == pytest.approx(1.0, abs=1e-8)


def test_implicit_euler_reports_failure_with_best_iterate():
    # gradient carries a high-frequency wiggle the solver cannot quench,
    # so the stationarity residual stays above any reasonable tolerance
    p = Potential(dim=1, value=lambda t: t[..., 0] ** 4,
                  grad=lambda t: 4 * t**3 + 0.01 * np.cos(1e8 * t))
    with pytest.raises(ConvergenceError) as err:
        implicit_euler_step(p, np.array([10.0]), 1.0, tol=1e-10, max_iter=20)
    assert err.value.best is not None
    assert err.value.residual > 0
    with pytest.raises(ValueError):
        implicit_euler_step(p, np.array([1.0]), 1.0, tol=0.0)


# --- preconditioned steps ----------------------------------------------------------

def test_preconditioned_identity_equals_explicit():
    p = make_quadratic([0.3, 0.9])
    theta = np.array([1.0, -2.0])
    assert np.array_equal(preconditioned_step(p, np.eye(2), theta, 0.2),
                          explicit_euler_step(p, theta, 0.2))


def test_newton_step_solves_quadratic_in_one_move():
    p = make_quadratic([0.05, 1.0])
    theta = np.array([3.0, -2.0])
    new = preconditioned_step(p, p.hessian(theta), theta, 1.0)
    assert np.allclose(new, 0.0, atol=1e-14)


def test_preconditioner_scalar_rescaling():
    p = make_quadratic([0.4, 1.1])
    theta = np.array([1.3, 0.7])
    # c a power of two: floating-point scaling commutes exactly
    assert np.array_equal(preconditioned_step(p, 4.0 * np.eye(2), theta, 1.0),
                          explicit_euler_step(p, theta, 0.25))
    # trajectory-level equivalence for a generic c
    c = 3.0
    def scaled_step(q, th, carry):
        return preconditioned_step(q, c * np.eye(2), th, 0.9), carry
    traj_h = run_flow(p, scaled_step, theta, 25, 0.9)
    traj_e = run_flow(p, flow_step("gd", 0.9 / c), theta, 25, 0.9 / c)
    assert np.allclose(traj_h.states, traj_e.states, atol=1e-12)


def test_preconditioner_spd_errors():
    p = make_quadratic([1.0])
    with pytest.raises(PreconditionerError):
        preconditioned_step(p, [[-1.0]], np.array([1.0]), 0.1)
    asym = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(PreconditionerError):
        preconditioned_step(make_quadratic([1.0, 1.0]), asym, np.zeros(2), 0.1)
    no_hess = Potential(dim=1, value=lambda t: t[..., 0], grad=lambda t: t)
    with pytest.raises(PreconditionerError, match="step 1: .*no Hessian"):
        run_flow(no_hess, flow_step("newton", 0.1), [1.0], 5, 0.1)


# --- BFGS ---------------------------------------------------------------------------

def test_bfgs_update_identity_secant():
    s = np.array([0.7, -0.2])
    h = bfgs_update(np.eye(2), s, s)
    assert np.allclose(h, np.eye(2), atol=1e-14)


def test_bfgs_update_two_secant_pairs_on_quadratic():
    # V = 1/2 t' diag(2, 8) t: y = A s exactly; axis pairs recover A^{-1}
    a = np.diag([2.0, 8.0])
    h = np.eye(2)
    pairs = []
    for s in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
        y = a @ s
        h = bfgs_update(h, s, y)
        pairs.append((s, y))
    for s, y in pairs:
        assert np.allclose(h @ y, s, atol=1e-12)
    eigs = np.linalg.eigvalsh(h)
    assert np.all(eigs > 0)


def test_bfgs_update_skips_flat_curvature():
    h = np.diag([2.0, 3.0])
    out = bfgs_update(h, np.array([1.0, 0.0]), np.array([0.0, 1.0]))  # s.y = 0
    assert out is h


def test_bfgs_flow_converges():
    p = make_quadratic([0.05, 1.0])
    traj = run_flow(p, flow_step("bfgs", 1.0), np.array([4.0, -3.0]), 60, 1.0)
    assert np.linalg.norm(traj.final_state) < 1e-8


def test_bfgs_flow_step_reused_across_flows_matches_fresh_ones():
    # the inverse-Hessian guess is carried through one flow, never into the next
    p = make_quadratic([0.05, 1.0])
    shared = flow_step("bfgs", 0.5)
    for start in ([4.0, -3.0], [-1.0, 2.0]):
        reused = run_flow(p, shared, start, 20, 0.5)
        fresh = run_flow(p, flow_step("bfgs", 0.5), start, 20, 0.5)
        assert np.array_equal(reused.states, fresh.states)


# --- mirror descent -----------------------------------------------------------------

def test_mirror_quadratic_map_is_bitwise_explicit_euler():
    p = make_quadratic([0.2, 0.7])
    theta = RNG.normal(size=2)
    got = mirror_descent_step(p, quadratic_mirror_map(), theta, 0.31)
    assert np.array_equal(got, explicit_euler_step(p, theta, 0.31))


def test_mirror_entropy_multiplicative_update():
    c = np.array([0.4, -1.1])
    linear = Potential(dim=2, value=lambda t: t @ c, grad=lambda t: np.broadcast_to(c, t.shape))
    theta = np.array([0.5, 2.0])
    tau = 0.7
    got = mirror_descent_step(linear, negative_entropy_mirror_map(), theta, tau)
    assert np.allclose(got, theta * np.exp(-tau * c), rtol=1e-14)
    # stationary point is a fixed point
    q = make_quadratic([1.0, 1.0])
    still = mirror_descent_step(q, quadratic_mirror_map(), np.zeros(2), 0.5)
    assert np.array_equal(still, np.zeros(2))


def test_mirror_entropy_domain_error():
    q = make_quadratic([1.0])
    with pytest.raises(ValueError):
        mirror_descent_step(q, negative_entropy_mirror_map(), np.array([-1.0]), 0.1)


def test_mirror_map_inverse_consistency():
    mmap = negative_entropy_mirror_map()
    for theta in np.abs(RNG.normal(size=(20, 3))) + 0.05:
        assert np.allclose(mmap.h_grad_inverse(mmap.h_grad(theta)), theta,
                           atol=1e-8)


def test_generic_gradient_inversion_by_newton():
    # grad h(x) = z for a strictly convex h with grad theta^3: the root is cbrt
    from gradflow.optimize import _damped_newton
    z = np.array([8.0, 0.027])
    residual = lambda th: th**3 - z
    jacobian = lambda th: np.diag(3.0 * th**2)
    x, converged = _damped_newton(residual, jacobian, np.array([1.0, 1.0]), 1e-10, 100)
    assert converged
    assert np.allclose(x, np.cbrt(z), atol=1e-9)
    x, converged = _damped_newton(residual, jacobian, np.array([1.0, 1.0]), 1e-10, 0)
    assert (x.tolist(), converged) == ([1.0, 1.0], False)


def test_gradient_inversion_checks_the_residual_after_its_last_step():
    # h = |x|^2: one Newton step solves 2x = z exactly
    from gradflow.optimize import _damped_newton
    x, converged = _damped_newton(lambda th: 2.0 * th - 3.0,
                                  lambda th: 2.0 * np.eye(th.size),
                                  np.array([0.0]), 1e-10, 1)
    assert (x.tolist(), converged) == ([1.5], True)


def test_gradient_inversion_rejects_trials_outside_the_domain():
    # a full Newton step from 10 toward exp(z) = 0.01 lands at -59: its
    # residual raises ValueError, so the step is halved until it stays positive
    from gradflow.optimize import _damped_newton
    mmap = negative_entropy_mirror_map()
    with pytest.raises(ValueError):
        mmap.h_grad(np.array([10.0]) - np.log(10.0 / 0.01) * 10.0)
    x, converged = _damped_newton(lambda th: mmap.h_grad(th) - np.log(0.01),
                                  lambda th: np.diag(1.0 / th),
                                  np.array([10.0]), 1e-10, 100)
    assert converged
    assert x == pytest.approx([0.01], rel=1e-9)


def test_damped_newton_stops_at_a_singular_jacobian():
    from gradflow.optimize import _damped_newton
    x, converged = _damped_newton(lambda x: x - 1.0, lambda x: np.zeros((1, 1)),
                                  np.array([3.0]), 1e-10, 10)
    assert (x.tolist(), converged) == ([3.0], False)
    # theta^3 = 8 from 0, where the Jacobian 3 theta^2 vanishes
    x, converged = _damped_newton(lambda th: th**3 - 8.0, lambda th: np.diag(3.0 * th**2),
                                  np.array([0.0]), 1e-10, 100)
    assert (x.tolist(), converged) == ([0.0], False)


# --- Bregman divergence --------------------------------------------------------------

def test_bregman_quadratic_is_half_squared_distance():
    mmap = quadratic_mirror_map()
    a, b = np.array([1.0, 2.0]), np.array([0.0, -1.0])
    assert bregman_divergence(mmap, a, b) == pytest.approx(0.5 * np.sum((a - b) ** 2))
    assert bregman_divergence(mmap, a, a) == 0.0


def test_bregman_entropy_value():
    mmap = negative_entropy_mirror_map()
    e = np.e
    got = bregman_divergence(mmap, np.array([1.0, 1.0]), np.array([e, e]))
    # sum t log(t/t') - t + t' evaluated symbolically: 2 (e - 2)
    assert got == pytest.approx(2 * (e - 2.0), rel=1e-12)


@pytest.mark.parametrize("mmap", [quadratic_mirror_map(), negative_entropy_mirror_map()],
                         ids=lambda m: m.name)
def test_bregman_nonnegative_zero_iff_equal(mmap):
    for _ in range(1000):
        a = np.abs(RNG.normal(size=2)) + 1e-2
        b = np.abs(RNG.normal(size=2)) + 1e-2
        d = bregman_divergence(mmap, a, b)
        assert d >= 0.0
        if np.linalg.norm(a - b) > 1e-8:
            assert d > 0.0


# --- line search ----------------------------------------------------------------------

def test_line_search_accepts_full_step():
    q = make_quadratic([0.5])
    tau = backtracking_line_search(q, np.array([1.0]), np.array([-1.0]),
                                   tau0=1.0, shrink=0.5, armijo=0.5)
    assert tau == 1.0


def test_line_search_rejects_ascent_direction():
    q = make_quadratic([0.5])
    with pytest.raises(LineSearchError):
        backtracking_line_search(q, np.array([1.0]), np.array([1.0]), tau0=1.0)


def test_line_search_tiny_step_passes_unchanged():
    dw = make_double_well()
    tau = backtracking_line_search(dw, np.array([2.0]), np.array([-9.0]), tau0=1e-8)
    assert tau == 1e-8
    with pytest.raises(ValueError):
        backtracking_line_search(dw, np.array([2.0]), np.array([-9.0]),
                                 tau0=1.0, shrink=1.5)


def test_line_search_shrinks_to_the_first_sufficient_decrease():
    # V = x^2 from 1 along -grad = -2: Armijo holds for tau <= 1 - 1e-4,
    # first reached at 10 / 2^4
    q = make_quadratic([1.0])
    tau = backtracking_line_search(q, np.array([1.0]), np.array([-2.0]), tau0=10.0)
    assert tau == 0.625
    with pytest.raises(LineSearchError, match="no acceptable step within 3 shrinks "
                                              "from tau0=10"):
        backtracking_line_search(q, np.array([1.0]), np.array([-2.0]), tau0=10.0,
                                 max_shrinks=3)


# --- run_flow ---------------------------------------------------------------------------

def test_run_flow_double_well_basins():
    dw = make_double_well()
    for t0, target in ((0.5, 1.0), (-0.5, -1.0)):
        traj = run_flow(dw, flow_step("gd", 0.1), [t0], 200, 0.1)
        assert abs(traj.final_state[0] - target) < 1e-6
    # exact unstable equilibrium: no perturbation is injected, iterate stays
    still = run_flow(dw, flow_step("gd", 0.1), [0.0], 200, 0.1)
    assert still.final_state[0] == 0.0
    assert still.meta["stopped_early"]


def test_run_flow_records_consistent_columns():
    p = make_quadratic([0.4, 0.9])
    traj = run_flow(p, flow_step("gd", 0.2), [1.0, -1.0], 30, 0.2)
    assert np.all(np.diff(traj.times) > 0)
    recomputed = np.array([p.value(s) for s in traj.states])
    assert np.allclose(traj.energies, recomputed, atol=1e-12)
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 0.0]), states=np.zeros((2, 1)),
                   energies=np.zeros(2), grad_norms=np.zeros(2))


def test_run_flow_attaches_step_index_to_errors():
    p = make_quadratic([1.0])
    def explode(_p, _t, _carry):
        raise PreconditionerError("boom")
    with pytest.raises(PreconditionerError, match="step 1"):
        run_flow(p, explode, [1.0], 5, 0.1)


def test_run_flow_stops_at_the_first_non_finite_state():
    # gd at tau = 10 from 0.5 on the double well: step 5 reaches 2.9e110,
    # and step 6, the trajectory's sixth row after the start, is -inf
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DivergenceError, match="non-finite state at step 6$") as err:
        run_flow(make_double_well(), flow_step("gd", 10.0), [0.5], 20, 10.0)
    assert (err.value.step, err.value.particle, err.value.start) == (6, None, None)


# --- the table of descent methods ---------------------------------------------------

@pytest.mark.parametrize("mirror_map", ["quadratic", "negative_entropy"])
@pytest.mark.parametrize("method", DETERMINISTIC_METHODS)
def test_flow_step_covers_every_configurable_method(method, mirror_map):
    p = make_quadratic([0.5, 1.0])
    traj = run_flow(p, flow_step(method, 0.1, mirror_map), [1.0, 2.0], 3, 0.1)
    assert len(traj.times) == 4 and traj.energies[-1] < traj.energies[0]


@pytest.mark.parametrize("method,mirror_map,message", [
    ("sgd", "quadratic", "unknown descent method 'sgd'"),
    ("mirror", "entropy", "unknown mirror map 'entropy'"),
])
def test_flow_step_refuses_an_unknown_name(method, mirror_map, message):
    with pytest.raises(ValueError, match=message):
        flow_step(method, 0.1, mirror_map)


# --- dissipation and rate bounds ----------------------------------------------------------

def lipschitz_catalog():
    post, _ = make_gaussian_posterior(
        GaussianSpec([0.0], [[1.0]]), design=[[1.0]], noise_cov=[[1.0]], data=[2.0])
    return [make_quadratic([0.5]), make_quadratic([0.05, 1.0]), post]


@pytest.mark.parametrize("p", lipschitz_catalog(), ids=lambda p: p.name)
def test_descent_lemma_at_step_one_over_l(p):
    # V(x+) <= V(x) - |grad|^2 / (2 L) along the tau = 1/L flow
    tau = 1.0 / p.lipschitz
    theta = np.full(p.dim, 2.0)
    for _ in range(50):
        new = explicit_euler_step(p, theta, tau)
        drop = float(p.value(theta)) - float(p.value(new))
        g2 = float(np.sum(p.grad(theta) ** 2))
        assert drop >= g2 / (2 * p.lipschitz) - 1e-12
        theta = new


def test_verify_rates_exact_one_step_convergence():
    p = make_quadratic([0.5])  # alpha = L = 1, tau = 1 jumps to the minimum
    traj = run_flow(p, flow_step("gd", 1.0), [3.0], 5, 1.0)
    report = verify_rates(traj, p)
    assert report.dissipation_violations == 0
    assert report.details["bound_applicable"]
    assert report.rate_bound_satisfied


def test_verify_rates_anisotropic_fitted_factor():
    p = make_quadratic([0.05, 1.0])
    tau = 1.0 / p.lipschitz
    traj = run_flow(p, flow_step("gd", tau), [1.0, 1.0], 400, tau)
    report = verify_rates(traj, p)
    assert report.rate_bound_satisfied
    # fitted per-step decay factor must not beat the proven envelope
    per_step = np.exp(report.fitted_rate * tau)
    assert per_step <= (1 - p.alpha / p.lipschitz) + 1e-9
    # past the transient, energy contracts by (1 - 2 tau a1)^2 per step
    gaps = traj.energies - p.v_star
    assert gaps[-1] / gaps[-2] == pytest.approx((1 - 2 * tau * 0.05) ** 2, rel=1e-9)


def test_verify_rates_constant_trajectory_and_missing_vstar():
    p = make_quadratic([0.5])
    traj = run_flow(p, flow_step("gd", 1.0), [0.0], 10, 1.0)
    report = verify_rates(traj, p)
    assert report.dissipation_violations == 0
    anon = Potential(dim=1, value=lambda t: t[..., 0] ** 2, grad=lambda t: 2 * t)
    with pytest.raises(ValueError):
        verify_rates(traj, anon)


def test_verify_rates_bound_not_applicable_off_step():
    p = make_quadratic([0.05, 1.0])
    traj = run_flow(p, flow_step("gd", 0.3), [1.0, 1.0], 50, 0.3)
    report = verify_rates(traj, p)
    assert report.rate_bound_satisfied is None
    assert not report.details["bound_applicable"]
