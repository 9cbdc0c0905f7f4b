"""Deterministic descent schemes and rate diagnostics.

``flow_step`` declares each descent method once, as the plain map
``step(p, theta, carry) -> (theta, carry)``; the carry is the state a
method keeps between steps (only BFGS keeps any).  ``run_flow`` starts
each flow with ``carry = None``, threads it from step to step and records
a :class:`Trajectory`, so one step map serves any number of flows; a
state that turns non-finite, or whose V or |grad V| overflows, raises
:class:`DivergenceError`.
``verify_rates`` checks the recorded energies against monotone
dissipation and, when curvature constants are available, the geometric
decay bound for step 1/L.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (ConvergenceError, DivergenceError, LineSearchError,
                     PreconditionerError)
from .potentials import Potential

__all__ = [
    "Trajectory",
    "MirrorMap",
    "ConvergenceReport",
    "explicit_euler_step",
    "implicit_euler_step",
    "preconditioned_step",
    "bfgs_update",
    "mirror_descent_step",
    "bregman_divergence",
    "backtracking_line_search",
    "flow_step",
    "run_flow",
    "verify_rates",
    "quadratic_mirror_map",
    "negative_entropy_mirror_map",
]

GRAD_STOP = 1e-12  # flows terminate once the gradient norm falls below this


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped states of a deterministic flow.

    Energies are stored as evaluated, so ``energies[k] == p.value(states[k])``
    is recomputable.  ``meta['stopped_early']`` records termination at the
    gradient threshold.
    """

    times: np.ndarray
    states: np.ndarray
    energies: np.ndarray
    grad_norms: np.ndarray
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        n = len(self.times)
        if not (len(self.states) == len(self.energies) == len(self.grad_norms) == n):
            raise ValueError("trajectory columns must have equal length")
        if n > 1 and np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


@dataclass(frozen=True)
class MirrorMap:
    """Strictly convex h with its gradient map and inverse gradient map."""

    h_value: Callable[[np.ndarray], float]
    h_grad: Callable[[np.ndarray], np.ndarray]
    h_grad_inverse: Callable[[np.ndarray], np.ndarray]
    name: str = "mirror"


def quadratic_mirror_map() -> MirrorMap:
    """h = |theta|^2 / 2; both maps are the identity, recovering plain descent."""
    return MirrorMap(
        h_value=lambda th: 0.5 * float(np.dot(th, th)),
        h_grad=lambda th: th,
        h_grad_inverse=lambda z: z,
        name="quadratic",
    )


def negative_entropy_mirror_map() -> MirrorMap:
    """h = sum theta log theta - theta on the positive orthant.

    The gradient map is log, its inverse exp, so mirror steps are
    multiplicative and stay in the orthant.
    """

    def _check(th):
        if np.any(th <= 0):
            raise ValueError("negative-entropy map requires strictly positive coordinates")
        return th

    return MirrorMap(
        h_value=lambda th: float(np.sum(_check(th) * np.log(th) - th)),
        h_grad=lambda th: np.log(_check(th)),
        h_grad_inverse=np.exp,
        name="negative_entropy",
    )


def _damped_newton(residual, jacobian, x0, tol: float, iters: int):
    """Newton on residual(x) = 0; returns (x, converged).

    Each step is halved at most 40 times until the residual norm drops; a
    trial whose residual raises ValueError is rejected like one that does
    not.  The residual is checked after the last step too.
    """
    x = np.asarray(x0, dtype=float).copy()
    res = residual(x)
    for _ in range(iters):
        nrm = np.linalg.norm(res)
        if nrm <= tol:
            return x, True
        try:
            step = np.linalg.solve(np.atleast_2d(jacobian(x)), res)
        except np.linalg.LinAlgError:
            return x, False
        t = 1.0
        for _ in range(40):
            trial = x - t * step
            try:
                trial_res = residual(trial)
            except ValueError:
                t *= 0.5
                continue
            if np.linalg.norm(trial_res) < nrm:
                x, res = trial, trial_res
                break
            t *= 0.5
        else:
            return x, False
    return x, bool(np.linalg.norm(res) <= tol)


def explicit_euler_step(p: Potential, theta, tau: float) -> np.ndarray:
    """theta - tau grad V(theta)."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    th = np.asarray(theta, dtype=float)
    return th - tau * p.grad(th)


def implicit_euler_step(p: Potential, theta, tau: float, tol: float = 1e-10,
                        max_iter: int = 200) -> np.ndarray:
    """Proximal step: minimize V(x) + |x - theta|^2 / (2 tau).

    Solved by Newton on the stationarity residual when a Hessian is
    available, otherwise (or if Newton strays) by backtracked gradient
    descent on the proximal objective starting from theta, which
    guarantees V(x) + |x - theta|^2/(2 tau) <= V(theta) for any tau.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    th = np.asarray(theta, dtype=float)

    def objective(x):
        d = x - th
        return float(p.value(x)) + float(d @ d) / (2.0 * tau)

    def residual(x):
        return x - th + tau * p.grad(x)

    def jacobian(x):
        if p.hessian is not None:
            return np.eye(p.dim) + tau * np.atleast_2d(p.hessian(x))
        # directional finite differences of the gradient
        h = 1e-6 * (1.0 + np.linalg.norm(x))
        cols = np.empty((p.dim, p.dim))
        for i in range(p.dim):
            e = np.zeros(p.dim)
            e[i] = h
            cols[:, i] = (p.grad(x + e) - p.grad(x - e)) / (2.0 * h)
        return np.eye(p.dim) + tau * cols

    v0 = float(p.value(th))

    if p.hessian is not None:
        x, converged = _damped_newton(residual, jacobian, th, tol, max_iter)
        if converged and objective(x) <= v0 + 1e-12:
            return x

    # gradient fallback: monotone on the proximal objective
    x = th.copy()
    t_prev = tau
    for _ in range(max_iter):
        res = residual(x)
        if np.linalg.norm(res) <= tol:
            return x
        g = res / tau  # gradient of the proximal objective
        obj = objective(x)
        slope = -float(g @ g)
        t = min(tau, 4.0 * t_prev)
        for _ in range(60):
            cand = objective(x - t * g)
            if cand <= obj + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            break
        # keep halving while the objective still improves: the first
        # acceptable step can badly overshoot and stall in a zigzag
        for _ in range(60):
            cand_half = objective(x - 0.5 * t * g)
            if cand_half >= cand:
                break
            t, cand = 0.5 * t, cand_half
        x = x - t * g
        t_prev = t
    # descent stalls once objective differences drop below float resolution;
    # a residual-based polish in the reached basin finishes the job (and
    # returns at once when the descent converged on its last step)
    x, converged = _damped_newton(residual, jacobian, x, tol, 25)
    if converged and objective(x) <= v0 + 1e-12:
        return x
    res = residual(x)
    raise ConvergenceError(
        f"proximal solve stalled at residual {np.linalg.norm(res):.3e} (tol {tol:g})",
        best=x, residual=float(np.linalg.norm(res)))


def preconditioned_step(p: Potential, h, theta, tau: float) -> np.ndarray:
    """theta - tau H^{-1} grad V(theta) for the SPD matrix H = H(theta), by Cholesky."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    th = np.asarray(theta, dtype=float)
    h = np.atleast_2d(np.asarray(h, dtype=float))
    if not np.allclose(h, h.T, atol=1e-12):
        raise PreconditionerError("preconditioner matrix is not symmetric")
    try:
        chol = np.linalg.cholesky(h)
    except np.linalg.LinAlgError as exc:
        raise PreconditionerError(
            "preconditioner is not positive definite at the current point") from exc
    g = p.grad(th)
    step = np.linalg.solve(chol.T, np.linalg.solve(chol, g))
    return th - tau * step


def bfgs_update(h_inv, s, y) -> np.ndarray:
    """Inverse-Hessian secant update; returns the input when s.y <= 0.

    The curvature safeguard keeps the approximation positive definite at
    the cost of skipping uninformative pairs.
    """
    h = np.asarray(h_inv, dtype=float)
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    sy = float(s @ y)
    if sy <= 0.0:
        return h
    rho = 1.0 / sy
    v = np.eye(h.shape[0]) - rho * np.outer(s, y)
    out = v @ h @ v.T + rho * np.outer(s, s)
    return 0.5 * (out + out.T)


def mirror_descent_step(p: Potential, mmap: MirrorMap, theta, tau: float) -> np.ndarray:
    """Gradient step in the mirror variable: (grad h)^{-1}(grad h(theta) - tau grad V)."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    th = np.asarray(theta, dtype=float)
    z = mmap.h_grad(th) - tau * p.grad(th)
    return mmap.h_grad_inverse(z)


def bregman_divergence(mmap: MirrorMap, theta, theta_ref) -> float:
    """D_h(theta || theta_ref) = h(theta) - h(ref) - <grad h(ref), theta - ref>."""
    th = np.asarray(theta, dtype=float)
    ref = np.asarray(theta_ref, dtype=float)
    return float(mmap.h_value(th) - mmap.h_value(ref)
                 - mmap.h_grad(ref) @ (th - ref))


def backtracking_line_search(p: Potential, theta, direction, tau0: float,
                             shrink: float = 0.5, armijo: float = 1e-4,
                             max_shrinks: int = 60) -> float:
    """Largest tau0 shrink^k satisfying the sufficient-decrease condition."""
    if tau0 <= 0:
        raise ValueError("tau0 must be positive")
    if not 0 < shrink < 1:
        raise ValueError("shrink must lie in (0, 1)")
    if not 0 < armijo < 1:
        raise ValueError("armijo must lie in (0, 1)")
    th = np.asarray(theta, dtype=float)
    d = np.asarray(direction, dtype=float)
    slope = float(p.grad(th) @ d)
    if slope >= 0:
        raise LineSearchError("direction is not a descent direction")
    v0 = float(p.value(th))
    tau = tau0
    for _ in range(max_shrinks + 1):
        if float(p.value(th + tau * d)) <= v0 + armijo * tau * slope:
            return tau
        tau *= shrink
    raise LineSearchError(
        f"no acceptable step within {max_shrinks} shrinks from tau0={tau0:g}")


# --- the descent methods -----------------------------------------------------

_MIRROR_MAPS = {"quadratic": quadratic_mirror_map,
                "negative_entropy": negative_entropy_mirror_map}


def flow_step(method: str, tau: float, mirror_map: str = "quadratic"):
    """The step map ``step(p, theta, carry) -> (theta, carry)`` of a descent method.

    ``gd`` is explicit Euler, ``gd_implicit`` the proximal step, ``newton``
    preconditions by the Hessian, ``bfgs`` by an inverse-Hessian estimate
    that each flow starts at the identity and carries as (estimate, last
    point, its gradient), and ``mirror`` steps in the dual variable of
    ``mirror_map``.
    """
    if mirror_map not in _MIRROR_MAPS:
        raise ValueError(f"unknown mirror map {mirror_map!r}")
    mmap = _MIRROR_MAPS[mirror_map]()

    def newton(p, th):
        if p.hessian is None:
            raise PreconditionerError(
                f"potential {p.name!r} has no Hessian; Newton preconditioning unavailable")
        return preconditioned_step(p, p.hessian(th), th, tau)

    def bfgs(p, th, carry):
        g = p.grad(th)
        if carry is None:
            h_inv = np.eye(p.dim)
        else:
            h_inv, prev, prev_grad = carry
            h_inv = bfgs_update(h_inv, th - prev, g - prev_grad)
        return th - tau * h_inv @ g, (h_inv, th, g)

    moves = {"gd": lambda p, th: explicit_euler_step(p, th, tau),
             "gd_implicit": lambda p, th: implicit_euler_step(p, th, tau),
             "newton": newton,
             "mirror": lambda p, th: mirror_descent_step(p, mmap, th, tau)}
    if method == "bfgs":
        return bfgs
    if method not in moves:
        raise ValueError(f"unknown descent method {method!r}")
    move = moves[method]
    return lambda p, th, carry: (move(p, th), carry)


def _measured(p: Potential, theta: np.ndarray, k: int):
    """(V, |grad V|) at the flow's state after k steps.  A state that is not
    finite, or whose V or |grad V| overflows, has diverged: DivergenceError
    names step k, and V is never evaluated at a non-finite state."""
    if np.isfinite(theta).all():
        with np.errstate(over="ignore", invalid="ignore"):
            energy = float(p.value(theta))
            grad_norm = float(np.linalg.norm(p.grad(theta)))
        if np.isfinite(energy) and np.isfinite(grad_norm):
            return energy, grad_norm
    raise DivergenceError(step=k)


def run_flow(p: Potential, step, theta0, n_steps: int, tau: float) -> Trajectory:
    """Drive a step map for n_steps of size tau, recording the trajectory.

    The step's carry starts as None and is threaded from step to step.
    Stops early once |grad V| < 1e-12 so equilibria terminate; step errors
    are re-raised with the failing step index in the message, and a state
    that is not finite, or whose V or |grad V| overflows, raises
    DivergenceError naming its step.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    th = np.asarray(theta0, dtype=float).reshape(p.dim)
    energy, grad_norm = _measured(p, th, 0)
    times, states, energies, grad_norms = [0.0], [th.copy()], [energy], [grad_norm]
    stopped_early = False
    carry = None
    for k in range(1, n_steps + 1):
        if grad_norms[-1] < GRAD_STOP:
            stopped_early = True
            break
        try:
            th, carry = step(p, th, carry)
        except Exception as exc:
            exc.args = (f"step {k}: {exc.args[0] if exc.args else exc}",) + exc.args[1:]
            raise
        th = np.asarray(th, dtype=float)
        energy, grad_norm = _measured(p, th, k)
        times.append(k * tau)
        states.append(th.copy())
        energies.append(energy)
        grad_norms.append(grad_norm)
    return Trajectory(times=np.array(times), states=np.array(states),
                      energies=np.array(energies), grad_norms=np.array(grad_norms),
                      meta={"stopped_early": stopped_early})


@dataclass(frozen=True)
class ConvergenceReport:
    """Dissipation and rate diagnostics for one trajectory.

    ``rate_bound_satisfied`` is None when the geometric bound does not
    apply (missing constants or step size != 1/L).
    """

    fitted_rate: float
    dissipation_violations: int
    rate_bound_satisfied: Optional[bool]
    details: dict


def verify_rates(traj: Trajectory, p: Potential) -> ConvergenceReport:
    """Check monotone dissipation and the step-1/L geometric decay bound."""
    if p.v_star is None:
        raise ValueError("verify_rates requires a potential with known v_star")
    energies = traj.energies
    increments = np.diff(energies)
    violations = int(np.sum(increments > 1e-12))

    gaps = energies - p.v_star
    valid = gaps > 1e-300
    if valid.sum() >= 2:
        fitted_rate = float(np.polyfit(traj.times[valid], np.log(gaps[valid]), 1)[0])
    else:
        fitted_rate = float("nan")

    details = {"energy_increments": increments, "bound_applicable": False}
    satisfied = None
    if (p.alpha is not None and p.lipschitz is not None and len(traj.times) > 1):
        tau = traj.times[1] - traj.times[0]
        if abs(tau * p.lipschitz - 1.0) <= 1e-9:
            n = np.arange(len(gaps))
            bounds = (1.0 - p.alpha / p.lipschitz) ** n * gaps[0]
            margins = bounds - gaps
            satisfied = bool(np.all(margins >= 0.0))
            details.update(bound_applicable=True, bound_margins=margins)
    return ConvergenceReport(fitted_rate=fitted_rate,
                             dissipation_violations=violations,
                             rate_bound_satisfied=satisfied,
                             details=details)
