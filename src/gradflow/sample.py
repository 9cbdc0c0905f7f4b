"""Stochastic samplers on a deterministic randomness contract.

All methods draw from counter-based substreams addressed by (seed,
context, step, column), random-stream layout 3 of ``rng``, so runs are
reproducible bit for bit.  Per-step draw layout, by stream column:

* ula / ensemble: dim Gaussian columns
* mala:           dim Gaussian columns + 1 acceptance uniform
* bdl:            dim Gaussian columns + kill/duplicate uniform
                  + replacement-partner uniform

Ensemble initialization uses context 1 of the stream, dynamics context 0.
Every step is a plain map from the ``(J, dim)`` particles and that step's
draws to the next particles.  ``_transition`` is the one place that reads
the stream, so the layout above is read off it, and ``run_sampler`` is a
single loop over the transition it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .density import kde, silverman_bandwidth
from .errors import DivergenceError, PreconditionerError
from .potentials import Potential
# ndtri is bound here only for perfbench/tracer.py, which traces it by this name
from .rng import RngStream, ndtri

__all__ = [
    "Ensemble",
    "ChainStats",
    "SampleRun",
    "ula_step",
    "mala_acceptance",
    "ensemble_covariance",
    "ensemble_langevin_step",
    "bdl_step",
    "run_sampler",
    "integrated_autocorr_time",
]


@dataclass
class Ensemble:
    """J particle positions, their stream, and the step a run starts from."""

    particles: np.ndarray
    rng: RngStream
    step: int = 0

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.particles, dtype=float))
        self.particles = arr
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ValueError("particles must be a (J, dim) array with J >= 1")
        if not np.all(np.isfinite(arr)):
            raise ValueError("particles must be finite")

    @property
    def dim(self) -> int:
        return self.particles.shape[1]

    @classmethod
    def gaussian(cls, rng: RngStream, size: int, mean, cov) -> "Ensemble":
        """Draw J particles from N(mean, cov) using the init context of the stream."""
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        cov = np.atleast_2d(np.asarray(cov, dtype=float))
        chol = np.linalg.cholesky(cov)
        noise = rng.normal_rows(0, size, mean.size, context=1)
        return cls(particles=mean + noise @ chol.T, rng=rng)

    @classmethod
    def at_points(cls, rng: RngStream, size: int, points) -> "Ensemble":
        """Place J particles on the given points, cycling when J exceeds them."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        idx = np.arange(size) % pts.shape[0]
        return cls(particles=pts[idx].copy(), rng=rng)


@dataclass
class ChainStats:
    """Move accounting and pooled moments of the recorded states."""

    n_steps: int
    n_moves: int
    n_accepted: int
    mean: np.ndarray
    cov: np.ndarray

    @property
    def acceptance_rate(self) -> float:
        return 1.0 if self.n_moves == 0 else self.n_accepted / self.n_moves


@dataclass
class SampleRun:
    """Thinned snapshots of an ensemble: times (n,), states (n, J, dim)."""

    times: np.ndarray
    steps: np.ndarray
    states: np.ndarray
    stats: ChainStats

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def ula_step(p: Potential, theta, tau: float, noise) -> np.ndarray:
    """theta - tau grad V(theta) + sqrt(2 tau) noise; works on single points or batches."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    th = np.asarray(theta, dtype=float)
    return th - tau * p.grad(th) + np.sqrt(2.0 * tau) * np.asarray(noise, dtype=float)


def _mala_log_ratio(x, v_x, g_x, y, v_y, g_y, tau: float):
    """Log Metropolis-Hastings ratio for the ULA proposal x -> y, batched
    over leading axes: V(x) - V(y) + log q(y -> x) - log q(x -> y), the
    Gaussian proposal densities up to the constant that cancels."""
    fwd = -np.sum((y - x + tau * g_x) ** 2, axis=-1) / (4 * tau)
    bwd = -np.sum((x - y + tau * g_y) ** 2, axis=-1) / (4 * tau)
    return v_x - v_y + bwd - fwd


def mala_acceptance(p: Potential, theta, theta_star, tau: float) -> float:
    """Metropolis-Hastings acceptance probability for the ULA proposal.

    Computed entirely in log space, so scaling the unnormalized target by
    any constant leaves the result unchanged and extreme energies cannot
    overflow.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    th = np.asarray(theta, dtype=float)
    st = np.asarray(theta_star, dtype=float)
    log_ratio = float(_mala_log_ratio(th, float(p.value(th)), p.grad(th),
                                      st, float(p.value(st)), p.grad(st), tau))
    if np.isnan(log_ratio):
        return 0.0
    return float(np.exp(min(0.0, log_ratio)))


def ensemble_covariance(x) -> np.ndarray:
    """Covariance of (J, dim) particles, divisor J (not J - 1), symmetrized exactly."""
    x = np.asarray(x, dtype=float)
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / x.shape[0]
    return 0.5 * (cov + cov.T)


def _spectral_roots(matrix: np.ndarray):
    w, q = np.linalg.eigh(matrix)
    if w.min() <= 1e-14:
        raise PreconditionerError(
            f"ensemble covariance is numerically singular (min eigenvalue "
            f"{w.min():.3e}); increase the ridge or the ensemble size")
    return (q * np.sqrt(w)) @ q.T


def ensemble_langevin_step(p: Potential, x, tau: float, noise,
                           ridge: Optional[float] = None) -> np.ndarray:
    """Interacting step of the (J, dim) particles ``x`` with (J, dim)
    standard Gaussian ``noise``, preconditioned by the ensemble covariance.

    Every particle moves with mobility M = cov + ridge I shared across the
    ensemble: drift -tau M grad V, noise sqrt(2 tau) M^(1/2) xi, the matrix
    square root symmetric via eigendecomposition.  The default ridge is
    1e-6 trace(cov)/dim; the finite-ensemble scheme is used as printed,
    with no small-J correction drift.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    x = np.asarray(x, dtype=float)
    dim = x.shape[1]
    cov = ensemble_covariance(x)
    if ridge is None:
        ridge = 1e-6 * np.trace(cov) / dim
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")
    mobility = cov + ridge * np.eye(dim)
    sqrt_m = _spectral_roots(mobility)
    return x - tau * p.grad(x) @ mobility + np.sqrt(2.0 * tau) * noise @ sqrt_m


def bdl_step(p: Potential, x, tau: float, noise, uniforms, bandwidth="auto",
             log_density_fn: Optional[Callable] = None) -> np.ndarray:
    """Langevin substep followed by a birth-death exchange.

    ``x`` holds the (J, dim) particles, ``noise`` their (J, dim) standard
    Gaussians for the Langevin substep and ``uniforms`` their (J, 2)
    kill/duplicate and replacement-partner uniforms.  Rates
    r_i = log rho_hat(theta_i) + V(theta_i) are centered by their
    ensemble mean, which cancels the unknown normalizer of the target;
    particle i fires with probability 1 - exp(-|beta_i| tau), where beta_i
    is its centered rate.  A fired particle with positive excess is killed
    (replaced by a uniformly chosen other particle), one with negative
    excess duplicated onto that partner.  Only fired particles are
    visited, serially in particle-index order on the current state, and
    the particle count is conserved exactly.  rho_hat is ``density.kde``
    of the moved particles at themselves, with bandwidth ``"auto"``
    (per-axis Silverman, ``silverman_bandwidth`` of each coordinate) or a
    fixed positive number.  ``log_density_fn`` overrides the estimate
    (used by stationarity checks with exact densities).  Moved particles
    that are not all finite are returned unexchanged.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    j, dim = np.shape(x)
    if j < 2:
        raise ValueError("birth-death needs at least 2 particles")
    moved = ula_step(p, x, tau, noise)
    if not np.isfinite(moved).all():
        return moved
    if log_density_fn is not None:
        log_rho = np.asarray(log_density_fn(moved), dtype=float)
    else:
        h = ([silverman_bandwidth(col) for col in moved.T] if bandwidth == "auto"
             else bandwidth)
        log_rho = np.log(kde(moved, h, moved))
    rates = log_rho + p.value(moved)
    beta = rates - rates.mean()

    particles = moved.copy()
    partners = np.floor(uniforms[:, 1] * (j - 1)).astype(int)
    partners = np.minimum(partners, j - 2)
    partners += partners >= np.arange(j)  # skip the particle itself
    fired = np.flatnonzero(uniforms[:, 0] < -np.expm1(-np.abs(beta) * tau))
    for i in fired:
        if beta[i] > 0:
            particles[i] = particles[partners[i]]
        else:
            particles[partners[i]] = particles[i]
    return particles


# --- driver -------------------------------------------------------------------

def _mala_kernel(p: Potential, rng: RngStream, tau: float, x: np.ndarray):
    """Batched MALA transition that caches V and grad V at the current
    particles, so each step evaluates the potential at the proposals only."""
    energy = np.asarray(p.value(x), dtype=float)
    grads = p.grad(x)

    def step(x, k):
        nonlocal energy, grads
        j, dim = x.shape
        noise = rng.normal_rows(k, j, dim)
        u = rng.uniform_rows(k, j, 1, column=dim)[:, 0]
        proposal = x - tau * grads + np.sqrt(2.0 * tau) * noise
        prop_energy = np.asarray(p.value(proposal), dtype=float)
        prop_grads = p.grad(proposal)
        log_a = _mala_log_ratio(x, energy, grads, proposal, prop_energy, prop_grads, tau)
        accept = u < np.exp(np.minimum(0.0, log_a))
        energy = np.where(accept, prop_energy, energy)
        grads = np.where(accept[:, None], prop_grads, grads)
        return np.where(accept[:, None], proposal, x), int(accept.sum())

    return step


def _transition(method: str, p: Potential, rng: RngStream, tau: float,
                x: np.ndarray, ridge, bandwidth):
    """The method as one transition step(x, k) -> (x, n_accepted) of the
    (J, dim) particles x; the one reader of the stream, it draws the columns
    of stream step k in the module docstring's layout and hands them to a map."""
    j, dim = x.shape
    if method == "mala":
        return _mala_kernel(p, rng, tau, x)
    if method == "ula":
        def step(x, k):
            return ula_step(p, x, tau, rng.normal_rows(k, j, dim)), j
    elif method == "ensemble":
        def step(x, k):
            noise = rng.normal_rows(k, j, dim)
            return ensemble_langevin_step(p, x, tau, noise, ridge=ridge), j
    else:
        def step(x, k):
            noise = rng.normal_rows(k, j, dim)
            uniforms = rng.uniform_rows(k, j, 2, column=dim)
            return bdl_step(p, x, tau, noise, uniforms, bandwidth=bandwidth), j
    return step


def _check_finite(particles: np.ndarray, step: int):
    finite = np.isfinite(particles).all(axis=1)
    if not finite.all():
        raise DivergenceError(step=step, particle=int(np.argmin(finite)))


def run_sampler(method: str, p: Potential, init: Ensemble, tau: float,
                n_steps: int, thin: int = 1, ridge: Optional[float] = None,
                bandwidth="auto", record=None) -> SampleRun:
    """Run a sampler for n_steps from the ensemble ``init``, recording
    every thin-th state.

    ``record``, when given, replaces ``thin``: the step counts in
    0..n_steps after which the state is recorded.  The initial state is
    always recorded first, and the pooled moments in ``stats`` cover the
    recorded states after it.  Output is deterministic given the stream
    seed; a non-finite state aborts with the offending step and particle.
    """
    if method not in ("ula", "mala", "ensemble", "bdl"):
        raise ValueError(f"unknown sampler method {method!r}")
    if tau <= 0:
        raise ValueError("tau must be positive")
    if thin < 1:
        raise ValueError("thin must be >= 1")
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    keep = set(range(0, n_steps + 1, thin) if record is None else record)
    if keep and not 0 <= min(keep) <= max(keep) <= n_steps:
        raise ValueError("record steps must lie in 0..n_steps")
    if init.dim != p.dim:
        raise ValueError(f"ensemble dimension {init.dim} != potential dimension {p.dim}")

    particles = init.particles
    j, dim = particles.shape
    step = _transition(method, p, init.rng, tau, particles, ridge, bandwidth)
    recorded = [0]
    snaps = [particles]
    n_accepted = 0
    for local in range(1, n_steps + 1):
        k = init.step + local - 1  # stream step index for this transition
        particles, accepted = step(particles, k)
        _check_finite(particles, k)
        n_accepted += accepted
        if local in keep:
            recorded.append(local)
            snaps.append(particles)

    steps = init.step + np.asarray(recorded, dtype=int)
    states = np.stack(snaps)
    pooled = states[1:] if states.shape[0] > 1 else states
    flat = pooled.reshape(-1, dim)
    mean = flat.mean(axis=0)
    cov = np.atleast_2d(np.cov(flat.T)) if flat.shape[0] > 1 else np.zeros((dim, dim))
    stats = ChainStats(n_steps=n_steps, n_moves=j * n_steps, n_accepted=n_accepted,
                       mean=mean, cov=cov)
    return SampleRun(times=steps * tau, steps=steps, states=states, stats=stats)


def integrated_autocorr_time(series: np.ndarray) -> float:
    """Integrated autocorrelation time 1 + 2 sum acf(l) of a stationary series.

    ``series`` is (n_steps,) or (n_steps, n_chains); the autocorrelation is
    averaged over chains and the sum truncated at its first nonpositive
    lag, the usual initial-sequence rule.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n, chains = x.shape
    if n < 4:
        raise ValueError("series too short for autocorrelation analysis")
    x = x - x.mean(axis=0)
    nfft = 1 << int(np.ceil(np.log2(2 * n)))
    acf = np.zeros(n)
    chunk = max(1, 64_000_000 // (16 * nfft))
    for lo in range(0, chains, chunk):
        f = np.fft.rfft(x[:, lo:lo + chunk], n=nfft, axis=0)
        acf += np.fft.irfft(f * np.conj(f), n=nfft, axis=0)[:n].sum(axis=1)
    acf /= acf[0]
    tail = np.nonzero(acf[1:] <= 0.0)[0]
    cutoff = (tail[0] + 1) if tail.size else n
    return float(1.0 + 2.0 * acf[1:cutoff].sum())
