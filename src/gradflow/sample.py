"""Stochastic samplers on a deterministic randomness contract.

All methods draw from substreams seeded by their address (seed,
context, step, column), random-stream layout 4 of ``rng``, so runs are
reproducible bit for bit.  Per-step draw layout, by stream column, as
``_transition`` declares it:

* ula / ensemble: dim Gaussian columns
* mala:           dim Gaussian columns + 1 acceptance uniform
* bdl:            dim Gaussian columns + kill/duplicate uniform
                  + replacement-partner uniform

Ensemble initialization uses context 1 of the stream, dynamics context 0.
Every step is a plain map from the ``(J, dim)`` particles, a carry and
that step's draws, one ``(width, J)`` block in that layout, to the next
particles and carry; only MALA's carry holds anything (V and grad V at
the particles).  ULA and MALA take their Gaussian rows already multiplied
by sqrt(2 tau).  ``_transition`` is the one place that declares the
layout, and ``run_sampler`` is a single loop that threads the carry
through the transition and hands each step its block.  When a step draws
at least ``_PREFETCH_MIN`` values, a thread pool of two helpers draws the
next two steps' blocks into a ring of buffers while the particles move;
smaller steps draw their block in line.  A block is a function of its
address alone, so output never depends on which path drew it.  A run's
``stats`` describe the ensemble it ends with, whatever states it records.
"""

from __future__ import annotations

import contextlib
from collections import deque
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

# A step that draws at least this many values has its blocks drawn ahead
# on helper threads; below it, handing a block over costs more than the
# draw saves (measured: the least power of two where ULA and MALA both win).
_PREFETCH_MIN = 2**15
# steps drawn ahead of the one that moves, one helper thread each
_AHEAD = 2
# an ensemble mobility whose least eigenvalue is at or below this is singular
SINGULAR_EIGENVALUE = 1e-14


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
    """Move accounting and the moments of the ensemble a run ends with:
    ``mean`` and ``cov`` (divisor J - 1, zeros when J = 1) of its final
    particles."""

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
    """The states a run records: times (n,), steps (n,), states (n, J, dim)."""

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
    return _langevin_move(th, p.grad(th), tau,
                          np.sqrt(2.0 * tau) * np.asarray(noise, dtype=float))


def _langevin_move(x, g, tau: float, scaled_noise) -> np.ndarray:
    """x - tau g + scaled_noise, built in one new array; with scaled_noise
    = sqrt(2 tau) noise, one Langevin move.

    -tau g is -(tau g) and x + (-(tau g)) is x - tau g bit for bit, so the
    result has the bytes of the plain expression; x, g and scaled_noise
    are only read, and no other full-size array is made.
    """
    out = np.multiply(g, -tau)
    # when the caller holds no other reference, this frees the gradient
    del g
    out += x
    out += scaled_noise
    return out


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
    if w.min() <= SINGULAR_EIGENVALUE:
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

def _transition(method: str, p: Potential, tau: float, ridge, bandwidth):
    """The method as one plain map step(x, carry, draws) -> (x, carry,
    n_accepted) of the (J, dim) particles x, with its draw layout:
    ``(step, n_uniform, scale)``.  ``draws`` is stream step k's
    ``(dim + n_uniform, J)`` block in the module docstring's layout, its
    dim Gaussian rows multiplied by ``scale`` (None: left raw) and then its
    uniform rows; a map only reads it.  MALA's carry is (V(x), grad V(x)),
    computed at x when the carry is None, so each step evaluates the
    potential at the proposals only; the other methods pass their carry
    through untouched."""
    if method == "mala":
        def step(x, carry, draws):
            dim = x.shape[1]
            if carry is None:
                carry = np.asarray(p.value(x), dtype=float), p.grad(x)
            energy, grads = carry
            proposal = _langevin_move(x, grads, tau, draws[:dim].T)
            prop_energy = np.asarray(p.value(proposal), dtype=float)
            prop_grads = p.grad(proposal)
            log_a = _mala_log_ratio(x, energy, grads, proposal, prop_energy, prop_grads, tau)
            accept = draws[dim] < np.exp(np.minimum(0.0, log_a))
            # a NaN log ratio is not accepted, so it rejects
            reject = ~accept
            np.copyto(proposal, x, where=reject[:, None])
            np.copyto(prop_energy, energy, where=reject)
            np.copyto(prop_grads, grads, where=reject[:, None])
            return proposal, (prop_energy, prop_grads), int(accept.sum())
        return step, 1, np.sqrt(2.0 * tau)
    if method == "ula":
        def step(x, carry, draws):
            return _langevin_move(x, p.grad(x), tau, draws.T), carry, len(x)
        return step, 0, np.sqrt(2.0 * tau)
    if method == "ensemble":
        def step(x, carry, draws):
            return ensemble_langevin_step(p, x, tau, draws.T, ridge=ridge), carry, len(x)
        return step, 0, None

    def step(x, carry, draws):
        dim = x.shape[1]
        # bdl_step is looked up in this module at each call, where tracing wraps it
        return (bdl_step(p, x, tau, draws[:dim].T, draws[dim:].T, bandwidth=bandwidth),
                carry, len(x))
    return step, 2, None


def _drawer(rng: RngStream, dim: int, n_uniform: int, scale):
    """draw(k, out): fill ``out`` with stream step k's block in the layout
    ``_transition`` declares.  Multiplying in place gives the bytes of
    ``scale * noise``, since IEEE multiplication commutes."""
    def draw(k, out):
        rng.fill_columns(out[:dim], "standard_normal", k)
        if n_uniform:
            rng.fill_columns(out[dim:], "random", k, column=dim)
        if scale is not None:
            out[:dim] *= scale
    return draw


def _drawn_inline(draw, block, steps):
    """``block`` holding each stream step of ``steps`` in turn, its draws
    made just before the caller moves that step."""
    for k in steps:
        draw(k, block)
        yield block


def _drawn_ahead(draw, ring, steps):
    """The slot of ``ring`` holding each stream step of ``steps`` in turn,
    drawn into slot ``i % len(ring)`` for the i-th step by a pool of
    ``len(ring) - 1`` helper threads, which draw the next steps while the
    caller moves one.  A slot is refilled only once the caller asks for the
    next step, so it is done with that slot.  A helper's exception is
    raised to the caller, and closing the generator joins the helpers."""
    # here, so that commands that run no sampler do not load it
    from concurrent.futures import ThreadPoolExecutor

    n = len(ring)
    with ThreadPoolExecutor(n - 1) as helpers:
        def submit(i):
            return helpers.submit(draw, steps[i], ring[i % n])

        pending = deque(map(submit, range(min(n - 1, len(steps)))))
        for i in range(len(steps)):
            drawn = pending.popleft()
            # the caller has asked for step i, so step i - 1's slot is free
            if i + n - 1 < len(steps):
                pending.append(submit(i + n - 1))
            drawn.result()
            yield ring[i % n]


def _check_finite(particles: np.ndarray, step: int):
    if np.isfinite(particles).all():
        return
    finite = np.isfinite(particles).all(axis=1)
    raise DivergenceError(step=step, particle=int(np.argmin(finite)))


def run_sampler(method: str, p: Potential, init: Ensemble, tau: float,
                n_steps: int, ridge: Optional[float] = None,
                bandwidth="auto", record=None) -> SampleRun:
    """Run a sampler for n_steps from the ensemble ``init``.

    ``record`` holds the step counts in 0..n_steps after which the state
    is recorded, and None records every step.  The initial state is
    always recorded first and the state after n_steps last, so ``final``
    is the ensemble that ``stats`` describe.  The transition's carry
    starts as None and is threaded from step to step.  What is recorded
    never changes ``stats``.  Output is deterministic given the stream
    seed, and the same whether the draws are made ahead on helper threads
    (joined before it returns) or in line; a non-finite state aborts with
    the offending step and particle.
    """
    if method not in ("ula", "mala", "ensemble", "bdl"):
        raise ValueError(f"unknown sampler method {method!r}")
    if tau <= 0:
        raise ValueError("tau must be positive")
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    keep = set(range(n_steps + 1) if record is None else record)
    if keep and not 0 <= min(keep) <= max(keep) <= n_steps:
        raise ValueError("record steps must lie in 0..n_steps")
    keep.add(n_steps)
    if init.dim != p.dim:
        raise ValueError(f"ensemble dimension {init.dim} != potential dimension {p.dim}")

    particles = init.particles
    j, dim = particles.shape
    step, n_uniform, scale = _transition(method, p, tau, ridge, bandwidth)
    width = dim + n_uniform
    draw = _drawer(init.rng, dim, n_uniform, scale)
    stream_steps = range(init.step, init.step + n_steps)  # one per transition
    if j * width >= _PREFETCH_MIN:
        draws = _drawn_ahead(draw, np.empty((_AHEAD + 1, width, j)), stream_steps)
    else:
        draws = _drawn_inline(draw, np.empty((width, j)), stream_steps)
    carry = None
    recorded = [0]
    snaps = [particles]
    n_accepted = 0
    # closing the draws frees their buffers before the states are stacked
    with contextlib.closing(draws):
        for local, k in enumerate(stream_steps, start=1):
            particles, carry, accepted = step(particles, carry, next(draws))
            _check_finite(particles, k + 1)  # the step this state is labelled
            n_accepted += accepted
            if local in keep:
                recorded.append(local)
                snaps.append(particles)

    steps = init.step + np.asarray(recorded, dtype=int)
    cov = np.atleast_2d(np.cov(particles.T)) if j > 1 else np.zeros((dim, dim))
    stats = ChainStats(n_steps=n_steps, n_moves=j * n_steps, n_accepted=n_accepted,
                       mean=particles.mean(axis=0), cov=cov)
    return SampleRun(times=steps * tau, steps=steps, states=np.stack(snaps), stats=stats)


def _five_smooth_at_least(n: int) -> int:
    """The least 2^a 3^b 5^c >= n, an FFT length numpy transforms fast that
    pads far less than the next power of two can (36,450 for 36,002, not
    65,536)."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


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
    nfft = _five_smooth_at_least(2 * n)
    acf = np.zeros(n)
    chunk = max(1, 64_000_000 // (16 * nfft))
    for lo in range(0, chains, chunk):
        f = np.fft.rfft(x[:, lo:lo + chunk], n=nfft, axis=0)
        acf += np.fft.irfft(f * np.conj(f), n=nfft, axis=0)[:n].sum(axis=1)
    acf /= acf[0]
    tail = np.nonzero(acf[1:] <= 0.0)[0]
    cutoff = (tail[0] + 1) if tail.size else n
    return float(1.0 + 2.0 * acf[1:cutoff].sum())
