"""Energy functions and their catalog.

A :class:`Potential` is an unnormalized negative log density: samplers and
optimizers only ever need ``value`` and ``grad``, never a normalizing
constant.  ``log_partition`` is metadata recorded when the normalizer is
known in closed form.

Array convention: the last axis indexes coordinates, so ``value`` maps
``(..., dim) -> (...,)`` and ``grad`` maps ``(..., dim) -> (..., dim)``.
A single point is a 1-D array of length ``dim``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Potential",
    "GaussianSpec",
    "make_double_well",
    "make_quadratic",
    "make_pl_not_convex",
    "make_gaussian_posterior",
    "make_gaussian_mixture",
    "make_boltzmann",
    "finite_diff_grad",
    "estimate_pl_constant",
    "CATALOG",
    "from_identifier",
]


@dataclass(frozen=True)
class Potential:
    """An energy on R^dim with gradient and optional curvature metadata.

    ``v_star`` is the known infimum, ``alpha`` a Polyak-Lojasiewicz /
    strong-convexity constant, ``lipschitz`` a gradient Lipschitz constant.
    Instances are immutable and safe for concurrent evaluation.
    """

    dim: int
    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    v_star: Optional[float] = None
    alpha: Optional[float] = None
    lipschitz: Optional[float] = None
    log_partition: Optional[float] = None
    name: str = "potential"

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if self.alpha is not None and self.alpha <= 0:
            raise ValueError("alpha must be positive when set")
        if self.lipschitz is not None and self.lipschitz <= 0:
            raise ValueError("lipschitz must be positive when set")
        if (self.alpha is not None and self.lipschitz is not None
                and self.alpha > self.lipschitz * (1 + 1e-12)):
            raise ValueError("alpha must not exceed the Lipschitz constant")

    def __call__(self, theta) -> np.ndarray:
        return self.value(theta)

    def shifted(self, constant: float) -> "Potential":
        """Same energy plus a constant; the target density is unchanged."""
        return Potential(
            dim=self.dim,
            value=lambda th, _v=self.value, _c=constant: _v(th) + _c,
            grad=self.grad,
            hessian=self.hessian,
            v_star=None if self.v_star is None else self.v_star + constant,
            alpha=self.alpha,
            lipschitz=self.lipschitz,
            log_partition=(None if self.log_partition is None
                           else self.log_partition - constant),
            name=self.name + "+const",
        )


@dataclass(frozen=True)
class GaussianSpec:
    """Mean and SPD covariance; parameterizes posterior/mixture builders."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.covariance, dtype=float))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        if cov.shape != (mean.size, mean.size):
            raise ValueError("covariance shape does not match mean")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ValueError("covariance must be symmetric")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise ValueError("covariance must be positive definite") from exc

    @property
    def dim(self) -> int:
        return self.mean.size


def _points(theta, dim: int) -> np.ndarray:
    th = np.asarray(theta, dtype=float)
    if th.ndim == 0 or th.shape[-1] != dim:
        raise ValueError(f"expected last axis of size {dim}, got shape {th.shape}")
    return th


def make_double_well() -> Potential:
    """1-D quartic with minima at +-1, local max at 0, minimum value -3/8."""

    def value(theta):
        t = _points(theta, 1)[..., 0]
        return 0.375 * t**4 - 0.75 * t**2

    def grad(theta):
        t = _points(theta, 1)[..., 0]
        return (1.5 * t * (t**2 - 1.0))[..., None]

    def hessian(theta):
        t = _points(theta, 1)[..., 0]
        return np.asarray(4.5 * t**2 - 1.5).reshape(1, 1)

    return Potential(dim=1, value=value, grad=grad, hessian=hessian,
                     v_star=-0.375, name="double_well")


def make_quadratic(coeffs) -> Potential:
    """V(theta) = sum_i a_i theta_i^2 with all a_i > 0.

    Curvature metadata is exact: alpha = 2 min a_i, L = 2 max a_i, and
    the normalizer log Z = sum_i log sqrt(pi / a_i).
    """
    a = np.atleast_1d(np.asarray(coeffs, dtype=float))
    if a.ndim != 1 or a.size == 0:
        raise ValueError("coeffs must be a nonempty vector")
    if np.any(a <= 0):
        raise ValueError("all quadratic coefficients must be positive")
    dim = a.size

    def value(theta):
        th = _points(theta, dim)
        return np.sum(a * th**2, axis=-1)

    def grad(theta):
        th = _points(theta, dim)
        return 2.0 * a * th

    def hessian(theta):
        return np.diag(2.0 * a)

    return Potential(dim=dim, value=value, grad=grad, hessian=hessian,
                     v_star=0.0, alpha=2.0 * float(a.min()),
                     lipschitz=2.0 * float(a.max()),
                     log_partition=float(0.5 * np.sum(np.log(np.pi / a))),
                     name="quadratic")


def make_pl_not_convex() -> Potential:
    """V(theta) = theta_1^2 / 2 on R^2: PL with alpha = 1, not strongly convex."""

    def value(theta):
        th = _points(theta, 2)
        return 0.5 * th[..., 0] ** 2

    def grad(theta):
        th = _points(theta, 2)
        out = np.zeros_like(th)
        out[..., 0] = th[..., 0]
        return out

    def hessian(theta):
        return np.diag([1.0, 0.0])

    return Potential(dim=2, value=value, grad=grad, hessian=hessian,
                     v_star=0.0, alpha=1.0, lipschitz=1.0,
                     name="pl_not_convex")


def _spd_inverse(cov):
    """Inverse of a symmetric positive-definite matrix, ``(L^-1)' L^-1`` from
    its Cholesky factor ``L``; raises numpy's LinAlgError when there is no
    factor, and ValueError on a non-finite entry, which the factor would pass.
    """
    if not np.isfinite(cov).all():
        raise ValueError("covariance must be finite")
    inv_l = np.linalg.inv(np.linalg.cholesky(cov))
    return inv_l.T @ inv_l


def _logsumexp(a, keepdims=False):
    """``log(sum(exp(a)))`` over the last axis, with the bits SciPy's
    ``special.logsumexp`` gives for real input.

    The largest entries are counted and taken out of the shifted sum
    (Blanchard, Higham & Higham, IMA J. Numer. Anal. 41, 2021), and a result
    that is not finite (all ``-inf``, ``+inf`` or NaN) is the direct sum's.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = a.max(axis=-1, keepdims=True)
        at_top = a == top
        m = at_top.sum(axis=-1, keepdims=True, dtype=float)
        s = np.exp(np.where(at_top, -np.inf, a) - top).sum(axis=-1, keepdims=True)
        out = np.log1p(np.where(s == 0, s, s / m)) + np.log(m) + top
        finite = np.isfinite(out)
        if not finite.all():
            out = np.where(finite, out, np.log(np.exp(a).sum(axis=-1, keepdims=True)))
    if not keepdims:
        out = np.squeeze(out, axis=-1)
    return out[()] if out.ndim == 0 else out


def make_gaussian_posterior(prior: GaussianSpec, design, noise_cov, data):
    """Linear-Gaussian negative log posterior plus its closed form.

    V(theta) = 1/2 (y - A theta)' Sn^{-1} (y - A theta)
             + 1/2 (theta - m0)' S0^{-1} (theta - m0).

    Returns ``(potential, posterior)`` where ``posterior`` is the conjugate
    Gaussian, for use as an oracle in sampler checks.
    """
    a_mat = np.atleast_2d(np.asarray(design, dtype=float))
    y = np.atleast_1d(np.asarray(data, dtype=float))
    sn = np.atleast_2d(np.asarray(noise_cov, dtype=float))
    dim = prior.dim
    if a_mat.shape != (y.size, dim):
        raise ValueError(
            f"design must map parameter space (dim {dim}) to data space "
            f"(dim {y.size}); got shape {a_mat.shape}")
    if sn.shape != (y.size, y.size):
        raise ValueError("noise covariance shape does not match data")
    if not np.allclose(sn, sn.T, atol=1e-12):
        raise ValueError("noise covariance must be symmetric")
    try:
        prec_noise = _spd_inverse(sn)
    except np.linalg.LinAlgError as exc:
        raise ValueError("noise covariance must be positive definite") from exc
    prec_prior = _spd_inverse(prior.covariance)
    precision = a_mat.T @ prec_noise @ a_mat + prec_prior
    precision = 0.5 * (precision + precision.T)
    post_cov = np.linalg.inv(precision)
    post_cov = 0.5 * (post_cov + post_cov.T)
    post_mean = post_cov @ (a_mat.T @ prec_noise @ y + prec_prior @ prior.mean)
    posterior = GaussianSpec(mean=post_mean, covariance=post_cov)

    m0 = prior.mean

    def value(theta):
        th = _points(theta, dim)
        r = y - th @ a_mat.T
        dp = th - m0
        data_term = 0.5 * np.einsum("...i,ij,...j->...", r, prec_noise, r)
        prior_term = 0.5 * np.einsum("...i,ij,...j->...", dp, prec_prior, dp)
        return data_term + prior_term

    def grad(theta):
        th = _points(theta, dim)
        r = th @ a_mat.T - y
        return r @ prec_noise @ a_mat + (th - m0) @ prec_prior

    def hessian(theta):
        return precision.copy()

    eigs = np.linalg.eigvalsh(precision)
    v_star = float(value(post_mean))
    log_z = float(-v_star + 0.5 * dim * np.log(2 * np.pi)
                  - 0.5 * np.linalg.slogdet(precision)[1])
    pot = Potential(dim=dim, value=value, grad=grad, hessian=hessian,
                    v_star=v_star, alpha=float(eigs.min()),
                    lipschitz=float(eigs.max()), log_partition=log_z,
                    name="gaussian_posterior")
    return pot, posterior


def make_gaussian_mixture(components: Sequence) -> Potential:
    """Negative log density of a normalized Gaussian mixture.

    ``components`` is a sequence of (weight, GaussianSpec) with positive
    weights summing to one.  The gradient weights each component's
    precision-whitened displacement by its responsibility.
    """
    comps = list(components)
    if not comps:
        raise ValueError("mixture needs at least one component")
    weights = np.array([float(w) for w, _ in comps])
    specs = [s for _, s in comps]
    if np.any(weights <= 0):
        raise ValueError("mixture weights must be positive")
    if abs(weights.sum() - 1.0) > 1e-12:
        raise ValueError(f"mixture weights must sum to 1, got {weights.sum()!r}")
    dim = specs[0].dim
    if any(s.dim != dim for s in specs):
        raise ValueError("all mixture components must share one dimension")

    log_w = np.log(weights)
    means = np.stack([s.mean for s in specs])
    precisions = np.stack([np.linalg.inv(s.covariance) for s in specs])
    log_norms = np.array([
        -0.5 * (dim * np.log(2 * np.pi) + np.linalg.slogdet(s.covariance)[1])
        for s in specs])

    def _log_terms(th):
        # (..., n_comp) array of log w_i + log N(theta; m_i, S_i)
        diffs = th[..., None, :] - means
        quad = np.einsum("...ki,kij,...kj->...k", diffs, precisions, diffs)
        return log_w + log_norms - 0.5 * quad

    def value(theta):
        th = _points(theta, dim)
        return -_logsumexp(_log_terms(th))

    def grad(theta):
        th = _points(theta, dim)
        terms = _log_terms(th)
        resp = np.exp(terms - _logsumexp(terms, keepdims=True))
        diffs = th[..., None, :] - means
        whitened = np.einsum("kij,...kj->...ki", precisions, diffs)
        return np.einsum("...k,...ki->...i", resp, whitened)

    return Potential(dim=dim, value=value, grad=grad, log_partition=0.0,
                     name="gaussian_mixture")


def make_boltzmann(u: Potential, k: Potential, beta: float) -> Potential:
    """Separable energy beta * (U(q) + K(p)) on the product space.

    The induced density exp(-V) is the Gibbs factor exp(-beta(U+K));
    the energy enters with a plus sign so the two agree.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    dq, dp = u.dim, k.dim
    dim = dq + dp

    def value(theta):
        th = _points(theta, dim)
        return beta * (u.value(th[..., :dq]) + k.value(th[..., dq:]))

    def grad(theta):
        th = _points(theta, dim)
        return beta * np.concatenate(
            [u.grad(th[..., :dq]), k.grad(th[..., dq:])], axis=-1)

    hessian = None
    if u.hessian is not None and k.hessian is not None:
        def hessian(theta):
            th = _points(theta, dim)
            out = np.zeros((dim, dim))
            out[:dq, :dq] = beta * u.hessian(th[..., :dq])
            out[dq:, dq:] = beta * k.hessian(th[..., dq:])
            return out

    v_star = None
    if u.v_star is not None and k.v_star is not None:
        v_star = beta * (u.v_star + k.v_star)
    alpha = None
    if u.alpha is not None and k.alpha is not None:
        alpha = beta * min(u.alpha, k.alpha)
    lipschitz = None
    if u.lipschitz is not None and k.lipschitz is not None:
        lipschitz = beta * max(u.lipschitz, k.lipschitz)
    log_z = None
    if beta == 1.0 and u.log_partition is not None and k.log_partition is not None:
        log_z = u.log_partition + k.log_partition

    return Potential(dim=dim, value=value, grad=grad, hessian=hessian,
                     v_star=v_star, alpha=alpha, lipschitz=lipschitz,
                     log_partition=log_z, name="boltzmann")


def finite_diff_grad(p: Potential, theta, h: float) -> np.ndarray:
    """Centered-difference gradient, the test oracle for analytic gradients."""
    if h <= 0:
        raise ValueError("h must be positive")
    th = np.asarray(theta, dtype=float).reshape(p.dim)
    out = np.empty(p.dim)
    for i in range(p.dim):
        step = np.zeros(p.dim)
        step[i] = h
        out[i] = (p.value(th + step) - p.value(th - step)) / (2.0 * h)
    return out


def estimate_pl_constant(p: Potential, probes) -> float:
    """Empirical lower envelope of |grad|^2 / (2 (V - V*)) over probe points.

    A diagnostic, not a certificate: it bounds the PL constant from above
    by the worst probed ratio.  Probes at the minimum value are skipped.
    """
    if p.v_star is None:
        raise ValueError("estimate_pl_constant requires a potential with known v_star")
    probes = list(probes)
    if not probes:
        raise ValueError("probes must be nonempty")
    best = np.inf
    used = 0
    for theta in probes:
        th = np.asarray(theta, dtype=float).reshape(p.dim)
        gap = float(p.value(th)) - p.v_star
        if gap <= 0.0:
            continue
        g = p.grad(th)
        best = min(best, float(g @ g) / (2.0 * gap))
        used += 1
    if used == 0:
        raise ValueError("all probes sit at the minimum value; nothing to estimate")
    return best


def _gaussian_posterior(args: str) -> Potential:
    """1-D prior N(m0, v0), design a, noise variance nv, datum y."""
    m0, v0, a, nv, y = _floats(args, expect=5)
    pot, _ = make_gaussian_posterior(GaussianSpec(mean=[m0], covariance=[[v0]]),
                                     design=[[a]], noise_cov=[[nv]], data=[y])
    return pot


def _mixture(args: str) -> Potential:
    """1-D components N(m_i, s_i^2) with weights w_i, one ``;``-separated triple each."""
    comps = []
    for part in args.split(";"):
        w, m, s = _floats(part, expect=3)
        comps.append((w, GaussianSpec(mean=[m], covariance=[[s * s]])))
    return make_gaussian_mixture(comps)


def _boltzmann(args: str) -> Potential:
    beta, uq, kq = _floats(args, expect=3)
    return make_boltzmann(make_quadratic([uq]), make_quadratic([kq]), beta)


# name -> (grammar, summary, builder of the text after the colon); a
# grammar without a colon takes no parameters.  ``gradflow list-potentials``
# prints the grammar and summary columns in this order.
CATALOG = {
    "double_well": ("double_well", "1-D quartic, minima at +-1",
                    lambda _: make_double_well()),
    "pl_not_convex": ("pl_not_convex", "theta_1^2/2 on R^2",
                      lambda _: make_pl_not_convex()),
    "quadratic": ("quadratic:a1,a2,...", "sum a_i theta_i^2 (a_i > 0)",
                  lambda args: make_quadratic(_floats(args))),
    "gaussian_posterior": ("gaussian_posterior:m0,v0,a,nv,y",
                           "1-D conjugate linear-Gaussian posterior", _gaussian_posterior),
    "mixture": ("mixture:w1,m1,s1;w2,m2,s2;...", "1-D Gaussian mixture (s = std dev)",
                _mixture),
    "boltzmann": ("boltzmann:beta,uq,kq", "beta (uq q^2 + kq p^2)", _boltzmann),
}


def from_identifier(spec: str) -> Potential:
    """Build a catalog potential from its string identifier ``name[:args]``,
    one of the grammar lines of ``CATALOG`` (all numbers are floats)."""
    name, _, args = spec.partition(":")
    name = name.strip()
    if name not in CATALOG:
        raise ValueError(f"unknown potential {name!r}")
    grammar, _, build = CATALOG[name]
    try:
        if args and ":" not in grammar:
            raise ValueError(f"{name} takes no parameters")
        return build(args)
    except ValueError as exc:
        raise ValueError(f"bad potential identifier {spec!r}: {exc}") from exc


def _floats(text: str, expect: Optional[int] = None):
    try:
        vals = [float(v) for v in text.split(",")] if text else []
    except ValueError:
        raise ValueError(f"could not parse numbers from {text!r}")
    if expect is not None and len(vals) != expect:
        raise ValueError(f"expected {expect} numbers, got {len(vals)}")
    return vals
