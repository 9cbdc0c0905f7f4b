"""Finite-volume oracle for 1-D drift-diffusion densities.

Advances d rho/dt = d/dx [ mu (rho V' + rho') ] with zero-flux boundaries
on a cell-centered grid.  Face fluxes use exponential (Chang-Cooper style)
weighting built from the exact potential differences between neighboring
cells, so the discretized Gibbs state is stationary to rounding — which is
what makes the decay-theorem checks sharp.  Three variants share the flux
kernel: unit mobility, mobility equal to the current variance, and a
Strang-split reaction term that exchanges mass toward the target.  A step
maps an ``FpeState``'s cell values to new ones; the state checks them as
a ``GridDensity`` does and builds that density only when it is read, so no
step builds one, the weighted step included.  ``evolve`` is the one loop
that marches a step to a list of output times.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Optional, Sequence

import numpy as np

from .density import (Grid1D, GridDensity, cell_variance, check_cell_values,
                      gibbs_density, kl_divergence, l2_pi_inv_norm, underflows)
from .errors import StabilityError
from .potentials import Potential

__all__ = [
    "FokkerPlanckSolver1D",
    "FpeState",
    "fpe_step",
    "weighted_fpe_step",
    "variance_mobility",
    "bdl_fpe_step",
    "evolve",
    "decay_report",
    "DecayReport",
]

_DENSITY_FLOOR = 1e-300
_COLLAPSED = 1e-12  # a variance below this leaves the weighted mobility undefined


def _bernoulli(w: np.ndarray) -> np.ndarray:
    """B(w) = w / (exp(w) - 1), series near zero, 0 at +inf overflow."""
    out = np.empty_like(w)
    small = np.abs(w) < 1e-5
    ws = w[small]
    out[small] = 1.0 - 0.5 * ws + ws * ws / 12.0
    with np.errstate(over="ignore"):
        wl = w[~small]
        out[~small] = wl / np.expm1(wl)
    return out


class FokkerPlanckSolver1D:
    """Precomputed flux weights and stability data for one potential/grid pair."""

    def __init__(self, potential: Potential, grid: Grid1D):
        if potential.dim != 1:
            raise ValueError("the grid oracle is 1-D only")
        self.potential = potential
        self.grid = grid
        self.centers = grid.centers()
        x = self.centers[:, None]
        v = np.asarray(potential.value(x), dtype=float)
        dv = np.diff(v)  # face jumps V_{i+1} - V_i
        self._b_plus = _bernoulli(dv)          # weight on the left cell
        self._b_minus = self._b_plus + dv      # B(-w) = B(w) + w, weight on the right
        grad_max = float(np.abs(potential.grad(x)).max())
        dx = grid.dx
        self._dt_unit = dx * dx / (2.0 * (1.0 + dx * grad_max))
        self._pi: Optional[GridDensity] = None

    def max_stable_dt(self, mobility: float = 1.0) -> float:
        return self._dt_unit / mobility

    def target(self) -> GridDensity:
        """Discretized Gibbs density exp(-V)/Z on the grid."""
        if self._pi is None:
            self._pi = gibbs_density(self.potential, self.grid)
        return self._pi

    def drift_diffusion_step(self, values: np.ndarray, dt: float,
                             mobility: float = 1.0) -> np.ndarray:
        """One explicit step; conserves mass exactly and keeps values >= 0
        under the stability bound, which is enforced at entry."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        dt_max = self.max_stable_dt(mobility)
        if dt > dt_max * (1.0 + 1e-12):
            raise StabilityError(dt, dt_max)
        dx = self.grid.dx
        # In place on one buffer.  Tests pin the bits to the reference flux
        # (dt/dx) * (-mobility * (b_minus*v[1:] - b_plus*v[:-1]) / dx),
        # subtracted from the left cell and added to the right.  This is its
        # negation g, added on the left and subtracted on the right, with the
        # same bits: x*(-m) == -(x*m), a negation passes through / and *
        # exactly, and v - (-g) == v + g.  Unit mobility skips its multiply,
        # since x*1.0 == x.
        flux = self._b_minus * values[1:]
        flux -= self._b_plus * values[:-1]
        if mobility != 1.0:
            flux *= mobility
        flux /= dx
        flux *= dt / dx
        out = values.copy()
        out[:-1] += flux
        out[1:] -= flux
        return out

    def reaction_half_step(self, values: np.ndarray, dt_half: float) -> np.ndarray:
        """Explicit pointwise step of rho (log pi - log rho - mean), then
        renormalization, which absorbs the splitting error in the mass.

        Cells below the density floor take no reaction update.
        """
        pi = self.target()
        if underflows(pi):
            raise ValueError(
                "target density underflows to zero on this grid; shrink the domain")
        pi_vals = pi.values
        out = values.copy()
        active = values >= _DENSITY_FLOOR
        r = np.log(pi_vals[active]) - np.log(values[active])
        r_mean = float(np.sum(r * values[active]) * self.grid.dx)
        out[active] = values[active] * (1.0 + dt_half * (r - r_mean))
        np.maximum(out, 0.0, out=out)
        mass = out.sum() * self.grid.dx
        if mass <= 0.0:
            raise ValueError("reaction step annihilated the density; reduce dt")
        return out / mass


@dataclass(frozen=True)
class FpeState:
    """Cell values and clock of one grid solve, with the solver that steps it.

    The values are checked as a ``GridDensity`` checks them, at the grid's
    length and nonnegative, but the density itself is built only when
    ``density`` is read, so stepping builds no ``GridDensity``; nor does
    ``variance``, which reads the solver's cell centers.  States
    compare by time and values; every state of a solve carries the same
    solver, whose ``grid`` the values live on and whose ``potential`` it
    solves for.
    """

    values: np.ndarray
    time: float
    solver: FokkerPlanckSolver1D

    def __post_init__(self):
        check_cell_values(self.values, self.solver.grid)

    def __eq__(self, other):
        if not isinstance(other, FpeState):
            return NotImplemented
        return self.time == other.time and np.array_equal(self.values, other.values)

    @cached_property
    def density(self) -> GridDensity:
        return GridDensity(grid=self.solver.grid, values=self.values)

    @cached_property
    def variance(self) -> float:
        """The density's variance, computed once per state."""
        return cell_variance(self.values, self.solver.centers, self.solver.grid.dx)

    @classmethod
    def initial(cls, potential: Potential, density: GridDensity) -> "FpeState":
        solver = FokkerPlanckSolver1D(potential, density.grid)
        return cls(values=density.values, time=0.0, solver=solver)

    def boundary_mass(self) -> float:
        """Mass in the outermost cells; a monitor for domain-truncation error."""
        return float((self.values[0] + self.values[-1]) * self.solver.grid.dx)


def _advance(state: FpeState, new_values: np.ndarray, dt: float) -> FpeState:
    return FpeState(values=new_values, time=state.time + dt, solver=state.solver)


def fpe_step(state: FpeState, dt: float) -> FpeState:
    """Unit-mobility drift-diffusion step toward the Gibbs target."""
    return _advance(state, state.solver.drift_diffusion_step(state.values, dt), dt)


def weighted_fpe_step(state: FpeState, dt: float) -> FpeState:
    """Step with mobility equal to the current variance of the density.

    The nonlinearity is frozen within the step; with unit variance the step
    coincides with ``fpe_step``.  It reads ``state.variance``, so a caller
    that bounded ``dt`` by that variance pays for one pass, not two.
    """
    var = state.variance
    if var < _COLLAPSED:
        raise ValueError(f"density has collapsed (variance {var:.3e}); mobility undefined")
    values = state.solver.drift_diffusion_step(state.values, dt, mobility=var)
    return _advance(state, values, dt)


def variance_mobility(state: FpeState) -> float:
    """The weighted step's mobility, for its ``dt`` bound: the state's
    variance, floored at the collapse threshold, so that a collapsed density
    meets the step's own error and not a division by zero in the bound."""
    return max(state.variance, _COLLAPSED)


def bdl_fpe_step(state: FpeState, dt: float) -> FpeState:
    """Strang splitting: half reaction, full drift-diffusion, half reaction."""
    solver = state.solver
    values = solver.reaction_half_step(state.values, 0.5 * dt)
    values = solver.drift_diffusion_step(values, dt)
    values = solver.reaction_half_step(values, 0.5 * dt)
    return _advance(state, values, dt)


def evolve(state: FpeState, step: Callable[[FpeState, float], FpeState],
           times: Sequence[float], tau: float,
           mobility: Optional[Callable[[FpeState], float]] = None) -> List[FpeState]:
    """The states at each of ``times`` (ascending), marching ``step`` from
    ``state``.

    Each step is ``step(state, dt)`` with dt the least of ``tau``, the
    solver's stability bound and the time left to the next output time, so
    each returned state lands on its time to within 1e-12.  The bound is
    taken at ``mobility(state)``, or at unit mobility when none is given.
    """
    out = []
    for t in times:
        while t - state.time > 1e-12:  # not time < t - 1e-12, which rounds
            m = 1.0 if mobility is None else mobility(state)
            state = step(state, min(tau, state.solver.max_stable_dt(m), t - state.time))
        out.append(state)
    return out


@dataclass(frozen=True)
class DecayReport:
    """Norm trajectories against their exponential envelopes.

    When no convexity constant is available the envelopes are None and
    ``applicable`` is False; heavy-tailed initial data can legitimately
    start outside the weighted-L2 envelope, so violations are reported,
    not raised.
    """

    times: np.ndarray
    l2_norms: np.ndarray
    kl_values: np.ndarray
    alpha: Optional[float]
    applicable: bool
    l2_envelope: Optional[np.ndarray] = None
    kl_envelope: Optional[np.ndarray] = None

    @property
    def l2_satisfied(self) -> Optional[bool]:
        if not self.applicable:
            return None
        return bool(np.all(self.l2_norms <= self.l2_envelope))

    @property
    def kl_satisfied(self) -> Optional[bool]:
        if not self.applicable:
            return None
        return bool(np.all(self.kl_values <= self.kl_envelope))

    def rows(self):
        """(time, l2, kl, envelope_l2, envelope_kl) tuples for serialization."""
        n = len(self.times)
        env_l2 = self.l2_envelope if self.applicable else [float("nan")] * n
        env_kl = self.kl_envelope if self.applicable else [float("nan")] * n
        return list(zip(self.times, self.l2_norms, self.kl_values, env_l2, env_kl))


def decay_report(states: Sequence[FpeState], pi: GridDensity,
                 alpha: Optional[float]) -> DecayReport:
    """Weighted-L2 and KL distances to the target at each recorded time,
    with exp(-alpha t) and exp(-2 alpha t) envelopes anchored at the first
    state when alpha is available."""
    if not states:
        raise ValueError("decay_report needs at least one state")
    times = np.array([s.time for s in states])
    l2 = np.array([l2_pi_inv_norm(s.density, pi) for s in states])
    kl = np.array([kl_divergence(s.density, pi) for s in states])
    if alpha is None:
        return DecayReport(times=times, l2_norms=l2, kl_values=kl,
                           alpha=None, applicable=False)
    rel_t = times - times[0]
    return DecayReport(times=times, l2_norms=l2, kl_values=kl, alpha=alpha,
                       applicable=True,
                       l2_envelope=np.exp(-alpha * rel_t) * l2[0],
                       kl_envelope=np.exp(-2.0 * alpha * rel_t) * kl[0])
