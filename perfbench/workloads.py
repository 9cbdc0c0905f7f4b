"""The benchmark's workloads: one gradflow YAML config per workload and seed.

The seed argument only sets the config's ``seed:`` key; every size and
horizon is fixed here, so one seed always gives the same config text.
The program sees only the generated file.

YAML floats are written with a decimal point (``0.001``, not ``1e-3``):
gradflow's YAML 1.1 loader reads ``1e-3`` as a string.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

import checks


@dataclass(frozen=True)
class Workload:
    """One ``gradflow run`` config, why it is here, and how to check it.

    ``work`` is problem size times configured steps (particles for the
    samplers, grid cells for the FPE; steps are horizon / configured
    ``tau``, not the solver's own step count), the numerator of
    ``particle_steps_per_s``.  ``final_density`` is the density artifact at
    the horizon, when the workload is a grid solve.
    """

    name: str
    why: str
    template: str
    work: int
    checks: Tuple[Callable, ...]
    final_density: Optional[str] = None
    grid: Optional[tuple] = None

    def config(self, seed: int) -> str:
        return self.template.replace("{seed}", str(int(seed)))


def _double_well(x):
    return 0.375 * x**4 - 0.75 * x**2


def _two_modes(x):
    # 0.5 N(-2, 0.5^2) + 0.5 N(2, 0.5^2), as gradflow's mixture:0.5,-2,0.5;0.5,2,0.5
    log_c = np.log(0.5 / (0.5 * np.sqrt(2.0 * np.pi)))
    return -np.logaddexp(log_c - (x + 2.0) ** 2 / 0.5, log_c - (x - 2.0) ** 2 / 0.5)


# --- ula_dw1d: the fig3 recipe's problem at a shorter horizon -----------------
_ULA_GRID = (-3.0, 3.0, 120)
_ULA = """\
problem: double_well
method: ula
tau: 0.01
time: 3.0
seed: {seed}
particles: 100000
init:
  kind: points
  points: [[-2.0], [-0.5], [0.1], [0.5], [2.0]]
grid: {lo: -3.0, hi: 3.0, n: 120}
outputs:
  - {kind: histogram, path: "hist_t{t}.csv", times: [0.1, 0.25, 3.0]}
  - {kind: metrics, path: metrics.csv, times: [0.1, 0.25, 3.0]}
assertions:
  - {check: metric_max, metric: tv, time: 3.0, max: 0.03}
  - {check: metric_monotone, metric: tv}
"""

# --- bdl_bimodal: claim c11's particle half ---------------------------------------
# The start is narrower than the left mode, so a sampler that does not move
# fails the TV gate (TV ~0.7 at the start, ~0.54 once the left mode is filled;
# the right mode stays empty at this horizon, which puts the floor near 0.5).
_BDL_GRID = (-6.0, 6.0, 120)
_BDL = """\
problem: mixture:0.5,-2.0,0.5;0.5,2.0,0.5
method: bdl
tau: 0.01
steps: 40
seed: {seed}
particles: 2000
init: {kind: gaussian, mean: [-2.0], var: 0.05}
grid: {lo: -6.0, hi: 6.0, n: 120}
outputs:
  - {kind: histogram, path: "hist_t{t}.csv", times: [0.05, 0.4]}
  - {kind: metrics, path: metrics.csv, times: [0.05, 0.4]}
assertions:
  - {check: metric_max, metric: tv, time: 0.4, max: 0.6}
  - {check: metric_monotone, metric: tv}
"""

# --- fpe_ou_fine: claim c06's fixture ------------------------------------------------
# quadratic:0.5 is V = x^2/2, so the density stays Gaussian with variance
# 1 + (4 - 1) exp(-2 t) from the variance-4 start.
_FPE_GRID = (-8.0, 8.0, 1601)
_FPE_VAR = 1.0 + 3.0 * np.exp(-2.0 * 1.0)   # exact variance at the horizon t=1
_FPE = """\
problem: quadratic:0.5
method: fpe
tau: 0.001
time: 1.0
seed: {seed}
init: {kind: gaussian, mean: [0.0], var: 4.0}
grid: {lo: -8.0, hi: 8.0, n: 1601}
outputs:
  - {kind: density, path: "density_t{t}.csv", times: [0.25, 0.5, 1.0]}
  - {kind: rates, path: rates.csv}
  - {kind: metrics, path: metrics.csv, times: [0.25, 0.5, 1.0]}
assertions:
  - {check: metric_max, metric: tv, time: 1.0, max: 0.1}
  - {check: metric_monotone, metric: tv}
"""

# --- mala_10d_io: 10-D anisotropic quadratic, condition number 60 --------------
# a_i = 0.5 * 60^(i/9), target N(0, diag(1/(2 a_i))).  The four softest
# coordinates start at their target variance, because they relax too slowly
# (as exp(-4 a_i t)) for this horizon.  The six stiffest (a_i >= 3) start
# at twice their target and are within 0.3% of it by t=0.5.  A sampler
# that does not move leaves them 100% off, so it fails the variance check.
_MALA_COEFFS = tuple(float(f"{0.5 * 60 ** (i / 9):.6g}") for i in range(10))
_MALA_START = tuple((2.0 if a >= 3.0 else 1.0) / (2.0 * a) for a in _MALA_COEFFS)
_MALA_J = 20000


def _mala_template() -> str:
    coeffs = ",".join(f"{a!r}" for a in _MALA_COEFFS)
    cov = "\n".join(
        "    - [" + ", ".join(repr(v) if i == k else "0.0" for k in range(10)) + "]"
        for i, v in enumerate(_MALA_START))
    zeros = ", ".join(["0.0"] * 10)
    return f"""\
problem: quadratic:{coeffs}
method: mala
tau: 0.005
steps: 100
seed: {{seed}}
particles: {_MALA_J}
workers: 2
thin: 25
init:
  kind: gaussian
  mean: [{zeros}]
  cov:
{cov}
outputs:
  - {{kind: samples, path: samples.csv}}
  - {{kind: stats, path: stats.txt}}
"""


WORKLOADS = {w.name: w for w in (
    Workload(
        name="ula_dw1d",
        why="fig3's ULA double well at J=1e5, dim 1: RNG-bound (3 of 4 uniforms "
            "padded away, ndtri), so an RNG layout change moves it most",
        template=_ULA, work=100000 * 300,
        checks=(checks.gibbs_tv("hist_t3.csv", _double_well, _ULA_GRID, 0.03),)),
    Workload(
        name="bdl_bimodal",
        why="c11's birth-death Langevin at J=2000: over 90% in the O(J^2) KDE, "
            "RNG and potentials under 4%, so it moves with the KDE alone",
        template=_BDL, work=2000 * 40,
        checks=(checks.gibbs_tv("hist_t0.4.csv", _two_modes, _BDL_GRID, 0.6),)),
    Workload(
        name="fpe_ou_fine",
        why="c06's 1601-cell FPE oracle: the per-step loop and O(steps^2) "
            "mass_log rebuild, with no RNG or potential calls in the loop",
        template=_FPE, work=1601 * 1000,
        checks=(checks.gibbs_tv("density_t1.csv", lambda x: 0.5 * x**2, _FPE_GRID, 0.1),
                checks.gibbs_tv("density_t1.csv", lambda x: x**2 / (2.0 * _FPE_VAR),
                                _FPE_GRID, 0.01),
                checks.unit_mass("density_t1.csv", _FPE_GRID, 1e-9)),
        final_density="density_t1.csv", grid=_FPE_GRID),
    Workload(
        name="mala_10d_io",
        why="MALA in 10-D at J=2e4 with workers: 2: the only run with rejections, "
            "wide RNG rows, the thread pool and a 21 MB samples CSV",
        template=_mala_template(), work=_MALA_J * 100,
        checks=(checks.coordinate_variance("samples.csv", _MALA_COEFFS, _MALA_J, 0.05),)),
)}
