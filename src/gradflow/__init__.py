"""Gradient-flow optimization and sampling toolkit.

Deterministic descent schemes with rate diagnostics, Langevin-family
samplers on a reproducible randomness contract, density metrics, and a
finite-volume Fokker-Planck oracle to verify that particle methods evolve
the right densities at the right rates.
"""

__version__ = "0.1.0"

from .density import (Grid1D, GridDensity, gibbs_density, histogram, kde,
                      kl_divergence, l2_pi_inv_norm, moments, normalize,
                      silverman_bandwidth, tv_distance, wasserstein1d)
from .fpe import (DecayReport, FokkerPlanckSolver1D, FpeState, bdl_fpe_step,
                  decay_report, evolve, fpe_step, variance_mobility,
                  weighted_fpe_step)
from .optimize import (ConvergenceReport, MirrorMap, Trajectory,
                       backtracking_line_search, bfgs_update,
                       bregman_divergence, explicit_euler_step, flow_step,
                       implicit_euler_step, mirror_descent_step,
                       negative_entropy_mirror_map, preconditioned_step,
                       quadratic_mirror_map, run_flow, verify_rates)
from .potentials import (GaussianSpec, Potential, estimate_pl_constant,
                         finite_diff_grad, from_identifier, make_boltzmann,
                         make_double_well, make_gaussian_mixture,
                         make_gaussian_posterior, make_pl_not_convex,
                         make_quadratic)
from .rng import RngStream
from .sample import (ChainStats, Ensemble, SampleRun, bdl_step,
                     ensemble_covariance, ensemble_langevin_step,
                     integrated_autocorr_time, mala_acceptance, run_sampler,
                     ula_step)
