"""Acceptance gate: every locked claim at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``); the
assertions carry the same values.  Stochastic checks are fixed-seed
regressions: tolerances were chosen from the estimators' standard errors
and the seeds locked on the first passing run.
"""

from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

from gradflow.config import parse_config
from gradflow.density import (Grid1D, histogram, kl_divergence, normalize,
                              tv_distance)
from gradflow.fpe import (FokkerPlanckSolver1D, FpeState, bdl_fpe_step,
                          decay_report, evolve, fpe_step, weighted_fpe_step)
from gradflow.optimize import flow_step, run_flow, verify_rates
from gradflow.potentials import (GaussianSpec, make_double_well,
                                 make_gaussian_mixture, make_gaussian_posterior,
                                 make_quadratic)
from gradflow.rng import RngStream
from gradflow.runner import run_experiment
from gradflow.sample import (Ensemble, integrated_autocorr_time,
                             mala_acceptance, run_sampler)


def report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def stable_dt(potential, grid, horizon, mobility=1.0):
    bound = FokkerPlanckSolver1D(potential, grid).max_stable_dt(mobility)
    return horizon / int(np.ceil(horizon / bound))


# --- criterion 1: basins of attraction -------------------------------------------

def test_c01_double_well_basins():
    dw = make_double_well()
    finals = {}
    for start in (0.1, 0.5, 2.0, -0.5, -2.0):
        traj = run_flow(dw, flow_step("gd", 0.05), [start], 400, 0.05)
        finals[start] = traj.final_state[0]
    errs = [abs(finals[s] - 1.0) for s in (0.1, 0.5, 2.0)]
    errs += [abs(finals[s] + 1.0) for s in (-0.5, -2.0)]
    report("criterion 1 (basins of attraction)", max(errs) < 1e-6,
           f"max endpoint error {max(errs):.2e} (tol 1e-6)")


# --- criterion 2: discrete linear convergence rate --------------------------------

def test_c02_discrete_linear_rate():
    p = make_quadratic([0.05, 1.0])
    tau = 1.0 / p.lipschitz
    theta0 = np.array([3.0, -2.0])
    traj = run_flow(p, flow_step("gd", tau), theta0, 500, tau)
    rep = verify_rates(traj, p)
    margins = rep.details["bound_margins"]
    coeffs = np.array([0.05, 1.0])
    n = np.arange(len(traj.times))[:, None]
    closed_form = theta0 * (1.0 - 2.0 * tau * coeffs) ** n
    exact_err = float(np.max(np.abs(traj.states - closed_form)))
    ok = (rep.details["bound_applicable"] and margins.min() >= 0.0
          and exact_err < 1e-12 and rep.dissipation_violations == 0)
    report("criterion 2 (discrete linear rate)", ok,
           f"min bound margin {margins.min():.3e}, closed-form error {exact_err:.2e}")


# --- criterion 3: Langevin histograms reach the target -----------------------------

def test_c03_langevin_reaches_target(tmp_path):
    cfg = parse_config(Path("recipes/fig3_langevin_histograms.yaml").read_text())
    run_experiment(cfg, out_root=tmp_path)  # raises AssertionFailure on breach
    rows = (tmp_path / "fig3/metrics.csv").read_text().strip().splitlines()[1:]
    tv = {float(r.split(",")[0]): float(r.split(",")[2])
          for r in rows if r.split(",")[1] == "tv"}
    times = sorted(tv)
    monotone = all(tv[a] >= tv[b] for a, b in zip(times[:-1], times[1:]))
    ok = tv[50.0] < 0.05 and monotone
    report("criterion 3 (Langevin reaches target)", ok,
           f"TV at t=0.25/0.5/50: {tv[0.25]:.4f}/{tv[0.5]:.4f}/{tv[50.0]:.4f} "
           "(final tol 0.05, monotone)")


# --- criterion 4: ULA bias and MALA correction ----------------------------------------

def test_c04_ula_bias_and_mala_correction():
    gauss = make_quadratic([0.5])
    tau, j = 0.2, 100_000
    biased = 1.0 / (1.0 - tau / 2.0)

    ula = run_sampler("ula", gauss,
                      Ensemble.gaussian(RngStream(41), j, [0.0], [[biased]]),
                      tau, 1500, record=())
    var_ula = ula.final[:, 0].var(ddof=1)
    se_ula = var_ula * np.sqrt(2.0 / (j - 1))

    mala = run_sampler("mala", gauss,
                       Ensemble.gaussian(RngStream(42), j, [0.0], [[1.0]]),
                       tau, 1500, record=())
    var_mala = mala.final[:, 0].var(ddof=1)
    se_mala = var_mala * np.sqrt(2.0 / (j - 1))

    ok = (abs(var_ula - biased) < 3 * se_ula
          and abs(var_mala - 1.0) < 3 * se_mala)
    report("criterion 4 (ULA bias, MALA correction)", ok,
           f"ULA var {var_ula:.4f} vs {biased:.4f} (3se {3*se_ula:.4f}); "
           f"MALA var {var_mala:.4f} vs 1.0 (3se {3*se_mala:.4f})")


# --- criterion 5: MALA detailed balance ---------------------------------------------

def test_c05_mala_detailed_balance():
    dw = make_double_well()
    tau = 0.15
    rng = np.random.default_rng(99)

    def log_q(x, y):
        mean = x - tau * dw.grad(x)
        return float(norm.logpdf(y[0], loc=mean[0], scale=np.sqrt(2 * tau)))

    worst = 0.0
    for _ in range(1000):
        x, y = rng.normal(scale=0.9, size=(2, 1))
        lhs = -float(dw.value(x)) + log_q(x, y) + np.log(mala_acceptance(dw, x, y, tau))
        rhs = -float(dw.value(y)) + log_q(y, x) + np.log(mala_acceptance(dw, y, x, tau))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))

    shifted = dw.shifted(321.0)
    worst_shift = 0.0
    for _ in range(100):
        x, y = rng.normal(scale=0.9, size=(2, 1))
        a0 = mala_acceptance(dw, x, y, tau)
        a1 = mala_acceptance(shifted, x, y, tau)
        worst_shift = max(worst_shift, abs(a0 - a1) / a0)

    ok = worst < 1e-10 and worst_shift < 1e-12
    report("criterion 5 (detailed balance)", ok,
           f"worst relative balance error {worst:.2e} (tol 1e-10), "
           f"scale invariance {worst_shift:.2e}")


# --- criteria 6 + 7: decay theorems on the grid oracle ---------------------------------

@pytest.fixture(scope="module")
def ou_decay_states():
    gauss = make_quadratic([0.5])  # alpha = 1
    grid = Grid1D.from_bounds(-8.0, 8.0, 1601)
    rho0 = normalize(norm.pdf(grid.centers(), scale=2.0), grid)
    state = FpeState.initial(gauss, rho0)
    dt = stable_dt(gauss, grid, 0.5)
    states = [state] + evolve(state, fpe_step, (0.5, 1.0, 2.0, 4.0), dt)
    pi = FokkerPlanckSolver1D(gauss, grid).target()
    return states, pi, gauss


def test_c06_poincare_decay(ou_decay_states):
    states, pi, gauss = ou_decay_states
    rep = decay_report(states, pi, alpha=gauss.alpha)
    margins = rep.l2_envelope[1:] - rep.l2_norms[1:]
    report("criterion 6 (weighted-L2 decay)", bool(np.all(margins > 0)),
           f"norms {np.array2string(rep.l2_norms[1:], precision=3)} vs envelopes "
           f"{np.array2string(rep.l2_envelope[1:], precision=3)}")


def test_c07_kl_decay(ou_decay_states):
    states, pi, gauss = ou_decay_states
    rep = decay_report(states, pi, alpha=gauss.alpha)
    margins = rep.kl_envelope[1:] - rep.kl_values[1:]
    report("criterion 7 (KL geodesic decay)", bool(np.all(margins > 0)),
           f"KL {np.array2string(rep.kl_values[1:], precision=4)} vs envelopes "
           f"{np.array2string(rep.kl_envelope[1:], precision=4)}")


# --- criterion 8: stationarity of all grid variants --------------------------------------

def test_c08_stationarity_of_grid_variants():
    dw = make_double_well()
    grid = Grid1D.from_bounds(-3.0, 3.0, 201)
    solver = FokkerPlanckSolver1D(dw, grid)
    pi = solver.target()
    dt = 0.5 * solver.max_stable_dt()
    drifts = {}
    for name, step_fn in (("plain", fpe_step), ("weighted", weighted_fpe_step),
                          ("birth_death", bdl_fpe_step)):
        state = FpeState.initial(dw, pi)
        for _ in range(1000):
            state = step_fn(state, dt)
        drifts[name] = tv_distance(state.density, pi)
    worst = max(drifts.values())
    report("criterion 8 (stationarity of grid variants)", worst < 1e-6,
           "TV drift over 1000 steps: "
           + ", ".join(f"{k}={v:.2e}" for k, v in drifts.items()))


# --- criterion 9: particle-PDE agreement ---------------------------------------------------

def test_c09_particle_pde_agreement():
    dw = make_double_well()
    grid = Grid1D.from_bounds(-4.0, 4.0, 120)
    tau = 1e-3
    j = 100_000
    ens = Ensemble.gaussian(RngStream(77), j, [0.0], [[1.0]])

    rho0 = normalize(norm.pdf(grid.centers()), grid)
    dt = stable_dt(dw, grid, 0.25)
    states = evolve(FpeState.initial(dw, rho0), fpe_step, (0.25, 0.5), dt)

    tvs = {}
    for t_target, state in zip((0.25, 0.5), states):
        span = int(round(t_target / tau)) - ens.step
        run = run_sampler("ula", dw, ens, tau, span, record=())
        ens = Ensemble(particles=run.final, rng=ens.rng, step=ens.step + span)
        tvs[t_target] = tv_distance(histogram(ens.particles[:, 0], grid),
                                    state.density)
    worst = max(tvs.values())
    report("criterion 9 (particle vs PDE)", worst < 0.02,
           f"TV at t=0.25: {tvs[0.25]:.4f}, t=0.5: {tvs[0.5]:.4f} (tol 0.02)")


# --- criterion 10: ensemble preconditioning -------------------------------------------------

def test_c10_ensemble_preconditioning():
    pot, post = make_gaussian_posterior(GaussianSpec([0.0], [[1.0]]),
                                        design=[[1.0]], noise_cov=[[1.0]],
                                        data=[2.0])
    ens = Ensemble.gaussian(RngStream(1001), 1000, [0.0], [[1.0]])
    run = run_sampler("ensemble", pot, ens, 0.005, 20_000, record=())
    final = run.final[:, 0]
    mean_err = abs(final.mean() - post.mean[0])
    var_rel = abs(final.var(ddof=1) - post.covariance[0, 0]) / post.covariance[0, 0]

    aniso = make_quadratic([0.05, 1.0])
    tau, j, n = 0.05, 256, 20_000
    iats = {}
    for method, seed in (("ula", 5), ("ensemble", 6)):
        start = Ensemble.gaussian(RngStream(seed), j,
                                  [0.0, 0.0], np.diag([10.0, 0.5]))
        chain = run_sampler(method, aniso, start, tau, n)
        series = chain.states[2000:]
        iats[method] = [integrated_autocorr_time(series[:, :, ax])
                        for ax in (0, 1)]
    ula_ratio = max(iats["ula"]) / min(iats["ula"])
    ens_ratio = max(iats["ensemble"]) / min(iats["ensemble"])

    ok = (mean_err < 0.05 and var_rel < 0.10
          and ens_ratio < 2.0 and ula_ratio >= 10.0)
    report("criterion 10 (ensemble preconditioning)", ok,
           f"posterior mean err {mean_err:.3f} (tol 0.05), var rel err "
           f"{var_rel:.3f} (tol 0.10); axis-time ratios ensemble "
           f"{ens_ratio:.2f} (<2) vs ULA {ula_ratio:.1f} (>=10)")


# --- criterion 11: birth-death beats plain Langevin on bimodal targets -----------------------

@pytest.fixture(scope="module")
def bimodal_target():
    return make_gaussian_mixture([(0.5, GaussianSpec([-2.0], [[0.25]])),
                                  (0.5, GaussianSpec([2.0], [[0.25]]))])


def test_c11_birth_death_on_bimodal(bimodal_target):
    mix = bimodal_target
    # grid oracle: KL under the exchange variant never lags the plain one
    grid = Grid1D.from_bounds(-6.0, 6.0, 241)
    solver = FokkerPlanckSolver1D(mix, grid)
    pi = solver.target()
    rho0 = normalize(norm.pdf(grid.centers(), loc=-2.0, scale=0.5), grid)
    dt = stable_dt(mix, grid, 5.0)
    out_times = [0.5 * k for k in range(1, 11)]
    plains = evolve(FpeState.initial(mix, rho0), fpe_step, out_times, dt)
    accels = evolve(FpeState.initial(mix, rho0), bdl_fpe_step, out_times, dt)
    kl_ok = True
    kl_pairs = {}
    for t_target, plain, accel in zip(out_times, plains, accels):
        kl_pairs[t_target] = (kl_divergence(accel.density, pi),
                              kl_divergence(plain.density, pi))
        kl_ok = kl_ok and kl_pairs[t_target][0] <= kl_pairs[t_target][1] + 1e-6

    # particles: mass reaches the unseen mode under the exchange, not under ULA
    j, tau, n = 2000, 0.01, 1000
    start = Ensemble.gaussian(RngStream(404), j, [-2.0], [[0.25]])
    bdl_run = run_sampler("bdl", mix, start, tau, n, record=())
    ula_run = run_sampler("ula", mix, start, tau, n, record=())
    right_bdl = float(np.mean(bdl_run.final[:, 0] > 0))
    right_ula = float(np.mean(ula_run.final[:, 0] > 0))

    ok = kl_ok and abs(right_bdl - 0.5) < 0.1 and right_ula < 0.2
    report("criterion 11 (birth-death on bimodal)", ok,
           f"KL(accel) <= KL(plain) at all {len(out_times)} times: {kl_ok}; "
           f"right-mode mass birth-death {right_bdl:.3f} (target 0.5 +- 0.1) "
           f"vs plain {right_ula:.3f} (< 0.2)")


# --- criterion 12: determinism across worker counts -------------------------------------------

def test_c12_determinism_across_workers(tmp_path):
    text = """\
problem: mixture:0.5,-2,0.5;0.5,2,0.5
method: bdl
tau: 0.01
steps: 120
seed: 31415
particles: 300
init:
  kind: gaussian
  mean: [-2.0]
  var: 0.25
outputs:
  - kind: samples
    path: samples.csv
thin: 40
"""
    cfg = parse_config(text)
    blobs = []
    for w in (1, 8):
        run_experiment(cfg, out_root=tmp_path / f"w{w}", workers_override=w)
        blobs.append((tmp_path / f"w{w}" / "samples.csv").read_bytes())
    same_bdl = blobs[0] == blobs[1]

    ula_cfg = parse_config(text.replace("method: bdl", "method: ula"))
    ula_blobs = []
    for w in (1, 8):
        run_experiment(ula_cfg, out_root=tmp_path / f"ula{w}", workers_override=w)
        ula_blobs.append((tmp_path / f"ula{w}" / "samples.csv").read_bytes())
    same_ula = ula_blobs[0] == ula_blobs[1]

    report("criterion 12 (worker-count determinism)", same_bdl and same_ula,
           f"byte-identical sample CSVs at 1 vs 8 workers: "
           f"bdl={same_bdl}, ula={same_ula}")
