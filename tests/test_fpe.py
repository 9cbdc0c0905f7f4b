"""Grid oracle against closed-form moment ODEs, stationarity, and decay bounds."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.stats import norm

from gradflow.artifacts import write_density_csv
from gradflow.config import parse_config
from gradflow.density import (Grid1D, GridDensity, kl_divergence, normalize,
                              tv_distance)
from gradflow.errors import StabilityError
import gradflow.fpe
from gradflow.fpe import (FokkerPlanckSolver1D, FpeState, bdl_fpe_step,
                          decay_report, evolve, fpe_step, variance_mobility,
                          weighted_fpe_step)
from gradflow.potentials import (GaussianSpec, Potential, make_double_well,
                                 make_gaussian_mixture, make_quadratic)
from gradflow.runner import run_experiment

OU = make_quadratic([0.5])  # V = theta^2/2, target N(0, 1)


def gaussian_start(grid, var):
    return normalize(norm.pdf(grid.centers(), scale=np.sqrt(var)), grid)


def advance(state, t_final, dt, step_fn=fpe_step):
    n = int(round(t_final / dt))
    for _ in range(n):
        state = step_fn(state, dt)
    return state


def stable_dt(potential, grid, t_final, mobility=1.0):
    """Largest dt below the stability bound that lands on t_final exactly."""
    bound = FokkerPlanckSolver1D(potential, grid).max_stable_dt(mobility)
    return t_final / int(np.ceil(t_final / bound))


# --- stationarity ----------------------------------------------------------------

@pytest.mark.parametrize("step_fn", [fpe_step, weighted_fpe_step, bdl_fpe_step],
                         ids=["plain", "weighted", "birth_death"])
def test_gibbs_state_is_stationary_per_step(step_fn):
    dw = make_double_well()
    grid = Grid1D.from_bounds(-3.0, 3.0, 301)
    state = FpeState.initial(dw, FokkerPlanckSolver1D(dw, grid).target())
    dt = 0.5 * stable_dt(dw, grid, 1.0)
    moved = step_fn(state, dt)
    assert tv_distance(moved.density, state.density) < 1e-10


@pytest.mark.parametrize("step_fn", [fpe_step, weighted_fpe_step, bdl_fpe_step],
                         ids=["plain", "weighted", "birth_death"])
def test_gibbs_state_drift_over_thousand_steps(step_fn):
    dw = make_double_well()
    grid = Grid1D.from_bounds(-3.0, 3.0, 201)
    solver = FokkerPlanckSolver1D(dw, grid)
    pi = solver.target()
    state = FpeState.initial(dw, pi)
    dt = 0.5 * solver.max_stable_dt()
    for _ in range(1000):
        state = step_fn(state, dt)
    assert tv_distance(state.density, pi) < 1e-6


# --- moment ODE oracles -------------------------------------------------------------

def test_ou_variance_tracks_closed_form():
    # v' = 2 - 2v from v0 gives v(t) = 1 + (v0 - 1) exp(-2t)
    grid = Grid1D.from_bounds(-8.0, 8.0, 801)
    v0 = 0.25
    dt = stable_dt(OU, grid, 1.0)
    state = advance(FpeState.initial(OU, gaussian_start(grid, v0)), 1.0, dt)
    expected = 1.0 + (v0 - 1.0) * np.exp(-2.0)
    assert state.density.variance() == pytest.approx(expected, rel=1e-3)
    assert state.time == pytest.approx(1.0)


def test_heat_kernel_variance_grows_linearly():
    flat = Potential(dim=1, value=lambda t: np.zeros(t.shape[:-1]),
                     grad=np.zeros_like)
    grid = Grid1D.from_bounds(-10.0, 10.0, 801)
    v0 = 0.5
    dt = stable_dt(flat, grid, 0.5)
    state = advance(FpeState.initial(flat, gaussian_start(grid, v0)), 0.5, dt)
    assert state.density.variance() == pytest.approx(v0 + 2 * 0.5, rel=1e-3)


def test_self_convergence_order_at_least_1_8():
    # halving dx (and quartering dt) must shrink the error like dx^2;
    # the initial spread is kept narrow so domain truncation stays far
    # below the discretization error being measured
    t_final, v0 = 0.25, 2.0
    errs = []
    for n in (200, 400):
        grid = Grid1D.from_bounds(-10.0, 10.0, n)
        dt = stable_dt(OU, grid, t_final) / 4.0
        state = advance(FpeState.initial(OU, gaussian_start(grid, v0)), t_final,
                        t_final / int(round(t_final / dt)))
        v_exact = 1.0 + (v0 - 1.0) * np.exp(-2 * t_final)
        errs.append(tv_distance(state.density, gaussian_start(grid, v_exact)))
    order = np.log2(errs[0] / errs[1])
    assert order >= 1.8


# --- conservation and positivity ------------------------------------------------------

def test_mass_conserved_and_nonnegative():
    dw = make_double_well()
    grid = Grid1D.from_bounds(-3.0, 3.0, 151)
    rough = np.zeros(151)
    rough[60:75] = 1.0
    state = FpeState.initial(dw, normalize(rough, grid))
    dt = 0.9 * stable_dt(dw, grid, 1.0)
    for _ in range(200):
        state = fpe_step(state, dt)
        assert abs(state.density.mass() - 1.0) < 1e-12
        assert np.all(state.density.values >= 0.0)


def test_grid_density_and_fpe_state_compare_by_value():
    grid = Grid1D.from_bounds(-4.0, 4.0, 41)
    a = gaussian_start(grid, 2.0)
    same = GridDensity(grid=grid, values=a.values.copy(), log_norm=a.log_norm)
    assert a == same and not a != same
    assert a != GridDensity(grid=grid, values=2.0 * a.values, log_norm=a.log_norm)
    assert a != GridDensity(grid=grid, values=a.values)  # no log_norm
    assert a != GridDensity(grid=Grid1D.from_bounds(-4.0, 4.1, 41), values=a.values,
                            log_norm=a.log_norm)
    assert a != "not a density"
    s0 = FpeState.initial(OU, a)
    s1 = fpe_step(s0, 0.5 * s0.solver.max_stable_dt())
    assert s1 != s0
    assert s0 == FpeState(values=same.values, time=0.0, solver=s0.solver)
    assert s1 == FpeState(values=s1.values.copy(), time=s1.time, solver=s0.solver)


def test_fpe_state_refuses_values_a_grid_density_refuses():
    grid = Grid1D.from_bounds(-4.0, 4.0, 41)
    solver = FpeState.initial(OU, gaussian_start(grid, 1.0)).solver
    with pytest.raises(ValueError, match="nonnegative"):
        FpeState(values=np.full(41, -1e-3), time=0.0, solver=solver)
    with pytest.raises(ValueError, match="nonnegative"):  # one check, NaN or not
        FpeState(values=np.array([np.nan, -1.0] + [1.0] * 39), time=0.0, solver=solver)
    with pytest.raises(ValueError, match="length"):
        FpeState(values=np.ones(40), time=0.0, solver=solver)


def test_a_stepped_state_builds_its_density_once_when_read():
    grid = Grid1D.from_bounds(-4.0, 4.0, 41)
    s0 = FpeState.initial(OU, gaussian_start(grid, 1.0))
    s1 = fpe_step(s0, 0.5 * s0.solver.max_stable_dt())
    assert "density" not in vars(s1)  # stepping builds no GridDensity
    assert s1.density == GridDensity(grid=grid, values=s1.values)
    assert s1.density is s1.density


def test_stability_error_names_admissible_dt():
    grid = Grid1D.from_bounds(-3.0, 3.0, 151)
    state = FpeState.initial(OU, gaussian_start(grid, 1.0))
    bound = FokkerPlanckSolver1D(OU, grid).max_stable_dt()
    with pytest.raises(StabilityError) as err:
        fpe_step(state, 10.0 * bound)
    assert err.value.dt_max == pytest.approx(bound)
    assert "maximal admissible dt" in str(err.value)


def test_a_step_needs_a_positive_dt():
    solver = FokkerPlanckSolver1D(OU, Grid1D.from_bounds(-3.0, 3.0, 31))
    values = solver.target().values
    for dt in (0.0, -1e-3):
        with pytest.raises(ValueError, match="dt must be positive"):
            solver.drift_diffusion_step(values, dt)


def test_the_solver_refuses_a_2d_potential():
    with pytest.raises(ValueError, match="1-D only"):
        FokkerPlanckSolver1D(make_quadratic([0.5, 2.0]), Grid1D.from_bounds(-3.0, 3.0, 31))


# --- weighted variant ------------------------------------------------------------------

def test_weighted_matches_plain_at_unit_variance():
    # engineer a density whose grid variance is exactly 1 by mixing two
    # centered profiles; then the first weighted step equals the plain step
    grid = Grid1D.from_bounds(-8.0, 8.0, 401)
    a = gaussian_start(grid, 0.25)
    b = gaussian_start(grid, 4.0)
    va, vb = a.variance(), b.variance()
    w = (vb - 1.0) / (vb - va)
    mix = GridDensity(grid=grid, values=w * a.values + (1 - w) * b.values)
    assert mix.variance() == pytest.approx(1.0, abs=1e-13)
    dt = 0.25 * stable_dt(OU, grid, 1.0)
    plain = fpe_step(FpeState.initial(OU, mix), dt)
    weighted = weighted_fpe_step(FpeState.initial(OU, mix), dt)
    assert np.max(np.abs(plain.density.values - weighted.density.values)) < 1e-12


def test_weighted_kl_monotone_on_ou():
    grid = Grid1D.from_bounds(-8.0, 8.0, 401)
    solver = FokkerPlanckSolver1D(OU, grid)
    pi = solver.target()
    state = FpeState.initial(OU, gaussian_start(grid, 4.0))
    dt = 0.1 * solver.max_stable_dt(mobility=4.5)
    last = kl_divergence(state.density, pi)
    for _ in range(300):
        state = weighted_fpe_step(state, dt)
        now = kl_divergence(state.density, pi)
        assert now <= last + 1e-12
        last = now


DOUBLE_WELL_WEIGHTED = """\
problem: double_well
method: fpe_weighted
tau: 0.002
time: 0.4
grid: {lo: -3.0, hi: 3.0, n: 121}
init: {kind: gaussian, mean: 0.7, var: 0.2}
outputs:
  - {kind: density, path: "density_t{t}.csv", times: [0.1, 0.4]}
"""


def test_weighted_run_bytes_match_the_two_pass_loop(tmp_path):
    # the runner computes each step's variance once, for the dt bound and
    # the mobility; its densities keep the bytes of the loop that computed
    # it twice, once in the runner and once in the step
    run_experiment(parse_config(DOUBLE_WELL_WEIGHTED), out_root=tmp_path / "run")
    dw = make_double_well()
    grid = Grid1D.from_bounds(-3.0, 3.0, 121)
    x = grid.centers()
    state = FpeState.initial(dw, normalize(np.exp(-((x - 0.7) ** 2) / (2.0 * 0.2)), grid))
    for t_target in (0.1, 0.4):
        while state.time < t_target - 1e-12:
            mobility = max(state.density.variance(), 1e-12)
            dt = min(0.002, state.solver.max_stable_dt(mobility), t_target - state.time)
            state = weighted_fpe_step(state, dt)
        want = tmp_path / f"want_{t_target}.csv"
        write_density_csv(want, state.density)
        got = tmp_path / "run" / f"density_t{t_target}.csv"
        assert got.read_bytes() == want.read_bytes()
    assert state.time == pytest.approx(0.4)


def test_a_state_computes_its_variance_once_as_its_density_does(monkeypatch):
    grid = Grid1D.from_bounds(-3.0, 3.0, 121)
    state = FpeState.initial(make_double_well(), gaussian_start(grid, 0.5))
    assert state.variance.hex() == state.density.variance().hex()
    passes, built = [], []
    cell_variance = gradflow.fpe.cell_variance
    monkeypatch.setattr(gradflow.fpe, "cell_variance",
                        lambda *args: passes.append(args) or cell_variance(*args))
    post_init = GridDensity.__post_init__
    monkeypatch.setattr(GridDensity, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    fresh = FpeState(values=state.values, time=0.0, solver=state.solver)
    # the dt bound and the weighted step read one pass over the cell values
    # and build no GridDensity
    moved = weighted_fpe_step(fresh, 0.5 * fresh.solver.max_stable_dt(
        variance_mobility(fresh)))
    assert fresh.variance == state.variance
    assert len(passes) == 1 and passes[0][0] is fresh.values
    assert built == [] and "density" not in vars(fresh) and "density" not in vars(moved)


def test_weighted_rejects_collapsed_density():
    grid = Grid1D.from_bounds(-1.0, 1.0, 101)
    spike = np.zeros(101)
    spike[50] = 1.0
    state = FpeState.initial(OU, normalize(spike, grid))
    with pytest.raises(ValueError, match="collapsed"):
        weighted_fpe_step(state, 1e-6)


# --- birth-death variant ------------------------------------------------------------------

def bimodal():
    return make_gaussian_mixture([(0.5, GaussianSpec([-2.0], [[0.25]])),
                                  (0.5, GaussianSpec([2.0], [[0.25]]))])


def test_bdl_constant_potential_shift_is_inert():
    mix = bimodal()
    grid = Grid1D.from_bounds(-6.0, 6.0, 241)
    start = gaussian_start(grid, 0.25)
    start = GridDensity(grid=grid, values=np.roll(start.values, -40))  # offset blob
    start = normalize(start.values, grid)
    dt = 0.5 * stable_dt(mix, grid, 1.0)
    a = bdl_fpe_step(FpeState.initial(mix, start), dt)
    b = bdl_fpe_step(FpeState.initial(mix.shifted(42.0), start), dt)
    assert np.max(np.abs(a.density.values - b.density.values)) < 1e-12


def test_bdl_reaches_hidden_mode_faster_than_plain():
    # start entirely in the left mode: the exchange term feeds the right
    # mode directly, so the KL to the target stays at or below plain
    mix = bimodal()
    grid = Grid1D.from_bounds(-6.0, 6.0, 241)
    solver = FokkerPlanckSolver1D(mix, grid)
    pi = solver.target()
    x = grid.centers()
    start = normalize(norm.pdf(x, loc=-2.0, scale=0.5), grid)
    dt = stable_dt(mix, grid, 3.0)
    plain = FpeState.initial(mix, start)
    accel = FpeState.initial(mix, start)
    checks = 0
    for k in range(int(round(3.0 / dt))):
        plain = fpe_step(plain, dt)
        accel = bdl_fpe_step(accel, dt)
        if (k + 1) % 500 == 0:
            checks += 1
            assert (kl_divergence(accel.density, pi)
                    <= kl_divergence(plain.density, pi) + 1e-6)
    assert checks > 0
    assert kl_divergence(accel.density, pi) < 0.1
    assert kl_divergence(plain.density, pi) > 0.3


def test_bdl_errors_when_target_underflows():
    dw = make_double_well()  # V(8) ~ 1.5e3: exp(-V) underflows to 0 at the edges
    grid = Grid1D.from_bounds(-8.0, 8.0, 241)
    state = FpeState.initial(dw, gaussian_start(grid, 1.0))
    with pytest.raises(ValueError, match="underflow"):
        bdl_fpe_step(state, 1e-6)


# --- decay report -----------------------------------------------------------------------

def test_decay_report_ou_envelopes_hold():
    grid = Grid1D.from_bounds(-8.0, 8.0, 401)
    solver = FokkerPlanckSolver1D(OU, grid)
    pi = solver.target()
    state = FpeState.initial(OU, gaussian_start(grid, 4.0))
    dt = stable_dt(OU, grid, 0.5)
    states = [state]
    for _ in range(4):
        state = advance(state, state.time + 0.5 - state.time, dt)
        states.append(state)
    report = decay_report(states, pi, alpha=OU.alpha)
    assert report.applicable
    assert report.l2_satisfied and report.kl_satisfied
    assert np.all(report.l2_envelope[1:] - report.l2_norms[1:] > 0)
    assert np.all(report.kl_envelope[1:] - report.kl_values[1:] > 0)
    assert len(report.rows()) == 5


def test_decay_report_needs_a_state():
    pi = FokkerPlanckSolver1D(OU, Grid1D.from_bounds(-3.0, 3.0, 31)).target()
    with pytest.raises(ValueError, match="at least one state"):
        decay_report([], pi, alpha=OU.alpha)


def test_decay_report_at_target_is_flat_zero():
    grid = Grid1D.from_bounds(-8.0, 8.0, 401)
    solver = FokkerPlanckSolver1D(OU, grid)
    pi = solver.target()
    state = FpeState.initial(OU, pi)
    dt = stable_dt(OU, grid, 0.1)
    states = [state, advance(state, 0.1, dt)]
    report = decay_report(states, pi, alpha=1.0)
    assert report.l2_norms[0] == 0.0
    assert report.kl_values[-1] == pytest.approx(0.0, abs=1e-9)


def test_decay_report_not_applicable_without_alpha():
    dw = make_double_well()
    grid = Grid1D.from_bounds(-3.0, 3.0, 201)
    solver = FokkerPlanckSolver1D(dw, grid)
    state = FpeState.initial(dw, solver.target())
    report = decay_report([state], solver.target(), alpha=dw.alpha)
    assert not report.applicable
    assert report.l2_satisfied is None and report.kl_satisfied is None
    assert np.isnan(report.rows()[0][3])


def test_boundary_mass_monitor():
    grid = Grid1D.from_bounds(-8.0, 8.0, 401)
    state = FpeState.initial(OU, gaussian_start(grid, 1.0))
    assert state.boundary_mass() < 1e-10


# --- properties: mass and positivity under the stability bound ------------------------

@pytest.mark.parametrize("step_fn", [fpe_step, weighted_fpe_step, bdl_fpe_step],
                         ids=["plain", "weighted", "birth_death"])
@settings(max_examples=15, deadline=None)
@given(data=st.data(), n=st.integers(21, 201), frac=st.floats(1e-3, 1.0),
       potential=st.sampled_from([OU, make_double_well()]))
def test_steps_keep_unit_mass_and_nonnegative_values(step_fn, data, n, frac, potential):
    values = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e6)),
                                min_size=n, max_size=n))
    assume(sum(v > 0.0 for v in values) >= 2)
    grid = Grid1D.from_bounds(-4.0, 4.0, n)
    state = FpeState.initial(potential, normalize(values, grid))
    for _ in range(3):
        mobility = variance_mobility(state) if step_fn is weighted_fpe_step else 1.0
        state = step_fn(state, frac * state.solver.max_stable_dt(mobility))
        assert abs(state.density.mass() - 1.0) < 1e-12
        assert np.all(state.density.values >= 0.0)


# --- properties: bits of the flux kernel and stationarity of the Gibbs state ----------

@settings(max_examples=25, deadline=None)
@given(data=st.data(), n=st.integers(21, 201), frac=st.floats(1e-3, 1.0),
       mobility=st.one_of(st.just(1.0), st.floats(1e-2, 10.0)),
       potential=st.sampled_from([OU, make_double_well()]))
def test_flux_kernel_bits_match_the_reference_expression(data, n, frac, mobility,
                                                          potential):
    v = np.array(data.draw(st.lists(st.floats(0.0, 1e6), min_size=n, max_size=n)))
    solver = FokkerPlanckSolver1D(potential, Grid1D.from_bounds(-4.0, 4.0, n))
    dt = frac * solver.max_stable_dt(mobility)
    dx = solver.grid.dx
    flux = -mobility * (solver._b_minus * v[1:] - solver._b_plus * v[:-1]) / dx
    expected = v.copy()
    expected[:-1] -= (dt / dx) * flux
    expected[1:] += (dt / dx) * flux
    got = solver.drift_diffusion_step(v, dt, mobility=mobility)
    assert got.tobytes() == expected.tobytes()


def two_modes_at_1_5():
    return make_gaussian_mixture([(0.5, GaussianSpec([-1.5], [[0.25]])),
                                  (0.5, GaussianSpec([1.5], [[0.25]]))])


@pytest.mark.parametrize("step_fn", [fpe_step, weighted_fpe_step, bdl_fpe_step],
                         ids=["plain", "weighted", "birth_death"])
@settings(max_examples=10, deadline=None)
@given(potential=st.one_of(st.floats(0.1, 4.0).map(lambda a: make_quadratic([a])),
                           st.just(make_double_well()), st.just(two_modes_at_1_5())),
       n=st.integers(21, 201), frac=st.floats(1e-3, 1.0))
def test_gibbs_state_stays_put_for_twenty_steps(step_fn, potential, n, frac):
    solver = FokkerPlanckSolver1D(potential, Grid1D.from_bounds(-4.0, 4.0, n))
    pi = solver.target()
    state = FpeState.initial(potential, pi)
    for _ in range(20):
        mobility = variance_mobility(state) if step_fn is weighted_fpe_step else 1.0
        state = step_fn(state, frac * state.solver.max_stable_dt(mobility))
    assert tv_distance(state.density, pi) < 1e-10


# --- properties: the stepping loop ---------------------------------------------------

EVOLVED_STEPS = [(fpe_step, None), (weighted_fpe_step, variance_mobility),
                 (bdl_fpe_step, None)]


@pytest.mark.parametrize("step_fn, mobility", EVOLVED_STEPS,
                         ids=["plain", "weighted", "birth_death"])
@settings(max_examples=10, deadline=None)
@given(values=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e6)),
                       min_size=21, max_size=101),
       potential=st.sampled_from([OU, make_double_well()]),
       t1=st.floats(1e-4, 0.02), gap=st.floats(0.0, 0.02), tau=st.floats(1e-4, 1e-2))
# t2 - t1 is 1.0000004e-12, but t1 < t2 - 1e-12 rounds to False
@example(values=[1.0] * 21, potential=OU, t1=0.0078125, gap=1e-12, tau=0.0078125)
def test_evolve_is_chunking_invariant_and_lands_on_its_times(
        step_fn, mobility, values, potential, t1, gap, tau):
    assume(sum(v > 0.0 for v in values) >= 2)
    grid = Grid1D.from_bounds(-4.0, 4.0, len(values))
    start = FpeState.initial(potential, normalize(values, grid))
    t2 = t1 + gap
    both = evolve(start, step_fn, [t1, t2], tau, mobility)
    first = evolve(start, step_fn, [t1], tau, mobility)
    then = evolve(first[-1], step_fn, [t2], tau, mobility)
    for got, want in zip(both, first + then):
        assert got.time == want.time
        assert got.values.tobytes() == want.values.tobytes()
    for state, t in zip(both, (t1, t2)):
        assert abs(state.time - t) <= 1e-12
        assert abs(state.density.mass() - 1.0) < 1e-12
        assert state.values.min() >= 0.0
