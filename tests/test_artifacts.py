"""Artifact writers: byte-for-byte agreement with a csv.writer reference.

The reference writers below format one value per ``format_real`` call and
write one ``csv.writer`` row at a time, as the writers did before rows were
formatted in blocks through one ``%`` template.  Every writer must produce
exactly their bytes.
"""

import csv
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradflow import artifacts
from gradflow.artifacts import (format_real, read_density_csv, read_samples_csv,
                                write_decay_report, write_density_csv,
                                write_metrics_csv, write_samples_csv,
                                write_trajectory_csv)
from gradflow.density import Grid1D, GridDensity
from gradflow.fpe import DecayReport
from gradflow.optimize import Trajectory
from gradflow.sample import ChainStats, SampleRun

EDGES = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, -1e300,
                  0.1, 1.0 / 3.0, 2.0**60])
DENSITY_EDGES = EDGES[~(EDGES < 0)]  # densities are nonnegative; -0.0 stays
B = artifacts._BLOCK_ROWS


# --- the reference writers ---------------------------------------------------------

def _reference(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(row)


def _ref_samples(path, run):
    dim = run.states.shape[2]
    rows = ([int(run.steps[s]), format_real(run.times[s]), j]
            + [format_real(v) for v in run.states[s, j]]
            for s in range(len(run.times)) for j in range(run.states.shape[1]))
    _reference(path, ["step", "time", "particle"]
               + [f"theta_{i}" for i in range(dim)], rows)


def _ref_trajectory(path, traj):
    dim = traj.states.shape[1]
    rows = ([k, format_real(traj.times[k])]
            + [format_real(v) for v in traj.states[k]]
            + [format_real(traj.energies[k]), format_real(traj.grad_norms[k])]
            for k in range(len(traj.times)))
    _reference(path, ["step", "time"] + [f"theta_{i}" for i in range(dim)]
               + ["energy", "grad_norm"], rows)


def _ref_density(path, dens):
    rows = ([format_real(x), format_real(v)]
            for x, v in zip(dens.grid.centers(), dens.values))
    _reference(path, ["x", "value"], rows)


def _ref_decay(path, report):
    _reference(path, ["time", "l2_pi_inv", "kl", "envelope_l2", "envelope_kl"],
               ([format_real(v) for v in row] for row in report.rows()))


def _ref_metrics(path, rows):
    _reference(path, ["time", "metric", "value"],
               ([format_real(r["time"]), r["metric"], format_real(r["value"])]
                for r in rows))


def _same_bytes(tmp_path, write, reference, obj):
    write(tmp_path / "new.csv", obj)
    reference(tmp_path / "ref.csv", obj)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# --- fixtures ----------------------------------------------------------------------

def _with_edges(values, edges=EDGES):
    flat = values.reshape(-1)
    k = min(flat.size, edges.size)
    flat[:k] = edges[:k]
    return values


def _sample_run(n_snaps, n_particles, dim, seed=0):
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((n_snaps, n_particles, dim))
    states *= 10.0 ** rng.integers(-8, 8, states.shape)
    stats = ChainStats(n_steps=0, n_moves=0, n_accepted=0,
                       mean=np.zeros(dim), cov=np.eye(dim))
    return SampleRun(times=np.arange(n_snaps) * 0.1, steps=np.arange(n_snaps) * 10,
                     states=_with_edges(states), stats=stats)


# --- byte identity on edge values --------------------------------------------------

@pytest.mark.parametrize("n_particles", [1, B - 1, B, B + 1])
def test_samples_bytes_match_reference_across_block_edges(tmp_path, n_particles):
    _same_bytes(tmp_path, write_samples_csv, _ref_samples,
                _sample_run(2, n_particles, 3))


def test_trajectory_bytes_match_reference(tmp_path):
    rng = np.random.default_rng(1)
    n = 12
    traj = Trajectory(times=np.linspace(0.0, 1.1, n),
                      states=_with_edges(rng.standard_normal((n, 2))),
                      energies=_with_edges(rng.standard_normal(n)[::-1].copy()),
                      grad_norms=np.abs(rng.standard_normal(n)))
    _same_bytes(tmp_path, write_trajectory_csv, _ref_trajectory, traj)


def test_density_bytes_match_reference(tmp_path):
    values = _with_edges(np.random.default_rng(2).random(40), DENSITY_EDGES)
    dens = GridDensity(grid=Grid1D(x0=-2.0, dx=0.1, n=40), values=values)
    _same_bytes(tmp_path, write_density_csv, _ref_density, dens)


@pytest.mark.parametrize("applicable", [True, False])
def test_decay_report_bytes_match_reference(tmp_path, applicable):
    rng = np.random.default_rng(3)
    n = 15
    env = (lambda: _with_edges(rng.random(n))) if applicable else (lambda: None)
    report = DecayReport(times=np.linspace(0.0, 1.0, n),
                         l2_norms=_with_edges(rng.random(n)), kl_values=rng.random(n),
                         alpha=0.5 if applicable else None, applicable=applicable,
                         l2_envelope=env(), kl_envelope=env())
    _same_bytes(tmp_path, write_decay_report, _ref_decay, report)


def test_metrics_bytes_match_reference(tmp_path):
    rows = [{"time": t, "metric": m, "value": v}
            for t, (m, v) in zip([0.5, np.float64(1.0), 2, 1e300, -0.0],
                                 [("tv", 0.1), ("kl", np.nan), ("l2pinv", np.inf),
                                  ("tv", np.float32(0.3)), ("kl", 5e-324)])]
    _same_bytes(tmp_path, write_metrics_csv, _ref_metrics, rows)
    _same_bytes(tmp_path, write_metrics_csv, _ref_metrics, [])


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=25, deadline=None)
@given(shape=st.tuples(st.integers(1, 3), st.integers(1, 9), st.integers(1, 4)),
       data=st.data())
def test_samples_bytes_match_reference_for_any_finite_values(tmp_path_factory,
                                                             shape, data):
    values = data.draw(st.lists(finite, min_size=int(np.prod(shape)),
                                max_size=int(np.prod(shape))))
    run = _sample_run(*shape)
    run.states[...] = np.reshape(values, shape)
    tmp_path = tmp_path_factory.mktemp("samples")
    _same_bytes(tmp_path, write_samples_csv, _ref_samples, run)
    steps, thetas = read_samples_csv(tmp_path / "new.csv")
    assert np.array_equal(thetas, run.states.reshape(-1, shape[2]))
    assert np.array_equal(steps, np.repeat(run.steps, shape[1]))


# --- readers -----------------------------------------------------------------------

def test_density_round_trips_through_its_csv(tmp_path):
    values = _with_edges(np.random.default_rng(4).random(30), DENSITY_EDGES)
    dens = GridDensity(grid=Grid1D(x0=-1.5, dx=0.1, n=30), values=values)
    write_density_csv(tmp_path / "d.csv", dens)
    back = read_density_csv(tmp_path / "d.csv")
    assert back.grid.n == 30 and back.grid.x0 == -1.5
    assert np.array_equal(back.values, values, equal_nan=True)
    assert np.array_equal(np.signbit(back.values), np.signbit(values))


def test_readers_check_header_and_row_width(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="not a density CSV"):
        read_density_csv(path)
    with pytest.raises(ValueError, match="not a samples CSV"):
        read_samples_csv(path)
    path.write_text("x,value,extra\n1,2\n1.1,3\n")
    with pytest.raises(ValueError, match="rows of 3 values"):
        read_density_csv(path)
    path.write_text("")
    with pytest.raises(ValueError, match="not a samples CSV"):
        read_samples_csv(path)
    path.write_text("step,time,particle,theta_0\r\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="rows of 4 values"):
            read_samples_csv(path)
