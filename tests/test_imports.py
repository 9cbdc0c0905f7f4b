"""Which commands load scipy: a run imports it only where it calls it.

Each check runs in a fresh interpreter with ``PYTHONPATH=src``, because
this test process has scipy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy import special

from gradflow import rng, sample

ROOT = Path(__file__).resolve().parents[1]

FPE_RUN = """\
problem: quadratic:0.5
method: fpe
tau: 0.001
time: 0.05
grid: {lo: -4.0, hi: 4.0, n: 41}
init: {kind: gaussian, mean: 0.5, var: 0.5}
outputs:
  - {kind: density, path: density.csv}
  - {kind: metrics, path: metrics.csv}
  - {kind: rates, path: rates.txt}
"""

ULA_RUN = """\
problem: double_well
method: ula
tau: 0.01
steps: 20
seed: 3
particles: 200
init: {kind: gaussian, mean: [0.0], var: 1.0}
grid: {lo: -3.0, hi: 3.0, n: 30}
outputs:
  - {kind: samples, path: samples.csv}
  - {kind: histogram, path: hist.csv}
  - {kind: metrics, path: metrics.csv}
"""

MALA_RUN = """\
problem: quadratic:0.5,2.0
method: mala
tau: 0.05
steps: 20
seed: 4
particles: 100
init: {kind: gaussian, mean: [0.0, 1.0], var: 1.0}
outputs:
  - {kind: samples, path: samples.csv}
  - {kind: stats, path: stats.txt}
"""

GD_RUN = """\
problem: double_well
method: gd
tau: 0.05
steps: 40
init: [[0.5], [-2.0]]
outputs:
  - {kind: trajectory, path: "trajectory_{i}.csv"}
  - {kind: rates, path: "rates_{i}.txt"}
"""


def _scipy_modules_after(statements: str) -> list:
    """The scipy modules a fresh interpreter holds after ``statements``."""
    code = (statements + "\nimport json, sys\n"
            "print(json.dumps(sorted(k for k in sys.modules if k.startswith('scipy'))))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _cli_scipy_modules(args) -> list:
    return _scipy_modules_after(
        "from gradflow.cli import main\n"
        f"assert main({args!r}) == 0\n")


def _run_config(tmp_path, text) -> list:
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(text)
    return _cli_scipy_modules(["run", str(cfg), "--out-root", str(tmp_path / "out")])


def test_importing_the_cli_loads_no_scipy():
    assert _scipy_modules_after("import gradflow.cli") == []


def test_validating_the_recipes_loads_no_scipy():
    recipes = [str(ROOT / "recipes" / name) for name in
               ("fig2_basins.yaml", "fig3_langevin_histograms.yaml")]
    for recipe in recipes:
        assert _cli_scipy_modules(["validate", recipe]) == []


def test_a_grid_solve_loads_no_scipy(tmp_path):
    assert _run_config(tmp_path, FPE_RUN) == []
    assert (tmp_path / "out" / "density.csv").exists()


def test_a_descent_flow_loads_no_scipy(tmp_path):
    assert _run_config(tmp_path, GD_RUN) == []
    assert (tmp_path / "out" / "trajectory_1.csv").exists()


def test_a_sampler_run_loads_no_scipy(tmp_path):
    # ziggurat Gaussians: a sampler run needs no scipy.special.ndtri
    for name, text in (("ula", ULA_RUN), ("mala", MALA_RUN)):
        (tmp_path / name).mkdir()
        assert _run_config(tmp_path / name, text) == [], name
        assert (tmp_path / name / "out" / "samples.csv").exists()


def test_sample_and_rng_bind_one_ndtri():
    assert sample.ndtri is rng.ndtri


def test_ndtri_is_scipys_bit_for_bit():
    u = np.concatenate([
        [2.0**-64, 1e-300, 2.0**-53, 0.5, 1.0 - 2.0**-53, 0.975],
        rng.RngStream(17).uniform_rows(3, 1000, 1).ravel()])
    got = rng.ndtri(u)
    want = special.ndtri(u)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    rows = rng.RngStream(5).uniform_rows(0, 64, 3)
    assert rng.ndtri(rows).tobytes() == special.ndtri(rows).tobytes()
