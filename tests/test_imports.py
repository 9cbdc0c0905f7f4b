"""No command loads scipy: gradflow runs on numpy and PyYAML alone.

The check runs in a fresh interpreter with ``PYTHONPATH=src`` that cannot
import scipy, because this test process has scipy (a test dependency)
loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy import special

from gradflow import rng, sample
from gradflow.config import parse_config

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


BDL_MIXTURE_RUN = """\
problem: "mixture:0.5,-2.0,0.5;0.5,2.0,0.5"
method: bdl
tau: 0.01
steps: 10
seed: 5
particles: 100
init: {kind: gaussian, mean: [-2.0], var: 0.05}
grid: {lo: -6.0, hi: 6.0, n: 60}
outputs:
  - {kind: histogram, path: hist.csv}
  - {kind: metrics, path: metrics.csv}
"""

POSTERIOR_RUN = """\
problem: "gaussian_posterior:0.5,2.0,1.5,0.7,1.2"
method: ula
tau: 0.05
steps: 20
seed: 6
particles: 100
init: {kind: gaussian, mean: [0.0], var: 1.0}
outputs:
  - {kind: samples, path: samples.csv}
  - {kind: stats, path: stats.txt}
"""

RUNS = {"fpe": FPE_RUN, "gd": GD_RUN, "ula": ULA_RUN, "mala": MALA_RUN,
        "bdl_mixture": BDL_MIXTURE_RUN, "posterior": POSTERIOR_RUN}

# a finder ahead of all others that refuses scipy and its submodules, as an
# interpreter without scipy installed would
BLOCK_SCIPY = """\
import sys

class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

sys.meta_path.insert(0, _NoScipy())
"""


def test_no_command_loads_scipy(tmp_path):
    # importing the CLI, validating both recipes, and a grid solve, a descent
    # flow, ULA and MALA (ziggurat Gaussians, no ndtri), birth-death on a
    # mixture and a sampler on a posterior, all in one interpreter
    commands = [["validate", str(ROOT / "recipes" / name)]
                for name in ("fig2_basins.yaml", "fig3_langevin_histograms.yaml")]
    for name, text in RUNS.items():
        (tmp_path / f"{name}.yaml").write_text(text)
        commands.append(["run", str(tmp_path / f"{name}.yaml"),
                         "--out-root", str(tmp_path / name)])
    code = BLOCK_SCIPY + (
        "import json\n"
        "from gradflow.cli import main\n"
        f"codes = [main(args) for args in {commands!r}]\n"
        "print(json.dumps([codes, sorted(k for k in sys.modules if k.startswith('scipy'))]))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    codes, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * len(commands), proc.stderr
    assert scipy_modules == []
    for name, text in RUNS.items():
        for _, path, _ in parse_config(text).files():
            assert (tmp_path / name / path).exists(), (name, path)


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
