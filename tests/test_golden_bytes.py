"""Data artifacts of tiny runs keep their exact bytes.

A refactor of the runner or the config must not move a byte of what a run
writes.  The sha256 of each data artifact of four tiny runs is pinned
here: deterministic trajectories from two starts, a ULA histogram, metrics
and samples, and FPE and weighted-FPE densities and metrics.  Files whose
bits pass through BLAS or LAPACK (chain stats, deterministic rates,
ensemble and birth-death runs) are left out, since their last bits may
differ between builds of those libraries.
"""

import hashlib
from pathlib import Path

import pytest

from gradflow.config import parse_config
from gradflow.runner import run_experiment

GD = """\
problem: double_well
method: gd
tau: 0.05
steps: 40
init: [[0.5], [-1.5]]
outputs:
  - {kind: trajectory, path: "traj_{i}.csv"}
"""

ULA = """\
problem: double_well
method: ula
tau: 0.05
steps: 20
seed: 3
particles: 200
init: {kind: points, points: [[-1.0], [0.2], [1.5]]}
grid: {lo: -3.0, hi: 3.0, n: 30}
thin: 5
outputs:
  - {kind: histogram, path: "h_{t}.csv", times: [0.5, 1.0]}
  - {kind: metrics, path: metrics.csv}
  - {kind: samples, path: samples.csv}
"""

FPE = """\
problem: double_well
method: fpe
dt: 0.001
time: 0.1
init: {kind: gaussian, mean: [0.5], var: 0.5}
grid: {lo: -3.0, hi: 3.0, n: 41}
outputs:
  - {kind: density, path: "d_{t}.csv", times: [0.05, 0.1]}
  - {kind: metrics, path: metrics.csv}
"""

RUNS = {"gd": GD, "ula": ULA, "fpe": FPE,
        "fpe_weighted": FPE.replace("method: fpe", "method: fpe_weighted")}

# run/path -> sha256 of the file's bytes
SHA256 = {
    "fpe/d_0.05.csv": "47c3e17cae26d4b121d8f3c205ff878c70b4a741cc13d35527fb538852e32d77",
    "fpe/d_0.1.csv": "a258fa66bdbb45eb769b5719f6e27bc722da816fecf21e8abe8332301f9e5e38",
    "fpe/metrics.csv": "d0e1117f9c7cf0936f4842f5e420a22feeec2887ed0a6c79c1e99f329baea445",
    "fpe_weighted/d_0.05.csv": "83eac035b39be2f78a42388df2600ebf204e562601557d10ed4bb7d94b88bb63",
    "fpe_weighted/d_0.1.csv": "7efc2538badc7270a8fd78d179b8699789d05610ccd99159eef04a0ed474c52d",
    "fpe_weighted/metrics.csv": "2d7a6da51e662e5705e4e5be8993f9ec022a3126a22cfa11fdddfb9c5841e8b6",
    "gd/traj_0.csv": "b3ec69cb8c6dc24353789bef5748079fda1da6990891b419c05fbaf98afb252d",
    "gd/traj_1.csv": "1813ff6abb61442ea7f95060181c4c59992fc8f00ed8a6983af96ccb40709805",
    "ula/h_0.5.csv": "d92be55bc07d402b07746bf49a7de9642aaf634cd5241a3ff9fe9018b029f330",
    "ula/h_1.csv": "f894f5cecc1dfff2cecc7feabe9af4878afea58407769647a8bee2e57dd22a99",
    "ula/metrics.csv": "cfbaabae06870dacf4f1346a353da6351204b23c8881a2293d6400faebabfcd8",
    "ula/samples.csv": "f99b3b7c24e24c09a2b8e93183ee896f3832b89fffb1c1790800c023b2b477bc",
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_data_artifacts_keep_their_bytes(tmp_path, name):
    manifest = run_experiment(parse_config(RUNS[name]), out_root=tmp_path)
    digests = {f"{name}/{Path(path).relative_to(tmp_path)}":
               hashlib.sha256(Path(path).read_bytes()).hexdigest()
               for path in manifest["artifacts"]}
    assert digests == {k: v for k, v in SHA256.items() if k.startswith(f"{name}/")}
