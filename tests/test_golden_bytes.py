"""Data artifacts of tiny runs keep their exact bytes.

A refactor of the runner or the config must not move a byte of what a run
writes.  The sha256 of each data artifact of tiny runs is pinned here:
gradient-descent trajectories from two starts, a ULA histogram, metrics
and samples, and FPE and weighted-FPE densities and metrics.  The
trajectories of every other descent method are pinned too, on 1-D
problems so that each linear solve is 1x1: Newton, BFGS from three starts
in one config (state leaking from one start into the next would move a
later file), the proximal step with a Hessian (double well) and without
one (a mixture, which takes the gradient fallback and its Newton polish),
and mirror descent with each map.  Files whose
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



def _descent(method, problem, init, extra=""):
    return (f"problem: {problem}\nmethod: {method}\ntau: 0.1\nsteps: 30\n{extra}"
            f"init: {init}\noutputs:\n  - {{kind: trajectory, path: \"traj_{{i}}.csv\"}}\n")


RUNS = {"gd": GD, "ula": ULA, "fpe": FPE,
        "fpe_weighted": FPE.replace("method: fpe", "method: fpe_weighted"),
        "newton": _descent("newton", "double_well", "[[1.5], [-2.0]]"),
        "bfgs": _descent("bfgs", "double_well", "[[1.5], [-2.0], [0.3]]"),
        "gd_implicit": _descent("gd_implicit", "double_well", "[[1.5], [-0.2]]"),
        "gd_implicit_mixture": _descent(
            "gd_implicit", '"mixture:0.5,-1.0,0.5;0.5,1.0,0.5"', "[[1.5], [-0.2]]"),
        "mirror_quadratic": _descent("mirror", "double_well", "[[1.5], [-2.0]]",
                                     "mirror_map: quadratic\n"),
        "mirror_negative_entropy": _descent("mirror", "double_well", "[[1.5], [0.2]]",
                                            "mirror_map: negative_entropy\n")}

# run/path -> sha256 of the file's bytes
SHA256 = {
    "bfgs/traj_0.csv": "38816f700bffe528032a09a117b33db585e6dca7c00306bb1b42111d02d45516",
    "bfgs/traj_1.csv": "c6e72770c2387e01a3c9765e57b7f9d0ee062792b206d54f7076e6638e2b111f",
    "bfgs/traj_2.csv": "561e73abb2e4c7bce678ddaa240e05af341314a84c1953d6e7dbdeadef893d95",
    "fpe/d_0.05.csv": "47c3e17cae26d4b121d8f3c205ff878c70b4a741cc13d35527fb538852e32d77",
    "fpe/d_0.1.csv": "a258fa66bdbb45eb769b5719f6e27bc722da816fecf21e8abe8332301f9e5e38",
    "fpe/metrics.csv": "d0e1117f9c7cf0936f4842f5e420a22feeec2887ed0a6c79c1e99f329baea445",
    "fpe_weighted/d_0.05.csv": "83eac035b39be2f78a42388df2600ebf204e562601557d10ed4bb7d94b88bb63",
    "fpe_weighted/d_0.1.csv": "7efc2538badc7270a8fd78d179b8699789d05610ccd99159eef04a0ed474c52d",
    "fpe_weighted/metrics.csv": "2d7a6da51e662e5705e4e5be8993f9ec022a3126a22cfa11fdddfb9c5841e8b6",
    "gd/traj_0.csv": "b3ec69cb8c6dc24353789bef5748079fda1da6990891b419c05fbaf98afb252d",
    "gd/traj_1.csv": "1813ff6abb61442ea7f95060181c4c59992fc8f00ed8a6983af96ccb40709805",
    "gd_implicit/traj_0.csv": "64667700bdbcc6314754e6d91f62998e0909d238f70b6b36b3c09f1b10a493a9",
    "gd_implicit/traj_1.csv": "3406d07c171d57a034bea74cae7917ab1ffad16530afad16cdf85785e0545639",
    "gd_implicit_mixture/traj_0.csv":
        "0723d5f54118eb0502c44223b582346e58033f14c5ee141870dcab9a29e051d2",
    "gd_implicit_mixture/traj_1.csv":
        "1160d44f28a549bf4da35a85d06aade07fa9ae0c1f661082bec62a30a87cb302",
    "mirror_negative_entropy/traj_0.csv":
        "6e5bcbe7d0603949f556735601132e8cf2499f6e412a3ee75f16b6714b010c91",
    "mirror_negative_entropy/traj_1.csv":
        "babc64a4737ee009091927789c6e7a9da9b1266e2396dc35c422db057efb8801",
    "mirror_quadratic/traj_0.csv": "b21c7e62f3687d6137a184e2aca0b2b60738e0b730c5681ea8942800292f6836",
    "mirror_quadratic/traj_1.csv": "a17bc89069618fec3a6690f957781c8e9dc92b7b4ca970ff0cac8f4f7c5d14b0",
    "newton/traj_0.csv": "c9d84c65b5ea57f01fa77d4e4a26392dcf24d9e88eec6ae41771df9080bbb4ad",
    "newton/traj_1.csv": "65e8cdecac7a2fc3d0b8440a1e00d44db9fea9868b463fc7b4ea7e10b1964735",
    "ula/h_0.5.csv": "b0fcf3431afec764f3d783a415c5944faabf33fcd676c01ee761f7c777f87c61",
    "ula/h_1.csv": "f175be351557dbe93d14bcd5b071fd320cc7b148ccd6e55d205f60348fa0f9ae",
    "ula/metrics.csv": "f76368644423e5f5a7c55dccd26d2b1a4767338b9efa6453102cd83018777ebb",
    "ula/samples.csv": "1c6df6af124df956d5a6ef6115a4749702986aa93f66c166b387129d74e8aab3",
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_data_artifacts_keep_their_bytes(tmp_path, name):
    manifest = run_experiment(parse_config(RUNS[name]), out_root=tmp_path)
    digests = {f"{name}/{Path(path).relative_to(tmp_path)}":
               hashlib.sha256(Path(path).read_bytes()).hexdigest()
               for path in manifest["artifacts"]}
    assert digests == {k: v for k, v in SHA256.items() if k.startswith(f"{name}/")}
