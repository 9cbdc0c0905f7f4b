"""Config parsing, experiment runner artifacts, and the CLI surface."""

import csv
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings, strategies as st

from gradflow.artifacts import read_density_csv, write_density_csv
from gradflow.cli import main
from gradflow.config import (DETERMINISTIC_METHODS, GRID_METHODS, STOCHASTIC_METHODS,
                             ExperimentConfig, config_to_dict, parse_config,
                             serialize_config)
from gradflow.density import GridDensity, l2_pi_inv_norm, wasserstein1d
from gradflow.errors import ConfigError
from gradflow.runner import AssertionFailure, compare_files, run_experiment

MINIMAL_GD = """\
problem: double_well
method: gd
tau: 0.05
time: 20.0
init: [0.5]
"""

TINY_ULA = """\
problem: quadratic:0.5
method: ula
tau: 0.1
steps: 200
seed: 11
particles: 400
init:
  kind: gaussian
  mean: [0.0]
  var: 1.0
grid:
  lo: -5.0
  hi: 5.0
  n: 40
outputs:
  - kind: histogram
    path: hist.csv
  - kind: metrics
    path: metrics.csv
    times: [10.0, 20.0]
  - kind: samples
    path: samples.csv
  - kind: stats
    path: stats.txt
thin: 50
"""


# --- parsing -------------------------------------------------------------------

def test_parse_minimal_fills_defaults():
    cfg = parse_config(MINIMAL_GD)
    assert cfg.method == "gd"
    assert cfg.thin == 1 and cfg.workers == 1
    assert cfg.bandwidth == "auto"
    assert cfg.mirror_map == "quadratic"
    assert cfg.n_steps() == 400


def test_missing_seed_for_ula_names_the_field():
    text = TINY_ULA.replace("seed: 11\n", "")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert any("'seed'" in line for line in err.value.errors)


def test_unknown_key_rejected_with_line_number():
    text = MINIMAL_GD + "learning_rate: 0.1\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert any("unknown key 'learning_rate'" in line for line in err.value.errors)
    assert any("line 6" in line for line in err.value.errors)


def test_type_error_reports_line_number():
    text = MINIMAL_GD.replace("tau: 0.05", "tau: fast")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert any("line 3" in line and "tau" in line for line in err.value.errors)


def test_all_errors_reported_not_just_first():
    text = """\
problem: double_well
method: ula
tau: -1
steps: 10
particles: 0
bogus: 1
"""
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    joined = "\n".join(err.value.errors)
    assert "tau" in joined and "particles" in joined and "bogus" in joined
    assert len(err.value.errors) >= 3


def test_exactly_one_of_steps_and_time():
    with pytest.raises(ConfigError):
        parse_config(MINIMAL_GD + "steps: 10\n")
    with pytest.raises(ConfigError):
        parse_config(MINIMAL_GD.replace("time: 20.0\n", ""))


def test_output_kind_must_match_method_family():
    text = MINIMAL_GD + "outputs:\n  - kind: histogram\n    path: h.csv\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert any("not valid for method" in line for line in err.value.errors)


def test_grid_required_for_metrics():
    text = TINY_ULA.replace("grid:\n  lo: -5.0\n  hi: 5.0\n  n: 40\n", "")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert any("grid" in line for line in err.value.errors)


def test_round_trip_parse_serialize_parse():
    for text in (MINIMAL_GD, TINY_ULA):
        cfg = parse_config(text)
        again = parse_config(serialize_config(cfg))
        assert cfg == again


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


PROBLEMS = {1: ["double_well", "quadratic:0.5", "mixture:0.5,-2.0,0.5;0.5,2.0,0.5"],
            2: ["quadratic:0.5,2.0", "pl_not_convex"],
            3: ["quadratic:0.5,2.0,1.0"]}
# no path here is another's expansion, so outputs at distinct paths never
# share a file
PATHS = ["out.csv", "yes", "1.5", "a b.txt",
         "runs/{i}/t.csv", "{i}.csv", "r_{i}.txt", "no{i}",
         "h_t{t}.csv", "d/{t}.csv", "t{t}", "x{t}y"]


@st.composite
def _configs(draw):
    """YAML text of a config that parsing accepts: any method, tau or dt,
    steps or time, every init form its family runs, outputs and the
    assertions its family takes, on a problem of the config's dimension
    that has what the method and outputs need, with no two files at one
    path."""
    method = draw(st.sampled_from(DETERMINISTIC_METHODS + STOCHASTIC_METHODS
                                  + GRID_METHODS))
    family = ("deterministic" if method in DETERMINISTIC_METHODS
              else "stochastic" if method in STOCHASTIC_METHODS else "grid")
    tau = draw(st.floats(min_value=1e-4, max_value=1.0))
    dim = 1 if family == "grid" else draw(st.integers(1, 3))
    # the mixture has no known minimum (rates); newton needs a positive
    # definite Hessian at its starts, which only the quadratics have everywhere
    problem = draw(st.sampled_from([p for p in PROBLEMS[dim]
                                    if method != "newton" or p.startswith("quadratic")]))
    doc = {"problem": problem,
           "method": method,
           draw(st.sampled_from(["tau", "dt"])): tau}
    if draw(st.booleans()):
        doc["steps"] = n_steps = draw(st.integers(0, 10_000))
        horizon = n_steps * tau
    else:
        doc["time"] = horizon = draw(st.floats(min_value=1e-3, max_value=100.0))
        n_steps = max(0, int(round(doc["time"] / tau)))
        if family == "stochastic":
            horizon = n_steps * tau

    # a sampler records whole steps; a grid solve reaches any time in its horizon
    times = (st.integers(0, n_steps).map(lambda k: k * tau) if family == "stochastic"
             else st.floats(min_value=0.0, max_value=horizon))
    if method == "mirror":
        doc["mirror_map"] = draw(st.sampled_from(["quadratic", "negative_entropy"]))
    # the negative-entropy map runs on the positive orthant
    coordinate = POSITIVE if doc.get("mirror_map") == "negative_entropy" else FINITE
    point = st.lists(coordinate, min_size=dim, max_size=dim)
    init_kind = draw(st.sampled_from({"deterministic": ["point", "list"],
                                      "stochastic": ["point", "list", "gaussian", "points"],
                                      "grid": ["gaussian", "gibbs"]}[family]))
    if init_kind == "point":
        doc["init"] = draw(point)
    elif init_kind == "list":
        doc["init"] = draw(st.lists(point, min_size=1, max_size=4))
    elif init_kind == "points":
        doc["init"] = {"kind": "points", "points": draw(st.lists(point, min_size=1,
                                                                 max_size=4))}
    elif init_kind == "gibbs":
        doc["init"] = {"kind": "gibbs"}
    else:
        mean = draw(point)
        doc["init"] = {"kind": "gaussian", "mean": mean[0] if dim == 1 and
                       draw(st.booleans()) else mean}
        if draw(st.booleans()):
            doc["init"]["var"] = draw(POSITIVE)
        else:
            diag = draw(st.lists(st.floats(1e-3, 1e3), min_size=dim, max_size=dim))
            doc["init"]["cov"] = np.diag(diag).tolist()
    if family == "stochastic":
        doc["seed"] = draw(st.integers(0, 2**64 - 1))
        doc["particles"] = draw(st.integers(2 if method == "bdl" else 1, 10**6))
        if method == "ensemble" and (doc["particles"] == 1 or init_kind != "gaussian"):
            # particles that may all start on one point have zero covariance
            doc["ridge"] = draw(st.floats(1e-3, 1e3))
        doc["bandwidth"] = draw(st.one_of(st.just("auto"), POSITIVE))
    if family != "deterministic" or draw(st.booleans()):
        if family == "grid":
            # a grid solve needs its target above 1e-300 (rates, fpe_bdl's
            # log pi); every 1-D problem's is on this window
            lo = draw(st.floats(-5.0, 4.0))
            hi = draw(st.floats(lo + 1e-3, 5.0))
        else:
            lo, hi = sorted(draw(st.lists(FINITE, min_size=2, max_size=2, unique=True)))
        doc["grid"] = {"lo": lo, "hi": hi, "n": draw(st.integers(2, 5000))}
        assume(0.0 < (hi - lo) / doc["grid"]["n"] < math.inf)  # cells of finite width
    if method in ("newton", "bfgs") and draw(st.booleans()):
        doc["ridge"] = draw(st.floats(min_value=0.0, max_value=1e3))
    for key in ("thin", "workers"):
        if draw(st.booleans()):
            doc[key] = draw(st.integers(1, 100))

    # histograms and metrics run on the line only
    metric_kinds = [] if dim > 1 else ["histogram", "metrics"]
    kinds = {"deterministic": ["trajectory"] + (["rates"] if "mixture" not in problem
                                                 else []),
             "stochastic": ["samples", "stats"] + metric_kinds,
             "grid": ["density", "metrics", "rates"]}[family]
    n_starts = len(doc["init"]) if (family, init_kind) == ("deterministic", "list") else 1
    metric_times = {horizon} if family == "grid" else set()
    outputs = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=4)):
        out = {"kind": kind}
        if kind in ("histogram", "density", "metrics") and draw(st.booleans()):
            # a histogram or density writes a file per time, named by f"{t:g}"
            out["times"] = draw(st.lists(times, min_size=1, max_size=3, unique_by=(
                None if kind == "metrics" else lambda t: f"{t:g}")))
        if kind in ("histogram", "density", "metrics"):
            metric_times.update(out.get("times", [horizon]))
        # many starts need an {i} path, a histogram or density at many times a {t} path
        need = ("{i}" if n_starts > 1 else
                "{t}" if kind in ("histogram", "density") and len(out.get("times", ())) > 1
                else "")
        out["path"] = draw(st.sampled_from([p for p in PATHS if need in p and
                                            p not in [o["path"] for o in outputs]]))
        outputs.append(out)
    if outputs:
        doc["outputs"] = outputs
    checks = {"deterministic": ["endpoint_near"],
              "stochastic": ["metric_max", "metric_monotone"] if dim == 1 else [],
              "grid": ["metric_max", "metric_monotone"]}[family]
    assertions = []
    for check in draw(st.lists(st.sampled_from(checks), max_size=3)) if checks else []:
        if check == "endpoint_near":
            assertions.append({"check": check, "point": draw(point), "tol": draw(POSITIVE)})
        elif check == "metric_max":
            assertions.append({"check": check, "metric": draw(st.sampled_from(
                ["tv", "kl", "l2pinv"])), "time": draw(times), "max": draw(FINITE)})
            metric_times.add(assertions[-1]["time"])
        else:
            assertions.append({"check": check, "metric": "kl"})
    if len(metric_times) < 2:  # metric_monotone compares two or more times
        assertions = [a for a in assertions if a["check"] != "metric_monotone"]
    if assertions:
        doc["assertions"] = assertions
    if draw(st.booleans()):
        doc["manifest"] = draw(st.sampled_from(["m.json", "runs/manifest.json"]))
    return yaml.safe_dump(doc, sort_keys=draw(st.booleans()))


@settings(max_examples=200, deadline=None)
@given(text=_configs())
def test_serialize_then_parse_returns_the_same_config(text):
    cfg = parse_config(text)
    assert parse_config(serialize_config(cfg)) == cfg


# the manifest's config echo: every field in declaration order, but those
# None or at their default (thin and workers are always echoed)
@pytest.mark.parametrize("text,echo", [
    ("""\
problem: double_well
method: mala
tau: 0.01
time: 0.5
seed: 7
particles: 20
init: {kind: gaussian, mean: 0.5, cov: [[2.0]]}
grid: {lo: -3, hi: 3, n: 30}
thin: 5
workers: 2
ridge: 0.001
bandwidth: 0.2
mirror_map: quadratic
outputs:
  - {kind: histogram, path: 'h{t}.csv', times: [0.1, 0.5]}
  - {kind: metrics, path: m.csv}
  - {kind: samples, path: s.csv}
assertions:
  - {check: metric_max, metric: tv, time: 0.5, max: 1.0}
  - {check: metric_monotone, metric: kl}
manifest: runs/m.json
""",
     {"problem": "double_well", "method": "mala", "tau": 0.01, "time": 0.5, "seed": 7,
      "particles": 20, "init": {"kind": "gaussian", "mean": [0.5], "cov": [[2.0]]},
      "grid": {"lo": -3.0, "hi": 3.0, "n": 30}, "thin": 5, "workers": 2, "ridge": 0.001,
      "bandwidth": 0.2,
      "outputs": [{"kind": "histogram", "path": "h{t}.csv", "times": [0.1, 0.5]},
                  {"kind": "metrics", "path": "m.csv"},
                  {"kind": "samples", "path": "s.csv"}],
      "assertions": [{"check": "metric_max", "metric": "tv", "time": 0.5, "max": 1.0},
                     {"check": "metric_monotone", "metric": "kl"}],
      "manifest": "runs/m.json"}),
    ("method: gd\nproblem: double_well\ntime: 1.0\ntau: 0.1\ninit: [[0.5], [-0.5]]\n",
     {"problem": "double_well", "method": "gd", "tau": 0.1, "time": 1.0,
      "init": [[0.5], [-0.5]], "thin": 1, "workers": 1}),
    ("""\
problem: quadratic:0.5,2.0
method: mirror
mirror_map: negative_entropy
tau: 0.1
steps: 0
ridge: 0.0
init: [1.0, 2.0]
outputs:
  - {kind: trajectory, path: t.csv}
  - {kind: rates, path: r.txt}
assertions:
  - {check: endpoint_near, point: [0, 0], tol: 1.0}
bandwidth: auto
manifest: manifest.json
""",
     {"problem": "quadratic:0.5,2.0", "method": "mirror", "tau": 0.1, "steps": 0,
      "init": [[1.0, 2.0]], "thin": 1, "workers": 1, "ridge": 0.0,
      "mirror_map": "negative_entropy",
      "outputs": [{"kind": "trajectory", "path": "t.csv"}, {"kind": "rates", "path": "r.txt"}],
      "assertions": [{"check": "endpoint_near", "point": [0.0, 0.0], "tol": 1.0}]}),
    ("""\
problem: quadratic:0.5
method: fpe_bdl
dt: 1e-3
steps: 20
grid: {lo: -4.0, hi: 4.0, n: 41}
init: {kind: gibbs}
thin: 1
workers: 1
outputs:
  - {kind: density, path: 'd_{t}.csv', times: [0.01, 0.02]}
assertions:
  - {check: metric_max, metric: l2pinv, time: 0.02, max: 10.0}
""",
     {"problem": "quadratic:0.5", "method": "fpe_bdl", "tau": 0.001, "steps": 20,
      "init": {"kind": "gibbs"}, "grid": {"lo": -4.0, "hi": 4.0, "n": 41},
      "thin": 1, "workers": 1,
      "outputs": [{"kind": "density", "path": "d_{t}.csv", "times": [0.01, 0.02]}],
      "assertions": [{"check": "metric_max", "metric": "l2pinv", "time": 0.02,
                      "max": 10.0}]}),
], ids=["sampler", "descent-defaults", "mirror", "grid"])
def test_config_echo_in_field_order(text, echo):
    # json keeps key order, so this compares the order of every mapping
    assert json.dumps(config_to_dict(parse_config(text))) == json.dumps(echo)


def test_the_readme_config_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = re.search(r"```yaml\n(.*?)```", readme, re.S).group(1)
    cfg = parse_config(example)
    assert (cfg.method, cfg.particles, cfg.init["kind"]) == ("ula", 100000, "points")
    assert [o.kind for o in cfg.outputs] == ["histogram", "metrics"]


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL_GD + "tau: 0.1\n")
    assert any("duplicate key" in line for line in err.value.errors)


@pytest.mark.parametrize("old,new", [
    ("tau: 0.1", "tau: .inf"),
    ("steps: 200", "time: .inf"),
    ("lo: -5.0", "lo: -.inf"),
    ("mean: [0.0]", "mean: [.nan]"),
    ("times: [10.0, 20.0]", "times: [10.0, .inf]"),
])
def test_non_finite_values_are_config_errors(tmp_path, capsys, old, new):
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(TINY_ULA.replace(old, new))
    assert main(["validate", str(cfg_path)]) == 2
    assert main(["run", str(cfg_path), "--out-root", str(tmp_path)]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("literal,value", [("1e-3", 1e-3), ("1E+2", 100.0),
                                           ("-2e-1", -0.2)])
def test_scientific_notation_reads_as_a_number(literal, value):
    sampler = f"""\
problem: quadratic:0.5
method: ula
tau: {literal}
steps: 10
seed: 1
particles: 10
init: {{kind: gaussian, mean: [{literal}], var: 1.0}}
grid: {{lo: -1000.0, hi: {literal}, n: 10}}
"""
    grid = f"""\
problem: quadratic:0.5
method: fpe
dt: {literal}
time: 1.0
init: {{kind: gibbs}}
grid: {{lo: -1000.0, hi: {literal}, n: 10}}
"""
    if value > 0:
        cfg = parse_config(sampler)
        assert (cfg.tau, cfg.init["mean"], cfg.grid["hi"]) == (value, [value], value)
        assert parse_config(grid).tau == value
        return
    # a negative step size is refused as a number out of range, not as text
    for text, key in ((sampler, "tau"), (grid, "dt")):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.errors == [f"line 3: {key} must be > 0.0"]


@pytest.mark.parametrize("old,new", [
    ("times: [10.0, 20.0]", "times: [0.25]"),            # between steps 2 and 3
    ("steps: 200", "steps: 10"),                          # 10.0 and 20.0 past t=1
    ("thin: 50", "thin: 50\nassertions:\n  - {check: metric_max, metric: tv, "
                 "time: 20.1, max: 1.0}"),
])
def test_sampler_times_must_be_whole_steps_within_the_horizon(old, new):
    with pytest.raises(ConfigError) as err:
        parse_config(TINY_ULA.replace(old, new))
    assert all("whole number of tau=0.1 steps" in line for line in err.value.errors)


GAUSSIAN_INIT = "  mean: [0.0]\n  var: 1.0\n"


@pytest.mark.parametrize("init,message", [
    ("  kind: points\n  points: [[.inf], [a]]\n", "line 9: points must be"),
    ("  kind: points\n  points: [[0.0], [.nan]]\n", "line 9: points must be"),
    ("  kind: points\n  points: [[0.0], [1.0, 2.0]]\n", "line 9: points must be"),
    ("  - [0.0]\n  - [1.0, 2.0]\n", "line 8: init list must hold"),
    ("  kind: gaussian\n  mean: [0.0]\n  cov: [[1.0, 0.0]]\n",
     "line 10: cov must be square, not 1x2"),
    ("  kind: gaussian\n  mean: [0.0]\n  cov: [[1.0], [0.0, 1.0]]\n",
     "line 10: cov must be a list of equal-length lists"),
    ("  kind: gaussian\n  mean: [0.0]\n  cov: [[1.0, 0.0], [0.0, 1.0]]\n",
     "line 10: cov must be 1x1 to match the mean"),
    ("  kind: gaussian\n  mean: [0.0, 0.0]\n  cov: [[1.0, 0.5], [0.0, 1.0]]\n",
     "line 10: cov must be symmetric"),
    ("  kind: gaussian\n  mean: [0.0, 0.0]\n  cov: [[1.0, 2.0], [2.0, 1.0]]\n",
     "line 10: cov must be positive definite"),
])
def test_bad_points_and_cov_are_config_errors(tmp_path, capsys, init, message):
    text = TINY_ULA.replace("  kind: gaussian\n" + GAUSSIAN_INIT, init)
    assert text != TINY_ULA
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert [line for line in err.value.errors if line.startswith(message)]
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(text)
    assert main(["validate", str(cfg_path)]) == 2
    assert main(["run", str(cfg_path), "--out-root", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


def test_good_points_and_cov_parse_as_floats():
    points = parse_config(TINY_ULA.replace(
        "  kind: gaussian\n" + GAUSSIAN_INIT, "  kind: points\n  points: [[1], [-2.5]]\n"))
    assert points.init == {"kind": "points", "points": [[1.0], [-2.5]]}
    cov = parse_config(SAMPLER_1D.replace("double_well", "quadratic:0.5,1.0") + (
        "init:\n  kind: gaussian\n  mean: [0.0, 1]\n  cov: [[2, 0.5], [0.5, 1.0]]\n"))
    assert cov.init == {"kind": "gaussian", "mean": [0.0, 1.0],
                        "cov": [[2.0, 0.5], [0.5, 1.0]]}


# --- validation against the problem's dimension ---------------------------------

SAMPLER_1D = """\
problem: double_well
method: ula
tau: 0.01
steps: 10
seed: 1
particles: 4
"""

GRID_2D = """\
problem: quadratic:0.5,1.0
method: fpe
dt: 1.0e-3
steps: 10
grid: {lo: -3.0, hi: 3.0, n: 50}
init: {kind: gibbs}
"""


def _rejected_by_validate_and_run(tmp_path, capsys, text, message):
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(text)
    assert main(["validate", str(cfg_path)]) == 2
    assert main(["run", str(cfg_path), "--out-root", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count(f"config error: {message}") == 2, err
    assert not list(tmp_path.rglob("manifest.json"))  # refused before any work


def test_sampler_reads_a_list_of_points_as_points(tmp_path, capsys):
    text = SAMPLER_1D.replace("steps: 10", "steps: 0") + (
        "init: [[-1.0], [1.0]]\noutputs:\n  - {kind: samples, path: s.csv}\n")
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(text)
    assert main(["validate", str(cfg_path)]) == 0
    assert main(["run", str(cfg_path), "--out-root", str(tmp_path)]) == 0
    lines = (tmp_path / "s.csv").read_text().splitlines()[1:]
    assert [float(line.split(",")[3]) for line in lines] == [-1.0, 1.0, -1.0, 1.0]


def test_gaussian_mean_of_the_wrong_dimension(tmp_path, capsys):
    text = SAMPLER_1D + "init: {kind: gaussian, mean: [0.0, 0.0], var: 1.0}\n"
    _rejected_by_validate_and_run(
        tmp_path, capsys, text, "line 7: mean has 2 coordinate(s) but the problem is 1-D")


def test_points_of_the_wrong_dimension(tmp_path, capsys):
    text = SAMPLER_1D + "init:\n  kind: points\n  points: [[0.0, 1.0], [1.0, 0.0]]\n"
    _rejected_by_validate_and_run(
        tmp_path, capsys, text,
        "line 9: each point has 2 coordinate(s) but the problem is 1-D")


def test_grid_method_on_a_2d_problem(tmp_path, capsys):
    _rejected_by_validate_and_run(
        tmp_path, capsys, GRID_2D,
        "line 1: method 'fpe' needs a 1-D problem; 'quadratic:0.5,1.0' is 2-D")


def test_histograms_and_metrics_on_a_2d_problem(tmp_path, capsys):
    text = TINY_ULA.replace("quadratic:0.5", "quadratic:0.5,1.0").replace(
        "mean: [0.0]", "mean: [0.0, 0.0]")
    _rejected_by_validate_and_run(
        tmp_path, capsys, text,
        "line 16: histograms and metrics need a 1-D problem; 'quadratic:0.5,1.0' is 2-D")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert [line[:8] for line in err.value.errors] == ["line 16:", "line 18:"]


@pytest.mark.parametrize("text,message", [
    (MINIMAL_GD.replace("init: [0.5]", "init: [0.5, 1.0]"),
     "line 5: init point has 2 coordinate(s) but the problem is 1-D"),
    (MINIMAL_GD.replace("init: [0.5]", "init: [[0.5, 1.0]]"),
     "line 5: each init point has 2 coordinate(s) but the problem is 1-D"),
    (MINIMAL_GD.replace("double_well", "quadratic:0.5,1.0").replace(
        "init: [0.5]", "init: [0.5, 1.0]\nassertions:\n"
        "  - {check: endpoint_near, point: [0.0], tol: 1.0}"),
     "line 7: point has 1 coordinate(s) but the problem is 2-D"),
    (MINIMAL_GD.replace("init: [0.5]", "init: {kind: gibbs}"),
     "line 5: init 'gibbs' is not valid for method 'gd' (allowed: list)"),
    (SAMPLER_1D + "init: {kind: gibbs}\n",
     "line 7: init 'gibbs' is not valid for method 'ula' (allowed: list, gaussian, points)"),
    (GRID_2D.replace("quadratic:0.5,1.0", "quadratic:0.5").replace(
        "init: {kind: gibbs}", "init: [0.5]"),
     "line 6: init 'list' is not valid for method 'fpe' (allowed: gaussian, gibbs)"),
])
def test_points_and_init_forms_checked_against_problem_and_method(
        tmp_path, capsys, text, message):
    _rejected_by_validate_and_run(tmp_path, capsys, text, message)


GRID_1D = """\
problem: quadratic:0.5
method: fpe
tau: 0.001
time: 0.1
grid: {lo: -4.0, hi: 4.0, n: 41}
init: {kind: gibbs}
"""


@pytest.mark.parametrize("text,message", [
    (SAMPLER_1D + "init: {kind: gaussian, mean: [0.0], var: 1.0, sigma: 3.0}\n",
     "line 7: unknown init key 'sigma'"),
    (SAMPLER_1D + "init: {kind: points, points: [[0.0]], mean: [1.0]}\n",
     "line 7: unknown init key 'mean'"),
    (GRID_1D.replace("init: {kind: gibbs}", "init: {kind: gibbs, mean: [5.0]}"),
     "line 6: unknown init key 'mean'"),
], ids=["gaussian", "points", "gibbs"])
def test_unknown_init_keys_are_config_errors(tmp_path, capsys, text, message):
    _rejected_by_validate_and_run(tmp_path, capsys, text, message)


def test_grid_times_must_lie_within_the_horizon(tmp_path, capsys):
    text = GRID_1D + ("outputs:\n  - {kind: density, path: 'd_{t}.csv', "
                      "times: [-1.0, 0.05, 2.0]}\n")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.errors == ["line 8: time -1 must lie in 0..0.1",
                                "line 8: time 2 must lie in 0..0.1"]
    _rejected_by_validate_and_run(tmp_path, capsys, text, "line 8: time 2 must lie in 0..0.1")
    ok = parse_config(text.replace("-1.0, 0.05, 2.0", "0.0, 0.05, 0.1"))
    assert ok.metric_times() == [0.0, 0.05, 0.1]


MIXTURE = "mixture:0.5,-2.0,0.5;0.5,2.0,0.5"

# a histogram at the horizon, 3 * 0.1 = 0.30000000000000004, and metrics
# at 0.3: the one step 3
SAMPLER_STEP_3 = """\
problem: double_well
method: ula
tau: 0.1
time: 0.3
seed: 1
particles: 50
init: [0.0]
grid: {lo: -3.0, hi: 3.0, n: 30}
outputs:
  - {kind: histogram, path: h.csv}
  - {kind: metrics, path: m.csv, times: [0.3]}
"""


@pytest.mark.parametrize("text,message", [
    (SAMPLER_1D + "init: {kind: gaussian, mean: [0.0], var: 1.0}\nassertions:\n"
     "  - {check: endpoint_near, point: [100.0], tol: 0.001}\n",
     "line 9: check 'endpoint_near' not valid for method 'ula' "
     "(allowed: metric_max, metric_monotone)"),
    (MINIMAL_GD + "assertions:\n  - {check: metric_max, metric: tv, time: 20.0, max: 1.0}\n",
     "line 7: check 'metric_max' not valid for method 'gd' (allowed: endpoint_near)"),
    (MINIMAL_GD.replace("init: [0.5]", "init: [[0.5], [-0.5]]")
     + "outputs:\n  - {kind: trajectory, path: traj.csv}\n",
     "line 7: output path 'traj.csv' writes 'traj.csv' for start 1, as does line 7 "
     "for start 0"),
    (GRID_1D + "outputs:\n  - {kind: density, path: d.csv, times: [0.05, 0.1]}\n",
     "line 8: output path 'd.csv' writes 'd.csv' at time 0.1, as does line 8 at time 0.05"),
    (GRID_1D + "outputs:\n  - {kind: density, path: 'd_{t}.csv', "
     "times: [0.05000001, 0.05000002]}\n",
     "line 8: output path 'd_{t}.csv' writes 'd_0.05.csv' at time 0.05000002, as does "
     "line 8 at time 0.05000001"),
    (SAMPLER_STEP_3.replace("histogram, path: h.csv", "samples, path: m.csv"),
     "line 11: output path 'm.csv' writes 'm.csv', as does line 10"),
    (GRID_1D + "assertions:\n  - {check: metric_monotone, metric: tv}\n",
     "line 8: metric_monotone needs metrics at 2 or more times; this run has 1"),
    (SAMPLER_STEP_3 + "assertions:\n  - {check: metric_monotone, metric: tv}\n",
     "line 13: metric_monotone needs metrics at 2 or more times; this run has 1"),
    (MINIMAL_GD.replace("double_well", MIXTURE)
     + "outputs:\n  - {kind: rates, path: r.txt}\n",
     f"line 7: output kind 'rates' needs a potential with a known minimum value; "
     f"'{MIXTURE}' has none"),
    (MINIMAL_GD.replace("double_well", MIXTURE).replace("gd", "newton"),
     f"line 2: method 'newton' needs a potential with a Hessian; '{MIXTURE}' has none"),
    (MINIMAL_GD.replace("gd", "mirror\nmirror_map: negative_entropy").replace(
        "init: [0.5]", "init: [[0.5], [-0.5]]"),
     "line 6: mirror_map 'negative_entropy' needs every init coordinate > 0"),
    (MINIMAL_GD.replace("gd", "newton").replace("init: [0.5]", "init: [0.2]"),
     "line 5: method 'newton' needs a positive definite Hessian at each start; "
     "start 0 [0.2] has none"),
    (SAMPLER_STEP_3 + "manifest: m.csv\n",
     "line 11: output path 'm.csv' writes 'm.csv', as does the manifest"),
    (SAMPLER_1D + "init: [0.0]\noutputs:\n  - {kind: samples, path: s.csv}\n"
     "  - {kind: stats, path: ./s.csv}\n",
     "line 10: output path './s.csv' writes './s.csv', as does line 9"),
    (SAMPLER_1D.replace("ula", "bdl").replace("particles: 4", "particles: 1")
     + "init: [0.0]\n",
     "line 6: method 'bdl' needs at least 2 particles, one to replace another"),
    (SAMPLER_1D.replace("ula", "ensemble").replace("particles: 4", "particles: 1")
     + "init: [0.0]\nridge: 1.0e-14\n",
     "line 6: method 'ensemble' with 1 particle needs ridge > 1e-14, since its ensemble "
     "covariance is zero"),
    (SAMPLER_1D.replace("ula", "ensemble") + "init: {kind: points, points: [[0.5], [0.5]]}\n",
     "line 7: method 'ensemble' needs ridge > 1e-14 when every particle starts on one "
     "point, since their ensemble covariance is zero"),
    ("problem: quadratic:0.5,1.0,2.0\nmethod: ensemble\ntau: 0.01\nsteps: 10\nseed: 1\n"
     "particles: 3\nridge: 0.0\ninit: {kind: gaussian, mean: [0.0, 0.0, 0.0], var: 1.0}\n",
     "line 6: method 'ensemble' in 3-D needs its particles to start on more than 3 points or "
     "ridge > 1e-14, since the ensemble covariance of 3 starting points is singular"),
    ("problem: quadratic:0.5,1.0\nmethod: ensemble\ntau: 0.01\nsteps: 10\nseed: 1\n"
     "particles: 5\nridge: 0.0\ninit: {kind: points, points: [[0.0, 0.0], [1.0, 0.0]]}\n",
     "line 8: method 'ensemble' in 2-D needs its particles to start on more than 2 points or "
     "ridge > 1e-14, since the ensemble covariance of 2 starting points is singular"),
], ids=["endpoint_near-on-ula", "metric_max-on-gd", "two-starts-one-path",
        "two-times-one-path", "two-times-one-name", "two-outputs-one-path",
        "monotone-at-one-time", "monotone-at-one-step", "rates-without-v_star",
        "newton-without-hessian", "negative-entropy-below-0", "newton-from-an-indefinite-start",
        "an-output-at-the-manifest",
        "two-spellings-of-one-path", "bdl-of-one-particle", "ensemble-of-one-particle",
        "ensemble-on-one-point", "ensemble-of-too-few-particles-without-ridge",
        "ensemble-on-too-few-points-without-ridge"])
def test_what_a_run_would_find_late_is_a_config_error(tmp_path, capsys, text, message):
    _rejected_by_validate_and_run(tmp_path, capsys, text, message)


def test_one_ensemble_particle_runs_on_a_ridge(tmp_path):
    # its mobility is the ridge alone
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(SAMPLER_1D.replace("ula", "ensemble").replace(
        "particles: 4", "particles: 1") + "init: [0.0]\nridge: 0.5\n"
        "outputs:\n  - {kind: samples, path: s.csv}\n")
    assert main(["validate", str(cfg_path)]) == 0
    assert main(["run", str(cfg_path), "--out-root", str(tmp_path)]) == 0
    assert len((tmp_path / "s.csv").read_text().splitlines()) == 12  # header, steps 0..10


# exp(-V) of V = 50 theta^2 underflows to zero beyond |theta| of about 3.9
STEEP_GRID = """\
problem: quadratic:50
method: fpe
tau: 0.001
time: 0.01
grid: {lo: -8.0, hi: 8.0, n: 401}
init: {kind: gaussian, mean: 0.0, var: 0.01}
outputs:
  - {kind: density, path: 'd_{t}.csv', times: [0.01]}
  - {kind: rates, path: r.txt}
"""
VANISHING_RATES = ("line 5: output kind 'rates' (line 9) needs a target density that "
                   "does not vanish on the grid; the Gibbs density of 'quadratic:50' "
                   "vanishes here, so shrink the domain")
UNDERFLOWING_BDL = ("line 5: method 'fpe_bdl' needs a target density above zero in "
                    "every grid cell; the Gibbs density of 'quadratic:50' underflows "
                    "to zero on this grid, so shrink the domain")


@pytest.mark.parametrize("method,errors", [
    ("fpe", [VANISHING_RATES]),
    ("fpe_bdl", [UNDERFLOWING_BDL, VANISHING_RATES]),
], ids=["rates", "birth-death"])
def test_a_target_that_vanishes_on_the_grid_is_refused_before_any_work(
        tmp_path, capsys, method, errors):
    # the run would refuse it after its solve: the decay report weights by
    # 1/pi, and the birth-death reaction takes log pi
    text = STEEP_GRID.replace("method: fpe", f"method: {method}")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.errors == errors
    _rejected_by_validate_and_run(tmp_path, capsys, text, errors[0])
    assert [p.name for p in tmp_path.iterdir()] == ["exp.yaml"]
    parse_config(text.replace("lo: -8.0, hi: 8.0", "lo: -2.0, hi: 2.0"))


def test_paths_that_resolve_to_one_file_are_refused_before_any_work(tmp_path, capsys):
    # validate cannot see --out-root; the run compares the resolved paths
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(SAMPLER_STEP_3 + f"manifest: {tmp_path / 'm.csv'}\n")
    assert main(["validate", str(cfg_path)]) == 0
    assert main(["run", str(cfg_path), "--out-root", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert (f"config error: paths '{tmp_path / 'm.csv'}' and 'm.csv' name one file, "
            f"{(tmp_path / 'm.csv').resolve()}") in err, err
    assert not (tmp_path / "m.csv").exists() and not (tmp_path / "h.csv").exists()


# the target vanishes on this grid, so l2pinv is written as NaN
STEEP_METRICS = STEEP_GRID.replace(
    "  - {kind: density, path: 'd_{t}.csv', times: [0.01]}\n  - {kind: rates, path: r.txt}\n",
    "  - {kind: metrics, path: m.csv, times: [0.005, 0.01]}\n")


@pytest.mark.parametrize("assertion,time", [
    ("{check: metric_max, metric: l2pinv, time: 0.01, max: 1.0e-9}", "0.01"),
    ("{check: metric_monotone, metric: l2pinv}", "0.005"),
], ids=["metric_max", "metric_monotone"])
def test_an_assertion_on_an_undefined_metric_fails(tmp_path, capsys, assertion, time):
    # NaN compares False both ways, so a bound on it would pass unchecked
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(STEEP_METRICS + f"assertions:\n  - {assertion}\n")
    assert main(["validate", str(cfg_path)]) == 0
    assert main(["run", str(cfg_path), "--out-root", str(tmp_path)]) == 4
    assert (f"assertion failed: l2pinv at t={time} is undefined (nan)"
            in capsys.readouterr().err)
    assert "0.01,l2pinv,nan" in (tmp_path / "m.csv").read_text()


# every particle starts near 10, outside the grid, and stays there
OFF_GRID = """\
problem: double_well
method: ula
tau: 1.0e-6
steps: 1
seed: 1
particles: 1000
init: {kind: gaussian, mean: [10.0], var: 0.01}
grid: {lo: -3.0, hi: 3.0, n: 60}
outputs:
  - {kind: metrics, path: m.csv}
assertions:
  - {check: metric_max, metric: kl, time: 1.0e-6, max: 1.0e-9}
"""


def test_mass_outside_the_grid_is_not_read_as_agreement(tmp_path, capsys):
    # the grid-normalized target is zero where the particles are: KL and
    # the 1/pi-weighted norm are infinite, and TV counts their whole mass
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(OFF_GRID)
    assert main(["run", str(cfg_path), "--out-root", str(tmp_path)]) == 4
    assert "assertion failed" in capsys.readouterr().err
    rows = (tmp_path / "m.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1:] for row in rows] == [["tv", "1"], ["kl", "inf"],
                                                    ["l2pinv", "inf"]]


def test_a_config_built_by_hand_is_refused_before_any_work(tmp_path):
    # only parse_config builds the potential a run uses
    cfg = ExperimentConfig(problem="double_well", method="gd", tau=0.05, steps=3,
                           init=[[0.5]])
    with pytest.raises(ConfigError, match="parse_config"):
        run_experiment(cfg, out_root=tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_time_plan_of_each_family():
    sampler = parse_config(TINY_ULA + "assertions:\n"
                           "  - {check: metric_max, metric: tv, time: 5.0, max: 1.0}\n")
    # the histogram without times reports at the horizon, once
    assert sampler.horizon() == 200 * 0.1 == 20.0
    assert sampler.metric_times() == [5.0, 10.0, 20.0]
    grid = parse_config(GRID_1D.replace("time: 0.1", "steps: 30"))
    assert grid.horizon() == 30 * 0.001
    assert grid.metric_times() == [30 * 0.001]


def test_a_sampler_reports_each_step_once(tmp_path):
    # a metric_max at the horizon's own float finds the metrics of its step
    cfg = parse_config(SAMPLER_STEP_3 + "assertions:\n  - {check: metric_max, "
                       "metric: tv, time: 0.30000000000000004, max: 1.0}\n")
    assert cfg.metric_times() == [0.3]
    run_experiment(cfg, out_root=tmp_path)
    rows = [row.split(",") for row in (tmp_path / "m.csv").read_text().splitlines()[1:]]
    assert [(float(t), metric) for t, metric, _ in rows] == [
        (0.3, "tv"), (0.3, "kl"), (0.3, "l2pinv")]
    assert (tmp_path / "h.csv").exists()


@pytest.mark.parametrize("text,paths", [
    (MINIMAL_GD.replace("init: [0.5]", "init: [[0.5], [-0.5]]") + (
        "outputs:\n  - {kind: trajectory, path: 'traj_{i}.csv'}\n"
        "  - {kind: rates, path: 'r/{i}.txt'}\n"),
     ["traj_0.csv", "traj_1.csv", "r/0.txt", "r/1.txt"]),
    (TINY_ULA, ["hist.csv", "metrics.csv", "samples.csv", "stats.txt"]),
    (GRID_1D + ("outputs:\n  - {kind: rates, path: '{i}.txt'}\n"
                "  - {kind: density, path: 'd_{t}.csv', times: [0.05, 0.1]}\n"
                "  - {kind: metrics, path: '{t}.csv'}\n"),
     ["{i}.txt", "d_0.05.csv", "d_0.1.csv", "{t}.csv"]),
], ids=["deterministic", "stochastic", "grid"])
def test_a_run_writes_its_file_plan(tmp_path, text, paths):
    cfg = parse_config(text)
    assert [path for _, path, _ in cfg.files()] == paths
    manifest = run_experiment(cfg, out_root=tmp_path)
    assert manifest["artifacts"] == [str(tmp_path / path) for _, path, _ in cfg.files()]
    assert all((tmp_path / path).exists() for path in paths)


@pytest.mark.parametrize("problem,message", [
    ("double_wel", "unknown potential 'double_wel'"),
    ("gaussian_posterior:1", "bad potential identifier 'gaussian_posterior:1': "
                             "expected 5 numbers, got 1"),
], ids=["unknown", "malformed"])
def test_a_bad_problem_is_a_config_error_at_its_line(tmp_path, capsys, problem, message):
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(MINIMAL_GD.replace("double_well", problem))
    assert main(["validate", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"config error: line 1: problem {message}\n"
    # reported beside the config's other errors
    cfg_path.write_text(MINIMAL_GD.replace("double_well", problem) + "bogus: 1\n")
    assert main(["validate", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert f"line 1: problem {message}" in err and "'bogus'" in err


# --- runner: deterministic recipe -------------------------------------------------

def test_fig2_recipe_endpoints(tmp_path):
    text = Path("recipes/fig2_basins.yaml").read_text()
    cfg = parse_config(text)
    manifest = run_experiment(cfg, out_root=tmp_path)
    trajs = sorted((tmp_path / "fig2").glob("trajectory_*.csv"))
    assert len(trajs) == 5
    endpoints = []
    for path in trajs:
        last = path.read_text().strip().splitlines()[-1].split(",")
        endpoints.append(float(last[2]))
    # starts left of 0 end at -1, right of 0 at +1 (within 1e-6 by t = 20)
    assert np.allclose(sorted(endpoints), [-1, -1, 1, 1, 1], atol=1e-6)
    assert (tmp_path / "fig2/manifest.json").exists()
    assert len(manifest["artifacts"]) == 10


def test_rerun_is_byte_identical(tmp_path):
    cfg = parse_config(TINY_ULA)
    run_experiment(cfg, out_root=tmp_path / "a")
    run_experiment(cfg, out_root=tmp_path / "b")
    for name in ("hist.csv", "metrics.csv", "samples.csv", "stats.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


STATS_ONLY = """\
problem: double_well
method: ula
tau: 0.05
steps: 20
seed: 3
particles: 1000
init: [0.5]
grid: {lo: -3.0, hi: 3.0, n: 30}
outputs:
  - {kind: stats, path: stats.txt}
"""


@pytest.mark.parametrize("extra", [
    "  - {kind: histogram, path: h.csv, times: [0.05]}\n",
    "  - {kind: metrics, path: m.csv, times: [0.25, 0.5]}\n",
    "  - {kind: samples, path: s.csv}\nthin: 3\n",
    "assertions:\n  - {check: metric_max, metric: tv, time: 0.1, max: 1.0}\n"
    "  - {check: metric_max, metric: tv, time: 1.0, max: 1.0}\n",
], ids=["histogram", "metrics", "thin", "metric_max"])
def test_stats_describe_the_final_ensemble_whatever_else_is_recorded(tmp_path, extra):
    run_experiment(parse_config(STATS_ONLY), out_root=tmp_path / "alone")
    run_experiment(parse_config(STATS_ONLY + extra), out_root=tmp_path / "beside")
    assert ((tmp_path / "alone/stats.txt").read_bytes()
            == (tmp_path / "beside/stats.txt").read_bytes())


def test_worker_override_does_not_change_bytes(tmp_path):
    cfg = parse_config(TINY_ULA)
    run_experiment(cfg, out_root=tmp_path / "w1", workers_override=1)
    run_experiment(cfg, out_root=tmp_path / "w4", workers_override=4)
    assert ((tmp_path / "w1/samples.csv").read_bytes()
            == (tmp_path / "w4/samples.csv").read_bytes())


def test_overrides_are_read_as_their_config_keys_are(tmp_path, capsys):
    # a value the config key refuses is a config error before any file is
    # written, so every manifest echoes a config that validates
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(TINY_ULA)
    out = tmp_path / "out"
    for workers in ("0", "-3"):
        assert main(["run", str(cfg_path), "--out-root", str(out), "--workers", workers]) == 2
        assert "config error: override: workers must be >= 1" in capsys.readouterr().err
        assert not out.exists()
    with pytest.raises(ConfigError, match="override: seed must be an integer"):
        run_experiment(parse_config(TINY_ULA), out_root=out, seed_override="7")
    assert not out.exists()
    assert main(["run", str(cfg_path), "--out-root", str(out), "--seed", "7"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == manifest["config"]["seed"] == 7


def _count_potential_builds(monkeypatch):
    """The specs of each ``from_identifier`` call, counted in every gradflow
    module that binds it."""
    import sys
    from gradflow.potentials import from_identifier
    specs = []

    def counted(spec):
        specs.append(spec)
        return from_identifier(spec)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "gradflow" and vars(module).get(
                "from_identifier") is from_identifier:
            monkeypatch.setattr(module, "from_identifier", counted)
    return specs


@pytest.mark.parametrize("flags", [[], ["--seed", "7"], ["--workers", "2"]])
def test_validate_and_run_each_build_the_potential_once(tmp_path, monkeypatch, flags):
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(TINY_ULA)
    specs = _count_potential_builds(monkeypatch)
    assert main(["validate", str(cfg_path)]) == 0
    assert specs == ["quadratic:0.5"]
    assert main(["run", str(cfg_path), "--out-root", str(tmp_path), *flags]) == 0
    assert specs == ["quadratic:0.5"] * 2


def test_manifest_echo_reproduces_artifacts(tmp_path):
    import yaml
    cfg = parse_config(TINY_ULA)
    run_experiment(cfg, out_root=tmp_path / "first")
    echoed = json.loads((tmp_path / "first/manifest.json").read_text())["config"]
    cfg2 = parse_config(yaml.safe_dump(echoed))
    run_experiment(cfg2, out_root=tmp_path / "second")
    assert ((tmp_path / "first/samples.csv").read_bytes()
            == (tmp_path / "second/samples.csv").read_bytes())


def test_assertion_failure_raises(tmp_path):
    text = TINY_ULA + """\
assertions:
  - check: metric_max
    metric: tv
    time: 20.0
    max: 1.0e-9
"""
    with pytest.raises(AssertionFailure):
        run_experiment(parse_config(text), out_root=tmp_path)


def test_grid_method_runs_and_reports(tmp_path):
    text = """\
problem: quadratic:0.5
method: fpe
dt: 1.0e-4
time: 0.5
init:
  kind: gaussian
  mean: 0.0
  var: 4.0
grid:
  lo: -8.0
  hi: 8.0
  n: 200
outputs:
  - kind: density
    path: rho_t{t}.csv
    times: [0.25, 0.5]
  - kind: rates
    path: decay.csv
  - kind: metrics
    path: metrics.csv
    times: [0.5]
"""
    run_experiment(parse_config(text), out_root=tmp_path)
    assert (tmp_path / "rho_t0.25.csv").exists()
    decay = (tmp_path / "decay.csv").read_text().splitlines()
    assert decay[0] == "time,l2_pi_inv,kl,envelope_l2,envelope_kl"
    assert len(decay) >= 3


# --- compare and CLI ---------------------------------------------------------------

def test_compare_density_files(tmp_path):
    text = """\
problem: quadratic:0.5
method: fpe
dt: 1.0e-3
time: 0.1
init: {kind: gibbs}
grid: {lo: -6.0, hi: 6.0, n: 100}
outputs:
  - {kind: density, path: pi.csv, times: [0.1]}
"""
    run_experiment(parse_config(text), out_root=tmp_path)
    pi_csv = str(tmp_path / "pi.csv")
    assert compare_files(pi_csv, pi_csv, "tv") == 0.0
    assert compare_files(pi_csv, pi_csv, "kl") == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        compare_files(pi_csv, pi_csv, "hausdorff")


def test_cli_run_validate_compare(tmp_path, capsys):
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(TINY_ULA)
    assert main(["validate", str(cfg_path)]) == 0
    assert main(["run", str(cfg_path), "--out-root", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "samples.csv" in out

    hist = str(tmp_path / "hist.csv")
    assert main(["compare", hist, hist, "--metric", "tv"]) == 0
    assert capsys.readouterr().out.startswith("tv 0")

    assert main(["list-potentials"]) == 0
    assert "double_well" in capsys.readouterr().out


def test_cli_compares_density_files_in_l2pinv(tmp_path, capsys):
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(GRID_1D + "outputs:\n  - {kind: density, path: pi.csv}\n")
    assert main(["run", str(cfg_path), "--out-root", str(tmp_path)]) == 0
    pi = read_density_csv(tmp_path / "pi.csv")
    rho = GridDensity(grid=pi.grid, values=np.linspace(1.0, 2.0, pi.grid.n))
    write_density_csv(tmp_path / "rho.csv", rho)
    capsys.readouterr()
    assert main(["compare", str(tmp_path / "rho.csv"), str(tmp_path / "pi.csv"),
                 "--metric", "l2pinv"]) == 0
    assert capsys.readouterr().out == f"l2pinv {l2_pi_inv_norm(rho, pi):.17g}\n"


LIST_POTENTIALS = """\
double_well                         1-D quartic, minima at +-1
pl_not_convex                       theta_1^2/2 on R^2
quadratic:a1,a2,...                 sum a_i theta_i^2 (a_i > 0)
gaussian_posterior:m0,v0,a,nv,y     1-D conjugate linear-Gaussian posterior
mixture:w1,m1,s1;w2,m2,s2;...       1-D Gaussian mixture (s = std dev)
boltzmann:beta,uq,kq                beta (uq q^2 + kq p^2)
"""


def test_list_potentials_prints_the_catalog(capsys):
    assert main(["list-potentials"]) == 0
    assert capsys.readouterr().out == LIST_POTENTIALS


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("method: gd\n")
    assert main(["validate", str(bad)]) == 2
    assert main(["run", str(tmp_path / "missing.yaml")]) == 2

    # runtime error: the config is valid, but the sampler diverges
    broken = tmp_path / "broken.yaml"
    broken.write_text("problem: double_well\nmethod: ula\ntau: 10.0\nsteps: 20\nseed: 1\n"
                      "particles: 10\ninit: {kind: gaussian, mean: [0.0], var: 1.0}\n")
    with np.errstate(over="ignore"):
        assert main(["run", str(broken), "--out-root", str(tmp_path)]) == 3
    assert "error: non-finite state at step" in capsys.readouterr().err

    # a descent flow that diverges is a runtime error too, and writes nothing
    diverging = tmp_path / "diverging.yaml"
    diverging.write_text("problem: double_well\nmethod: gd\ntau: 10.0\nsteps: 20\n"
                         "init: [[0.5], [0.0]]\noutputs:\n"
                         "  - {kind: trajectory, path: 'flow/t_{i}.csv'}\n")
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", str(diverging), "--out-root", str(tmp_path)]) == 3
    assert capsys.readouterr().err == "error: non-finite state at step 5, start 0\n"
    assert not (tmp_path / "flow").exists()

    failing = tmp_path / "failing.yaml"
    failing.write_text(TINY_ULA + (
        "assertions:\n"
        "  - check: metric_max\n"
        "    metric: tv\n"
        "    time: 20.0\n"
        "    max: 1.0e-9\n"))
    assert main(["run", str(failing), "--out-root", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "assertion failed" in err


@pytest.mark.parametrize("second,code,message", [
    ("[-2.0]", 4, "assertion failed: endpoint [-1.] is 2.000e+00 from [1.] (tol 0.001)\n"),
    ("[2.0]", 0, ""),
], ids=["other-basin", "same-basin"])
def test_cli_endpoint_near_checks_every_start(tmp_path, capsys, second, code, message):
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(MINIMAL_GD.replace("init: [0.5]", f"init: [[0.5], {second}]") + (
        "assertions:\n  - {check: endpoint_near, point: [1.0], tol: 1.0e-3}\n"))
    assert main(["run", str(cfg_path), "--out-root", str(tmp_path)]) == code
    assert capsys.readouterr().err == message


def test_cli_metric_monotone_fails_when_tv_rises(tmp_path, capsys):
    # ULA at tau = 1 on V = theta^2/2 maps theta to sqrt(2) xi, so particles
    # drawn from pi = N(0, 1) have its biased law N(0, 2) after one step:
    # the TV to pi rises from sampling noise (about 0.04) to about 0.17
    # whatever the seed
    for seed in (1, 2, 3, 4):
        cfg_path = tmp_path / f"exp{seed}.yaml"
        cfg_path.write_text(f"""\
problem: quadratic:0.5
method: ula
tau: 1.0
steps: 2
seed: {seed}
particles: 2000
init: {{kind: gaussian, mean: [0.0], var: 1.0}}
grid: {{lo: -6.0, hi: 6.0, n: 40}}
outputs:
  - {{kind: metrics, path: metrics.csv, times: [0.0, 1.0, 2.0]}}
assertions:
  - {{check: metric_monotone, metric: tv}}
""")
        out_root = tmp_path / f"seed{seed}"
        assert main(["run", str(cfg_path), "--out-root", str(out_root)]) == 4
        assert capsys.readouterr().err.startswith("assertion failed: tv increased from ")


def test_cli_seed_override_changes_output(tmp_path):
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(TINY_ULA)
    assert main(["run", str(cfg_path), "--out-root", str(tmp_path / "a"),
                 "--seed", "1"]) == 0
    assert main(["run", str(cfg_path), "--out-root", str(tmp_path / "b"),
                 "--seed", "2"]) == 0
    assert ((tmp_path / "a/samples.csv").read_bytes()
            != (tmp_path / "b/samples.csv").read_bytes())
    manifest = json.loads((tmp_path / "a/manifest.json").read_text())
    assert manifest["seed"] == 1


def test_env_var_output_root(tmp_path, monkeypatch):
    monkeypatch.setenv("GRADFLOW_OUT", str(tmp_path / "envroot"))
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(TINY_ULA)
    assert main(["run", str(cfg_path)]) == 0
    assert (tmp_path / "envroot/samples.csv").exists()


def test_trajectory_csv_round_trips_floats(tmp_path):
    cfg = parse_config(MINIMAL_GD + "outputs:\n  - {kind: trajectory, path: t.csv}\n")
    run_experiment(cfg, out_root=tmp_path)
    rows = (tmp_path / "t.csv").read_text().strip().splitlines()
    assert rows[0] == "step,time,theta_0,energy,grad_norm"
    # 17 significant digits: reading the text back reproduces the float
    val = rows[-1].split(",")[2]
    assert f"{float(val):.17g}" == val


def _final_step_thetas(path):
    """The theta_0 column at the last recorded step, read with the csv module."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    last = max(int(r[0]) for r in rows)
    return np.array([float(r[3]) for r in rows if int(r[0]) == last])


def test_compare_w2_on_1d_samples_is_wasserstein_of_final_steps(tmp_path, capsys):
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(TINY_ULA)
    for seed in ("1", "2"):
        assert main(["run", str(cfg_path), "--out-root", str(tmp_path / seed),
                     "--seed", seed]) == 0
    a, b = str(tmp_path / "1/samples.csv"), str(tmp_path / "2/samples.csv")
    want = wasserstein1d(_final_step_thetas(a), _final_step_thetas(b))
    assert want > 0.0
    assert compare_files(a, b, "w2") == want
    capsys.readouterr()
    assert main(["compare", a, b, "--metric", "w2"]) == 0
    assert capsys.readouterr().out == f"w2 {want:.17g}\n"


def test_compare_w2_rejects_multi_coordinate_samples(tmp_path, capsys):
    text = """\
problem: quadratic:0.5,2.0
method: ula
tau: 0.1
steps: 20
seed: 11
particles: 50
init: {kind: gaussian, mean: [0.0, 0.0], var: 1.0}
outputs:
  - {kind: samples, path: samples.csv}
"""
    run_experiment(parse_config(text), out_root=tmp_path)
    samples = str(tmp_path / "samples.csv")
    with pytest.raises(ValueError, match="2 theta columns"):
        compare_files(samples, samples, "w2")
    assert main(["compare", samples, samples, "--metric", "w2"]) == 3
    assert "w2 compares 1-D samples" in capsys.readouterr().err
