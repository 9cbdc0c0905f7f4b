"""The complete ``ConfigError.errors`` list of each invalid config below:
every message ``parse_config`` reports, with its text, order and line
number.  Together the configs reach every message of the config gate:
unknown keys at each level, each type and bound, each "needs" rule, the
init, cov and points forms, the method family's rules, times and paths.
"""

import pytest

from gradflow.config import parse_config
from gradflow.errors import ConfigError

GD = """\
problem: double_well
method: gd
tau: 0.05
time: 20.0
"""

ULA = """\
problem: double_well
method: ula
tau: 0.1
steps: 10
seed: 1
particles: 10
"""

FPE = """\
problem: quadratic:0.5
method: fpe
dt: 0.001
time: 0.1
grid: {lo: -4.0, hi: 4.0, n: 41}
"""

CASES = [
    ("yaml-syntax", "problem: [double_well\nmethod: gd\n",
     ['yaml: while parsing a flow sequence\n'
      '  in "<unicode string>", line 1, column 10:\n'
      '    problem: [double_well\n'
      '             ^\n'
      "expected ',' or ']', but got ':'\n"
      '  in "<unicode string>", line 2, column 7:\n'
      '    method: gd\n'
      '          ^']),
    ("empty", "# nothing but a comment\n",
     ['config is empty']),
    ("not-a-mapping", "- problem\n- method\n",
     ['line 1: config must be a mapping']),
    ("key-not-a-string-and-duplicate", "problem: double_well\n1: x\nproblem: quadratic:0.5\n",
     ['line 2: keys must be strings', "line 3: duplicate key 'problem'"]),
    ("unknown-and-missing-keys", "learning_rate: 0.1\nbogus: 2\n",
     ["line 1: unknown key 'learning_rate'",
      "line 2: unknown key 'bogus'",
      "line 1: missing required key 'problem'",
      "line 1: missing required key 'method'",
      "line 1: exactly one of 'tau' or 'dt' is required",
      "line 1: exactly one of 'steps' or 'time' is required"]),
    ("wrong-types", """\
problem: 3
method: 5
tau: fast
steps: 1.5
seed: x
particles: true
thin: [1]
workers: 1.0
ridge: abc
mirror_map: 3
manifest: 4
bandwidth: wide
""",
     ['line 1: problem must be a string',
      'line 2: method must be a string',
      'line 3: tau must be a finite number',
      'line 4: steps must be an integer',
      'line 5: seed must be an integer',
      'line 6: particles must be an integer',
      'line 7: thin must be an integer',
      'line 8: workers must be an integer',
      'line 9: ridge must be a finite number',
      'line 10: mirror_map must be a string',
      'line 11: manifest must be a string',
      "line 12: bandwidth must be 'auto' or a positive number"]),
    ("out-of-bounds", """\
problem: double_well
method: ula
dt: 0
steps: -1
seed: 1
particles: 0
thin: 0
workers: 0
ridge: -0.5
mirror_map: cubic
bandwidth: -1.0
init: [0.0]
""",
     ['line 3: dt must be > 0.0',
      'line 4: steps must be >= 0',
      'line 6: particles must be >= 1',
      'line 7: thin must be >= 1',
      'line 8: workers must be >= 1',
      'line 9: ridge must be >= 0.0',
      'line 10: mirror_map must be one of quadratic, negative_entropy',
      "line 11: bandwidth must be 'auto' or a positive number"]),
    ("time-and-bandwidth-bounds", GD.replace("time: 20.0", "time: 0")
     + "init: [0.5]\nbandwidth: 0\n",
     ['line 4: time must be > 0.0',
      "line 6: bandwidth must be 'auto' or a positive number"]),
    ("both-tau-and-dt-steps-and-time", GD + "dt: 0.1\nsteps: 10\ninit: [0.5]\n",
     ["line 1: exactly one of 'tau' or 'dt' is required",
      "line 1: exactly one of 'steps' or 'time' is required"]),
    ("neither-tau-nor-dt", "problem: double_well\nmethod: gd\ninit: [0.5]\n",
     ["line 1: exactly one of 'tau' or 'dt' is required",
      "line 1: exactly one of 'steps' or 'time' is required"]),
    ("unknown-method", GD.replace("gd", "sgd") + "init: [0.5]\n",
     ['line 2: method must be one of gd, gd_implicit, newton, bfgs, mirror, ula, mala, '
      'ensemble, bdl, fpe, fpe_weighted, fpe_bdl']),
    ("non-finite", GD.replace("0.05", ".inf").replace("20.0", ".nan") + "init: [.inf]\n",
     ['line 3: tau must be a finite number',
      'line 4: time must be a finite number',
      'line 5: init list must hold finite numbers or equal-length lists of them']),
    ("grid-not-a-mapping", FPE.replace("{lo: -4.0, hi: 4.0, n: 41}", "[1, 2]")
     + "init: {kind: gibbs}\n",
     ['line 5: grid must be a mapping',
      'line 5: grid needs keys lo, hi, n (missing lo, hi, n)']),
    ("grid-unknown-and-missing-keys", FPE.replace("hi: 4.0, n: 41", "width: 8.0")
     + "init: {kind: gibbs}\n",
     ["line 5: unknown grid key 'width'",
      'line 5: grid needs keys lo, hi, n (missing hi, n)']),
    ("grid-hi-below-lo", FPE.replace("lo: -4.0, hi: 4.0, n: 41", "lo: 1.0, hi: -1.0, n: 1")
     + "init: {kind: gibbs}\n",
     ['line 5: n must be >= 2', 'line 5: grid needs hi > lo']),
    ("grid-cells-without-width", FPE.replace("lo: -4.0, hi: 4.0", "lo: 0.0, hi: 5.0e-324")
     + "init: {kind: gibbs}\n",
     ['line 5: grid cell width (hi - lo) / n: dx must be positive and finite']),
    ("grid-cells-of-infinite-width", FPE.replace("lo: -4.0, hi: 4.0",
                                                  "lo: -1.7e308, hi: 1.7e308")
     + "init: {kind: gibbs}\n",
     ['line 5: grid cell width (hi - lo) / n: dx must be positive and finite']),
    ("grid-wrong-types", FPE.replace("lo: -4.0, hi: 4.0, n: 41", "lo: a, hi: 1.0, n: 2.5, 7: x")
     + "init: {kind: gibbs}\n",
     ['line 5: keys must be strings',
      'line 5: lo must be a finite number',
      'line 5: n must be an integer']),
    ("init-scalar", GD + "init: 3\n",
     ['line 5: init must be a list or a mapping']),
    ("init-lists", GD + "init: [[0.0], [1.0, 2.0]]\noutputs: []\n",
     ['line 5: init list must hold finite numbers or equal-length lists of them']),
    ("init-empty-list", GD + "init: []\n",
     ['line 5: init list must hold finite numbers or equal-length lists of them']),
    ("init-point-dimension", GD.replace("double_well", "quadratic:0.5,1.0") + "init: [0.5]\n",
     ['line 5: init point has 1 coordinate(s) but the problem is 2-D']),
    ("init-points-dimension", GD + "init: [[0.5, 1.0], [0.0, 1.0]]\n",
     ['line 5: each init point has 2 coordinate(s) but the problem is 1-D']),
    ("init-mapping-without-kind", ULA + "init: {mean: [0.0], var: 1.0}\n",
     ["line 7: init mapping needs 'kind'"]),
    ("init-unknown-kind", ULA + "init: {kind: uniform, lo: 0}\n",
     ['line 7: kind must be one of gaussian, points, gibbs',
      "line 7: init mapping needs 'kind'"]),
    ("init-duplicate-kind", ULA + "init: {kind: gibbs, kind: points}\n",
     ["line 7: duplicate key 'kind'",
      "line 7: init 'gibbs' is not valid for method 'ula' (allowed: list, gaussian, "
      'points)']),
    ("gaussian-without-mean", ULA + "init: {kind: gaussian, var: -1, sigma: 2}\n",
     ["line 7: unknown init key 'sigma'", "line 7: gaussian init needs 'mean'"]),
    ("gaussian-bad-mean", ULA + "init: {kind: gaussian, mean: [a], var: -1}\n",
     ['line 7: mean must be a nonempty list of finite numbers']),
    ("gaussian-mean-dimension-var-and-cov", ULA
     + "init: {kind: gaussian, mean: [0.0, 0.0], var: 0, cov: [[1.0]]}\n",
     ['line 7: mean has 2 coordinate(s) but the problem is 1-D',
      'line 7: var must be > 0.0',
      'line 7: cov must be 2x2 to match the mean']),
    ("gaussian-invalid-var", ULA + "init: {kind: gaussian, mean: [0.0], var: -1.0}\n",
     ['line 7: var must be > 0.0']),
    ("gaussian-neither-var-nor-cov", ULA + "init: {kind: gaussian, mean: 0.0}\n",
     ["line 7: gaussian init needs exactly one of 'var' or 'cov'"]),
    ("gaussian-var-and-cov", ULA + "init: {kind: gaussian, mean: 0.0, var: 1.0, cov: [[1.0]]}\n",
     ["line 7: gaussian init needs exactly one of 'var' or 'cov'"]),
    ("cov-ragged", ULA + "init:\n  kind: gaussian\n  mean: [0.0]\n  cov: [[1.0], [0.0, 1.0]]\n",
     ['line 10: cov must be a list of equal-length lists of finite numbers']),
    ("cov-not-square", ULA + "init:\n  kind: gaussian\n  mean: [0.0]\n  cov: [[1.0, 0.0]]\n",
     ['line 10: cov must be square, not 1x2']),
    ("cov-wrong-side", ULA + "init:\n  kind: gaussian\n  mean: [0.0]\n"
     "  cov: [[1.0, 0.0], [0.0, 1.0]]\n",
     ['line 10: cov must be 1x1 to match the mean']),
    ("cov-not-symmetric", ULA.replace("double_well", "quadratic:0.5,1.0")
     + "init:\n  kind: gaussian\n  mean: [0.0, 0.0]\n  cov: [[1.0, 0.5], [0.0, 1.0]]\n",
     ['line 10: cov must be symmetric']),
    ("cov-not-positive-definite", ULA.replace("double_well", "quadratic:0.5,1.0")
     + "init:\n  kind: gaussian\n  mean: [0.0, 0.0]\n  cov: [[1.0, 2.0], [2.0, 1.0]]\n",
     ['line 10: cov must be positive definite']),
    ("points-missing", ULA + "init: {kind: points, mean: [0.0]}\n",
     ["line 7: unknown init key 'mean'", "line 7: points init needs 'points'"]),
    ("points-not-rows", ULA + "init: {kind: points, points: [1.0, 2.0]}\n",
     ['line 7: points must be a list of equal-length lists of finite numbers']),
    ("points-dimension", ULA + "init:\n  kind: points\n  points: [[0.0, 1.0], [1.0, 0.0]]\n",
     ['line 9: each point has 2 coordinate(s) but the problem is 1-D']),
    ("outputs-and-assertions-not-lists", ULA + "init: [0.0]\noutputs: {kind: samples}\n"
     "assertions: 3\n",
     ['line 8: outputs must be a list', 'line 9: assertions must be a list']),
    ("output-forms", ULA + "init: [0.0]\ngrid: {lo: -3.0, hi: 3.0, n: 30}\noutputs:\n"
     "  - 3\n"
     "  - {kind: movie, path: 1, extra: 2}\n"
     "  - {path: x.csv}\n"
     "  - {kind: samples, path: s.csv, times: [1.0]}\n"
     "  - {kind: metrics, path: m.csv, times: []}\n"
     "  - {kind: histogram, path: h.csv, kind: stats}\n"
     "  - {}\n",
     ['line 10: output must be a mapping',
      "line 11: unknown output key 'extra'",
      'line 11: kind must be one of density, histogram, metrics, rates, samples, stats, '
      'trajectory',
      'line 11: path must be a string',
      "line 11: output needs 'kind' and 'path'",
      "line 12: output needs 'kind' and 'path'",
      "line 13: 'times' only applies to histogram, density, metrics outputs",
      'line 14: times must be a nonempty list of finite numbers',
      "line 15: duplicate key 'kind'",
      "line 16: output needs 'kind' and 'path'"]),
    ("assertion-forms", ULA + "init: [0.0]\ngrid: {lo: -3.0, hi: 3.0, n: 30}\nassertions:\n"
     "  - 1\n"
     "  - {metric: tv}\n"
     "  - {check: bogus}\n"
     "  - {check: metric_max, metric: w2, time: 1.0, extra: 0}\n"
     "  - {check: metric_monotone}\n"
     "  - {check: metric_monotone, metric: kl, time: 2}\n"
     "  - {check: metric_max, metric: tv, time: 1.0, max: a}\n",
     ['line 10: assertion must be a mapping',
      "line 11: assertion needs 'check'",
      'line 12: check must be one of endpoint_near, metric_max, metric_monotone',
      "line 12: assertion needs 'check'",
      "line 13: unknown assertion key 'extra'",
      'line 13: metric must be one of tv, kl, l2pinv',
      "line 13: metric_max needs 'metric', 'time', 'max'",
      "line 14: metric_monotone needs 'metric'",
      "line 15: unknown assertion key 'time'",
      'line 16: max must be a finite number',
      "line 16: metric_max needs 'metric', 'time', 'max'",
      'line 15: metric_monotone needs metrics at 2 or more times; this run has 0']),
    ("empty-assertion", GD + "init: [0.5]\nassertions:\n  - {}\n",
     ["line 7: assertion needs 'check'"]),
    ("endpoint-near-forms", GD + "init: [0.5]\nassertions:\n"
     "  - {check: endpoint_near, tol: 0, extra: 1}\n"
     "  - {check: endpoint_near, point: [a], tol: 1.0}\n"
     "  - {check: endpoint_near, point: [a], tol: -1.0}\n"
     "  - {check: endpoint_near, point: [0.0, 1.0], tol: 1.0}\n",
     ["line 7: unknown assertion key 'extra'",
      'line 7: tol must be > 0.0',
      "line 7: endpoint_near needs 'point' and 'tol'",
      'line 8: point must be a nonempty list of finite numbers',
      'line 9: tol must be > 0.0',
      "line 9: endpoint_near needs 'point' and 'tol'",
      'line 10: point has 2 coordinate(s) but the problem is 1-D']),
    ("sampler-and-grid-required-keys", "problem: double_well\nmethod: ula\ntau: 0.1\nsteps: 5\n",
     ["line 1: method 'ula' requires key 'seed'",
      "line 1: method 'ula' requires key 'particles'",
      "line 1: method 'ula' requires key 'init'"]),
    ("grid-required-keys", "problem: double_well\nmethod: fpe_bdl\ntau: 0.1\nsteps: 5\n",
     ["line 1: method 'fpe_bdl' requires key 'grid'",
      "line 1: method 'fpe_bdl' requires key 'init'"]),
    ("family-init-outputs-checks", GD + "init: {kind: gibbs}\noutputs:\n"
     "  - {kind: histogram, path: h.csv}\n  - {kind: trajectory, path: t.csv}\n"
     "assertions:\n  - {check: metric_max, metric: tv, time: 1.0, max: 1.0}\n",
     ["line 5: init 'gibbs' is not valid for method 'gd' (allowed: list)",
      "line 7: output kind 'histogram' not valid for method 'gd' (allowed: trajectory, "
      'rates)',
      "line 10: check 'metric_max' not valid for method 'gd' (allowed: endpoint_near)"]),
    ("grid-init-list", FPE + "init: [0.5]\noutputs:\n  - {kind: samples, path: s.csv}\n"
     "assertions:\n  - {check: endpoint_near, point: [0.0], tol: 1.0}\n",
     ["line 6: init 'list' is not valid for method 'fpe' (allowed: gaussian, gibbs)",
      "line 8: output kind 'samples' not valid for method 'fpe' (allowed: density, "
      'metrics, rates)',
      "line 10: check 'endpoint_near' not valid for method 'fpe' (allowed: metric_max, "
      'metric_monotone)']),
    ("grid-on-2d", FPE.replace("quadratic:0.5", "quadratic:0.5,1.0") + "init: {kind: gibbs}\n",
     ["line 1: method 'fpe' needs a 1-D problem; 'quadratic:0.5,1.0' is 2-D"]),
    ("histograms-without-grid-on-2d", ULA.replace("double_well", "quadratic:0.5,1.0")
     + "init: [0.0, 0.0]\noutputs:\n  - {kind: histogram, path: h.csv}\n"
     "  - {kind: metrics, path: m.csv}\nassertions:\n  - {check: metric_monotone, metric: tv}\n",
     ["line 1: histogram/metrics outputs require key 'grid'",
      "line 9: histograms and metrics need a 1-D problem; 'quadratic:0.5,1.0' is 2-D",
      "line 10: histograms and metrics need a 1-D problem; 'quadratic:0.5,1.0' is 2-D",
      "line 12: histograms and metrics need a 1-D problem; 'quadratic:0.5,1.0' is 2-D",
      'line 12: metric_monotone needs metrics at 2 or more times; this run has 1']),
    ("newton-and-rates-on-a-mixture", GD.replace("double_well", "mixture:0.5,-2.0,0.5;0.5,2.0,0.5")
     .replace("gd", "newton") + "init: [0.5]\noutputs:\n  - {kind: rates, path: r.txt}\n"
     "  - {kind: rates, path: r2.txt}\n",
     ["line 2: method 'newton' needs a potential with a Hessian; "
      "'mixture:0.5,-2.0,0.5;0.5,2.0,0.5' has none",
      "line 7: output kind 'rates' needs a potential with a known minimum value; "
      "'mixture:0.5,-2.0,0.5;0.5,2.0,0.5' has none",
      "line 8: output kind 'rates' needs a potential with a known minimum value; "
      "'mixture:0.5,-2.0,0.5;0.5,2.0,0.5' has none"]),
    ("negative-entropy-start", GD.replace("gd", "mirror") + "mirror_map: negative_entropy\n"
     "init: [0.0]\n",
     ["line 6: mirror_map 'negative_entropy' needs every init coordinate > 0"]),
    ("newton-from-indefinite-starts", GD.replace("gd", "newton")
     + "init: [[1.5], [0.2], [-0.5], [-2.0]]\n",
     ["line 5: method 'newton' needs a positive definite Hessian at each start; "
      "start 1 [0.2] has none",
      "line 5: method 'newton' needs a positive definite Hessian at each start; "
      "start 2 [-0.5] has none"]),
    ("deterministic-paths", GD + "init: [[0.5], [-0.5], [1.0]]\noutputs:\n"
     "  - {kind: trajectory, path: traj.csv}\n  - {kind: rates, path: 'r_{i}.txt'}\n"
     "  - {kind: trajectory, path: 'r_{i}.txt'}\n",
     ["line 7: output path 'traj.csv' writes 'traj.csv' for start 1, as does line 7 for "
      'start 0',
      "line 9: output path 'r_{i}.txt' writes 'r_0.txt' for start 0, as does line 8 for "
      'start 0']),
    ("grid-paths", FPE + "init: {kind: gibbs}\noutputs:\n"
     "  - {kind: density, path: d.csv, times: [0.05, 0.1]}\n  - {kind: metrics, path: d.csv}\n"
     "  - {kind: density, path: 'e_{t}.csv', times: [0.02, 0.0200000001]}\n",
     ["line 8: output path 'd.csv' writes 'd.csv' at time 0.1, as does line 8 at time "
      '0.05',
      "line 9: output path 'd.csv' writes 'd.csv', as does line 8 at time 0.05",
      "line 10: output path 'e_{t}.csv' writes 'e_0.02.csv' at time 0.0200000001, as "
      'does line 10 at time 0.02']),
    ("sampler-paths", ULA + "init: [0.0]\ngrid: {lo: -3.0, hi: 3.0, n: 30}\noutputs:\n"
     "  - {kind: histogram, path: h.csv, times: [0.5, 1.0]}\n  - {kind: samples, path: h.csv}\n",
     ["line 10: output path 'h.csv' writes 'h.csv' at time 1.0, as does line 10 at time "
      '0.5',
      "line 11: output path 'h.csv' writes 'h.csv', as does line 10 at time 0.5"]),
    ("sampler-times", ULA + "init: [0.0]\ngrid: {lo: -3.0, hi: 3.0, n: 30}\noutputs:\n"
     "  - {kind: metrics, path: m.csv, times: [0.25, 5.0]}\n"
     "  - {kind: histogram, path: 'h{t}.csv', times: [-0.1]}\n"
     "assertions:\n  - {check: metric_max, metric: tv, time: 2.0, max: 1.0}\n",
     ['line 10: time 0.25 must be a whole number of tau=0.1 steps in 0..1',
      'line 10: time 5 must be a whole number of tau=0.1 steps in 0..1',
      'line 11: time -0.1 must be a whole number of tau=0.1 steps in 0..1',
      'line 13: time 2 must be a whole number of tau=0.1 steps in 0..1']),
    ("grid-times-and-monotone", FPE + "init: {kind: gibbs}\noutputs:\n"
     "  - {kind: density, path: 'd{t}.csv', times: [-1.0, 2.0]}\n"
     "assertions:\n  - {check: metric_max, metric: kl, time: 3.0, max: 1.0}\n",
     ['line 8: time -1 must lie in 0..0.1',
      'line 8: time 2 must lie in 0..0.1',
      'line 10: time 3 must lie in 0..0.1']),
    ("monotone-at-one-time", FPE + "init: {kind: gaussian, mean: [0.0], var: 1.0}\n"
     "assertions:\n  - {check: metric_monotone, metric: l2pinv}\n",
     ['line 8: metric_monotone needs metrics at 2 or more times; this run has 1']),
    ("grid-target-underflows", FPE.replace("quadratic:0.5", "quadratic:50").replace(
        "method: fpe", "method: fpe_bdl") + "init: {kind: gibbs}\noutputs:\n"
     "  - {kind: rates, path: r.txt}\n",
     ["line 5: method 'fpe_bdl' needs a target density above zero in every grid cell; "
      "the Gibbs density of 'quadratic:50' underflows to zero on this grid, so shrink "
      "the domain",
      "line 5: output kind 'rates' (line 8) needs a target density that does not "
      "vanish on the grid; the Gibbs density of 'quadratic:50' vanishes here, so "
      "shrink the domain"]),
    ("bdl-one-particle", ULA.replace("ula", "bdl").replace("particles: 10", "particles: 1")
     + "init: [0.0]\n",
     ["line 6: method 'bdl' needs at least 2 particles, one to replace another"]),
    ("ensemble-one-particle-without-ridge", ULA.replace("ula", "ensemble").replace(
        "particles: 10", "particles: 1") + "init: [0.0]\nridge: 0.0\n",
     ["line 6: method 'ensemble' with 1 particle needs ridge > 1e-14, since its ensemble "
      "covariance is zero"]),
    ("unknown-problem-with-other-errors", GD.replace("double_well", "double_wel")
     + "init: [0.5, 1.0]\nbogus: 1\n",
     ["line 6: unknown key 'bogus'", "line 1: problem unknown potential 'double_wel'"]),
]


@pytest.mark.parametrize("text,errors", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_every_error_of_an_invalid_config(text, errors):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.errors == errors
