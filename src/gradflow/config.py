"""Declarative experiment configs.

Configs are YAML mappings parsed in strict mode: unknown keys are
rejected, every violation is reported with its line number, and all
errors are collected before failing.  Parsing builds the problem's
potential, checks points, means, grid methods and histograms against it,
and checks everything a run would otherwise find only after its work:
which assertions the method takes, what the potential must provide, that
no two files share a path, and output times within the horizon.  A
parsed config's ``horizon()`` and ``metric_times()`` are the run's time
plan, and ``files()`` its file plan.  ``serialize_config`` emits a
canonical form that reparses to an equal config.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field as dc_field
from typing import List, Optional, Tuple

import numpy as np
import yaml

from .errors import ConfigError
from .potentials import from_identifier

__all__ = [
    "ExperimentConfig",
    "OutputSpec",
    "AssertionSpec",
    "parse_config",
    "serialize_config",
    "DETERMINISTIC_METHODS",
    "STOCHASTIC_METHODS",
    "GRID_METHODS",
]

DETERMINISTIC_METHODS = ("gd", "gd_implicit", "newton", "bfgs", "mirror")
STOCHASTIC_METHODS = ("ula", "mala", "ensemble", "bdl")
GRID_METHODS = ("fpe", "fpe_weighted", "fpe_bdl")
ALL_METHODS = DETERMINISTIC_METHODS + STOCHASTIC_METHODS + GRID_METHODS

_OUTPUT_KINDS = {
    "deterministic": ("trajectory", "rates"),
    "stochastic": ("samples", "histogram", "metrics", "stats"),
    "grid": ("density", "metrics", "rates"),
}
_TIMED_KINDS = ("histogram", "density", "metrics")
# init forms each family runs: "list" is a point or a list of points
_INIT_KINDS = {
    "deterministic": ("list",),
    "stochastic": ("list", "gaussian", "points"),
    "grid": ("gaussian", "gibbs"),
}
_INIT_KEYS = {
    "gaussian": ("kind", "mean", "var", "cov"),
    "points": ("kind", "points"),
    "gibbs": ("kind",),
}
_METRIC_NAMES = ("tv", "kl", "l2pinv")
_ASSERTION_KEYS = {
    "endpoint_near": ("check", "point", "tol"),
    "metric_max": ("check", "metric", "time", "max"),
    "metric_monotone": ("check", "metric"),
}
_ASSERTION_CHECKS = {
    "deterministic": ("endpoint_near",),
    "stochastic": ("metric_max", "metric_monotone"),
    "grid": ("metric_max", "metric_monotone"),
}
_REQUIRED_KEYS = {
    "deterministic": ("init",),
    "stochastic": ("seed", "particles", "init"),
    "grid": ("grid", "init"),
}

_TOP_KEYS = ("problem", "method", "tau", "dt", "steps", "time", "seed",
             "particles", "init", "grid", "thin", "workers", "ridge",
             "bandwidth", "mirror_map", "outputs", "assertions", "manifest")


@dataclass(eq=True)
class OutputSpec:
    kind: str
    path: str
    times: Optional[List[float]] = None


@dataclass(eq=True)
class AssertionSpec:
    check: str
    params: dict


@dataclass(eq=True)
class ExperimentConfig:
    problem: str
    method: str
    tau: float
    steps: Optional[int] = None
    time: Optional[float] = None
    seed: Optional[int] = None
    particles: Optional[int] = None
    init: object = None
    grid: Optional[dict] = None
    thin: int = 1
    workers: int = 1
    ridge: Optional[float] = None
    bandwidth: object = "auto"
    mirror_map: str = "quadratic"
    outputs: List[OutputSpec] = dc_field(default_factory=list)
    assertions: List[AssertionSpec] = dc_field(default_factory=list)
    manifest: str = "manifest.json"

    @property
    def family(self) -> str:
        return _family(self.method)

    def n_steps(self) -> int:
        if self.steps is not None:
            return self.steps
        return max(0, int(round(self.time / self.tau)))

    def horizon(self) -> float:
        """The time the run ends at: whole steps for a sampler, the
        configured time (else steps * tau) for the other families."""
        if self.time is None or self.family == "stochastic":
            return self.n_steps() * self.tau
        return self.time

    def metric_times(self) -> List[float]:
        """The sorted times at which the run computes tv, kl and l2pinv: the
        times of each histogram, density or metrics output (the horizon for
        one without), each metric_max time, and a grid solve's horizon.  A
        sampler has one state per step, so it keeps each step's earliest."""
        horizon = self.horizon()
        times = {t for spec in self.outputs if spec.kind in _TIMED_KINDS
                 for t in spec.times or [horizon]}
        times.update(a.params["time"] for a in self.assertions
                     if a.check == "metric_max")
        if self.family == "grid":
            times.add(horizon)
        if self.family == "stochastic":
            times = {round(t / self.tau): t for t in sorted(times, reverse=True)}.values()
        return sorted(times)

    def files(self) -> List[Tuple[OutputSpec, str, object]]:
        """Every file the run writes, in output order, as (output, path,
        label): one per start of a deterministic run (label i, for ``{i}``),
        one per time (else the horizon) of a histogram or density output
        (label t, ``{t}`` -> ``f"{t:g}"``), else one at the literal path."""
        n_starts = len(self.init) if np.ndim(self.init) == 2 else 1
        files = []
        for spec in self.outputs:
            if self.family == "deterministic":
                files += [(spec, spec.path.replace("{i}", str(i)), i)
                          for i in range(n_starts)]
            elif spec.kind in ("histogram", "density"):
                files += [(spec, spec.path.replace("{t}", f"{t:g}"), t)
                          for t in spec.times or [self.horizon()]]
            else:
                files.append((spec, spec.path, None))
        return files


def _family(method: str) -> str:
    if method in DETERMINISTIC_METHODS:
        return "deterministic"
    if method in STOCHASTIC_METHODS:
        return "stochastic"
    return "grid"


# --- node-level helpers ------------------------------------------------------

class _Loader(yaml.SafeLoader):
    """SafeLoader that also reads YAML 1.2 floats such as ``1e-3``, which
    the YAML 1.1 resolver leaves as strings because they have no dot."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."))


def _line(node) -> int:
    return node.start_mark.line + 1


def _construct(node):
    return _Loader("").construct_object(node, deep=True)


def _is_number(v) -> bool:
    """An int or float (not a bool) with a finite float value."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def _mapping_items(node, errors, where: str):
    if not isinstance(node, yaml.MappingNode):
        errors.append(f"line {_line(node)}: {where} must be a mapping")
        return {}
    out = {}
    for key_node, val_node in node.value:
        key = _construct(key_node)
        if not isinstance(key, str):
            errors.append(f"line {_line(key_node)}: keys must be strings")
            continue
        if key in out:
            errors.append(f"line {_line(key_node)}: duplicate key {key!r}")
            continue
        out[key] = val_node
    return out


def _unknown_keys(items: dict, allowed, what: str, errors) -> None:
    errors.extend(f"line {_line(node)}: unknown {what} {key!r}"
                  for key, node in items.items() if key not in allowed)


def _list_items(items: dict, key: str, errors) -> list:
    """The item nodes of the list under ``key`` (none when it is absent)."""
    node = items.get(key)
    if node is None:
        return []
    if not isinstance(node, yaml.SequenceNode):
        errors.append(f"line {_line(node)}: {key} must be a list")
        return []
    return node.value


class _Field:
    """Typed extraction from a mapping of YAML nodes, accumulating errors."""

    def __init__(self, items: dict, errors: list):
        self.items = items
        self.errors = errors

    def _value(self, key, kind, check, describe):
        node = self.items.get(key)
        if node is None:
            return None
        val = _construct(node)
        if not kind(val):
            self.errors.append(f"line {_line(node)}: {key} must be {describe}")
            return None
        msg = check(val) if check else None
        if msg:
            self.errors.append(f"line {_line(node)}: {key} {msg}")
            return None
        return val

    def floating(self, key, minimum=None, exclusive=False):
        def check(v):
            if minimum is not None:
                if exclusive and not v > minimum:
                    return f"must be > {minimum}"
                if not exclusive and not v >= minimum:
                    return f"must be >= {minimum}"
            return None
        val = self._value(key, _is_number, check, "a finite number")
        return None if val is None else float(val)

    def integer(self, key, minimum=None):
        def check(v):
            if minimum is not None and v < minimum:
                return f"must be >= {minimum}"
            return None
        return self._value(key, lambda v: isinstance(v, int)
                           and not isinstance(v, bool), check, "an integer")

    def string(self, key, choices=None):
        def check(v):
            if choices and v not in choices:
                return f"must be one of {', '.join(choices)}"
            return None
        return self._value(key, lambda v: isinstance(v, str), check, "a string")


def _float_list(node, errors, where):
    val = _construct(node)
    if isinstance(val, list) and val and all(_is_number(v) for v in val):
        return [float(v) for v in val]
    errors.append(f"line {_line(node)}: {where} must be a nonempty list of finite numbers")
    return None


def _check_dim(node, what: str, n: int, dim, errors) -> None:
    """Report ``what`` (n coordinates) unless it fits a dim-D problem."""
    if dim is not None and n != dim:
        errors.append(f"line {_line(node)}: {what} has {n} coordinate(s) but "
                      f"the problem is {dim}-D")


def _number_rows(val):
    """``val`` as a nonempty list of equal-length, nonempty lists of finite
    numbers (converted to floats), or None when it is not one."""
    if (isinstance(val, list) and val
            and all(isinstance(r, list) and r and all(_is_number(x) for x in r)
                    for r in val)
            and len({len(r) for r in val}) == 1):
        return [[float(x) for x in r] for r in val]
    return None


def _cov_error(rows, side: int):
    """Why ``rows`` is not a covariance for a mean of length ``side``, or None."""
    if rows is None:
        return "must be a list of equal-length lists of finite numbers"
    cov = np.asarray(rows)
    if cov.shape[0] != cov.shape[1]:
        return f"must be square, not {cov.shape[0]}x{cov.shape[1]}"
    if cov.shape[0] != side:
        return f"must be {side}x{side} to match the mean"
    if not np.array_equal(cov, cov.T):
        return "must be symmetric"
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        return "must be positive definite"
    return None


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate; raises ConfigError listing every violation.

    The problem's potential is built to check the config against its
    dimension; an identifier that no potential accepts raises the
    potential's ValueError, once the config has no other errors.
    """
    errors: List[str] = []
    try:
        root = yaml.compose(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ConfigError([f"yaml: {exc}"])
    if root is None:
        raise ConfigError(["config is empty"])
    items = _mapping_items(root, errors, "config")
    if errors:
        raise ConfigError(errors)

    _unknown_keys(items, _TOP_KEYS, "key", errors)
    f = _Field(items, errors)
    problem = f.string("problem")
    method = f.string("method", choices=ALL_METHODS)
    if "problem" not in items:
        errors.append("line 1: missing required key 'problem'")
    if "method" not in items:
        errors.append("line 1: missing required key 'method'")
    potential, problem_error = None, None
    if problem is not None:
        try:
            potential = from_identifier(problem)
        except ValueError as exc:
            problem_error = exc
    dim = None if potential is None else potential.dim

    tau = f.floating("tau", minimum=0.0, exclusive=True)
    dt = f.floating("dt", minimum=0.0, exclusive=True)
    if ("tau" in items) == ("dt" in items):
        errors.append("line 1: exactly one of 'tau' or 'dt' is required")

    steps = f.integer("steps", minimum=0)
    time = f.floating("time", minimum=0.0, exclusive=True)
    if ("steps" in items) == ("time" in items):
        errors.append("line 1: exactly one of 'steps' or 'time' is required")

    seed = f.integer("seed")
    particles = f.integer("particles", minimum=1)
    thin = f.integer("thin", minimum=1)
    workers = f.integer("workers", minimum=1)
    ridge = f.floating("ridge", minimum=0.0)
    mirror_map = f.string("mirror_map", choices=("quadratic", "negative_entropy"))
    manifest = f.string("manifest")

    bandwidth = "auto"
    bw_node = items.get("bandwidth")
    if bw_node is not None:
        bw = _construct(bw_node)
        if bw == "auto":
            bandwidth = "auto"
        elif _is_number(bw) and bw > 0:
            bandwidth = float(bw)
        else:
            errors.append(f"line {_line(bw_node)}: bandwidth must be 'auto' or a positive number")

    grid = None
    grid_node = items.get("grid")
    if grid_node is not None:
        gitems = _mapping_items(grid_node, errors, "grid")
        _unknown_keys(gitems, ("lo", "hi", "n"), "grid key", errors)
        gf = _Field(gitems, errors)
        lo = gf.floating("lo")
        hi = gf.floating("hi")
        n = gf.integer("n", minimum=2)
        missing = [k for k in ("lo", "hi", "n") if k not in gitems]
        if missing:
            errors.append(f"line {_line(grid_node)}: grid needs keys lo, hi, n "
                          f"(missing {', '.join(missing)})")
        elif lo is not None and hi is not None and hi <= lo:
            errors.append(f"line {_line(grid_node)}: grid needs hi > lo")
        if lo is not None and hi is not None and n is not None and hi > lo:
            grid = {"lo": lo, "hi": hi, "n": n}

    init = None
    init_node = items.get("init")
    if init_node is not None:
        init = _parse_init(init_node, errors, dim)

    # each parsed output and assertion with the line it starts on
    outputs = [(spec, _line(item)) for item in _list_items(items, "outputs", errors)
               if (spec := _parse_output(item, errors))]
    assertions = [(spec, _line(item)) for item in _list_items(items, "assertions", errors)
                  if (spec := _parse_assertion(item, errors, dim))]

    cfg = ExperimentConfig(
        problem=problem, method=method, tau=tau if tau is not None else dt,
        steps=steps, time=time, seed=seed, particles=particles, init=init, grid=grid,
        thin=thin if thin is not None else 1,
        workers=workers if workers is not None else 1,
        ridge=ridge, bandwidth=bandwidth,
        mirror_map=mirror_map if mirror_map is not None else "quadratic",
        outputs=[spec for spec, _ in outputs],
        assertions=[spec for spec, _ in assertions],
        manifest=manifest if manifest is not None else "manifest.json")
    if method is not None:
        errors.extend(_family_errors(cfg, items, potential, outputs, assertions))
    if errors:
        raise ConfigError(errors)
    if problem_error is not None:
        raise problem_error
    return cfg


def _family_errors(cfg, items, potential, outputs, assertions):
    """What the method's family rules out: missing keys, init forms, output
    kinds and checks it does not take, what the potential (if known) lacks,
    files that share a path, and times the run does not reach.  ``outputs``
    and ``assertions`` pair each spec with its line."""
    family, method = cfg.family, cfg.method
    dim = None if potential is None else potential.dim
    errors = [f"line 1: method {method!r} requires key {key!r}"
              for key in _REQUIRED_KEYS[family] if key not in items]
    init_kind = cfg.init.get("kind") if isinstance(cfg.init, dict) else "list"
    if cfg.init is not None and init_kind not in _INIT_KINDS[family]:
        errors.append(f"line {_line(items['init'])}: init {init_kind!r} is not valid "
                      f"for method {method!r} (allowed: "
                      f"{', '.join(_INIT_KINDS[family])})")
    if family == "grid" and dim not in (None, 1):
        errors.append(f"line {_line(items['problem'])}: method {method!r} needs a "
                      f"1-D problem; {cfg.problem!r} is {dim}-D")
    for what, specs, allowed in (
            ("output kind", [(o.kind, line) for o, line in outputs], _OUTPUT_KINDS[family]),
            ("check", [(a.check, line) for a, line in assertions], _ASSERTION_CHECKS[family])):
        errors.extend(f"line {line}: {what} {name!r} not valid for method {method!r} "
                      f"(allowed: {', '.join(allowed)})"
                      for name, line in specs if name not in allowed)
    if family == "stochastic":
        # lines of the outputs and assertions that histogram the particles
        histogram_lines = ([line for o, line in outputs if o.kind in ("histogram", "metrics")]
                           + [line for a, line in assertions if a.check != "endpoint_near"])
        if histogram_lines and "grid" not in items:
            errors.append("line 1: histogram/metrics outputs require key 'grid'")
        if dim not in (None, 1):
            errors.extend(f"line {line}: histograms and metrics need a 1-D problem; "
                          f"{cfg.problem!r} is {dim}-D" for line in histogram_lines)

    if family == "deterministic" and potential is not None:
        if method == "newton" and potential.hessian is None:
            errors.append(f"line {_line(items['method'])}: method 'newton' needs a "
                          f"potential with a Hessian; {cfg.problem!r} has none")
        if potential.v_star is None:
            errors.extend(f"line {line}: output kind 'rates' needs a potential with a "
                          f"known minimum value; {cfg.problem!r} has none"
                          for o, line in outputs if o.kind == "rates")
        if (method == "mirror" and cfg.mirror_map == "negative_entropy"
                and isinstance(cfg.init, list) and np.min(cfg.init) <= 0):
            errors.append(f"line {_line(items['init'])}: mirror_map 'negative_entropy' "
                          "needs every init coordinate > 0")

    if cfg.tau is None or (cfg.steps, cfg.time) == (None, None):
        return errors  # no horizon to place files and times at
    errors.extend(_shared_path_errors(cfg, outputs))
    if family == "deterministic":
        return errors
    timed = [(t, line) for o, line in outputs for t in o.times or ()]
    timed += [(a.params["time"], line) for a, line in assertions if a.check == "metric_max"]
    errors.extend(f"line {line}: {msg}" for t, line in timed
                  if (msg := _time_error(cfg, t)))
    n_times = len(cfg.metric_times())
    errors.extend(f"line {line}: metric_monotone needs metrics at 2 or more times; "
                  f"this run has {n_times}"
                  for a, line in assertions if a.check == "metric_monotone" and n_times < 2)
    return errors


def _shared_path_errors(cfg, outputs):
    """An error for each output with a file at a path that an earlier file
    of ``cfg.files()`` takes: the run would overwrite that file."""
    lines = {id(o): line for o, line in outputs}

    def at(label):
        return ("" if label is None else f" for start {label}"
                if cfg.family == "deterministic" else f" at time {label!r}")

    first, errors = {}, {}
    for o, path, label in cfg.files():
        if path in first and id(o) not in errors:
            other, other_label = first[path]
            errors[id(o)] = (f"line {lines[id(o)]}: output path {o.path!r} writes "
                             f"{path!r}{at(label)}, as does line {lines[id(other)]}"
                             f"{at(other_label)}")
        first.setdefault(path, (o, label))
    return list(errors.values())


def _time_error(cfg, t):
    """Why a run cannot report at time ``t``, or None.  A sampler records
    whole steps, so ``t`` must be a multiple of tau (to a relative 1e-9)
    within its steps; a grid solve reaches any ``t`` in 0..horizon (to a
    relative 1e-9)."""
    horizon = cfg.horizon()
    if cfg.family == "stochastic":
        k = t / cfg.tau
        if abs(k - round(k)) > 1e-9 * max(1.0, abs(k)) or not 0 <= round(k) <= cfg.n_steps():
            return (f"time {t:g} must be a whole number of tau={cfg.tau:g} steps "
                    f"in 0..{horizon:g}")
    elif not 0.0 <= t <= horizon * (1.0 + 1e-9):
        return f"time {t:g} must lie in 0..{horizon:g}"
    return None


def _parse_init(node, errors, dim):
    """Initial condition: a point / list of points, or a mapping.

    Mappings: {kind: gaussian, mean: ..., var|cov: ...},
    {kind: points, points: [[...], ...]}, {kind: gibbs}, with no other
    keys.  Every point and mean must have ``dim`` coordinates (unchecked
    when ``dim`` is None).  A list of points starts one deterministic flow
    from each point, or places sampler particles as ``kind: points`` does.
    """
    if isinstance(node, yaml.SequenceNode):
        val = _construct(node)
        if all(_is_number(v) for v in val) and val:
            _check_dim(node, "init point", len(val), dim, errors)
            return [float(v) for v in val]
        rows = _number_rows(val)
        if rows is None:
            errors.append(f"line {_line(node)}: init list must hold finite numbers or "
                          "equal-length lists of them")
        else:
            _check_dim(node, "each init point", len(rows[0]), dim, errors)
        return rows
    if isinstance(node, yaml.MappingNode):
        sub = _mapping_items(node, errors, "init")
        sf = _Field(sub, errors)
        kind = sf.string("kind", choices=tuple(_INIT_KEYS))
        if kind is None:
            errors.append(f"line {_line(node)}: init mapping needs 'kind'")
            return None
        _unknown_keys(sub, _INIT_KEYS[kind], "init key", errors)
        if kind == "gibbs":
            return {"kind": "gibbs"}
        if kind == "gaussian":
            mean_node = sub.get("mean")
            if mean_node is None:
                errors.append(f"line {_line(node)}: gaussian init needs 'mean'")
                return None
            mean_val = _construct(mean_node)
            if _is_number(mean_val):
                mean = [float(mean_val)]
            else:
                mean = _float_list(mean_node, errors, "mean")
                if mean is None:
                    return None
            _check_dim(mean_node, "mean", len(mean), dim, errors)
            var = sf.floating("var", minimum=0.0, exclusive=True)
            cov_node = sub.get("cov")
            if (var is None) == (cov_node is None):
                errors.append(f"line {_line(node)}: gaussian init needs exactly one "
                              "of 'var' or 'cov'")
                return None
            if var is not None:
                return {"kind": "gaussian", "mean": mean, "var": var}
            cov = _number_rows(_construct(cov_node))
            problem = _cov_error(cov, len(mean))
            if problem:
                errors.append(f"line {_line(cov_node)}: cov {problem}")
                return None
            return {"kind": "gaussian", "mean": mean, "cov": cov}
        points_node = sub.get("points")
        if points_node is None:
            errors.append(f"line {_line(node)}: points init needs 'points'")
            return None
        pts = _number_rows(_construct(points_node))
        if pts is None:
            errors.append(f"line {_line(points_node)}: points must be a list of "
                          "equal-length lists of finite numbers")
            return None
        _check_dim(points_node, "each point", len(pts[0]), dim, errors)
        return {"kind": "points", "points": pts}
    errors.append(f"line {_line(node)}: init must be a list or a mapping")
    return None


def _parse_output(node, errors):
    sub = _mapping_items(node, errors, "output")
    if not sub:
        return None
    _unknown_keys(sub, ("kind", "path", "times"), "output key", errors)
    sf = _Field(sub, errors)
    kind = sf.string("kind", choices=tuple(sorted(
        {k for kinds in _OUTPUT_KINDS.values() for k in kinds})))
    path = sf.string("path")
    if kind is None or path is None:
        errors.append(f"line {_line(node)}: output needs 'kind' and 'path'")
        return None
    times = None
    times_node = sub.get("times")
    if times_node is not None:
        if kind not in _TIMED_KINDS:
            errors.append(f"line {_line(times_node)}: 'times' only applies to "
                          f"{', '.join(_TIMED_KINDS)} outputs")
        times = _float_list(times_node, errors, "times")
    return OutputSpec(kind=kind, path=path, times=times)


def _parse_assertion(node, errors, dim):
    sub = _mapping_items(node, errors, "assertion")
    if not sub:
        return None
    sf = _Field(sub, errors)
    check = sf.string("check", choices=tuple(_ASSERTION_KEYS))
    if check is None:
        errors.append(f"line {_line(node)}: assertion needs 'check'")
        return None
    _unknown_keys(sub, _ASSERTION_KEYS[check], "assertion key", errors)
    if check == "endpoint_near":
        point_node = sub.get("point")
        tol = sf.floating("tol", minimum=0.0, exclusive=True)
        if point_node is None or tol is None:
            errors.append(f"line {_line(node)}: endpoint_near needs 'point' and 'tol'")
            return None
        point = _float_list(point_node, errors, "point")
        if point is None:
            return None
        _check_dim(point_node, "point", len(point), dim, errors)
        params = {"point": point, "tol": tol}
    elif check == "metric_max":
        metric = sf.string("metric", choices=_METRIC_NAMES)
        at = sf.floating("time")
        limit = sf.floating("max")
        if metric is None or at is None or limit is None:
            errors.append(f"line {_line(node)}: metric_max needs 'metric', 'time', 'max'")
            return None
        params = {"metric": metric, "time": at, "max": limit}
    else:  # metric_monotone
        metric = sf.string("metric", choices=_METRIC_NAMES)
        if metric is None:
            errors.append(f"line {_line(node)}: metric_monotone needs 'metric'")
            return None
        params = {"metric": metric}
    return AssertionSpec(check=check, params=params)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Canonical plain mapping; omits defaults that were not set explicitly
    only where they are unambiguous (outputs/assertions always included)."""
    out = {"problem": cfg.problem, "method": cfg.method, "tau": cfg.tau}
    if cfg.steps is not None:
        out["steps"] = cfg.steps
    if cfg.time is not None:
        out["time"] = cfg.time
    if cfg.seed is not None:
        out["seed"] = cfg.seed
    if cfg.particles is not None:
        out["particles"] = cfg.particles
    if cfg.init is not None:
        out["init"] = cfg.init
    if cfg.grid is not None:
        out["grid"] = cfg.grid
    out["thin"] = cfg.thin
    out["workers"] = cfg.workers
    if cfg.ridge is not None:
        out["ridge"] = cfg.ridge
    if cfg.bandwidth != "auto":
        out["bandwidth"] = cfg.bandwidth
    if cfg.mirror_map != "quadratic":
        out["mirror_map"] = cfg.mirror_map
    if cfg.outputs:
        out["outputs"] = [
            {"kind": o.kind, "path": o.path, **({"times": o.times} if o.times else {})}
            for o in cfg.outputs]
    if cfg.assertions:
        out["assertions"] = [{"check": a.check, **a.params} for a in cfg.assertions]
    if cfg.manifest != "manifest.json":
        out["manifest"] = cfg.manifest
    return out


def serialize_config(cfg: ExperimentConfig) -> str:
    return yaml.safe_dump(config_to_dict(cfg), sort_keys=False,
                          default_flow_style=False)
