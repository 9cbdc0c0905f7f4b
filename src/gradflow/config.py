"""Declarative experiment configs.

Configs are YAML mappings parsed in strict mode: unknown keys are
rejected, and every violation is collected and reported with its line.
``_KEYS`` is the one place a top-level key is declared (its reader,
bound and presence rule; its default is its ``ExperimentConfig``
field's), each nested mapping is one record, and ``_FAMILIES`` says what
each method family takes.  Parsing builds the problem's potential and
refuses everything a run would otherwise find only after its work, such
as two files at one path (the manifest among them).  A parsed config's
``potential``, ``horizon()``, ``metric_times()`` and ``files()`` are the
run's plan.  ``serialize_config`` emits a canonical form that reparses to
an equal config.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import MISSING, dataclass, field as dc_field, fields, replace
from typing import List, NamedTuple, Optional, Tuple

import numpy as np
import yaml

from .density import Grid1D, gibbs_density, underflows, vanishes
from .errors import ConfigError
from .potentials import Potential, from_identifier
from .sample import SINGULAR_EIGENVALUE

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


class _Family(NamedTuple):
    methods: tuple
    required: tuple  # top-level keys its methods need
    inits: tuple     # init forms it runs: "list" is a point or a list of points
    outputs: tuple   # output kinds
    checks: tuple    # assertion checks


_FAMILIES = {
    "deterministic": _Family(DETERMINISTIC_METHODS, ("init",), ("list",),
                             ("trajectory", "rates"), ("endpoint_near",)),
    "stochastic": _Family(STOCHASTIC_METHODS, ("seed", "particles", "init"),
                          ("list", "gaussian", "points"),
                          ("samples", "histogram", "metrics", "stats"),
                          ("metric_max", "metric_monotone")),
    "grid": _Family(GRID_METHODS, ("grid", "init"), ("gaussian", "gibbs"),
                    ("density", "metrics", "rates"), ("metric_max", "metric_monotone")),
}
_TIMED_KINDS = ("histogram", "density", "metrics")


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
    potential: Optional[Potential] = dc_field(default=None, compare=False, repr=False)

    @property
    def family(self) -> str:
        return next(name for name, family in _FAMILIES.items()
                    if self.method in family.methods)

    def n_steps(self) -> int:
        return self.steps if self.steps is not None else max(0, self.step_at(self.time))

    def step_at(self, t: float) -> int:
        """The step whose state a sampler reports at time ``t``."""
        return int(round(t / self.tau))

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
            times = {self.step_at(t): t for t in sorted(times, reverse=True)}.values()
        return sorted(times)

    def files(self) -> List[Tuple[OutputSpec, str, object]]:
        """Every file the run writes, in output order, as (output, path,
        label): one per start of a deterministic run (label i, for ``{i}``),
        one per time (else the horizon) of a histogram or density output
        (label t, ``{t}`` -> ``f"{t:g}"``), else one at the literal path."""
        # a missing or mapping init, which the gate refuses, counts as one start
        n_starts = len(self.init) if isinstance(self.init, list) else 1
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


class _Invalid(ValueError):
    """Why a value does not fit its key, as in ``must be a string``."""


def _typed(kind, minimum=None, strict=False, choices=()):
    """A reader of a ``kind`` value (float, int or str): > ``minimum`` if
    strict, else >= it, and one of ``choices`` when they are given."""
    describe, accepts = {float: ("a finite number", _is_number),
                         int: ("an integer", lambda v: type(v) is int),
                         str: ("a string", lambda v: isinstance(v, str))}[kind]

    def read(v):
        if not accepts(v):
            raise _Invalid(f"must be {describe}")
        if minimum is not None and not (v > minimum if strict else v >= minimum):
            raise _Invalid(f"must be {'>' if strict else '>='} {minimum}")
        if choices and v not in choices:
            raise _Invalid(f"must be one of {', '.join(choices)}")
        return kind(v)
    return read


def _bandwidth(v):
    if v != "auto" and not (_is_number(v) and v > 0):
        raise _Invalid("must be 'auto' or a positive number")
    return v if v == "auto" else float(v)


def _reals(v):
    if isinstance(v, list) and v and all(_is_number(x) for x in v):
        return [float(x) for x in v]
    raise _Invalid("must be a nonempty list of finite numbers")


def _mean(v):
    return [float(v)] if _is_number(v) else _reals(v)


def _rows(v):
    rows = _number_rows(v)
    if rows is None:
        raise _Invalid("must be a list of equal-length lists of finite numbers")
    return rows


def _read(items: dict, key: str, read, errors):
    """``key``'s value in ``items`` (key -> node) as ``read`` reads it (its
    node if ``read`` is None), or None when it is absent or invalid."""
    node = items.get(key)
    if node is None or read is None:
        return node
    try:
        return read(_construct(node))
    except _Invalid as why:
        errors.append(f"line {_line(node)}: {key} {why}")
        return None


_POSITIVE = _typed(float, 0.0, strict=True)

# Every top-level key with its reader (None: a mapping or list parsed on
# its own), in the order parsing reports them, grouped by presence rule:
# each "required" key must be given, and exactly one of a "one of" pair.
# An absent or invalid key keeps its ExperimentConfig default.
_KEYS = (
    ("required", {"problem": _typed(str), "method": _typed(str, choices=ALL_METHODS)}),
    ("one of", {"tau": _POSITIVE, "dt": _POSITIVE}),
    ("one of", {"steps": _typed(int, 0), "time": _POSITIVE}),
    ("optional", {"seed": _typed(int), "particles": _typed(int, 1), "thin": _typed(int, 1),
                  "workers": _typed(int, 1), "ridge": _typed(float, 0.0),
                  "mirror_map": _typed(str, choices=("quadratic", "negative_entropy")),
                  "manifest": _typed(str), "bandwidth": _bandwidth,
                  "grid": None, "init": None, "outputs": None, "assertions": None}),
)
_READERS = {key: read for _, keys in _KEYS for key, read in keys.items()}

# the nested mappings, each a record (readers, needs, message) for _record
_GRID = {"lo": _typed(float), "hi": _typed(float), "n": _typed(int, 2)}
_OUTPUT = ({"kind": _typed(str, choices=sorted({k for f in _FAMILIES.values()
                                                for k in f.outputs})),
            "path": _typed(str), "times": None},
           ("kind", "path"), "output needs 'kind' and 'path'")
# the record of each init kind and assertion check, but for the key naming it
_INITS = {
    "gaussian": ({"mean": None, "var": None, "cov": None}, ("mean",),
                 "gaussian init needs 'mean'"),
    "points": ({"points": None}, ("points",), "points init needs 'points'"),
    "gibbs": ({},),
}
_METRIC = _typed(str, choices=("tv", "kl", "l2pinv"))
_CHECKS = {
    "endpoint_near": ({"point": None, "tol": _POSITIVE}, ("point", "tol"),
                      "endpoint_near needs 'point' and 'tol'"),
    "metric_max": ({"metric": _METRIC, "time": _typed(float), "max": _typed(float)},
                   ("metric", "time", "max"), "metric_max needs 'metric', 'time', 'max'"),
    "metric_monotone": ({"metric": _METRIC}, ("metric",), "metric_monotone needs 'metric'"),
}


def _record(items: dict, line: int, errors, what: str, readers: dict, needs=(),
            message="", known=()):
    """Read ``items`` as a record of ``readers`` (key -> reader; None leaves
    the node, which the caller reads after this check): report each key
    outside ``known`` and ``readers`` as an unknown ``what`` key, and return
    key -> value (None for an absent or invalid one); or None, after
    reporting ``message``, when a key of ``needs`` is either."""
    _unknown_keys(items, (*known, *readers), f"{what} key", errors)
    values = {key: _read(items, key, read, errors) for key, read in readers.items()}
    if any(values[key] is None for key in needs):
        errors.append(f"line {line}: {message}")
        return None
    return values


def _variant(items: dict, line: int, errors, what: str, key: str, variants: dict,
             message: str):
    """The variant that ``key`` names, and its record's values read as by
    ``_record``; (None, None), after reporting ``message``, when ``key`` is
    absent or names no variant."""
    name = _read(items, key, _typed(str, choices=tuple(variants)), errors)
    if name is None:
        errors.append(f"line {line}: {message}")
        return None, None
    return name, _record(items, line, errors, what, *variants[name], known=(key,))


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate; raises ConfigError listing every violation.

    The problem's potential is built to check the config against, and
    kept as its ``potential``; an identifier that no potential accepts
    raises the potential's ValueError, once the config has no other errors.
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

    _unknown_keys(items, _READERS, "key", errors)
    values = {}
    for rule, keys in _KEYS:
        values.update((key, _read(items, key, read, errors)) for key, read in keys.items())
        if rule == "required":
            errors.extend(f"line 1: missing required key {key!r}"
                          for key in keys if key not in items)
        elif rule == "one of" and sum(key in items for key in keys) != 1:
            errors.append("line 1: exactly one of {!r} or {!r} is required".format(*keys))

    potential, problem_error = None, None
    if values["problem"] is not None:
        try:
            potential = from_identifier(values["problem"])
        except ValueError as exc:
            problem_error = exc
    dim = None if potential is None else potential.dim

    if values["grid"] is not None:
        values["grid"] = _parse_grid(values["grid"], errors)
    if values["init"] is not None:
        values["init"] = _parse_init(values["init"], errors, dim)
    # each parsed output and assertion with the line it starts on
    outputs = [(spec, _line(item)) for item in _list_items(items, "outputs", errors)
               if (spec := _parse_output(item, errors))]
    assertions = [(spec, _line(item)) for item in _list_items(items, "assertions", errors)
                  if (spec := _parse_assertion(item, errors, dim))]
    values["outputs"] = [spec for spec, _ in outputs]
    values["assertions"] = [spec for spec, _ in assertions]

    tau, dt = values.pop("tau"), values.pop("dt")
    cfg = ExperimentConfig(problem=values.pop("problem"), method=values.pop("method"),
                           tau=dt if tau is None else tau, potential=potential,
                           **{key: val for key, val in values.items() if val is not None})
    if cfg.method is not None:
        errors.extend(_family_errors(cfg, items, potential, outputs, assertions))
    if errors:
        raise ConfigError(errors)
    if problem_error is not None:
        raise problem_error
    return cfg


def with_overrides(cfg: ExperimentConfig, seed=None, workers=None) -> ExperimentConfig:
    """``cfg`` with a run's seed and worker count (None keeps the config's),
    each read by its key's reader as parsing reads it; raises ConfigError
    listing each value that reader refuses."""
    errors, values = [], {}
    for key, value in (("seed", seed), ("workers", workers)):
        try:
            values[key] = getattr(cfg, key) if value is None else _READERS[key](value)
        except _Invalid as why:
            errors.append(f"override: {key} {why}")
    if errors:
        raise ConfigError(errors)
    return replace(cfg, **values)


def _indefinite_starts(potential, init):
    """(index, start) of each start of the right dimension whose Hessian has
    no Cholesky factor, the test the Newton step makes before it moves."""
    for i, start in enumerate(init):
        if len(start) != potential.dim:
            continue
        try:
            np.linalg.cholesky(np.atleast_2d(potential.hessian(np.asarray(start))))
        except np.linalg.LinAlgError:
            yield i, start


def _distinct_starts(init, particles: int) -> int:
    """How many distinct points a sampler init places ``particles`` on: a
    list of points or ``kind: points`` cycles through its points, and a
    gaussian draws each particle apart."""
    points = init.get("points") if isinstance(init, dict) else init
    return len({tuple(p) for p in points[:particles]}) if points else particles


def _family_errors(cfg, items, potential, outputs, assertions):
    """What the method's family rules out: missing keys, init forms, output
    kinds and checks it does not take, what the potential (if known) lacks,
    files that share a path, and times the run does not reach.  ``outputs``
    and ``assertions`` pair each spec with its line."""
    family, method = cfg.family, cfg.method
    rules = _FAMILIES[family]
    dim = None if potential is None else potential.dim
    errors = [f"line 1: method {method!r} requires key {key!r}"
              for key in rules.required if key not in items]
    init_kind = cfg.init.get("kind") if isinstance(cfg.init, dict) else "list"
    if cfg.init is not None and init_kind not in rules.inits:
        errors.append(f"line {_line(items['init'])}: init {init_kind!r} is not valid "
                      f"for method {method!r} (allowed: "
                      f"{', '.join(rules.inits)})")
    if family == "grid" and dim not in (None, 1):
        errors.append(f"line {_line(items['problem'])}: method {method!r} needs a "
                      f"1-D problem; {cfg.problem!r} is {dim}-D")
    if family == "grid" and dim == 1 and cfg.grid is not None:
        errors.extend(_grid_target_errors(cfg, _line(items["grid"]), potential, outputs))
    for what, specs, allowed in (
            ("output kind", [(o.kind, line) for o, line in outputs], rules.outputs),
            ("check", [(a.check, line) for a, line in assertions], rules.checks)):
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
        if method == "bdl" and cfg.particles == 1:
            errors.append(f"line {_line(items['particles'])}: method 'bdl' needs at "
                          "least 2 particles, one to replace another")
        if method == "ensemble" and cfg.particles and not (cfg.ridge or 0.0) > SINGULAR_EIGENVALUE:
            # the first step's mobility is the starting covariance, of rank below
            # the number of distinct starts, plus the ridge; a ridge left out is
            # 1e-6 trace(cov) / dim, zero only when the particles share one point
            starts = _distinct_starts(cfg.init, cfg.particles)
            if cfg.particles == 1:
                errors.append(f"line {_line(items['particles'])}: method 'ensemble' with 1 "
                              f"particle needs ridge > {SINGULAR_EIGENVALUE:g}, since its "
                              "ensemble covariance is zero")
            elif starts == 1:
                errors.append(f"line {_line(items['init'])}: method 'ensemble' needs ridge > "
                              f"{SINGULAR_EIGENVALUE:g} when every particle starts on one "
                              "point, since their ensemble covariance is zero")
            elif cfg.ridge is not None and dim is not None and starts <= dim:
                line = _line(items["particles" if starts == cfg.particles else "init"])
                errors.append(f"line {line}: method 'ensemble' in {dim}-D needs its particles "
                              f"to start on more than {dim} points or ridge > "
                              f"{SINGULAR_EIGENVALUE:g}, since the ensemble covariance of "
                              f"{starts} starting points is singular")

    if family == "deterministic" and potential is not None:
        if method == "newton" and potential.hessian is None:
            errors.append(f"line {_line(items['method'])}: method 'newton' needs a "
                          f"potential with a Hessian; {cfg.problem!r} has none")
        elif method == "newton" and isinstance(cfg.init, list):
            errors.extend(f"line {_line(items['init'])}: method 'newton' needs a positive "
                          f"definite Hessian at each start; start {i} {start} has none"
                          for i, start in _indefinite_starts(potential, cfg.init))
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


def _grid_target_errors(cfg, line, potential, outputs):
    """What the Gibbs target on the grid rules out, by the tests the run
    makes: ``fpe_bdl``'s reaction takes log pi, and a ``rates`` report
    weights by 1/pi."""
    pi = gibbs_density(potential, Grid1D.from_bounds(**cfg.grid))
    errors = []
    if cfg.method == "fpe_bdl" and underflows(pi):
        errors.append(f"line {line}: method 'fpe_bdl' needs a target density above "
                      f"zero in every grid cell; the Gibbs density of {cfg.problem!r} "
                      "underflows to zero on this grid, so shrink the domain")
    rates_lines = [str(o_line) for o, o_line in outputs if o.kind == "rates"]
    if rates_lines and vanishes(pi):
        errors.append(f"line {line}: output kind 'rates' (line {', '.join(rates_lines)}) "
                      f"needs a target density that does not vanish on the grid; the "
                      f"Gibbs density of {cfg.problem!r} vanishes here, so shrink the "
                      "domain")
    return errors


def _shared_path_errors(cfg, outputs):
    """An error for each output with a file at the manifest's path or at a
    path that an earlier file of ``cfg.files()`` takes, paths compared in
    ``os.path.normpath`` form: the run would overwrite that file."""
    lines = {id(o): line for o, line in outputs}

    def at(label):
        return ("" if label is None else f" for start {label}"
                if cfg.family == "deterministic" else f" at time {label!r}")

    # each path taken so far, with what took it first
    first, errors = {os.path.normpath(cfg.manifest): "the manifest"}, {}
    for o, path, label in cfg.files():
        key = os.path.normpath(path)
        if key in first and id(o) not in errors:
            errors[id(o)] = (f"line {lines[id(o)]}: output path {o.path!r} writes "
                             f"{path!r}{at(label)}, as does {first[key]}")
        first.setdefault(key, f"line {lines[id(o)]}{at(label)}")
    return list(errors.values())


def _time_error(cfg, t):
    """Why a run cannot report at time ``t``, or None.  A sampler records
    whole steps, so ``t`` must be a multiple of tau (to a relative 1e-9)
    within its steps; a grid solve reaches any ``t`` in 0..horizon (to a
    relative 1e-9)."""
    horizon = cfg.horizon()
    if cfg.family == "stochastic":
        k, step = t / cfg.tau, cfg.step_at(t)
        if abs(k - step) > 1e-9 * max(1.0, abs(k)) or not 0 <= step <= cfg.n_steps():
            return (f"time {t:g} must be a whole number of tau={cfg.tau:g} steps "
                    f"in 0..{horizon:g}")
    elif not 0.0 <= t <= horizon * (1.0 + 1e-9):
        return f"time {t:g} must lie in 0..{horizon:g}"
    return None


def _parse_grid(node, errors):
    items = _mapping_items(node, errors, "grid")
    grid = _record(items, _line(node), errors, "grid", _GRID)
    missing = [key for key in grid if key not in items]
    if missing:
        errors.append(f"line {_line(node)}: grid needs keys lo, hi, n "
                      f"(missing {', '.join(missing)})")
    elif None not in (grid["lo"], grid["hi"]) and grid["hi"] <= grid["lo"]:
        errors.append(f"line {_line(node)}: grid needs hi > lo")
    if None in grid.values() or grid["hi"] <= grid["lo"]:
        return None
    try:
        Grid1D.from_bounds(**grid)
    except ValueError as why:  # (hi - lo) / n underflows to 0 or overflows
        errors.append(f"line {_line(node)}: grid cell width (hi - lo) / n: {why}")
        return None
    return grid


def _parse_init(node, errors, dim):
    """Initial condition: a list of points (one deterministic flow from
    each, or sampler particles as ``kind: points`` places them), a single
    point being read as a one-point list, or a mapping of an init kind's
    keys.  Every point and mean must have ``dim`` coordinates (unchecked
    when ``dim`` is None)."""
    if isinstance(node, yaml.SequenceNode):
        val = _construct(node)
        if all(_is_number(v) for v in val) and val:
            _check_dim(node, "init point", len(val), dim, errors)
            return [[float(v) for v in val]]
        rows = _number_rows(val)
        if rows is None:
            errors.append(f"line {_line(node)}: init list must hold finite numbers or "
                          "equal-length lists of them")
        else:
            _check_dim(node, "each init point", len(rows[0]), dim, errors)
        return rows
    if not isinstance(node, yaml.MappingNode):
        errors.append(f"line {_line(node)}: init must be a list or a mapping")
        return None
    sub = _mapping_items(node, errors, "init")
    kind, values = _variant(sub, _line(node), errors, "init", "kind", _INITS,
                            "init mapping needs 'kind'")
    if values is None:
        return None
    if kind == "gibbs":
        return {"kind": "gibbs"}
    if kind == "points":
        pts = _read(sub, "points", _rows, errors)
        if pts is None:
            return None
        _check_dim(sub["points"], "each point", len(pts[0]), dim, errors)
        return {"kind": "points", "points": pts}
    mean = _read(sub, "mean", _mean, errors)
    if mean is None:
        return None
    _check_dim(sub["mean"], "mean", len(mean), dim, errors)
    var = _read(sub, "var", _POSITIVE, errors)
    if "var" in sub and "cov" not in sub:  # an invalid var is reported already
        return None if var is None else {"kind": "gaussian", "mean": mean, "var": var}
    if var is not None or "cov" not in sub:
        errors.append(f"line {_line(node)}: gaussian init needs exactly one "
                      "of 'var' or 'cov'")
        return None
    cov = _number_rows(_construct(sub["cov"]))
    problem = _cov_error(cov, len(mean))
    if problem:
        errors.append(f"line {_line(sub['cov'])}: cov {problem}")
        return None
    return {"kind": "gaussian", "mean": mean, "cov": cov}


def _parse_output(node, errors):
    sub = _mapping_items(node, errors, "output")
    out = (_record(sub, _line(node), errors, "output", *_OUTPUT)
           if isinstance(node, yaml.MappingNode) else None)
    if out is None:
        return None
    if out["times"] is not None and out["kind"] not in _TIMED_KINDS:
        errors.append(f"line {_line(out['times'])}: 'times' only applies to "
                      f"{', '.join(_TIMED_KINDS)} outputs")
    return OutputSpec(kind=out["kind"], path=out["path"],
                      times=_read(sub, "times", _reals, errors))


def _parse_assertion(node, errors, dim):
    sub = _mapping_items(node, errors, "assertion")
    check, params = (_variant(sub, _line(node), errors, "assertion", "check", _CHECKS,
                              "assertion needs 'check'")
                     if isinstance(node, yaml.MappingNode) else (None, None))
    if params is None:
        return None
    if check == "endpoint_near":
        params["point"] = _read(sub, "point", _reals, errors)
        if params["point"] is None:
            return None
        _check_dim(sub["point"], "point", len(params["point"]), dim, errors)
    return AssertionSpec(check=check, params=params)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Canonical plain mapping: each compared field (not the potential) in
    declaration order, but one that is None or at its default; thin and
    workers are always echoed."""
    out = {}
    for f in fields(cfg):
        val = getattr(cfg, f.name)
        default = f.default if f.default_factory is MISSING else f.default_factory()
        if f.compare and val is not None and (val != default
                                              or f.name in ("thin", "workers")):
            out[f.name] = val
    if "outputs" in out:
        out["outputs"] = [
            {"kind": o.kind, "path": o.path, **({"times": o.times} if o.times else {})}
            for o in cfg.outputs]
    if "assertions" in out:
        out["assertions"] = [{"check": a.check, **a.params} for a in cfg.assertions]
    return out


def serialize_config(cfg: ExperimentConfig) -> str:
    return yaml.safe_dump(config_to_dict(cfg), sort_keys=False,
                          default_flow_style=False)
