"""gradflow benchmark: a closed loop of ``gradflow run`` processes on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gradflow source tree; the package is imported from
``src`` (``PYTHONPATH=src``), not installed.  One client runs one gradflow
process at a time, for ``--seconds`` and at least three runs, and gates
every run for correctness.

``--trace 0`` reports the end-to-end metrics of the runs, plus set-up
time from a ``gradflow validate`` call before each run.  ``--trace 1``
alternates untraced runs with runs under ``tracer.py`` and reports the
per-layer metrics of the traced runs.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
TRACER = Path(__file__).resolve().parent / "tracer.py"

MIN_RUNS = 3          # untraced runs per invocation, so digests can be compared
PROCESS_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "particle_steps_per_s": "1/s",
    "pass_ratio": "ratio",
}


@dataclass
class Run:
    """One gradflow process: what it cost and whether it passed the gate."""

    traced: bool
    wall_s: float
    cpu_s: float
    rss_mb: float
    host_ref_s: float
    problem: str = ""


def host_reference_s() -> float:
    """Time of a fixed computation; a diagnostic of host speed, never a metric."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    np.sort(np.sin(np.arange(300_000.0)))
    return time.perf_counter() - start


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(cmd, log: Path):
    """Run ``cmd`` to completion: (exit code, wall s, cpu s, peak RSS MiB)."""
    with log.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


class Gate:
    """Correctness of every run in one invocation.

    The first run that exits 0 is checked against the workload's
    version-independent checks; every later run must reproduce its
    artifact digests byte for byte.
    """

    def __init__(self, workload):
        self.workload = workload
        self.reference = None

    def __call__(self, code: int, out_dir: Path, log: Path) -> str:
        if code != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-1:] or [""]
            return f"exit code {code}: {tail[0]}"
        digests = checks.artifact_digests(out_dir)
        if self.reference is None:
            for check in self.workload.checks:
                try:
                    problem = check(out_dir)
                except (OSError, ValueError, IndexError) as exc:
                    problem = f"check could not read the artifacts: {exc}"
                if problem:
                    return problem
            self.reference = digests
        elif digests != self.reference:
            changed = sorted(k for k in set(digests) | set(self.reference)
                             if digests.get(k) != self.reference.get(k))
            return f"artifacts differ from the first run: {', '.join(changed)}"
        return ""


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure(workload, config: Path, seconds: float, trace: bool):
    """The closed loop: runs (and traces) for ``seconds``.  Once the minimum
    is done, a run is started only if a typical lap would end in time.

    Without tracing, each lap first times ``gradflow validate`` on the same
    config: interpreter start, imports, config parsing and the
    potential-grammar check that every run pays.  Returns the runs, the
    traces, the validate wall times and the exit codes of failed validates.
    """
    gate = Gate(workload)
    runs, traces, setup, setup_failed, laps = [], [], [], [], []
    validate = [sys.executable, "-m", "gradflow.cli", "validate", str(config)]
    started = time.perf_counter()
    while True:
        n_traced = sum(r.traced for r in runs)
        n_plain = len(runs) - n_traced
        traced = trace and n_plain > n_traced
        enough = n_plain >= (2 if trace else MIN_RUNS) and (not trace or n_traced)
        typical = statistics.median(laps) if laps else 0.0
        if enough and time.perf_counter() - started + typical > seconds:
            break
        lap_start = time.perf_counter()
        out_dir = WORK / workload.name / ("traced" if traced else "run")
        shutil.rmtree(out_dir, ignore_errors=True)
        spans = WORK / workload.name / "spans.json"
        log = WORK / workload.name / "stderr.txt"
        if not trace:
            code, wall, _, _ = spawn(validate, WORK / workload.name / "validate.txt")
            setup.append(wall)
            if code != 0:
                setup_failed.append(code)
        cmd = ([sys.executable, str(TRACER), str(config), str(out_dir), str(spans)]
               if traced else
               [sys.executable, "-m", "gradflow.cli", "run", str(config),
                "--out-root", str(out_dir)])
        ref = host_reference_s()
        code, wall, cpu, rss = spawn(cmd, log)
        run = Run(traced, wall, cpu, rss, ref, gate(code, out_dir, log))
        runs.append(run)
        if traced and not run.problem:
            drift = (checks.density_mass_drift(out_dir / workload.final_density,
                                               workload.grid)
                     if workload.final_density else 0.0)
            traces.append((json.loads(spans.read_text()), wall, drift))
        shutil.rmtree(out_dir, ignore_errors=True)
        laps.append(time.perf_counter() - lap_start)
    return runs, traces, setup, setup_failed


def end_to_end(workload, runs, setup):
    """Run, CPU and set-up time are the fastest of the run's processes: on
    a shared host, contention only adds time, and it comes and goes over
    tens of seconds (see ``host_ref_ms``), so the minimum is the steadiest
    estimate of what the program itself costs.  Peak RSS, which does not
    depend on host speed, is the median."""
    passed = [r for r in runs if not r.problem] or runs
    run_s = min(r.wall_s for r in passed)
    return {
        "run_s": run_s,
        "setup_s": min(setup),
        "cpu_s": min(r.cpu_s for r in passed),
        "peak_rss_mb": statistics.median(r.rss_mb for r in passed),
        "particle_steps_per_s": workload.work / run_s,
        "pass_ratio": sum(not r.problem for r in runs) / len(runs),
    }


def per_layer(runs, traces):
    plain = statistics.median(r.wall_s for r in runs if not r.traced)
    values, absent = {}, set()
    for trace, wall, drift in traces:
        metrics, missing = tracer.layer_metrics(trace, wall / plain, drift)
        absent.update(missing)
        for name, value in metrics.items():
            values.setdefault(name, []).append(value)
    return {k: statistics.median(v) for k, v in values.items() if k not in absent}, \
        sorted(absent)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gradflow" / "__init__.py").is_file():
        print(f"error: no gradflow sources under {SRC}; run from a source tree",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    shutil.rmtree(WORK / workload.name, ignore_errors=True)
    (WORK / workload.name).mkdir(parents=True)
    config = WORK / workload.name / "config.yaml"
    config.write_text(workload.config(args.seed))

    runs, traces, setup, setup_failed = measure(workload, config, args.seconds,
                                                bool(args.trace))
    problems = [r.problem for r in runs if r.problem]
    problems += [f"gradflow validate exited {code}" for code in setup_failed]

    units = {m: u for m, (u, _, _) in tracer.PER_LAYER.items()} if args.trace \
        else END_TO_END_UNITS
    if args.trace:
        if not traces:
            problems.append("no traced run passed the gate")
        metrics, absent = per_layer(runs, traces) if traces else ({}, [])
    else:
        metrics, absent = end_to_end(workload, runs, setup), []

    failed = sum(1 for r in runs if r.problem)
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"runs={len(runs)} failed={failed}")
    print(f"  why: {workload.why}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:.6g} {units[name]}")
    if not args.trace:
        print(f"  {'fail_ratio':28s} {1.0 - metrics['pass_ratio']:.6g} ratio")
        for label, values in (("run_s", [r.wall_s for r in runs]),
                              ("cpu_s", [r.cpu_s for r in runs]),
                              ("setup_s", setup)):
            q1, q2, q3 = quartiles(values)
            print(f"  {label} over {len(values)} processes: min {min(values):.4f} "
                  f"q1 {q1:.4f} median {q2:.4f} q3 {q3:.4f}")
    for name in absent:
        print(f"  {name:28s} absent (its traced name is gone)")
    q1, q2, q3 = quartiles([r.host_ref_s * 1e3 for r in runs])
    print(f"diagnostic host_ref_ms {q2:.3f} q1 {q1:.3f} q3 {q3:.3f} n {len(runs)}")
    for problem in problems:
        print(f"FAILED: {problem}")

    result = {
        "correct": not problems,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
