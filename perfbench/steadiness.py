"""Run-to-run spread of the end-to-end metrics, one workload at a time.

    python3 perfbench/steadiness.py --runs 10 [WORKLOAD ...]

Runs ``run.py --trace 0`` once per seed (seeds 1..runs), for the
``run_seconds`` of ``BENCHMARK.json``, on each workload, by default those
listed there, and prints, per metric, the
median and the quartile spread
(Q3 - Q1) / median, with ``statistics.quantiles(values, n=4)``.  The
host-speed diagnostic is printed beside them: when it spreads as much as
``run_s`` does, the spread is the machine, not the code.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("workloads", nargs="*", help=f"any of {sorted(WORKLOADS)}")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for name in args.workloads or [w["name"] for w in bench["workloads"]]:
        metrics, host = {}, []
        for seed in range(1, args.runs + 1):
            out = subprocess.run(
                [sys.executable, str(RUN), "--workload", name, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(out.stdout, out.stderr, file=sys.stderr)
                return 1
            for metric, entry in result["metrics"].items():
                metrics.setdefault(metric, []).append(entry["value"])
            host += [float(line.split()[2]) for line in lines
                     if line.startswith("diagnostic host_ref_ms")]
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={e['value']:.5g}" for m, e in result["metrics"].items()), flush=True)
        report[name] = {m: v for m, v in metrics.items()}
        report[name]["host_ref_ms"] = host
        for metric, values in report[name].items():
            median, rel = spread(values)
            bound = bounds.get(metric)
            flag = "" if bound is None else (
                "  ok" if rel < bound / 3 else "  within bound" if rel <= bound else "  WIDE")
            print(f"  {name:12s} {metric:22s} median {median:12.6g} spread {rel:7.2%}"
                  + ("" if bound is None else f" (bound {bound:.0%})") + flag, flush=True)
    out_path = ROOT / ".perfbench_out" / "steadiness.json"
    out_path.parent.mkdir(exist_ok=True)
    out_path.write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
