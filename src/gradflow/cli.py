"""Command-line entry point.

Subcommands: ``run``, ``validate``, ``compare``, ``list-potentials``.
Exit codes: 0 success, 2 config error, 3 runtime error, 4 assertion failed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import parse_config
from .errors import ConfigError, GradflowError
from .potentials import CATALOG
from .runner import AssertionFailure, compare_files, run_experiment

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradflow",
        description="Run declarative optimization/sampling experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment config")
    run_p.add_argument("config", help="path to a YAML experiment config")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    run_p.add_argument("--workers", type=int, default=None,
                       help="override the config worker count (accepted; runs are "
                            "single-threaded and outputs unchanged)")
    run_p.add_argument("--out-root", default=None,
                       help="root for relative artifact paths "
                            "(default: $GRADFLOW_OUT or the working directory)")

    val_p = sub.add_parser("validate", help="check a config without running it")
    val_p.add_argument("config")

    cmp_p = sub.add_parser("compare", help="metric between two artifact files")
    cmp_p.add_argument("file_a")
    cmp_p.add_argument("file_b")
    cmp_p.add_argument("--metric", required=True,
                       choices=("tv", "kl", "l2pinv", "w2"))

    sub.add_parser("list-potentials", help="print the potential identifier grammar")
    return parser


def _load_config(path: str):
    cfg_path = Path(path)
    if not cfg_path.exists():
        raise ConfigError([f"config file not found: {path}"])
    return parse_config(cfg_path.read_text())


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = _load_config(args.config)
            manifest = run_experiment(cfg, out_root=args.out_root,
                                      seed_override=args.seed,
                                      workers_override=args.workers)
            for artifact in manifest["artifacts"]:
                print(artifact)
            return 0
        if args.command == "validate":
            cfg = _load_config(args.config)
            print(f"ok: {args.config}")
            return 0
        if args.command == "compare":
            value = compare_files(args.file_a, args.file_b, args.metric)
            print(f"{args.metric} {value:.17g}")
            return 0
        for grammar, summary, _ in CATALOG.values():
            print(f"{grammar:<36}{summary}")
        return 0
    except ConfigError as exc:
        for line in exc.errors:
            print(f"config error: {line}", file=sys.stderr)
        return 2
    except AssertionFailure as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return 4
    except (GradflowError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
