"""Command line interface: ``nystromngd run <config>``."""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from .harness import parse_config, run_experiment


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nystromngd",
        description="Train small neural PDE solvers with Nystrom-preconditioned "
        "natural gradient descent and baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run an experiment from a config file")
    run.add_argument("config", help="path to a flat key = value config file")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:  # a missing or bad config, a size guard, an unusable output path
        config = parse_config(Path(args.config).read_text())
        Path(config.out_dir).mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as err:
        parser.error(f"{args.config}: {err}")
    summary = run_experiment(config)
    print(json.dumps(summary, indent=2))
    return 1 if summary["nonfinite"] else 0  # some run's theta0 loss had no finite square


if __name__ == "__main__":
    raise SystemExit(main())
