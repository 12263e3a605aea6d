#!/usr/bin/env python3
"""Run every optimizer on one problem and print a comparison table.

Usage: python scripts/run_benchmark.py [problem] [--iterations N] [--seeds K]
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from nystromngd.harness import ExperimentConfig, run_experiment
from nystromngd.optim import OPTIMIZER_NAMES
from nystromngd.problems import PROBLEM_NAMES


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("problem", nargs="?", default="poisson2d", choices=PROBLEM_NAMES)
    parser.add_argument("--iterations", type=int, default=100)
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--width", type=int, default=16)
    parser.add_argument("--out", default="results/benchmark")
    args = parser.parse_args()

    base = ExperimentConfig(
        problem=args.problem,
        hidden_width=args.width,
        iterations=args.iterations,
        repetitions=args.seeds,
    )
    print(f"{'optimizer':<14} {'median H1 err':>14} {'q25':>10} {'q75':>10} {'sec':>8}")
    for name in OPTIMIZER_NAMES:
        cfg = replace(base, optimizer=name)
        out = Path(args.out) / args.problem / name
        summary = run_experiment(cfg, out_dir=out)
        print(
            f"{name:<14} {summary['median_final_error']:>14.3e} "
            f"{summary['q25']:>10.2e} {summary['q75']:>10.2e} "
            f"{summary['median_seconds']:>8.1f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
