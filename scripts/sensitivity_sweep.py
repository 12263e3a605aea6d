#!/usr/bin/env python3
"""Hyperparameter sensitivity sweep for the preconditioned NGD loop.

Sweeps the damping multiplier gamma (absolute values around the default
1e6, plus the network's parameter count p, the numerical-rank cutoff
multiplier), the rank-adaptation ratio, the CG
tolerance cap kappa, and the CG iteration cap, one axis at a time around
the defaults, and reports the median final H1 error for each setting.

Usage: python scripts/sensitivity_sweep.py [problem]
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from nystromngd.harness import ExperimentConfig, run_experiment
from nystromngd.problems import PROBLEM_NAMES, make_problem

GAMMAS = (1e4, 1e5, 1e6, 1e7, 1e8)
RANK_RATIOS = (2.0, 5.0, 10.0, 20.0, 50.0)
KAPPAS = (0.5, 0.1, 0.01, 0.001)
CG_MAXITS = (5, 10, 20, 40)


def run(cfg, out_root, tag):
    summary = run_experiment(cfg, out_dir=Path(out_root) / tag)
    print(f"  {tag:<28} median H1 err {summary['median_final_error']:.3e}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("problem", nargs="?", default="poisson2d", choices=PROBLEM_NAMES)
    parser.add_argument("--iterations", type=int, default=100)
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--out", default="results/sensitivity")
    args = parser.parse_args()

    base = ExperimentConfig(
        problem=args.problem,
        optimizer="nystrom_ngd",
        hidden_width=16,
        iterations=args.iterations,
        repetitions=args.seeds,
        n_interior=400,
        n_boundary=160,
    )
    out_root = Path(args.out) / args.problem

    topology = make_problem(
        base.problem, hidden_width=base.hidden_width, hidden_depth=base.hidden_depth
    ).topology
    print("gamma sweep:")
    for gamma in GAMMAS:
        run(replace(base, gamma=gamma), out_root, f"gamma_{gamma:g}")
    run(replace(base, gamma=float(topology.param_count)), out_root, "gamma_p")
    print("rank-adaptation ratio sweep:")
    for ratio in RANK_RATIOS:
        run(replace(base, rank_ratio=ratio), out_root, f"ratio_{ratio:g}")
    print("CG tolerance cap sweep:")
    for kappa in KAPPAS:
        run(replace(base, kappa=kappa), out_root, f"kappa_{kappa:g}")
    print("CG iteration cap sweep:")
    for maxit in CG_MAXITS:
        run(replace(base, cg_maxit=maxit), out_root, f"maxit_{maxit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
