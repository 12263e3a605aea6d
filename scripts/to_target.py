#!/usr/bin/env python3
"""Print iterations and Gramian matvecs to reach H1 <= 1e-3, per optimizer.

    PYTHONPATH=src python scripts/to_target.py [optimizer ...]

Each optimizer is any of ``optim.OPTIMIZER_NAMES``; the default is
``nystrom_ngd``.  Each run is ``harness.set_up`` of the default
``ExperimentConfig`` for the problem and seed (the criterion-10 setup: a
16x2 tanh MLP, 400 interior and 160 boundary points, quadrature,
initialization and optimizer seeded by the seed), up to 300 iterations,
with the H1 error recorded on the training points.  For each optimizer in
turn the script runs poisson2d, heat1p1d and nlpoisson2d at seeds 0-7,
prints each run's iterations, matvecs, final H1 error and wall seconds,
then each problem's medians; with more than one optimizer, each line
starts with the optimizer's name.  The last line is one JSON object: per
run the optimizer, problem, seed, iterations, matvecs, training H1,
held-out H1 (on ``harness.heldout_quadrature``) and seconds, then the
line count of ``src/`` (as ``bench/run.py`` counts it), the Python and
numpy versions and the BLAS thread settings.  A run that misses the
target prints the H1 error of its last iterate, within the 300-iteration
budget.  The script exits 1 if any run misses the target; older checkouts
run their own copy.  ``ngd_cg`` exits 1: heat1p1d seed 5 ends at H1 1.14e-3
after 300 iterations, damped by ``adapt_mu`` like Nystrom-NGD.  It missed the
target under the baselines' former damping rule too, at H1 1.13e-3.

Run as a script, it pins OpenBLAS, OpenMP and MKL to one thread before
numpy is imported, so the counts do not depend on how a BLAS splits its
sums.
"""

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    for var in BLAS_ENV:
        os.environ[var] = "1"  # before numpy is imported

import numpy as np

from nystromngd import optim
from nystromngd.harness import ExperimentConfig, heldout_quadrature, set_up

SRC = Path(__file__).resolve().parents[1] / "src"
PROBLEMS = ("poisson2d", "heat1p1d", "nlpoisson2d")
SEEDS = range(8)
TARGET = 1e-3


def run(name, seed, optimizer="nystrom_ngd", **overrides):
    """One run of ``optimizer`` that stops at the first iterate with H1
    error <= TARGET: its last record's iteration, matvecs and training H1,
    the held-out H1 of its final theta, and its wall seconds."""
    tic = time.perf_counter()
    config = ExperimentConfig(problem=name, optimizer=optimizer, seed=seed, **overrides)
    prob, quad, theta0 = set_up(config)
    theta, records = optim.run_optimizer(
        optimizer, prob, theta0, config, quad, quad_eval=quad, h1_stop=TARGET
    )
    seconds = time.perf_counter() - tic
    last = records[-1]
    return {
        "optimizer": optimizer,
        "problem": name,
        "seed": seed,
        "iterations": last.iteration,
        "matvecs": int(last.matvecs),
        "h1": float(last.h1_rel_error),
        "heldout_h1": float(prob.h1_relative_error(theta, heldout_quadrature(prob, seed))),
        "seconds": seconds,
    }


def environment():
    return {
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "optimizers", nargs="*", metavar="optimizer",
        help=f"any of {', '.join(optim.OPTIMIZER_NAMES)} (default: nystrom_ngd)",
    )
    optimizers = parser.parse_args(argv).optimizers or ["nystrom_ngd"]
    for optimizer in optimizers:
        if optimizer not in optim.OPTIMIZER_NAMES:
            parser.error(f"unknown optimizer {optimizer!r}")
    runs = []
    for optimizer in optimizers:
        label = f"{optimizer} " if len(optimizers) > 1 else ""
        for name in PROBLEMS:
            block = []
            for seed in SEEDS:
                r = run(name, seed, optimizer=optimizer)
                block.append(r)
                mark = "" if r["h1"] <= TARGET else "  missed the target"
                print(
                    f"{label}{name} seed {seed}: {r['iterations']} iterations, "
                    f"{r['matvecs']} matvecs, H1 {r['h1']:.3e}, {r['seconds']:.3f} s{mark}"
                )
            its, matvecs, seconds = np.median(
                [(r["iterations"], r["matvecs"], r["seconds"]) for r in block], axis=0
            )
            print(
                f"{label}{name} median: {its:g} iterations, {matvecs:g} matvecs, "
                f"{seconds:.3f} s",
                flush=True,
            )
            runs += block
    print(json.dumps({"target": TARGET, "runs": runs, **environment()}))
    return 1 if any(not r["h1"] <= TARGET for r in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
