#!/usr/bin/env python3
"""Iterations, Gramian matvecs and seconds to H1 <= 1e-3, 1e-4 and 1e-5, per optimizer.

    PYTHONPATH=src python scripts/to_target.py [optimizer ...]

Each optimizer is any of ``optim.OPTIMIZER_NAMES``; the default is
``nystrom_ngd``.  Each run is ``harness.set_up`` of the default
``ExperimentConfig`` for the problem and seed (the criterion-10 setup: a
16x2 tanh MLP, 400 interior and 160 boundary points, quadrature,
initialization and optimizer seeded by the seed), with the H1 error
recorded on the training points.  A seed runs once, until its H1 error is
at most the deepest of ``DEPTHS`` or 300 iterations.  For each depth the
run records its first iterate at or below it: the iteration, the matvecs
and the cumulative seconds (the sum of the trace rows' ``seconds``, so
set-up and held-out evaluation are left out); a depth the run never
crosses records ``null``.

For each optimizer in turn the script runs poisson2d, heat1p1d and
nlpoisson2d at seeds 0-7 and prints, at 1e-3, each run's iterations,
matvecs and seconds, then each problem's medians; with more than one
optimizer, each line starts with the optimizer's name.  A run that misses
1e-3 prints its last iterate within the 300-iteration budget instead, with
that iterate's H1 error, and enters the medians with it.  The last line is
one JSON object: the depths; per run the optimizer, problem, seed, final
iterations, matvecs and training H1, held-out H1 of the final theta (on
``harness.heldout_quadrature``), seconds summed over all its rows and the
crossings, one per depth; then the line count of ``src/`` (as ``bench/run.py`` counts it),
the Python and numpy versions and the BLAS thread settings.  The script
exits 1 if any run misses 1e-3; older checkouts run their own copy.  A
committed ``BENCH_<n>.json`` is that JSON line for ``nystrom_ngd ngd_dense
ngd_cg``; a ``null`` crossing marks each run that misses a depth.  Every
run of those three reaches 1e-3, so that call exits 0.

Run as a script, it pins OpenBLAS, OpenMP and MKL to one thread before
numpy is imported, so the counts do not depend on how a BLAS splits its
sums.
"""

import argparse
import json
import os
import platform
import sys
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
DEPTHS = (1e-3, 1e-4, 1e-5)  # H1 errors; the first is the target the script reports


def run(name, seed, optimizer="nystrom_ngd", **overrides):
    """One run of ``optimizer`` that stops at the first iterate with H1
    error <= min(DEPTHS): its last record's iteration, matvecs, training H1
    and cumulative seconds, the held-out H1 of its final theta, and per
    depth the first record at or below it (iteration, matvecs, cumulative
    seconds) or None."""
    config = ExperimentConfig(problem=name, optimizer=optimizer, seed=seed, **overrides)
    prob, quad, theta0 = set_up(config)
    theta, records = optim.run_optimizer(
        optimizer, prob, theta0, config, quad, quad_eval=quad, h1_stop=min(DEPTHS)
    )
    elapsed = np.cumsum([r.seconds for r in records])
    crossings = []
    for depth in DEPTHS:
        k = next((k for k, r in enumerate(records) if r.h1_rel_error <= depth), None)
        crossings.append(None if k is None else {
            "iteration": records[k].iteration,
            "matvecs": int(records[k].matvecs),
            "seconds": float(elapsed[k]),
        })
    last = records[-1]
    return {
        "optimizer": optimizer,
        "problem": name,
        "seed": seed,
        "iterations": last.iteration,
        "matvecs": int(last.matvecs),
        "h1": float(last.h1_rel_error),
        "heldout_h1": float(prob.h1_relative_error(theta, heldout_quadrature(prob, seed))),
        "seconds": float(elapsed[-1]),
        "crossings": crossings,
    }


def at_target(r):
    """(iteration, matvecs, seconds) at the run's crossing of DEPTHS[0], or
    at its last iterate when it misses."""
    c = r["crossings"][0]
    if c is None:  # the run went to its last iterate
        return r["iterations"], r["matvecs"], r["seconds"]
    return c["iteration"], c["matvecs"], c["seconds"]


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
                its, matvecs, seconds = at_target(r)
                mark = "" if r["crossings"][0] else f", H1 {r['h1']:.3e}  missed the target"
                print(
                    f"{label}{name} seed {seed}: {its} iterations, {matvecs} matvecs, "
                    f"{seconds:.3f} s{mark}"
                )
            its, matvecs, seconds = np.median([at_target(r) for r in block], axis=0)
            print(
                f"{label}{name} median: {its:g} iterations, {matvecs:g} matvecs, "
                f"{seconds:.3f} s",
                flush=True,
            )
            runs += block
    print(json.dumps({"depths": DEPTHS, "runs": runs, **environment()}))
    return 1 if any(r["crossings"][0] is None for r in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
