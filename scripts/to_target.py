#!/usr/bin/env python3
"""Iterations, Gramian matvecs and seconds to H1 <= 1e-3, 1e-4 and 1e-5, per optimizer.

    python scripts/to_target.py [optimizer ...]

Each optimizer is any of ``optim.OPTIMIZER_NAMES`` (default
``nystrom_ngd``).  Each run is ``harness.train`` of the default
``ExperimentConfig`` for the optimizer, problem and seed (the criterion-10
setup: a 16x2 tanh MLP, 400 interior and 160 boundary points), stopped at
the deepest of ``DEPTHS`` or after 300 iterations.  Per depth the run
records its first iterate at or below it: the iteration, the matvecs and
the cumulative seconds (the sum of the trace rows' ``seconds``, so set-up
and held-out evaluation are left out), or ``null`` if it never gets there.

For each optimizer the script runs poisson2d, heat1p1d and nlpoisson2d at
seeds 0-7 and prints, at 1e-3, each run's iterations, matvecs and seconds,
then per depth each problem's medians and how many of its runs miss that
depth; with more than one optimizer, each line starts with the
optimizer's name.  A run that misses 1e-3 prints its last iterate and its
H1 error instead, and a run enters the medians of each depth it misses
at its last iterate.  The last line is one JSON object: the depths; per
run the optimizer, problem, seed, final iterations, matvecs, training H1
and held-out H1, seconds summed over all its rows and the crossings; then
the line count of ``src/`` (as ``bench/run.py`` counts it), the Python
and numpy versions and the BLAS thread settings.  A committed
``BENCH_<n>.json`` is that line for ``nystrom_ngd ngd_dense ngd_cg``.

The script exits 1 if any run misses 1e-3, or any ``nystrom_ngd`` or
``ngd_dense`` run misses 1e-4; older checkouts run their own copy.  Every
run of those three reaches 1e-3, and every ``nystrom_ngd`` and
``ngd_dense`` run 1e-4, so that call exits 0.

Run as a script, it pins OpenBLAS, OpenMP and MKL to one thread before
numpy is imported, so the counts do not depend on how a BLAS splits its
sums.  It imports the package from its own checkout's ``src/``, and exits
if ``nystromngd`` resolves anywhere else, so ``src_lines`` counts the tree
that ran; no ``PYTHONPATH`` is needed.
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

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))  # this checkout's package, whatever PYTHONPATH names

import nystromngd

if not Path(nystromngd.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"nystromngd was imported from {nystromngd.__file__}, not {SRC}")

import numpy as np

from nystromngd import optim
from nystromngd.harness import ExperimentConfig, train

PROBLEMS = ("poisson2d", "heat1p1d", "nlpoisson2d")
SEEDS = range(8)
DEPTHS = (1e-3, 1e-4, 1e-5)  # H1 errors; the first is the target the script reports


def run(name, seed, optimizer="nystrom_ngd", **overrides):
    """One ``harness.train`` run of ``optimizer``, stopped at H1 <= min(DEPTHS):
    its last record's iteration, matvecs, training H1 and cumulative
    seconds, its held-out H1, and per depth the first record at or below it
    (iteration, matvecs, cumulative seconds) or None."""
    config = ExperimentConfig(problem=name, optimizer=optimizer, seed=seed, **overrides)
    _, records, heldout_h1 = train(config, h1_stop=min(DEPTHS))
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
        "heldout_h1": float(heldout_h1),
        "seconds": float(elapsed[-1]),
        "crossings": crossings,
    }


def at_target(r, i=0):
    """(iteration, matvecs, seconds) at the run's crossing of DEPTHS[i], or
    at its last iterate when it misses."""
    c = r["crossings"][i]
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
            for i, depth in enumerate(DEPTHS):
                its, matvecs, seconds = np.median([at_target(r, i) for r in block], axis=0)
                missed = sum(r["crossings"][i] is None for r in block)
                print(
                    f"{label}{name} median at {depth:.0e}: {its:g} iterations, "
                    f"{matvecs:g} matvecs, {seconds:.3f} s, {missed} of {len(block)} missed",
                    flush=True,
                )
            runs += block
    print(json.dumps({"depths": DEPTHS, "runs": runs, **environment()}))
    # every run must reach 1e-3, and every Nystrom-NGD and exact NGD run 1e-4
    must_cross = {"nystrom_ngd": 2, "ngd_dense": 2}  # how many of DEPTHS, by optimizer
    missed = any(None in r["crossings"][: must_cross.get(r["optimizer"], 1)] for r in runs)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
