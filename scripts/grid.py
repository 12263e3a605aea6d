#!/usr/bin/env python3
"""Two grids of ``harness.train`` runs: parity digests, and the run to three depths.

    python scripts/grid.py digest
    python scripts/grid.py target [optimizer ...]

Each run is ``harness.train`` of the default ``ExperimentConfig`` but for
the optimizer, problem and seed (the criterion-10 setup: a 16x2 tanh MLP,
400 interior and 160 boundary points; quadrature, initialization and
sketches drawn from independent streams of the seed, as ``harness.set_up``
names them).  A run whose theta0 loss has no finite square ends there, with a
one-row trace.  Run as a script, ``grid.py`` pins OpenBLAS,
OpenMP and MKL to one thread before numpy is imported, so a digest or a
count does not depend on how a BLAS splits its sums.  It imports the
package from its own checkout's ``src/``, and exits if ``nystromngd``
resolves anywhere else, so a digest or ``src_lines`` belongs to the tree
that ran; no ``PYTHONPATH`` is needed.

``digest`` prints one line per (optimizer, problem, seed) run: the three
names, then two SHA-256 digests, the first of the final theta's bytes, the
second of every numeric RunRecord field but the wall-clock seconds.  The
grid is every optimizer in ``DIGEST_OPTIMIZERS`` on every problem in
``DIGEST_PROBLEMS`` at each seed in ``DIGEST_SEEDS``, at ``DIGEST_WIDTH``
and ``DIGEST_ITERATIONS``: 60 runs, in a fixed order.  Two checkouts do
the same arithmetic on these runs exactly when their outputs are
byte-identical, so each checkout runs its own copy and ``cmp`` compares:

    python <other checkout>/scripts/grid.py digest > a.txt
    python scripts/grid.py digest > b.txt
    cmp a.txt b.txt

A change that keeps the iterates but changes what the trace rows hold
differs in the last field only; fields 1-4 (optimizer, problem, seed,
theta digest) compare theta alone:

    diff <(cut -d' ' -f1-4 a.txt) <(cut -d' ' -f1-4 b.txt)

``target`` gives the iterations, Gramian matvecs and seconds to H1 <= 1e-3,
1e-4 and 1e-5 of each optimizer, any of ``optim.OPTIMIZER_NAMES`` (default
``nystrom_ngd``), on poisson2d, heat1p1d and nlpoisson2d at seeds 0-7.
Each run stops at the deepest of ``DEPTHS`` or after 300 iterations.  Per
depth it records its first iterate at or below it: the iteration, the
matvecs and the cumulative seconds (the sum of the trace rows'
``seconds``, so set-up and held-out evaluation are left out), or ``null``
if it never gets there.  It prints, at 1e-3, each run's iterations,
matvecs and seconds, then per depth each problem's medians and how many
of its runs miss that depth; with more than one optimizer, each line
starts with the optimizer's name.  A run that misses 1e-3 prints its last
iterate and its H1 error instead, and a run enters the medians of each
depth it misses at its last iterate.  The last line is one JSON object:
the depths; per run the optimizer, problem, seed, final iterations,
matvecs, training H1 and held-out H1, seconds summed over all its rows
and the crossings; then the line count of ``src/`` (as ``bench/run.py``
counts it), the Python and numpy versions and the BLAS thread settings.
A committed ``BENCH_<n>.json`` is that line for ``nystrom_ngd ngd_dense
ngd_cg``.  It exits 1 if any run misses 1e-3, or any ``nystrom_ngd`` or
``ngd_dense`` run misses 1e-4; older checkouts run their own copy.  Every
run of those three reaches 1e-3, and every ``nystrom_ngd`` and
``ngd_dense`` run 1e-4, so that call exits 0.
"""

import argparse
import hashlib
import json
import os
import platform
import sys
from dataclasses import fields
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

from nystromngd import optim, problems
from nystromngd.harness import ExperimentConfig, train

DIGEST_OPTIMIZERS = optim.OPTIMIZER_NAMES
DIGEST_PROBLEMS = problems.PROBLEM_NAMES
DIGEST_SEEDS = range(3)
DIGEST_ITERATIONS = 25
DIGEST_WIDTH = 16

TARGET_PROBLEMS = ("poisson2d", "heat1p1d", "nlpoisson2d")
TARGET_SEEDS = range(8)
DEPTHS = (1e-3, 1e-4, 1e-5)  # H1 errors; the first is the target the lines report


def digests(theta, records):
    """(theta digest, records digest)."""
    theta_hash = hashlib.sha256(np.ascontiguousarray(theta, dtype=float).tobytes())
    records_hash = hashlib.sha256()
    for rec in records:
        values = [getattr(rec, f.name) for f in fields(rec) if f.name != "seconds"]
        records_hash.update(repr(values).encode())
    return theta_hash.hexdigest(), records_hash.hexdigest()


def digest_run(optimizer, name, seed):
    config = ExperimentConfig(
        problem=name, optimizer=optimizer, seed=seed,
        hidden_width=DIGEST_WIDTH, iterations=DIGEST_ITERATIONS,
    )
    theta, records, _ = train(config)
    return digests(theta, records)


def digest():
    """Print the parity digests, one line per run."""
    for optimizer in DIGEST_OPTIMIZERS:
        for name in DIGEST_PROBLEMS:
            for seed in DIGEST_SEEDS:
                theta, records = digest_run(optimizer, name, seed)
                print(f"{optimizer} {name} {seed} {theta} {records}", flush=True)
    return 0


def target_run(name, seed, optimizer="nystrom_ngd", **overrides):
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


def target(optimizers):
    """Print each optimizer's iterations, matvecs and seconds to three H1 depths."""
    runs = []
    for optimizer in optimizers:
        label = f"{optimizer} " if len(optimizers) > 1 else ""
        for name in TARGET_PROBLEMS:
            block = []
            for seed in TARGET_SEEDS:
                r = target_run(name, seed, optimizer=optimizer)
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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    modes = parser.add_subparsers(dest="mode", required=True)
    modes.add_parser("digest", help=digest.__doc__, description=digest.__doc__)
    target_parser = modes.add_parser("target", help=target.__doc__, description=target.__doc__)
    target_parser.add_argument(
        "optimizers", nargs="*", metavar="optimizer",
        help=f"any of {', '.join(optim.OPTIMIZER_NAMES)} (default: nystrom_ngd)",
    )
    args = parser.parse_args(argv)
    if args.mode == "digest":
        return digest()
    try:  # the config's own check of each name, before any run
        for optimizer in args.optimizers:
            ExperimentConfig(optimizer=optimizer)
    except ValueError as err:
        target_parser.error(str(err))
    return target(args.optimizers or ["nystrom_ngd"])


if __name__ == "__main__":
    sys.exit(main())
