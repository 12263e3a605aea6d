#!/usr/bin/env python3
"""Print two SHA-256 digests per (optimizer, problem, seed) training run.

The first digest covers the final theta's bytes, the second every numeric
RunRecord field but the wall-clock seconds.  Two checkouts do the same
arithmetic on these runs exactly when their outputs do not differ; a
change that keeps the iterates but changes what the trace rows hold
differs in the second column only.  Each checkout runs its own copy:

    PYTHONPATH=src python scripts/parity_digest.py > a.txt  # the other checkout
    PYTHONPATH=src python scripts/parity_digest.py --against a.txt

The script pins OpenBLAS, OpenMP and MKL to one thread before numpy is
imported, so a digest does not depend on how a BLAS splits its sums.

``--against FILE`` compares this checkout's digests with a saved run: it
prints to stderr each (optimizer, problem, seed) that FILE lacks or whose
theta or records digest differs from FILE's, naming which of the two
differs, then how many of FILE's runs it compared, and exits 1 if there
is any difference.  A failed run prints its error in both columns.

Each run is ``harness.set_up`` of the default ``ExperimentConfig`` but
for the width and iterations (the criterion-10 setup: 400 interior and
160 boundary points, quadrature, initialization and optimizer seeded by
the seed), with the H1 error recorded on the training points.
"""

import argparse
import hashlib
import os
import sys
from dataclasses import fields

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # before numpy is imported

import numpy as np

from nystromngd import autodiff, optim, problems
from nystromngd.harness import ExperimentConfig, set_up


COLUMNS = ("theta", "records")  # what each digest column covers


def digests(theta, records):
    """(theta digest, records digest)."""
    theta_hash = hashlib.sha256(np.ascontiguousarray(theta, dtype=float).tobytes())
    records_hash = hashlib.sha256()
    for rec in records:
        values = [getattr(rec, f.name) for f in fields(rec) if f.name != "seconds"]
        records_hash.update(repr(values).encode())
    return theta_hash.hexdigest(), records_hash.hexdigest()


def run(optimizer, name, seed, iterations, width):
    config = ExperimentConfig(
        problem=name, optimizer=optimizer, hidden_width=width, iterations=iterations, seed=seed
    )
    prob, quad, theta0 = set_up(config)
    try:
        theta, records = optim.run_optimizer(
            optimizer, prob, theta0, config, quad, quad_eval=quad
        )
    except autodiff.NonFiniteError as err:
        return (f"failed:{type(err).__name__}",) * 2  # how a run ends is compared too
    return digests(theta, records)


def compare(got, expected):
    """'missing' when there is no saved run, else 'differs in ...' naming
    the digest columns that differ, or '' when none does."""
    if expected is None:
        return "missing"
    differ = [col for col, a, b in zip(COLUMNS, got, expected) if a != b]
    return "differs in " + " and ".join(differ) if differ else ""


def read_digests(path):
    """{(optimizer, problem, seed): (theta digest, records digest)} from a
    saved run's output."""
    saved = {}
    with open(path) as fh:
        for line in filter(str.strip, fh):
            optimizer, name, seed, theta, records = line.split()
            saved[optimizer, name, seed] = theta, records
    return saved


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--optimizers", nargs="+", default=list(optim.OPTIMIZER_NAMES))
    parser.add_argument("--problems", nargs="+", default=list(problems.PROBLEM_NAMES))
    parser.add_argument("--seeds", type=int, default=3, help="seeds 0 .. SEEDS-1")
    parser.add_argument("--iterations", type=int, default=25)
    parser.add_argument("--width", type=int, default=16)
    parser.add_argument("--against", metavar="FILE", help="saved output to compare with")
    args = parser.parse_args(argv)
    saved = read_digests(args.against) if args.against else None
    mismatches = []
    compared = 0
    for optimizer in args.optimizers:
        for name in args.problems:
            for seed in range(args.seeds):
                got = run(optimizer, name, seed, args.iterations, args.width)
                print(f"{optimizer} {name} {seed} {got[0]} {got[1]}", flush=True)
                if saved is not None:
                    expected = saved.get((optimizer, name, str(seed)))
                    compared += expected is not None
                    kind = compare(got, expected)
                    if kind:
                        mismatches.append((kind, f"{optimizer} {name} {seed}"))
    if saved is None:
        return 0
    for kind, run_id in mismatches:  # stderr, so stdout stays a digest file
        print(f"{kind}: {run_id}", file=sys.stderr)
    per_column = ", ".join(
        f"{sum(col in kind for kind, _ in mismatches)} in {col}" for col in COLUMNS
    )
    print(
        f"{len(mismatches)} run(s) differ from or are missing in {args.against}"
        f" ({per_column}); compared {compared} of {len(saved)} saved runs",
        file=sys.stderr,
    )
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
