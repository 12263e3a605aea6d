#!/usr/bin/env python3
"""Print one SHA-256 digest per (optimizer, problem, seed) training run.

A digest covers the final theta's bytes and every numeric RunRecord field
but the wall-clock seconds, so two checkouts do the same arithmetic on
these runs exactly when their outputs do not differ:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python scripts/parity_digest.py > a.txt
    (same command in the other checkout) > b.txt
    diff a.txt b.txt

Each run is the criterion-10 setup: a tanh MLP of two hidden layers, 400
interior and 160 boundary points, quadrature, initialization and
optimizer seeded by the seed, and the H1 error recorded on the training
points.  Only the package's public API is used, so the script also runs
against older checkouts.
"""

import argparse
import hashlib
import sys
from dataclasses import fields

import numpy as np

from nystromngd import autodiff, model, optim, problems, sketch


def digest(theta, records):
    h = hashlib.sha256(np.ascontiguousarray(theta, dtype=float).tobytes())
    for rec in records:
        values = [getattr(rec, f.name) for f in fields(rec) if f.name != "seconds"]
        h.update(repr(values).encode())
    return h.hexdigest()


def run(optimizer, name, seed, iterations, width):
    prob = problems.make_problem(name, hidden_width=width, hidden_depth=2)
    quad = prob.sample_quadrature(400, 160, seed=seed)
    theta0 = model.init(prob.topology, seed).values
    config = optim.NystromNgdConfig(iterations=iterations, seed=seed)
    try:
        theta, records = optim.run_optimizer(
            optimizer, prob, theta0, config, quad, quad_eval=quad
        )
    except (autodiff.NonFiniteError, sketch.SketchFailure) as err:
        return f"failed:{type(err).__name__}"  # how a run ends is compared too
    return digest(theta, records)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--optimizers", nargs="+", default=list(optim.OPTIMIZER_NAMES))
    parser.add_argument("--problems", nargs="+", default=list(problems.PROBLEM_NAMES))
    parser.add_argument("--seeds", type=int, default=3, help="seeds 0 .. SEEDS-1")
    parser.add_argument("--iterations", type=int, default=25)
    parser.add_argument("--width", type=int, default=16)
    args = parser.parse_args(argv)
    for optimizer in args.optimizers:
        for name in args.problems:
            for seed in range(args.seeds):
                line = run(optimizer, name, seed, args.iterations, args.width)
                print(f"{optimizer} {name} {seed} {line}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
