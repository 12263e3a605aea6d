#!/usr/bin/env python3
"""Three grids of ``harness.train`` runs: parity digests, the run to three depths, and p > rows.

    python scripts/grid.py digest
    python scripts/grid.py target [optimizer ...]
    python scripts/grid.py wide

Each run is ``harness.train`` of the default ``ExperimentConfig`` but for
the optimizer, problem and seed (the criterion-10 setup: a 16x2 tanh MLP,
400 interior and 160 boundary points; quadrature, initialization and
sketches drawn from independent streams of the seed, as ``harness.set_up``
names them), or, in ``wide`` and the digest's last two lines, but also for
the ``WIDE`` cell: a 64x2 MLP (p = 4417) on 1000 interior and 200 boundary
points.  A run whose theta0 loss has no finite square ends there, with a
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
and ``DIGEST_ITERATIONS``: 60 runs, in a fixed order.  Then come the
``DIGEST_WIDE_RUNS``, ``nystrom_ngd``, ``ngd_cg`` and ``ngd_dense`` on
poisson2d at seed 0, for ``DIGEST_WIDE_ITERATIONS`` steps at the ``WIDE``
cell, whose p > rows takes the sketch, NGD-CG's matrix-free products and
exact NGD's row side where no other line does; their second field names
the cell (``poisson2d-w64r1200``), so no two of the 63 lines share fields
1-3.  Two checkouts do the same arithmetic on these runs exactly when
their outputs are byte-identical, so each checkout runs its own copy and
``cmp`` compares:

    python <other checkout>/scripts/grid.py digest > a.txt
    python scripts/grid.py digest > b.txt
    cmp a.txt b.txt

A checkout older than the ``ngd_dense`` wide line prints the first 62 alone,
so ``cmp <(head -62 b.txt) a.txt`` compares with it (``head -60`` for one
older than every wide line).

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

``wide`` measures the paper's claim where it is decided: at the ``WIDE``
cell p = 4417 exceeds the 1200 rows (1300 on heat1p1d, whose boundary
adds its initial slice), so one Gramian product costs what the rows cost.
On poisson2d, heat1p1d and nlpoisson2d (``WIDE_PROBLEMS``) at seeds 0-3
(``WIDE_SEEDS``: four seeds run in about 3 min 15 s on one thread),
``nystrom_ngd`` trains to H1 <= 1e-4 (``WIDE_DEPTH``).  Its twin,
``ngd_cg`` with the same seed and so the same quadrature and theta0, trains
with the Nystrom run's final matvecs as its ``matvec_budget`` and stops at
its first record that reaches it, criterion 10's rule.  Then ``ngd_dense``,
exact NGD, which solves on the row side here (K = A A^T), trains from the
same theta0 to ``WIDE_DEPTH``.  Each line is one seed: per run its steps,
matvecs, seconds (summed over the trace rows, as in ``target``), training
H1 and final training loss, then NGD-CG's and exact NGD's seconds over
Nystrom-NGD's.  Per problem a median line gives each run's median steps,
matvecs and seconds, NGD-CG's median H1 at the budget, its median time
ratio, in how many seeds Nystrom-NGD ends below NGD-CG's training loss,
and in how many it reaches ``WIDE_DEPTH`` sooner than exact NGD (a miss
enters at its last record, as in ``target``).  The last line is one JSON
object: the cell, the depth, per run ``target``'s record (crossing
``WIDE_DEPTH`` alone) with its stop (``h1_stop`` or ``matvec_budget``) and
final ``loss``, and the ``src/`` line count, versions and BLAS settings as
in ``target``.  A committed ``BENCH_<n>_wide.json`` is that line.  It exits
1 if any ``nystrom_ngd`` or ``ngd_dense`` run misses ``WIDE_DEPTH``, the
rule ``target`` applies at that depth.
"""

import argparse
import hashlib
import json
import os
import platform
import sys
from dataclasses import fields, replace
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
DIGEST_WIDE_RUNS = (  # at WIDE
    ("nystrom_ngd", "poisson2d", 0), ("ngd_cg", "poisson2d", 0), ("ngd_dense", "poisson2d", 0)
)
DIGEST_WIDE_ITERATIONS = 5

TARGET_PROBLEMS = ("poisson2d", "heat1p1d", "nlpoisson2d")
TARGET_SEEDS = range(8)
DEPTHS = (1e-3, 1e-4, 1e-5)  # H1 errors; the first is the target the lines report

WIDE = dict(hidden_width=64, n_interior=1000, n_boundary=200)  # p = 4417 > 1200 or 1300 rows
WIDE_PROBLEMS = TARGET_PROBLEMS
WIDE_SEEDS = range(4)  # about 3 min 15 s on one thread for the three optimizers
WIDE_DEPTH = 1e-4


def digests(theta, records):
    """(theta digest, records digest)."""
    theta_hash = hashlib.sha256(np.ascontiguousarray(theta, dtype=float).tobytes())
    records_hash = hashlib.sha256()
    for rec in records:
        values = [getattr(rec, f.name) for f in fields(rec) if f.name != "seconds"]
        records_hash.update(repr(values).encode())
    return theta_hash.hexdigest(), records_hash.hexdigest()


def digest_run(optimizer, name, seed, **cell):
    """Digests of one run at DIGEST_WIDTH and DIGEST_ITERATIONS, or at what ``cell`` sets."""
    config = ExperimentConfig(
        problem=name, optimizer=optimizer, seed=seed,
        **{"hidden_width": DIGEST_WIDTH, "iterations": DIGEST_ITERATIONS, **cell},
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
    cell = f"w{WIDE['hidden_width']}r{WIDE['n_interior'] + WIDE['n_boundary']}"
    for optimizer, name, seed in DIGEST_WIDE_RUNS:
        theta, records = digest_run(
            optimizer, name, seed, iterations=DIGEST_WIDE_ITERATIONS, **WIDE
        )
        print(f"{optimizer} {name}-{cell} {seed} {theta} {records}", flush=True)
    return 0


def run_record(config, records, heldout_h1, depths):
    """A trained run of ``config``: its last record's iteration, matvecs,
    training H1 and cumulative seconds, its held-out H1, and per depth the
    first record at or below it (iteration, matvecs, cumulative seconds) or None."""
    elapsed = np.cumsum([r.seconds for r in records])
    crossings = []
    for depth in depths:
        k = next((k for k, r in enumerate(records) if r.h1_rel_error <= depth), None)
        crossings.append(None if k is None else {
            "iteration": records[k].iteration,
            "matvecs": int(records[k].matvecs),
            "seconds": float(elapsed[k]),
        })
    last = records[-1]
    return {
        "optimizer": config.optimizer,
        "problem": config.problem,
        "seed": config.seed,
        "iterations": last.iteration,
        "matvecs": int(last.matvecs),
        "h1": float(last.h1_rel_error),
        "heldout_h1": float(heldout_h1),
        "seconds": float(elapsed[-1]),
        "crossings": crossings,
    }


def target_run(name, seed, optimizer="nystrom_ngd", **overrides):
    """``run_record`` of a ``harness.train`` run of ``optimizer``, stopped at H1 <= min(DEPTHS)."""
    config = ExperimentConfig(problem=name, optimizer=optimizer, seed=seed, **overrides)
    _, records, heldout_h1 = train(config, h1_stop=min(DEPTHS))
    return run_record(config, records, heldout_h1, DEPTHS)


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


def wide_run(config, **stop):
    """``run_record`` of ``train(config, **stop)`` at WIDE_DEPTH, with its stop and final loss."""
    _, records, heldout_h1 = train(config, **stop)
    record = run_record(config, records, heldout_h1, (WIDE_DEPTH,))
    return {**record, **stop, "loss": float(records[-1].loss)}


def describe(r):
    return (
        f"{r['optimizer']} {r['iterations']} steps, {r['matvecs']} matvecs, "
        f"{r['seconds']:.3f} s, H1 {r['h1']:.3e}, loss {r['loss']:.3e}"
    )


def wide():
    """Run Nystrom-NGD and exact NGD to H1 <= 1e-4 with p > rows, NGD-CG at Nystrom's matvecs."""
    triples = []
    for name in WIDE_PROBLEMS:
        block = []
        for seed in WIDE_SEEDS:
            config = ExperimentConfig(problem=name, optimizer="nystrom_ngd", seed=seed, **WIDE)
            nys = wide_run(config, h1_stop=WIDE_DEPTH)
            cg = wide_run(replace(config, optimizer="ngd_cg"), matvec_budget=nys["matvecs"])
            exact = wide_run(replace(config, optimizer="ngd_dense"), h1_stop=WIDE_DEPTH)
            block.append((nys, cg, exact))
            print(
                f"{name} seed {seed}: {describe(nys)}; {describe(cg)}; "
                f"time ratio {cg['seconds'] / nys['seconds']:.2f}; {describe(exact)}; "
                f"time ratio {exact['seconds'] / nys['seconds']:.2f}",
                flush=True,
            )
        nys_its, nys_matvecs, nys_seconds = np.median(
            [(a["iterations"], a["matvecs"], a["seconds"]) for a, _, _ in block], axis=0
        )
        cg_its, cg_matvecs, cg_seconds, cg_h1 = np.median(
            [(b["iterations"], b["matvecs"], b["seconds"], b["h1"]) for _, b, _ in block], axis=0
        )
        exact_its, exact_matvecs, exact_seconds = np.median(
            [(c["iterations"], c["matvecs"], c["seconds"]) for _, _, c in block], axis=0
        )
        ratio = np.median([b["seconds"] / a["seconds"] for a, b, _ in block])
        wins = sum(a["loss"] < b["loss"] for a, b, _ in block)
        sooner = sum(at_target(a)[2] < at_target(c)[2] for a, _, c in block)
        print(
            f"{name} median: nystrom_ngd {nys_its:g} steps, {nys_matvecs:g} matvecs, "
            f"{nys_seconds:.3f} s; ngd_cg {cg_its:g} steps, {cg_matvecs:g} matvecs, "
            f"{cg_seconds:.3f} s, H1 {cg_h1:.3e} at the budget; time ratio {ratio:.2f}; "
            f"nystrom_ngd ends at the lower loss in {wins} of {len(block)}; "
            f"ngd_dense {exact_its:g} steps, {exact_matvecs:g} matvecs, {exact_seconds:.3f} s; "
            f"nystrom_ngd reaches {WIDE_DEPTH:.0e} sooner in {sooner} of {len(block)}",
            flush=True,
        )
        triples += block
    runs = [r for triple in triples for r in triple]
    print(json.dumps({"cell": WIDE, "depth": WIDE_DEPTH, "runs": runs, **environment()}))
    # every Nystrom-NGD and exact NGD run must reach WIDE_DEPTH, as in target's must_cross
    return 1 if any(None in (a["crossings"][0], c["crossings"][0]) for a, _, c in triples) else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    modes = parser.add_subparsers(dest="mode", required=True)
    modes.add_parser("digest", help=digest.__doc__, description=digest.__doc__)
    target_parser = modes.add_parser("target", help=target.__doc__, description=target.__doc__)
    target_parser.add_argument(
        "optimizers", nargs="*", metavar="optimizer",
        help=f"any of {', '.join(optim.OPTIMIZER_NAMES)} (default: nystrom_ngd)",
    )
    modes.add_parser("wide", help=wide.__doc__, description=wide.__doc__)
    args = parser.parse_args(argv)
    if args.mode == "digest":
        return digest()
    if args.mode == "wide":
        return wide()
    try:  # the config's own check of each name, before any run
        for optimizer in args.optimizers:
            ExperimentConfig(optimizer=optimizer)
    except ValueError as err:
        target_parser.error(str(err))
    return target(args.optimizers or ["nystrom_ngd"])


if __name__ == "__main__":
    sys.exit(main())
