#!/usr/bin/env python3
"""Grids of ``harness.train`` runs: parity digests, and one table of cells run to H1 depths.

    python scripts/grid.py digest
    python scripts/grid.py target [optimizer ...]
    python scripts/grid.py wide

Each run is ``harness.train`` of the default ``ExperimentConfig`` (the
criterion-10 setup: a 16x2 tanh MLP, 400 interior and 160 boundary points;
quadrature, initialization and sketches drawn from independent streams of
the seed, as ``harness.set_up`` names them) but for the optimizer, problem
and seed and what its cell overrides.  A run whose theta0 loss has no
finite square ends there, with a one-row trace.  Run as a script,
``grid.py`` pins OpenBLAS, OpenMP and MKL to one thread before numpy is
imported, so a digest or a count does not depend on how a BLAS splits its
sums.  It imports the package from its own checkout's ``src/``, and exits
if ``nystromngd`` resolves anywhere else, so a digest or ``src_lines``
belongs to the tree that ran; no ``PYTHONPATH`` is needed.

``digest`` prints one line per (optimizer, problem, seed) run: the three
names, then two SHA-256 digests, the first of the final theta's bytes, the
second of every numeric RunRecord field but the wall-clock seconds.  The
grid is every optimizer in ``DIGEST_OPTIMIZERS`` on every problem in
``DIGEST_PROBLEMS`` at each seed in ``DIGEST_SEEDS``, at ``DIGEST_WIDTH``
and ``DIGEST_ITERATIONS``: 60 runs, in a fixed order.  Then come the
``DIGEST_WIDE_RUNS``, ``nystrom_ngd``, ``ngd_cg`` and ``ngd_dense`` on
poisson2d at seed 0, for ``DIGEST_WIDE_ITERATIONS`` steps at the ``wide``
cell's overrides, whose p > rows takes the sketch, NGD-CG's matrix-free
products and exact NGD's row side where no other line does; their second
field names the cell (``poisson2d-w64r1200``), so no two of the 63 lines
share fields 1-3.  Two checkouts do the same arithmetic on these runs
exactly when their outputs are byte-identical, so each checkout runs its
own copy and ``cmp`` compares:

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

Every other mode is an entry of ``CELLS``, which one runner trains.  A cell
names its ``ExperimentConfig`` overrides, problems, seeds and H1 depths
(shallowest first), and a tuple of runs, each an optimizer with its stop:
``h1_stop`` at the deepest depth, or ``matvec_budget`` equal to the final
matvecs of an earlier run of the tuple (same seed, so the same quadrature
and theta0), which ends at its first row that reaches it, criterion 10's
rule.  Per depth a run records its first row at or below it: iteration,
matvecs and cumulative seconds (summed over the trace rows, so set-up and
held-out evaluation are left out), or ``null``.  The runner prints each
run's line as its seed ends, at its crossing of the shallowest depth or at
its last row, and per problem, run and depth a median line (a miss enters
at its last row).  Each line starts with the optimizer and gives the final
training H1 and the count of misses.  A later run's lines add its time over
the first run's, and how often the first run ends at the lower training
loss (a budget run) or reaches the depth sooner (an ``h1_stop`` run).  The
last line is one strict JSON object, a non-finite number written as
``null``: the cell's overrides, depths and ``h1_stop`` depth; per run the
optimizer, problem, seed, final iterations, matvecs, training and held-out
H1, seconds, crossings, stop and final loss; then the ``src/`` line count
(as ``bench/run.py`` counts it), the Python and numpy versions and the
BLAS settings.  It exits 1 if an ``h1_stop`` run misses the shallowest
depth, or a ``nystrom_ngd`` or ``ngd_dense`` run misses 1e-4 where the
cell has it; a budget run need reach nothing.

``target`` runs each named optimizer (default ``nystrom_ngd``) on the
default config, poisson2d, heat1p1d and nlpoisson2d, seeds 0-7, to 1e-3,
1e-4 and 1e-5 or 300 iterations; ``BENCH_<n>.json`` is its line for
``nystrom_ngd ngd_dense ngd_cg``.  ``wide`` is the paper's regime: a 64x2
MLP (p = 4417) on 1000 + 200 points, so p > 1200 rows (1300 on heat1p1d),
the same problems at seeds 0-3 (about 3 min 15 s), to 1e-4: ``nystrom_ngd``,
``ngd_cg`` at its matvecs, then ``ngd_dense``, exact NGD on the row side
(K = A A^T); ``BENCH_<n>_wide.json`` is its line.
"""

import argparse
import hashlib
import json
import os
import platform
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import NamedTuple

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
DIGEST_WIDE_RUNS = (  # at the wide cell
    ("nystrom_ngd", "poisson2d", 0), ("ngd_cg", "poisson2d", 0), ("ngd_dense", "poisson2d", 0)
)
DIGEST_WIDE_ITERATIONS = 5


class Run(NamedTuple):
    """An optimizer and its stop: ``h1_stop`` at the cell's deepest depth, or, with
    ``budget_of``, that earlier run's final matvecs as ``matvec_budget``."""

    optimizer: str
    budget_of: int | None = None


@dataclass(frozen=True)
class Cell:
    """``runs`` of ``ExperimentConfig(**overrides)`` on each problem and seed, to the
    H1 ``depths`` (shallowest first); ``runs`` None takes one ``Run`` per optimizer
    named on the command line."""

    doc: str
    overrides: dict
    problems: tuple
    seeds: range
    depths: tuple
    runs: tuple | None = None


PROBLEMS = ("poisson2d", "heat1p1d", "nlpoisson2d")
CELLS = {
    "target": Cell(
        "Print each optimizer's iterations, matvecs and seconds to three H1 depths.",
        {}, PROBLEMS, range(8), (1e-3, 1e-4, 1e-5),
    ),
    "wide": Cell(
        "Run Nystrom-NGD and exact NGD to H1 <= 1e-4 with p > rows, NGD-CG at Nystrom's matvecs.",
        dict(hidden_width=64, n_interior=1000, n_boundary=200),  # p = 4417 > 1200 or 1300 rows
        PROBLEMS, range(4), (1e-4,),  # four seeds: about 3 min 15 s on one thread
        (Run("nystrom_ngd"), Run("ngd_cg", budget_of=0), Run("ngd_dense")),
    ),
}
STRICT = ("nystrom_ngd", "ngd_dense")  # must also reach 1e-4 where a cell has that depth


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
    wide = CELLS["wide"].overrides
    cell = f"w{wide['hidden_width']}r{wide['n_interior'] + wide['n_boundary']}"
    for optimizer, name, seed in DIGEST_WIDE_RUNS:
        theta, records = digest_run(
            optimizer, name, seed, iterations=DIGEST_WIDE_ITERATIONS, **wide
        )
        print(f"{optimizer} {name}-{cell} {seed} {theta} {records}", flush=True)
    return 0


def train_record(config, depths, **stop):
    """``train(config, **stop)`` as a record: the last row's iteration, matvecs, training
    H1 and cumulative seconds, the held-out H1, per depth the first row at or below it
    (iteration, matvecs, cumulative seconds) or None, then the stop and the final loss."""
    _, records, heldout_h1 = train(config, **stop)
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
        **stop,
        "loss": float(last.loss),
    }


def at_depth(r, i):
    """(iteration, matvecs, seconds) at the run's crossing of its i-th depth, or at its
    last row when it misses."""
    c = r["crossings"][i]
    if c is None:
        return r["iterations"], r["matvecs"], r["seconds"]
    return c["iteration"], c["matvecs"], c["seconds"]


def print_line(where, pairs, depths, i):
    """Print one optimizer's medians at ``depths[i]`` over its runs b of ``pairs`` (a, b),
    a being the first run of b's tuple: iterations, matvecs, seconds, final H1 and misses,
    and for a later run its time over a's and how often a ends at the lower loss (b
    stopped by a budget) or reaches the depth sooner (b stopped by ``h1_stop``)."""
    runs = [b for _, b in pairs]
    its, matvecs, seconds = np.median([at_depth(b, i) for b in runs], axis=0)
    missed = sum(b["crossings"][i] is None for b in runs)
    h1 = np.median([b["h1"] for b in runs])
    text = (
        f"{runs[0]['optimizer']} {where}: {its:g} iterations, {matvecs:g} matvecs, "
        f"{seconds:.3f} s, final H1 {h1:.3e}, {missed} of {len(runs)} missed"
    )
    first = pairs[0][0]
    if first is not runs[0]:
        ratio = np.median([at_depth(b, i)[2] / at_depth(a, i)[2] for a, b in pairs])
        if "matvec_budget" in runs[0]:
            won, what = sum(a["loss"] < b["loss"] for a, b in pairs), "ends at the lower loss"
        else:
            won = sum(at_depth(a, i)[2] < at_depth(b, i)[2] for a, b in pairs)
            what = f"reaches {depths[i]:.0e} sooner"
        text += f"; time ratio {ratio:.2f}; {first['optimizer']} {what} in {won} of {len(runs)}"
    print(text, flush=True)


def exit_status(records, depths):
    """1 if an ``h1_stop`` run misses ``depths[0]``, or a STRICT run misses 1e-4 where
    ``depths`` has it; a budget run need reach nothing."""
    strict = [0, *(i for i, depth in enumerate(depths) if depth == 1e-4)]
    return int(any(
        None in [r["crossings"][i] for i in (strict if r["optimizer"] in STRICT else [0])]
        for r in records if "matvec_budget" not in r
    ))


def run_cell(cell):
    """Train the cell's runs on each problem and seed, print each run's line as its seed
    ends and its median lines as its problem ends, then the JSON line; return the exit
    status."""
    records = []
    for name in cell.problems:
        block = []  # the runs of each seed
        for seed in cell.seeds:
            runs = []
            for run in cell.runs:
                config = ExperimentConfig(
                    problem=name, optimizer=run.optimizer, seed=seed, **cell.overrides
                )
                if run.budget_of is None:
                    stop = {"h1_stop": cell.depths[-1]}
                else:
                    stop = {"matvec_budget": runs[run.budget_of]["matvecs"]}
                runs.append(train_record(config, cell.depths, **stop))
            block.append(runs)
            for r in runs:
                print_line(f"{name} seed {seed} at {cell.depths[0]:.0e}", [(runs[0], r)],
                           cell.depths, 0)
        for j in range(len(cell.runs)):
            for i, depth in enumerate(cell.depths):
                pairs = [(runs[0], runs[j]) for runs in block]
                print_line(f"{name} median at {depth:.0e}", pairs, cell.depths, i)
        records += [r for runs in block for r in runs]
    line = json.dumps({
        "cell": cell.overrides, "depths": cell.depths, "depth": cell.depths[-1],  # h1_stop's
        "runs": records,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
    })
    # strict JSON has no NaN or Infinity: each non-finite number is written as null
    print(json.dumps(json.loads(line, parse_constant=lambda _: None), allow_nan=False))
    return exit_status(records, cell.depths)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    modes = parser.add_subparsers(dest="mode", required=True)
    modes.add_parser("digest", help=digest.__doc__, description=digest.__doc__)
    cells = {}
    for mode, cell in CELLS.items():
        cells[mode] = modes.add_parser(mode, help=cell.doc, description=cell.doc)
        if cell.runs is None:
            cells[mode].add_argument(
                "optimizers", nargs="*", metavar="optimizer",
                help=f"any of {', '.join(optim.OPTIMIZER_NAMES)} (default: nystrom_ngd)",
            )
    args = parser.parse_args(argv)
    if args.mode == "digest":
        return digest()
    cell = CELLS[args.mode]
    if cell.runs is None:
        try:  # the config's own check of each name, before any run
            for optimizer in args.optimizers:
                ExperimentConfig(optimizer=optimizer)
        except ValueError as err:
            cells[args.mode].error(str(err))
        cell = replace(cell, runs=tuple(map(Run, args.optimizers or ["nystrom_ngd"])))
    return run_cell(cell)


if __name__ == "__main__":
    sys.exit(main())
