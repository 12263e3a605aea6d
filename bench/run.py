#!/usr/bin/env python3
"""Time-to-accuracy benchmark for Nystrom-NGD on the poisson2d problem.

A run trains a block of seeded networks, one after another in this process
(a closed loop with one client), through the public Python API:
``optim.nystrom_ngd_run(..., h1_stop=...)`` or
``optim.ngd_cg_run(..., matvec_budget=...)``.  With ``--trace 0`` it prints
the end-to-end metrics; with ``--trace 1`` it wraps the library's public
functions from outside (see ``layers.py``) and prints per-layer metrics.
Correctness checks run outside the timed regions.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every check passed.

Run from the repository root:

    python3 bench/run.py --workload poisson2d-nystrom --seed 0 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 45 --trace 0

``--workload all`` runs every workload in a fresh child process, so that
each peak RSS belongs to one workload, and prints all their metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import layers
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# One BLAS thread: the machine this was sized on has 2 cores, and the
# Gramian matvecs are too small for threading to pay; one thread is steadier.
# numpy is imported inside functions, after main() has set these variables.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

N_INTERIOR, N_BOUNDARY = 400, 160
HELDOUT_INTERIOR, HELDOUT_BOUNDARY = 1600, 400
HELDOUT_STREAM = 1  # held-out points use the seed sequence (seed, 1)
ITERATIONS = 300
RUN_SECONDS = 45  # run_seconds in BENCHMARK.json
CHECK_COLUMNS = 8
CHECK_RTOL = 1e-12
IMPORT_SAMPLES = 3

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "tic = time.perf_counter()\n"
    "import nystromngd\n"
    "print(time.perf_counter() - tic)\n"
)


@dataclass(frozen=True)
class Workload:
    name: str
    optimizer: str  # "nystrom_ngd" (stop at target) or "ngd_cg" (stop at budget)
    width: int
    target: float  # training-set relative H1 a seed must end at or below
    seeds_per_run: int  # at RUN_SECONDS; sized so all runs fit the time budget
    matvec_budget: int | None = None
    dense_check: bool = True  # also compare matmat with the assembled Gramian


WORKLOADS = {
    w.name: w
    for w in (
        Workload("poisson2d-nystrom", "nystrom_ngd", 16, 1e-3, 8),
        # not in BENCHMARK.json: see README.md
        Workload("poisson2d-w32-nystrom", "nystrom_ngd", 32, 1e-3, 4, dense_check=False),
        # the baseline's final H1 at this budget spans 2e-3 to 1.7e-2 over
        # 57 seeds, so 1e-2 would count ordinary seeds as failures
        Workload("poisson2d-ngdcg", "ngd_cg", 16, 5e-2, 5, matvec_budget=3000),
    )
}


def training_seeds(workload, seed, seconds):
    """The block of training seeds for one run: disjoint for distinct --seed.

    Its size scales ``seeds_per_run`` by ``seconds / RUN_SECONDS`` and does
    not depend on how fast the code is, so two commits train the same seeds.
    """
    k = max(1, round(workload.seeds_per_run * seconds / RUN_SECONDS))
    return [seed * k + i for i in range(k)]


# -- library loading and environment -------------------------------------------


def import_library():
    """Import the package from this checkout's ``src``; return (modules, seconds)."""
    sys.path.insert(0, str(SRC))
    tic = time.perf_counter()
    try:
        import nystromngd
        from nystromngd import autodiff, gramian, model, optim, problems, sketch
    except ImportError as err:
        raise SystemExit(f"cannot import nystromngd from {SRC}: {err}")
    seconds = time.perf_counter() - tic
    if not Path(nystromngd.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"nystromngd was imported from {nystromngd.__file__}, not {SRC}")
    mods = dict(
        autodiff=autodiff, gramian=gramian, model=model,
        optim=optim, problems=problems, sketch=sketch,
    )
    return mods, seconds


def import_seconds_in_fresh_process():
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def environment():
    import numpy as np
    import scipy

    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, env=git_env,
        ).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "src_lines": src_lines,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "machine": platform.machine(),
    }


# -- one seed ----------------------------------------------------------------


def relative_error(a, b):
    import numpy as np

    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def block_checks(lib, gop, seed, dense):
    """Fast-versus-slow path on theta0: matmat against column-wise matvec,
    and (if ``dense``) against the assembled Gramian."""
    import numpy as np

    rng = np.random.default_rng([seed, 2])
    block = rng.standard_normal((gop.dim, CHECK_COLUMNS))
    fast = gop.matmat(block)
    errors = {"matmat_vs_matvec": relative_error(
        fast, np.column_stack([gop.matvec(v) for v in block.T])
    )}
    if dense:
        errors["matmat_vs_dense"] = relative_error(
            fast, lib["gramian"].assemble_dense(gop) @ block
        )
    return errors


def set_up(lib, workload, seed):
    """Everything before the first optimizer call, for one training seed."""
    prob = lib["problems"].make_problem("poisson2d", hidden_width=workload.width, hidden_depth=2)
    quad = prob.sample_quadrature(N_INTERIOR, N_BOUNDARY, seed=seed)
    theta0 = lib["model"].init(prob.topology, seed).values
    gop = lib["gramian"].GramianOperator.from_problem(prob, theta0, quad)
    gop.matvec(theta0)  # warm-up matvec
    return prob, quad, theta0, gop


def train(lib, workload, prob, quad, theta0, seed):
    optim = lib["optim"]
    config = optim.NystromNgdConfig(iterations=ITERATIONS, seed=seed)
    if workload.optimizer == "nystrom_ngd":
        return optim.nystrom_ngd_run(
            prob, theta0, config, quad, quad_eval=quad, h1_stop=workload.target
        )
    return optim.ngd_cg_run(prob, theta0, config, quad, matvec_budget=workload.matvec_budget)


def timed_train(lib, workload, prob, quad, theta0, seed):
    """Train once; return (failure status or None, seconds, theta, records)."""
    tic = time.perf_counter()
    try:
        theta, records = train(lib, workload, prob, quad, theta0, seed)
    except lib["autodiff"].NonFiniteError:
        status = "nonfinite"
    except lib["sketch"].SketchFailure:
        status = "sketch-failed"
    except Exception as err:
        traceback.print_exc(file=sys.stderr)
        status = f"error:{type(err).__name__}"
    else:
        return None, time.perf_counter() - tic, theta, records
    return status, time.perf_counter() - tic, None, []


def run_seed(lib, workload, seed, tracer, first, last):
    """Set up, check, train and evaluate one training seed.

    In a traced run the last seed, when the process is warm, is also
    trained untraced first: the reference for the tracing overhead and for
    the check that tracing leaves the arithmetic unchanged.
    """
    tic = time.perf_counter()
    prob, quad, theta0, gop = set_up(lib, workload, seed)
    res = {"seed": seed, "setup_s": time.perf_counter() - tic, "problems": []}
    res["checks"] = block_checks(lib, gop, seed, workload.dense_check and first)
    for name, err in res["checks"].items():
        if not err <= CHECK_RTOL:
            res["problems"].append(f"{name} relative error {err:.2e} > {CHECK_RTOL:g}")

    reference = tracer is not None and last
    if reference:
        _, res["untraced_train_s"], ref_theta, ref_records = timed_train(
            lib, workload, prob, quad, theta0, seed
        )
    if tracer is not None:
        layers.install(tracer, **{k: lib[k] for k in layers.MODULES})
        try:
            with tracer.span(layers.RUN_SPAN):
                status, train_s, theta, records = timed_train(
                    lib, workload, prob, quad, theta0, seed
                )
        finally:
            tracer.restore()
    else:
        status, train_s, theta, records = timed_train(lib, workload, prob, quad, theta0, seed)
    res["train_s"] = train_s
    res["iterations"] = len(records)
    res["matvecs"] = records[-1].matvecs if records else 0

    if reference:
        same = (
            len(ref_records) == len(records)
            and (not records or ref_records[-1].matvecs == records[-1].matvecs)
            and (theta is None) == (ref_theta is None)
            and (theta is None or (theta == ref_theta).all())
        )
        if not same:
            res["problems"].append("traced run differs from the untraced run")

    if theta is None:
        res["status"] = status
        if workload.optimizer == "nystrom_ngd":
            res["problems"].append(f"ended with status {status}, not at the target")
        return res
    train_h1 = prob.h1_relative_error(theta, quad)
    if workload.optimizer == "nystrom_ngd" and records[-1].h1_rel_error != train_h1:
        res["problems"].append("recorded H1 differs from the H1 of the returned theta")
    heldout = prob.sample_quadrature(HELDOUT_INTERIOR, HELDOUT_BOUNDARY, seed=[seed, HELDOUT_STREAM])
    res["train_h1"] = train_h1
    res["heldout_h1"] = prob.h1_relative_error(theta, heldout)
    if not res["heldout_h1"] > 0.0:  # also rejects NaN
        res["problems"].append(f"held-out H1 is {res['heldout_h1']}")
    res["status"] = "target" if train_h1 <= workload.target else "budget"
    if workload.optimizer == "nystrom_ngd" and res["status"] != "target":
        res["problems"].append(f"ended at H1 {train_h1:.3e} > target {workload.target:g}")
    return res


# -- one workload --------------------------------------------------------------


def trimmed_mean(values):
    """Mean without the lowest and the highest value (the median for 3 or 4)."""
    values = sorted(values)
    return statistics.fmean(values[1:-1] if len(values) > 2 else values)


def end_to_end(runs, import_s, done):
    reached = sum(r["status"] == "target" for r in runs)
    ratios = [r["heldout_h1"] / r["train_h1"] for r in runs if "heldout_h1" in r]
    return {
        "train_s": (trimmed_mean([r["train_s"] for r in runs]), "s"),
        "matvecs": (trimmed_mean([r["matvecs"] for r in done] or [0]), "count"),
        "reached_frac": (reached / len(runs), "fraction"),
        "heldout_h1_ratio": (statistics.median(ratios) if ratios else 0.0, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (
            statistics.median(import_s) + statistics.median([r["setup_s"] for r in runs]), "s"
        ),
    }


def run_workload(workload, seed, seconds, trace):
    lib, first_import_s = import_library()
    import_s = [first_import_s] + [
        import_seconds_in_fresh_process() for _ in range(IMPORT_SAMPLES - 1)
    ]
    env = environment()
    seeds = training_seeds(workload, seed, seconds)
    tracer = Tracer() if trace else None
    runs = [
        run_seed(lib, workload, s, tracer, i == 0, i == len(seeds) - 1)
        for i, s in enumerate(seeds)
    ]
    done = [r for r in runs if r["iterations"]]
    for r in runs:
        line = (
            f"seed {r['seed']}: {r['status']}, {r['iterations']} it, "
            f"{r['matvecs']} matvecs, train {r['train_s']:.2f} s"
        )
        if "heldout_h1" in r:
            line += f", train H1 {r['train_h1']:.3e}, held-out H1 {r['heldout_h1']:.3e}"
        print(line + "".join(f"; FAILED CHECK: {p}" for p in r["problems"]))

    if trace:
        metrics = layers.metrics(
            tracer,
            iterations=[r["iterations"] for r in done],
            matvecs=[r["matvecs"] for r in done],
            train_s=[r["train_s"] for r in runs],
            untraced_train_s=runs[-1]["untraced_train_s"],
        )
    else:
        metrics = end_to_end(runs, import_s, done)
    heldout = [r["heldout_h1"] for r in done if "heldout_h1" in r]
    summary = {
        "workload": workload.name,
        "seed": seed,
        "training_seeds": seeds,
        "trace": trace,
        "env": env,
        "import_s": import_s,
        "heldout_h1_median": statistics.median(heldout) if heldout else None,
        "runs": runs,
    }
    print(json.dumps(summary))
    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {unit}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{workload.name}-seed{seed}-trace{int(trace)}"
    record = dict(summary, metrics={k: v for k, (v, _) in metrics.items()})
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        stem.with_suffix(".spans.json").write_text(json.dumps(tracer.rows()))

    reached = sum(r["status"] == "target" for r in runs)
    return {
        "correct": all(not r["problems"] for r in runs),
        "attempted": len(runs),
        "failed": len(runs) - reached,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args):
    """Each workload in a fresh child process, one after another."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(child.stderr)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            part = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {child.returncode})", file=sys.stderr)
            result["correct"] = False
            continue
        result["correct"] &= part["correct"] and child.returncode == 0
        result["attempted"] += part["attempted"]
        result["failed"] += part["failed"]
        for metric, value in part["metrics"].items():
            result["metrics"][f"{name}/{metric}"] = value
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
