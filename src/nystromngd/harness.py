"""Experiment harness: config parsing, ``train`` (the one run function of
the CLI and the scripts), trace CSVs and summaries.

Config files are flat ``key = value`` text: one option per line, ``#``
starts a comment, blank lines ignored.  Unknown keys raise.  The full
schema is documented in the README.
"""

from __future__ import annotations

import csv
import json
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import model, optim
from .optim import NystromNgdConfig, RunRecord, run_optimizer
from .problems import make_problem

CSV_COLUMNS = tuple(f.name for f in fields(RunRecord))

__all__ = [
    "ExperimentConfig",
    "parse_config",
    "set_up",
    "heldout_quadrature",
    "train",
    "run_experiment",
    "CSV_COLUMNS",
]


@dataclass(frozen=True)
class ExperimentConfig(NystromNgdConfig):
    """Everything needed to reproduce one experiment: the optimizer's
    hyperparameters plus the problem, network, quadrature and outputs.
    The defaults are the criterion-10 setup (16x2 net, 400 + 160 points)."""

    problem: str = "poisson2d"
    optimizer: str = "nystrom_ngd"
    hidden_width: int = 16
    hidden_depth: int = 2
    n_interior: int = 400
    n_boundary: int = 160
    repetitions: int = 1
    out_dir: str = "results"

    _LOWER_BOUNDS = dict(
        NystromNgdConfig._LOWER_BOUNDS,
        hidden_width=1, hidden_depth=0, n_interior=1, n_boundary=1, repetitions=1,
    )

    def __post_init__(self):
        super().__post_init__()
        p = make_problem(self.problem, self.hidden_width, self.hidden_depth).topology.param_count
        optim.check_optimizer(self.optimizer, p)
        if not self.out_dir:  # Path("") is the working directory
            raise ValueError("out_dir must not be empty")


# annotation strings such as "int | None" (postponed evaluation)
_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def parse_config(text):
    """Parse flat ``key = value`` config text into an ExperimentConfig."""
    options = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FIELD_TYPES:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        if key in options:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        try:
            options[key] = int(value) if _FIELD_TYPES[key].startswith("int") else value
        except ValueError as err:
            raise ValueError(f"line {lineno}: bad value for {key!r}: {value!r}") from err
    return ExperimentConfig(**options)


def set_up(config):
    """(problem, training quadrature, theta0) of ``config``'s run.  A run draws from four
    independent streams of ``config.seed``: the held-out points (seed, 1), the quadrature
    (seed, 2), theta0 (seed, 3) and Nystrom-NGD's sketches (seed, 4)."""
    problem = make_problem(
        config.problem, hidden_width=config.hidden_width, hidden_depth=config.hidden_depth
    )
    quad = problem.sample_quadrature(config.n_interior, config.n_boundary, seed=[config.seed, 2])
    theta0 = model.init(problem.topology, [config.seed, 3]).values
    return problem, quad, theta0


def heldout_quadrature(problem, seed):
    """1600 interior and 400 boundary points from (seed, 1), the first of a run's
    four streams (``set_up``), which a run seeded by ``seed`` never trains on."""
    return problem.sample_quadrature(1600, 400, seed=[seed, 1])


def train(config, h1_stop=None, matvec_budget=None):
    """(theta, records, heldout_h1) of ``config``'s run: ``set_up``, trained
    with H1 recorded on the training points, stopped by ``run_optimizer``'s
    ``h1_stop`` and ``matvec_budget`` when given, and scored on ``heldout_quadrature``."""
    problem, quad, theta0 = set_up(config)
    theta, records = run_optimizer(
        config.optimizer, problem, theta0, config, quad,
        quad_eval=quad, h1_stop=h1_stop, matvec_budget=matvec_budget,
    )
    heldout = heldout_quadrature(problem, config.seed)
    return theta, records, problem.h1_relative_error(theta, heldout)


def _write_trace(path, records):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow(
                format(v, ".17g") if isinstance(v, float) else v for v in astuple(rec)
            )


def run_experiment(config, out_dir=None):
    """Run ``repetitions`` trainings, repetition r ``train`` of seed + r, write
    per-run CSV traces (one row per iterate, theta0 first) and a summary JSON,
    whose ``nonfinite`` counts the runs ended by a loss with no finite square; return it.
    A given ``out_dir`` replaces ``config.out_dir`` and is checked like it."""
    if out_dir is not None:
        config = replace(config, out_dir=str(out_dir))
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    final_errors = []
    heldout_errors = []
    total_seconds = []
    nonfinite = 0  # only theta0's loss can be: every later one passed the Armijo test
    for rep in range(config.repetitions):
        _, records, heldout_h1 = train(replace(config, seed=config.seed + rep))
        _write_trace(out / f"run_{config.seed + rep}.csv", records)
        final_errors.append(records[-1].h1_rel_error)
        heldout_errors.append(heldout_h1)
        total_seconds.append(sum(r.seconds for r in records))
        nonfinite += not np.isfinite(records[-1].loss * records[-1].loss)  # run_optimizer's test
    summary = {
        "problem": config.problem,
        "optimizer": config.optimizer,
        "median_final_error": float(np.median(final_errors)),
        "median_heldout_error": float(np.median(heldout_errors)),
        "q25": float(np.quantile(final_errors, 0.25)),
        "q75": float(np.quantile(final_errors, 0.75)),
        "median_seconds": float(np.median(total_seconds)),
        "nonfinite": nonfinite,
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return summary
