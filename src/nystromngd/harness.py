"""Experiment harness: config parsing, trace CSVs, summaries, spectra.

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

from . import model
from .gramian import GramianOperator
from .optim import OPTIMIZER_NAMES, NystromNgdConfig, RunRecord, run_optimizer
from .problems import make_problem, PROBLEM_NAMES

CSV_COLUMNS = tuple(f.name for f in fields(RunRecord))

__all__ = [
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "set_up",
    "heldout_quadrature",
    "run_experiment",
    "dump_spectrum",
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
        if self.problem not in PROBLEM_NAMES:
            raise ValueError(
                f"unknown problem {self.problem!r}; available: {PROBLEM_NAMES}"
            )
        if self.optimizer not in OPTIMIZER_NAMES:
            raise ValueError(
                f"unknown optimizer {self.optimizer!r}; available: {OPTIMIZER_NAMES}"
            )


# annotation strings such as "int | None" (postponed evaluation)
_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _parse_value(key, value):
    """Convert by the field's declared type."""
    return int(value) if _FIELD_TYPES[key].startswith("int") else value


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
            options[key] = _parse_value(key, value)
        except ValueError as err:
            raise ValueError(f"line {lineno}: bad value for {key!r}: {value!r}") from err
    return ExperimentConfig(**options)


def load_config(path):
    return parse_config(Path(path).read_text())


def set_up(config):
    """(problem, training quadrature, theta0) of the run ``config``
    describes; the quadrature and theta0 are both drawn from
    ``config.seed``, which also seeds the optimizer."""
    problem = make_problem(
        config.problem, hidden_width=config.hidden_width, hidden_depth=config.hidden_depth
    )
    quad = problem.sample_quadrature(config.n_interior, config.n_boundary, seed=config.seed)
    theta0 = model.init(problem.topology, config.seed).values
    return problem, quad, theta0


def heldout_quadrature(problem, seed):
    """1600 interior and 400 boundary points from the seed sequence
    (seed, 1), which a run seeded by ``seed`` never trains on."""
    return problem.sample_quadrature(1600, 400, seed=[seed, 1])


def _write_trace(path, records):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow(
                format(v, ".17g") if isinstance(v, float) else v for v in astuple(rec)
            )


def run_experiment(config, out_dir=None):
    """Run ``repetitions`` trainings, repetition r set up from seed + r,
    write per-run CSV traces (one row per iterate, theta0 first) and a
    summary JSON; returns the summary."""
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    final_errors = []
    heldout_errors = []
    total_seconds = []
    for rep in range(config.repetitions):
        run = replace(config, seed=config.seed + rep)
        problem, quad, theta0 = set_up(run)
        theta, records = run_optimizer(
            run.optimizer, problem, theta0, run, quad, quad_eval=quad
        )
        _write_trace(out / f"run_{run.seed}.csv", records)
        final_errors.append(records[-1].h1_rel_error)
        heldout_errors.append(
            problem.h1_relative_error(theta, heldout_quadrature(problem, run.seed))
        )
        total_seconds.append(sum(r.seconds for r in records))
    summary = {
        "problem": config.problem,
        "optimizer": config.optimizer,
        "median_final_error": float(np.median(final_errors)),
        "median_heldout_error": float(np.median(heldout_errors)),
        "q25": float(np.quantile(final_errors, 0.25)),
        "q75": float(np.quantile(final_errors, 0.75)),
        "median_seconds": float(np.median(total_seconds)),
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return summary


def normalized_spectrum(matrix, top=None):
    """Descending eigenvalues of an SPSD matrix, normalized by the largest."""
    if top is not None and top < 1:
        raise ValueError(f"top must be >= 1, got {top}")
    eigs = np.linalg.eigvalsh(np.asarray(matrix, dtype=float))[::-1]
    eigs = np.clip(eigs, 0.0, None)
    if eigs[0] == 0.0:
        raise ZeroDivisionError("matrix is identically zero; cannot normalize")
    ratios = eigs / eigs[0]
    if top is not None:
        ratios = ratios[:top]
    return ratios


def dump_spectrum(config, out_dir=None, top=None):
    """Assemble the Gramian A^T A densely at the config's set-up and write
    its normalized spectrum, one value per line, descending."""
    problem, quad, theta0 = set_up(config)
    gop = GramianOperator.from_problem(problem, theta0, quad)
    ratios = normalized_spectrum(gop.dense(), top=top)
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "spectrum.txt"
    with open(path, "w") as fh:
        for value in ratios:
            fh.write(format(value, ".17g") + "\n")
    return ratios
