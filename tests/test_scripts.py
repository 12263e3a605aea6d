"""Smoke tests: scripts/grid.py answers --help in each mode and runs each mode on a tiny grid."""

import importlib.util
import json
import os
import platform
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nystromngd import model, problems

ROOT = Path(__file__).resolve().parents[1]
GRID = ROOT / "scripts" / "grid.py"


@pytest.mark.parametrize("mode", [[], ["digest"], ["target"]], ids=["grid.py", "digest", "target"])
def test_script_answers_help(mode):
    # a script broken by a rename in src/ fails here; it finds src/ without PYTHONPATH
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, str(GRID), *mode, "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage:")


def test_script_without_a_mode_exits_2():
    result = subprocess.run(
        [sys.executable, str(GRID)], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr.startswith("usage: grid.py")


def load_grid():
    spec = importlib.util.spec_from_file_location("grid", GRID)
    grid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(grid)
    return grid


def test_importing_the_script_leaves_the_blas_settings_alone(monkeypatch):
    # only a run as a script pins the thread counts, before numpy is imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "2")
    grid = load_grid()
    assert {var: os.environ[var] for var in grid.BLAS_ENV} == dict.fromkeys(grid.BLAS_ENV, "2")


TINY = dict(hidden_width=4, n_interior=20, n_boundary=2, iterations=2)


def test_to_target_run_reports_its_last_record():
    r = load_grid().target_run("poisson1d", 0, **TINY)
    assert r["iterations"] == 2 and r["matvecs"] > 0 and r["seconds"] > 0  # no early stop
    assert r["crossings"] == [None, None, None]  # no depth reached
    assert 1e-3 < r["h1"] < float("inf") and 0.0 < r["heldout_h1"] < float("inf")
    assert r["heldout_h1"] != r["h1"]  # measured on other points


def test_to_target_runs_the_named_optimizer():
    # ngd_dense pays p matvecs per step for G alone: its damping's lam1 is read off that G
    grid = load_grid()
    prob = problems.make_problem("poisson1d", hidden_width=4, hidden_depth=2)
    p = model.init(prob.topology, 0).values.size
    r = grid.target_run("poisson1d", 0, optimizer="ngd_dense", **TINY)
    assert (r["iterations"], r["matvecs"]) == (2, 2 * p)
    assert 1e-3 < r["h1"] < float("inf")


def test_to_target_crossing_is_the_run_stopped_at_its_depth(monkeypatch):
    # one run to the deepest depth gives, per depth it crosses, the last
    # record of the same seed stopped there: the runs agree up to that row
    grid = load_grid()
    small = dict(hidden_width=8, n_interior=30, n_boundary=2, iterations=24)
    depths = grid.DEPTHS
    deep = grid.target_run("poisson1d", 0, **small)
    *crossed, deepest = deep["crossings"]
    assert deepest is None and deep["iterations"] == 24  # 1e-5 is not reached
    assert 0 < crossed[0]["iteration"] < crossed[1]["iteration"]
    assert 0 < crossed[0]["seconds"] < crossed[1]["seconds"] <= deep["seconds"]
    for depth, crossing in zip(depths, crossed):
        monkeypatch.setattr(grid, "DEPTHS", (depth,))
        stopped = grid.target_run("poisson1d", 0, **small)
        assert stopped["h1"] <= depth
        assert (crossing["iteration"], crossing["matvecs"]) == (
            stopped["iterations"], stopped["matvecs"]
        )


def test_to_target_main_reports_every_named_optimizer(monkeypatch, capsys):
    grid = load_grid()
    monkeypatch.setattr(grid, "TARGET_PROBLEMS", ("poisson1d",))
    monkeypatch.setattr(grid, "TARGET_SEEDS", range(2))
    assert grid.main(["target", "nystrom_ngd", "ngd_dense"]) == 0
    *lines, last = capsys.readouterr().out.splitlines()
    medians = [f"median at {depth:.0e}" for depth in grid.DEPTHS]
    assert [line.split(":")[0] for line in lines] == [
        f"{opt} poisson1d {what}"
        for opt in ("nystrom_ngd", "ngd_dense")
        for what in ("seed 0", "seed 1", *medians)
    ]
    # the last line is the JSON record of every run, in the order printed
    record = json.loads(last)
    runs = [line for line in lines if "median" not in line]
    assert all("missed" not in line for line in runs)
    for opt, block in (("nystrom_ngd", record["runs"][:2]), ("ngd_dense", record["runs"][2:])):
        # one median line per depth, over each run's crossing of it; none missed
        for i, depth in enumerate(grid.DEPTHS):
            c = [r["crossings"][i] for r in block]
            its, matvecs, seconds = np.median(
                [[x["iteration"], x["matvecs"], x["seconds"]] for x in c], axis=0
            )
            assert (
                f"{opt} poisson1d median at {depth:.0e}: {its:g} iterations, "
                f"{matvecs:g} matvecs, {seconds:.3f} s, 0 of 2 missed"
            ) in lines
    assert [(r["optimizer"], r["problem"], r["seed"]) for r in record["runs"]] == [
        (opt, "poisson1d", seed) for opt in ("nystrom_ngd", "ngd_dense") for seed in (0, 1)
    ]
    assert record["depths"] == list(grid.DEPTHS)
    for line, r in zip(runs, record["runs"]):
        # the lines read the first depth; each run goes on to the last
        first = r["crossings"][0]
        assert line.endswith(
            f": {first['iteration']} iterations, {first['matvecs']} matvecs, "
            f"{first['seconds']:.3f} s"
        )
        iterations = [c["iteration"] for c in r["crossings"]]
        assert iterations == sorted(iterations) and iterations[-1] == r["iterations"]
        assert r["h1"] <= min(grid.DEPTHS) and 0.0 < r["heldout_h1"] < 1.0
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    assert record["src_lines"] == src_lines
    assert record["numpy"] == np.__version__ and record["python"] == platform.python_version()
    assert set(record["blas_threads"]) == set(grid.BLAS_ENV)
    # one optimizer, the default, prints its lines unlabelled
    monkeypatch.setattr(grid, "TARGET_SEEDS", range(1))
    assert grid.main(["target"]) == 0
    *lines, last = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["poisson1d seed 0"] + [
        f"poisson1d median at {depth:.0e}" for depth in grid.DEPTHS
    ]
    assert len(json.loads(last)["runs"]) == 1
    with pytest.raises(SystemExit) as exit_info:
        grid.main(["target", "nystrom_ngd", "newton"])
    assert exit_info.value.code == 2  # before any run
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1].endswith(
        "unknown optimizer 'newton'; available: "
        "('nystrom_ngd', 'ngd_cg', 'ngd_dense', 'gd', 'bfgs')"
    )


def missed_run(optimizer, crossed):
    """A target run record that crosses only the first ``crossed`` DEPTHS."""
    crossing = {"iteration": 1, "matvecs": 1, "seconds": 0.1}
    return {
        "optimizer": optimizer, "problem": "poisson1d", "seed": 0, "iterations": 1,
        "matvecs": 1, "h1": 1e-3, "heldout_h1": 1e-3, "seconds": 0.1,
        "crossings": [crossing] * crossed + [None] * (3 - crossed),
    }


@pytest.mark.parametrize(
    "optimizer, crossed, status",
    [
        ("nystrom_ngd", 1, 1), ("ngd_dense", 1, 1), ("ngd_cg", 1, 0),
        ("nystrom_ngd", 2, 0), ("ngd_dense", 2, 0), ("ngd_cg", 0, 1),
    ],
)
def test_to_target_exits_1_when_a_run_misses_its_depths(
    monkeypatch, capsys, optimizer, crossed, status
):
    # every run must reach 1e-3; Nystrom-NGD and exact NGD runs also 1e-4
    grid = load_grid()
    monkeypatch.setattr(grid, "TARGET_PROBLEMS", ("poisson1d",))
    monkeypatch.setattr(grid, "TARGET_SEEDS", range(1))
    monkeypatch.setattr(grid, "target_run", lambda *_, optimizer: missed_run(optimizer, crossed))
    assert grid.main(["target", optimizer]) == status
    *lines, last = capsys.readouterr().out.splitlines()
    assert json.loads(last)["runs"] == [missed_run(optimizer, crossed)]
    # a depth's median line counts the run as missed from its first missed depth on
    assert [line.endswith(", 1 of 1 missed") for line in lines[1:]] == [
        i >= crossed for i in range(3)
    ]


@pytest.fixture
def parity(monkeypatch):
    """grid.py on a tiny digest grid: gd on poisson1d, seeds 0 and 1, width 4, 2 steps."""
    grid = load_grid()
    for name, value in [("DIGEST_OPTIMIZERS", ("gd",)), ("DIGEST_PROBLEMS", ("poisson1d",)),
                        ("DIGEST_SEEDS", range(2)), ("DIGEST_ITERATIONS", 2), ("DIGEST_WIDTH", 4)]:
        monkeypatch.setattr(grid, name, value)
    return grid


def test_parity_digest_is_deterministic(parity, monkeypatch, capsys):
    monkeypatch.setattr(parity, "DIGEST_OPTIMIZERS", ("nystrom_ngd", "gd"))
    outputs = []
    for _ in range(2):
        assert parity.main(["digest"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    lines = [line.split() for line in outputs[0].splitlines()]
    assert [line[:3] for line in lines] == [
        [opt, "poisson1d", seed] for opt in ("nystrom_ngd", "gd") for seed in ("0", "1")
    ]
    assert all(len(line) == 5 for line in lines)  # theta and records digests
    digests = [d for line in lines for d in line[3:]]
    assert all(len(d) == 64 and int(d, 16) >= 0 for d in digests)
    assert len(set(digests)) == 8


def test_parity_digest_has_one_option(capsys):
    # each mode's grid is module constants, and target takes only optimizer names: the one
    # option of every mode is --help, and comparing two digest files is cmp's job
    grid = load_grid()
    for mode in ([], ["digest"], ["target"]):
        with pytest.raises(SystemExit) as exit_info:
            grid.main([*mode, "--help"])
        assert exit_info.value.code == 0
        assert set(re.findall(r"--\w+", capsys.readouterr().out)) == {"--help"}


def test_readme_grid_commands_parse(monkeypatch):
    # each grid.py command the README shows, inline or in a fenced block, is one grid.py
    # takes: a placeholder in usage brackets is dropped, an option in them is kept
    grid = load_grid()
    modes = []
    monkeypatch.setattr(grid, "digest", lambda: modes.append("digest") or 0)
    monkeypatch.setattr(grid, "target", lambda optimizers: modes.append("target") or 0)
    readme = (ROOT / "README.md").read_text()
    fenced = re.findall(r"```\w*\n(.*?)```", readme, re.S)
    prose = re.sub(r"```\w*\n.*?```", "", readme, flags=re.S)
    lines = [line for block in fenced for line in block.splitlines()]
    commands = [c for c in lines if "grid.py " in c]
    commands += [c for c in re.findall(r"`([^`]*)`", prose) if "grid.py " in c]
    for command in commands:
        args = re.split(r"[<>|;&]", command.split("grid.py ", 1)[1])[0]  # before any redirect
        args = re.sub(r"\[([^\]]*)\]", lambda m: m[1] if m[1].startswith("-") else "", args)
        assert grid.main(args.split()) == 0, command
    assert {"digest", "target"} <= set(modes) and len(commands) >= 3


@pytest.mark.parametrize("mode", ["digest", "target"])
@pytest.mark.parametrize("planted", [True, False], ids=["planted", "absent"])
def test_script_imports_its_own_checkouts_package(tmp_path, planted, mode):
    # a copy beside another src/ runs that package, not the one PYTHONPATH names;
    # with no package there, it exits rather than digest or count another tree
    (tmp_path / "scripts").mkdir()
    shutil.copy(GRID, tmp_path / "scripts" / "grid.py")
    if planted:
        (tmp_path / "src" / "nystromngd").mkdir(parents=True)
        init = tmp_path / "src" / "nystromngd" / "__init__.py"
        init.write_text('raise SystemExit("planted package imported")\n')
    result = subprocess.run(
        [sys.executable, str(tmp_path / "scripts" / "grid.py"), mode, "--help"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 1 and result.stdout == ""
    if planted:
        assert result.stderr == "planted package imported\n"
    else:
        assert result.stderr.startswith("nystromngd was imported from ")
        assert result.stderr.rstrip().endswith(f", not {tmp_path / 'src'}")


def test_a_nan_source_gives_each_script_its_one_row_run(monkeypatch):
    # theta0's loss is NaN: the run ends at theta0, and neither mode raises
    monkeypatch.setattr(problems.Poisson2D, "source", lambda self, x: np.full(len(x), np.nan))
    grid = load_grid()
    monkeypatch.setattr(grid, "DIGEST_ITERATIONS", 2)
    monkeypatch.setattr(grid, "DIGEST_WIDTH", 4)
    topology = problems.make_problem("poisson2d", hidden_width=4).topology
    for seed in (0, 1):
        got = grid.digest_run("nystrom_ngd", "poisson2d", seed)
        assert all(len(d) == 64 and int(d, 16) >= 0 for d in got)
        assert got[0] == grid.digests(model.init(topology, [seed, 3]).values, [])[0]  # theta0
    r = grid.target_run("poisson2d", 0, **TINY)
    assert r["crossings"] == [None, None, None]
    assert (r["iterations"], r["matvecs"]) == (0, 0)
    assert 0.0 < r["h1"] < float("inf") and 0.0 < r["heldout_h1"] < float("inf")
