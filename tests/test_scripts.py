"""Smoke tests: scripts/grid.py answers --help in each mode and runs each mode on a tiny grid."""

import importlib.util
import json
import os
import platform
import re
import shutil
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from nystromngd import model, problems

ROOT = Path(__file__).resolve().parents[1]
GRID = ROOT / "scripts" / "grid.py"


def load_grid():
    spec = importlib.util.spec_from_file_location("grid", GRID)
    grid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(grid)
    return grid


MODES = ("digest", *load_grid().CELLS)  # a new entry of the table is smoke-tested too


@pytest.mark.parametrize("mode", [[], *([m] for m in MODES)], ids=["grid.py", *MODES])
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


def test_importing_the_script_leaves_the_blas_settings_alone(monkeypatch):
    # only a run as a script pins the thread counts, before numpy is imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "2")
    grid = load_grid()
    assert {var: os.environ[var] for var in grid.BLAS_ENV} == dict.fromkeys(grid.BLAS_ENV, "2")


TINY = dict(hidden_width=4, n_interior=20, n_boundary=2, iterations=2)
DEPTHS = (1e-3, 1e-4, 1e-5)  # the target cell's


def to_target(grid, optimizer="nystrom_ngd", **overrides):
    """``train_record`` of a poisson1d run at seed 0, stopped as a target run is."""
    config = grid.ExperimentConfig(problem="poisson1d", optimizer=optimizer, **overrides)
    return grid.train_record(config, DEPTHS, h1_stop=min(DEPTHS))


def test_to_target_run_reports_its_last_record():
    grid = load_grid()
    assert grid.CELLS["target"].depths == DEPTHS
    r = to_target(grid, **TINY)
    assert r["iterations"] == 2 and r["matvecs"] > 0 and r["seconds"] > 0  # no early stop
    assert r["crossings"] == [None, None, None]  # no depth reached
    assert 1e-3 < r["h1"] < float("inf") and 0.0 < r["heldout_h1"] < float("inf")
    assert r["heldout_h1"] != r["h1"]  # measured on other points
    assert r["h1_stop"] == 1e-5 and 0.0 < r["loss"] < float("inf")  # its stop and final loss


def test_to_target_runs_the_named_optimizer():
    # ngd_dense pays min(rows, p) matvecs per step for its Gram matrix alone: the tiny
    # cell's 22 rows are fewer than p = 33, so it forms K = A A^T
    grid = load_grid()
    prob = problems.make_problem("poisson1d", hidden_width=4, hidden_depth=2)
    p = model.init(prob.topology, 0).values.size
    rows = TINY["n_interior"] + TINY["n_boundary"]
    assert rows < p
    r = to_target(grid, "ngd_dense", **TINY)
    assert (r["iterations"], r["matvecs"]) == (2, 2 * rows)
    assert 1e-3 < r["h1"] < float("inf")


def test_exact_ngd_runs_at_the_wide_cell():
    # p = 4417 > 1200 rows: the config parses, and one step forms K = A A^T for 1200 matvecs
    grid = load_grid()
    cell = grid.CELLS["wide"].overrides
    config = grid.ExperimentConfig(optimizer="ngd_dense", iterations=1, **cell)
    p = problems.make_problem(config.problem, config.hidden_width).topology.param_count
    assert cell["n_interior"] + cell["n_boundary"] == 1200 < p == 4417
    _, records, _ = grid.train(config)
    assert [r.matvecs for r in records] == [0, 1200] and records[1].loss < records[0].loss


def test_to_target_crossing_is_the_run_stopped_at_its_depth():
    # one run to the deepest depth gives, per depth it crosses, the last
    # record of the same seed stopped there: the runs agree up to that row
    grid = load_grid()
    small = dict(hidden_width=8, n_interior=30, n_boundary=2, iterations=24)
    deep = to_target(grid, **small)
    *crossed, deepest = deep["crossings"]
    assert deepest is None and deep["iterations"] == 24  # 1e-5 is not reached
    assert 0 < crossed[0]["iteration"] < crossed[1]["iteration"]
    assert 0 < crossed[0]["seconds"] < crossed[1]["seconds"] <= deep["seconds"]
    for depth, crossing in zip(DEPTHS, crossed):
        config = grid.ExperimentConfig(problem="poisson1d", **small)
        stopped = grid.train_record(config, (depth,), h1_stop=depth)
        assert stopped["h1"] <= depth
        assert (crossing["iteration"], crossing["matvecs"]) == (
            stopped["iterations"], stopped["matvecs"]
        )


def shrink(monkeypatch, grid, mode, **fields):
    """Replace the table's ``mode`` entry by a copy with ``fields`` changed."""
    monkeypatch.setitem(grid.CELLS, mode, replace(grid.CELLS[mode], **fields))


def test_to_target_main_reports_every_named_optimizer(monkeypatch, capsys):
    grid = load_grid()
    shrink(monkeypatch, grid, "target", problems=("poisson1d",), seeds=range(2))
    assert grid.main(["target", "nystrom_ngd", "ngd_dense"]) == 0
    *lines, last = capsys.readouterr().out.splitlines()
    optimizers = ("nystrom_ngd", "ngd_dense")
    assert [line.split(":")[0] for line in lines] == [
        f"{opt} poisson1d seed {seed} at 1e-03" for seed in (0, 1) for opt in optimizers
    ] + [f"{opt} poisson1d median at {depth:.0e}" for opt in optimizers for depth in DEPTHS]
    # the last line is the JSON record of every run, in the order printed
    record = json.loads(last)
    runs = lines[:4]
    assert [(r["optimizer"], r["problem"], r["seed"]) for r in record["runs"]] == [
        (opt, "poisson1d", seed) for seed in (0, 1) for opt in optimizers
    ]
    assert (record["cell"], record["depths"], record["depth"]) == ({}, list(DEPTHS), 1e-5)
    for line, r in zip(runs, record["runs"]):
        # the lines read the first depth; each run goes on to the last
        first = r["crossings"][0]
        assert f": {first['iteration']} iterations, {first['matvecs']} matvecs, " in line
        assert f", {first['seconds']:.3f} s, final H1 {r['h1']:.3e}, 0 of 1 missed" in line
        iterations = [c["iteration"] for c in r["crossings"]]
        assert iterations == sorted(iterations) and iterations[-1] == r["iterations"]
        assert r["h1"] <= min(DEPTHS) and 0.0 < r["heldout_h1"] < 1.0
        assert r["h1_stop"] == 1e-5 and "matvec_budget" not in r
    # exact NGD's lines compare its time with Nystrom-NGD's, run by run and in the medians
    for seed in (0, 1):
        nys, exact = record["runs"][2 * seed: 2 * seed + 2]
        a, b = nys["crossings"][0]["seconds"], exact["crossings"][0]["seconds"]
        assert runs[2 * seed].endswith("0 of 1 missed")
        assert runs[2 * seed + 1].endswith(
            f"; time ratio {b / a:.2f}; nystrom_ngd reaches 1e-03 sooner in {int(a < b)} of 1"
        )
    for opt, block in (("nystrom_ngd", record["runs"][::2]), ("ngd_dense", record["runs"][1::2])):
        # one median line per depth, over each run's crossing of it; none missed
        for i, depth in enumerate(DEPTHS):
            c = [r["crossings"][i] for r in block]
            its, matvecs, seconds = np.median(
                [[x["iteration"], x["matvecs"], x["seconds"]] for x in c], axis=0
            )
            h1 = np.median([r["h1"] for r in block])
            median = (
                f"{opt} poisson1d median at {depth:.0e}: {its:g} iterations, "
                f"{matvecs:g} matvecs, {seconds:.3f} s, final H1 {h1:.3e}, 0 of 2 missed"
            )
            ratio = np.median([
                b["crossings"][i]["seconds"] / a["crossings"][i]["seconds"]
                for a, b in zip(record["runs"][::2], block)
            ])
            sooner = sum(
                a["crossings"][i]["seconds"] < b["crossings"][i]["seconds"]
                for a, b in zip(record["runs"][::2], block)
            )
            if opt == "ngd_dense":
                median += (
                    f"; time ratio {ratio:.2f}; nystrom_ngd reaches {depth:.0e} sooner"
                    f" in {sooner} of 2"
                )
            assert median in lines
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    assert record["src_lines"] == src_lines
    assert record["numpy"] == np.__version__ and record["python"] == platform.python_version()
    assert set(record["blas_threads"]) == set(grid.BLAS_ENV)
    # one optimizer, the default, starts its lines with its name too
    shrink(monkeypatch, grid, "target", seeds=range(1))
    assert grid.main(["target"]) == 0
    *lines, last = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["nystrom_ngd poisson1d seed 0 at 1e-03"] + [
        f"nystrom_ngd poisson1d median at {depth:.0e}" for depth in DEPTHS
    ]
    assert [r["optimizer"] for r in json.loads(last)["runs"]] == ["nystrom_ngd"]
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
        "crossings": [crossing] * crossed + [None] * (3 - crossed), "h1_stop": 1e-5, "loss": 1.0,
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
    shrink(monkeypatch, grid, "target", problems=("poisson1d",), seeds=range(1))
    monkeypatch.setattr(
        grid, "train_record", lambda config, depths, **stop: missed_run(config.optimizer, crossed)
    )
    assert grid.main(["target", optimizer]) == status
    *lines, last = capsys.readouterr().out.splitlines()
    assert json.loads(last)["runs"] == [missed_run(optimizer, crossed)]
    # a depth's median line counts the run as missed from its first missed depth on
    assert [line.endswith(", 1 of 1 missed") for line in lines[1:]] == [
        i >= crossed for i in range(3)
    ]


@pytest.fixture
def parity(monkeypatch):
    """grid.py on a tiny digest grid: gd on poisson1d, seeds 0 and 1, width 4, 2 steps,
    and no wide lines."""
    grid = load_grid()
    for name, value in [("DIGEST_OPTIMIZERS", ("gd",)), ("DIGEST_PROBLEMS", ("poisson1d",)),
                        ("DIGEST_SEEDS", range(2)), ("DIGEST_ITERATIONS", 2), ("DIGEST_WIDTH", 4),
                        ("DIGEST_WIDE_RUNS", ())]:
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


def test_parity_digest_ends_with_the_wide_cells_lines(parity, monkeypatch, capsys):
    # a wide line is digest_run at the wide entry's overrides, and names the cell in its
    # problem field
    shrink(monkeypatch, parity, "wide", overrides=dict(hidden_width=5, n_interior=20, n_boundary=4))
    monkeypatch.setattr(parity, "DIGEST_WIDE_RUNS", (("nystrom_ngd", "poisson1d", 0),))
    monkeypatch.setattr(parity, "DIGEST_WIDE_ITERATIONS", 3)
    assert parity.main(["digest"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [line[:3] for line in lines] == [
        ["gd", "poisson1d", "0"], ["gd", "poisson1d", "1"], ["nystrom_ngd", "poisson1d-w5r24", "0"]
    ]
    assert lines[-1][3:] == list(parity.digest_run(
        "nystrom_ngd", "poisson1d", 0, hidden_width=5, n_interior=20, n_boundary=4, iterations=3
    ))
    assert lines[0][3:] == list(parity.digest_run("gd", "poisson1d", 0))  # 4 wide, 2 steps


def test_parity_digest_has_one_option(capsys):
    # each entry's grid is a row of the table, and target takes only optimizer names: the
    # one option of every mode is --help, and comparing two digest files is cmp's job
    grid = load_grid()
    for mode in ([], *([m] for m in MODES)):
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
    monkeypatch.setattr(grid, "run_cell", lambda cell: modes.append(cell.doc) or 0)
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
    assert {"digest", *(cell.doc for cell in grid.CELLS.values())} <= set(modes)
    assert len(commands) >= 4


@pytest.mark.parametrize("mode", MODES)
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


def strict_json(line):
    """``line`` parsed as strict JSON: a NaN or Infinity token raises."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(line, parse_constant=refuse)


def test_a_nan_source_gives_each_script_its_one_row_run(monkeypatch, capsys):
    # theta0's loss is NaN: the run ends at theta0, no mode raises, and each entry's
    # JSON line writes the NaN loss as null
    monkeypatch.setattr(problems.Poisson2D, "source", lambda self, x: np.full(len(x), np.nan))
    grid = load_grid()
    monkeypatch.setattr(grid, "DIGEST_ITERATIONS", 2)
    monkeypatch.setattr(grid, "DIGEST_WIDTH", 4)
    topology = problems.make_problem("poisson2d", hidden_width=4).topology
    for seed in (0, 1):
        got = grid.digest_run("nystrom_ngd", "poisson2d", seed)
        assert all(len(d) == 64 and int(d, 16) >= 0 for d in got)
        assert got[0] == grid.digests(model.init(topology, [seed, 3]).values, [])[0]  # theta0
    config = grid.ExperimentConfig(problem="poisson2d", **TINY)
    r = grid.train_record(config, DEPTHS, h1_stop=1e-5)
    assert r["crossings"] == [None, None, None]
    assert (r["iterations"], r["matvecs"]) == (0, 0) and np.isnan(r["loss"])
    assert 0.0 < r["h1"] < float("inf") and 0.0 < r["heldout_h1"] < float("inf")
    for mode, cell in grid.CELLS.items():
        shrink(monkeypatch, grid, mode, overrides=TINY, problems=("poisson2d",), seeds=range(1))
        assert grid.main([mode]) == 1  # every h1_stop run misses its depths
        record = strict_json(capsys.readouterr().out.splitlines()[-1])
        assert len(record["runs"]) == len(cell.runs or ["nystrom_ngd"])
        for r in record["runs"]:
            assert (r["iterations"], r["matvecs"], r["loss"]) == (0, 0, None)
            assert r["crossings"] == [None] * len(cell.depths) and 0.0 < r["h1"] < float("inf")


# the committed JSON line of each entry; a tiny run writes every key it has
COMMITTED = {
    "target": ("BENCH_60.json", ["nystrom_ngd", "ngd_dense", "ngd_cg"]),
    "wide": ("BENCH_60_wide.json", []),
}


@pytest.mark.parametrize("mode", COMMITTED)
def test_each_entry_writes_every_key_of_its_committed_line(monkeypatch, capsys, mode):
    # the gates read steps, matvecs and crossings from these keys
    grid = load_grid()
    name, optimizers = COMMITTED[mode]
    shrink(
        monkeypatch, grid, mode, overrides=dict(TINY, iterations=40),
        problems=("poisson1d",), seeds=range(1),
    )
    grid.main([mode, *optimizers])
    written = strict_json(capsys.readouterr().out.splitlines()[-1])
    committed = json.loads((ROOT / name).read_text())
    assert set(committed) <= set(written)
    assert set(committed["blas_threads"]) == set(written["blas_threads"])
    runs = {r["optimizer"]: r for r in written["runs"]}
    for r in committed["runs"]:
        assert set(r) <= set(runs[r["optimizer"]]), r["optimizer"]
    def crossing_keys(line):
        return {frozenset(c) for r in line["runs"] for c in r["crossings"] if c}

    assert crossing_keys(written) == crossing_keys(committed)  # one set, and some crossing


@pytest.fixture
def wide(monkeypatch):
    """grid.py wide on a tiny cell: poisson1d, width 4 (p = 33), 20 + 2 points, seeds 0 and 1."""
    grid = load_grid()
    shrink(
        monkeypatch, grid, "wide", overrides=dict(hidden_width=4, n_interior=20, n_boundary=2),
        problems=("poisson1d",), seeds=range(2),
    )
    return grid


def row(record):
    return {k: v for k, v in asdict(record).items() if k != "seconds"}


def test_wide_runs_each_twin_from_its_nystrom_runs_theta0_at_its_matvecs(
    wide, monkeypatch, capsys
):
    trained = []  # (config, stop, records) of each harness.train call, in order
    train = wide.train

    def recording_train(config, **stop):
        out = train(config, **stop)
        trained.append((config, stop, out[1]))
        return out

    monkeypatch.setattr(wide, "train", recording_train)
    assert wide.main(["wide"]) == 0
    *lines, last = capsys.readouterr().out.splitlines()
    record = json.loads(last)
    cell = wide.CELLS["wide"]
    (depth,) = cell.depths
    assert "left_out" not in record  # every optimizer of the comparison runs at p > rows
    assert (record["cell"], record["depths"], record["depth"]) == (cell.overrides, [depth], depth)
    assert set(record["blas_threads"]) == set(wide.BLAS_ENV)
    runs = record["runs"]  # one record per run, each Nystrom-NGD run before its two twins
    optimizers = ("nystrom_ngd", "ngd_cg", "ngd_dense")
    assert [(r["optimizer"], r["seed"]) for r in runs] == [
        (optimizer, seed) for seed in (0, 1) for optimizer in optimizers
    ]
    assert [(c.optimizer, c.problem, c.seed) for c, _, _ in trained] == [
        (r["optimizer"], r["problem"], r["seed"]) for r in runs
    ]
    rows = cell.overrides["n_interior"] + cell.overrides["n_boundary"]
    for (config, stop, records), (twin_config, twin_stop, twin_records), (
        exact_config, exact_stop, exact_records
    ), nys, cg, exact in zip(
        trained[::3], trained[1::3], trained[2::3], runs[::3], runs[1::3], runs[2::3]
    ):
        assert twin_config == replace(config, optimizer="ngd_cg")
        assert row(twin_records[0]) == row(records[0])  # the same theta0 and quadrature
        # the twin's budget is its Nystrom run's final matvecs; it stops at the first
        # record that reaches it
        assert stop == {"h1_stop": depth} and nys["h1_stop"] == depth
        assert twin_stop == {"matvec_budget": records[-1].matvecs}
        assert cg["matvec_budget"] == nys["matvecs"] == records[-1].matvecs
        assert twin_records[-2].matvecs < nys["matvecs"] <= twin_records[-1].matvecs
        assert cg["matvecs"] == twin_records[-1].matvecs
        assert nys["crossings"][0]["iteration"] == nys["iterations"] == records[-1].iteration
        assert records[-1].h1_rel_error <= depth < records[-2].h1_rel_error
        assert (nys["loss"], cg["loss"]) == (records[-1].loss, twin_records[-1].loss)
        # exact NGD trains from the same theta0 to the same depth, on the row side: p > rows
        assert exact_config == replace(config, optimizer="ngd_dense")
        assert row(exact_records[0]) == row(records[0])
        assert exact_stop == {"h1_stop": depth} and exact["h1_stop"] == depth
        assert exact_records[-1].h1_rel_error <= depth < exact_records[-2].h1_rel_error
        assert [r.matvecs for r in exact_records] == [rows * k for k in range(len(exact_records))]
        assert exact["crossings"][0]["iteration"] == exact["iterations"]
    assert [line.split(":")[0] for line in lines] == [
        f"{optimizer} poisson1d seed {seed} at 1e-04" for seed in (0, 1) for optimizer in optimizers
    ] + [f"{optimizer} poisson1d median at 1e-04" for optimizer in optimizers]
    # a budget run need reach nothing: the mode exits 0 with a twin that misses the depth
    assert any(cg["crossings"] == [None] for cg in runs[1::3])
    seconds = [wide.at_depth(r, 0)[2] for r in runs]  # to the depth, or to the last row
    for k, (nys, cg, exact) in enumerate(zip(runs[::3], runs[1::3], runs[2::3])):
        a, b, c = seconds[3 * k: 3 * k + 3]
        assert lines[3 * k + 1].endswith(
            f"final H1 {cg['h1']:.3e}, {int(cg['crossings'] == [None])} of 1 missed; "
            f"time ratio {b / a:.2f}; nystrom_ngd ends at the lower loss in "
            f"{int(nys['loss'] < cg['loss'])} of 1"
        )
        assert lines[3 * k + 2].endswith(
            f"; time ratio {c / a:.2f}; nystrom_ngd reaches 1e-04 sooner in {int(a < c)} of 1"
        )
    wins = sum(a["loss"] < b["loss"] for a, b in zip(runs[::3], runs[1::3]))
    sooner = sum(a < c for a, c in zip(seconds[::3], seconds[2::3]))
    assert lines[-2].endswith(f"; nystrom_ngd ends at the lower loss in {wins} of 2")
    assert lines[-1].endswith(f"; nystrom_ngd reaches 1e-04 sooner in {sooner} of 2")
    # an exact NGD run that misses the depth fails the mode, after every run
    def exact_misses(config, **stop):
        theta, records, heldout = train(config, **stop)
        return theta, records[:1] if config.optimizer == "ngd_dense" else records, heldout

    monkeypatch.setattr(wide, "train", exact_misses)
    assert wide.main(["wide"]) == 1
    assert len(json.loads(capsys.readouterr().out.splitlines()[-1])["runs"]) == 6
    # and so does a Nystrom-NGD run that misses it
    shrink(monkeypatch, wide, "wide", overrides=dict(cell.overrides, iterations=2), depths=(1e-30,))
    assert wide.main(["wide"]) == 1
    assert len(json.loads(capsys.readouterr().out.splitlines()[-1])["runs"]) == 6
