"""Smoke tests: each script in scripts/ answers --help and runs on a tiny setting."""

import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nystromngd import model, problems

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", sorted((ROOT / "scripts").glob("*.py")), ids=lambda p: p.name)
def test_script_answers_help(script):
    # a script broken by a rename in src/ fails here
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(script), "--help"], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage:")


def load_to_target():
    # imported, the script leaves the BLAS thread settings alone
    spec = importlib.util.spec_from_file_location("to_target", ROOT / "scripts" / "to_target.py")
    to_target = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(to_target)
    return to_target


TINY = dict(hidden_width=4, n_interior=20, n_boundary=2, iterations=2)


def test_to_target_run_reports_its_last_record():
    r = load_to_target().run("poisson1d", 0, **TINY)
    assert r["iterations"] == 2 and r["matvecs"] > 0 and r["seconds"] > 0  # no early stop
    assert r["crossings"] == [None, None, None]  # no depth reached
    assert 1e-3 < r["h1"] < float("inf") and 0.0 < r["heldout_h1"] < float("inf")
    assert r["heldout_h1"] != r["h1"]  # measured on other points


def test_to_target_runs_the_named_optimizer():
    # ngd_dense forms G with p matvecs per step, plus one for its damping's lam1
    to_target = load_to_target()
    prob = problems.make_problem("poisson1d", hidden_width=4, hidden_depth=2)
    p = model.init(prob.topology, 0).values.size
    r = to_target.run("poisson1d", 0, optimizer="ngd_dense", **TINY)
    assert (r["iterations"], r["matvecs"]) == (2, 2 * (p + 1))
    assert 1e-3 < r["h1"] < float("inf")


def test_to_target_crossing_is_the_run_stopped_at_its_depth(monkeypatch):
    # one run to the deepest depth gives, per depth it crosses, the last
    # record of the same seed stopped there: the runs agree up to that row
    to_target = load_to_target()
    small = dict(hidden_width=8, n_interior=30, n_boundary=2, iterations=26)
    depths = to_target.DEPTHS
    deep = to_target.run("poisson1d", 0, **small)
    *crossed, deepest = deep["crossings"]
    assert deepest is None and deep["iterations"] == 26  # 1e-5 is not reached
    assert 0 < crossed[0]["iteration"] < crossed[1]["iteration"]
    assert 0 < crossed[0]["seconds"] < crossed[1]["seconds"] <= deep["seconds"]
    for depth, crossing in zip(depths, crossed):
        monkeypatch.setattr(to_target, "DEPTHS", (depth,))
        stopped = to_target.run("poisson1d", 0, **small)
        assert stopped["h1"] <= depth
        assert (crossing["iteration"], crossing["matvecs"]) == (
            stopped["iterations"], stopped["matvecs"]
        )


def test_to_target_main_reports_every_named_optimizer(monkeypatch, capsys):
    to_target = load_to_target()
    monkeypatch.setattr(to_target, "PROBLEMS", ("poisson1d",))
    monkeypatch.setattr(to_target, "SEEDS", range(2))
    assert to_target.main(["nystrom_ngd", "ngd_dense"]) == 0
    *lines, last = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        f"{opt} poisson1d {what}"
        for opt in ("nystrom_ngd", "ngd_dense")
        for what in ("seed 0", "seed 1", "median")
    ]
    assert all("missed" not in line for line in lines)
    # the last line is the JSON record of every run, in the order printed
    record = json.loads(last)
    runs = [line for line in lines if "median" not in line]
    assert [(r["optimizer"], r["problem"], r["seed"]) for r in record["runs"]] == [
        (opt, "poisson1d", seed) for opt in ("nystrom_ngd", "ngd_dense") for seed in (0, 1)
    ]
    assert record["depths"] == list(to_target.DEPTHS)
    for line, r in zip(runs, record["runs"]):
        # the lines read the first depth; each run goes on to the last
        first = r["crossings"][0]
        assert line.endswith(
            f": {first['iteration']} iterations, {first['matvecs']} matvecs, "
            f"{first['seconds']:.3f} s"
        )
        iterations = [c["iteration"] for c in r["crossings"]]
        assert iterations == sorted(iterations) and iterations[-1] == r["iterations"]
        assert r["h1"] <= min(to_target.DEPTHS) and 0.0 < r["heldout_h1"] < 1.0
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    assert record["src_lines"] == src_lines
    assert record["numpy"] == np.__version__ and record["python"] == platform.python_version()
    assert set(record["blas_threads"]) == set(to_target.BLAS_ENV)
    # one optimizer, the default, prints its lines unlabelled
    monkeypatch.setattr(to_target, "SEEDS", range(1))
    assert to_target.main([]) == 0
    *lines, last = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["poisson1d seed 0", "poisson1d median"]
    assert len(json.loads(last)["runs"]) == 1
    with pytest.raises(SystemExit) as exit_info:
        to_target.main(["nystrom_ngd", "newton"])
    assert exit_info.value.code == 2  # before any run
    assert capsys.readouterr().out == ""


def test_parity_digest_is_deterministic():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    args = ["--optimizers", "nystrom_ngd", "gd", "--problems", "poisson1d",
            "--seeds", "2", "--iterations", "2", "--width", "4"]
    outputs = [
        subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "parity_digest.py"), *args],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        ).stdout
        for _ in range(2)
    ]
    assert outputs[0] == outputs[1]
    lines = [line.split() for line in outputs[0].splitlines()]
    assert [line[:3] for line in lines] == [
        [opt, "poisson1d", seed] for opt in ("nystrom_ngd", "gd") for seed in ("0", "1")
    ]
    assert all(len(line) == 5 for line in lines)  # theta and records digests
    digests = [d for line in lines for d in line[3:]]
    assert all(len(d) == 64 and int(d, 16) >= 0 for d in digests)
    assert len(set(digests)) == 8


def parity_digest(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "parity_digest.py"),
         "--optimizers", "gd", "--problems", "poisson1d", "--seeds", "2",
         "--iterations", "2", "--width", "4", *args],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def saved_digests(tmp_path_factory):
    path = tmp_path_factory.mktemp("parity") / "saved.txt"
    path.write_text(parity_digest().stdout)
    return path


def test_parity_digest_against_its_own_output_passes(saved_digests):
    result = parity_digest("--against", str(saved_digests))
    assert result.returncode == 0, result.stderr
    assert result.stdout == saved_digests.read_text()
    assert "0 run(s) differ" in result.stderr
    assert result.stderr.rstrip().endswith("; compared 2 of 2 saved runs")


def test_parity_digest_against_reports_the_saved_runs_it_did_not_rerun(saved_digests):
    # one seed re-run against a two-seed file: nothing differs, half compared
    result = parity_digest("--seeds", "1", "--against", str(saved_digests))
    assert result.returncode == 0, result.stderr
    assert result.stdout == saved_digests.read_text().splitlines(keepends=True)[0]
    assert result.stderr.rstrip().endswith("; compared 1 of 2 saved runs")


@pytest.mark.parametrize("column", ["theta", "records"])
def test_parity_digest_against_an_altered_digest_fails(saved_digests, tmp_path, column):
    # --against names which of the two digests differs
    lines = [line.split() for line in saved_digests.read_text().splitlines()]
    assert len(lines) == 2
    lines[1][3 if column == "theta" else 4] = "0" * 64
    altered = tmp_path / "altered.txt"
    altered.write_text("".join(" ".join(line) + "\n" for line in lines))
    result = parity_digest("--against", str(altered))
    assert result.returncode == 1
    assert f"differs in {column}: gd poisson1d 1" in result.stderr
    assert "poisson1d 0" not in result.stderr
    counts = {"theta": 0, "records": 0, column: 1}
    summary = f"({counts['theta']} in theta, {counts['records']} in records)"
    assert (
        f"1 run(s) differ from or are missing in {altered} {summary}; compared 2 of 2 saved runs"
        in result.stderr
    )
