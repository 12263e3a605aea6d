import copy
import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from nystromngd import harness, model, optim, problems
from nystromngd.cli import build_parser, main as cli_main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def readme_config_keys():
    """The backticked names in the first column of the README's schema table."""
    section = README.split("## Config schema", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    return {key for row in rows for key in re.findall(r"`(\w+)`", row.split("|")[1])}


def small_config_text(**overrides):
    base = {
        "problem": "poisson1d",
        "optimizer": "nystrom_ngd",
        "hidden_width": 5,
        "hidden_depth": 1,
        "n_interior": 20,
        "n_boundary": 2,
        "iterations": 3,
        "repetitions": 1,
        "seed": 0,
        "ell0": 4,
        "ell_max": 8,
    }
    base.update(overrides)
    return "\n".join(f"{k} = {v}" for k, v in base.items())


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestParseConfig:
    def test_roundtrip_values(self):
        cfg = harness.parse_config(small_config_text(ell0=6))
        assert cfg.problem == "poisson1d"
        assert cfg.hidden_width == 5
        assert cfg.ell0 == 6

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\nproblem = poisson2d  # trailing\n"
        assert harness.parse_config(text).problem == "poisson2d"

    @pytest.mark.parametrize("key", ["gamma", "kappa", "rank_ratio", "cg_maxit"])
    def test_tuned_rules_are_not_config_keys(self, key):
        # optim.GAMMA, CG_TOL_CAP, RANK_RATIO and CG_MAXIT are module constants
        with pytest.raises(ValueError, match=f"line 2: unknown config key '{key}'"):
            harness.parse_config(f"seed = 1\n{key} = 1")

    def test_quad_seed_is_not_a_config_key(self):
        # set_up draws the quadrature from the run's own seed
        with pytest.raises(ValueError, match="line 1: unknown config key 'quad_seed'"):
            harness.parse_config("quad_seed = 0")

    @pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.cfg")), ids=lambda p: p.name)
    def test_shipped_configs_parse(self, path):
        harness.parse_config(path.read_text())  # raises on an unknown key or a bad value

    @pytest.mark.parametrize(
        ("text", "where"),
        [
            ("seed = 1\nell0 = p", "line 2: .*'ell0'"),
            ("iterations = 2.5", "line 1: .*'iterations'"),
        ],
    )
    def test_unconvertible_value_names_line_and_key(self, text, where):
        with pytest.raises(ValueError, match=where) as info:
            harness.parse_config(text)
        assert isinstance(info.value.__cause__, ValueError)  # the conversion error

    def test_unknown_key_raises(self):
        with pytest.raises(ValueError, match="unknown config key"):
            harness.parse_config("not_a_key = 1")

    def test_duplicate_key_raises(self):
        with pytest.raises(ValueError, match="duplicate"):
            harness.parse_config("seed = 1\nseed = 2")

    def test_unknown_problem_raises(self):
        with pytest.raises(ValueError, match="unknown problem"):
            harness.parse_config("problem = stokes")

    @pytest.mark.parametrize(
        "text",
        [
            "ell0 = 20\nell_max = 10",
            "n_interior = 0",
            "n_interior = -5",
            "n_boundary = 0",
            "hidden_width = 0",
            "hidden_depth = -1",
            "seed = -1",
            "repetitions = 0",
            "iterations = -1",
        ],
    )
    def test_invalid_optimizer_values_raise_at_parse_time(self, text):
        with pytest.raises(ValueError):
            harness.parse_config(text)

    @pytest.mark.parametrize(
        "optimizer, width, p, wider_p, guard",
        [("bfgs", 68, 4965, 5107, 5000)],
    )
    def test_dense_optimizer_guards_are_checked_on_the_config(
        self, optimizer, width, p, wider_p, guard
    ):
        # p follows from the problem and the hidden shape: the widest net under
        # the optimizer's guard parses, one unit wider raises
        config = harness.ExperimentConfig(optimizer=optimizer, hidden_width=width)
        assert harness.set_up(config)[0].topology.param_count == p
        with pytest.raises(ValueError, match=f"{optimizer} guard: p={wider_p} exceeds {guard}"):
            replace(config, hidden_width=width + 1)

    def test_key_set_is_the_documented_schema(self):
        keys = {f.name for f in fields(harness.ExperimentConfig)}
        assert keys == readme_config_keys()
        with pytest.raises(ValueError, match="unknown config key"):
            harness.parse_config("ls_shrink = 0.5")

    def test_csv_columns_are_the_documented_columns(self):
        documented = re.search(r"column order\s+`([^`]+)`", README).group(1)
        assert ",".join(harness.CSV_COLUMNS) == documented
        # criterion 12 compares each row without its last column
        assert harness.CSV_COLUMNS[-1] == "seconds"


class TestRunExperiment:
    def test_zero_budget_single_row(self, tmp_path):
        cfg = harness.parse_config(small_config_text(iterations=0))
        harness.run_experiment(cfg, out_dir=tmp_path)
        rows = read_csv(tmp_path / "run_0.csv")
        assert rows[0] == list(harness.CSV_COLUMNS)
        assert len(rows) == 2  # header + the initial state

    def test_zero_budget_row_is_row_0_of_a_longer_run(self, tmp_path):
        # row 0 describes theta0 whatever the budget
        for n in (0, 3):
            cfg = harness.parse_config(small_config_text(iterations=n))
            harness.run_experiment(cfg, out_dir=tmp_path / str(n))
        zero = read_csv(tmp_path / "0" / "run_0.csv")
        three = read_csv(tmp_path / "3" / "run_0.csv")
        assert len(zero) == 2 and len(three) == 5  # header + n + 1 rows
        assert zero[1][:-1] == three[1][:-1]  # all but the seconds

    def test_determinism_modulo_wallclock(self, tmp_path):
        cfg = harness.parse_config(small_config_text())
        harness.run_experiment(cfg, out_dir=tmp_path / "a")
        harness.run_experiment(cfg, out_dir=tmp_path / "b")
        rows_a = read_csv(tmp_path / "a" / "run_0.csv")
        rows_b = read_csv(tmp_path / "b" / "run_0.csv")
        drop_seconds = lambda rows: [r[:-1] for r in rows]
        assert drop_seconds(rows_a) == drop_seconds(rows_b)

    @pytest.mark.parametrize("rep", [0, 1])
    @pytest.mark.parametrize("name", ["nystrom_ngd", "gd"])
    def test_csv_round_trips_the_records_bitwise(self, tmp_path, name, rep):
        # repetition r trains on the quadrature and theta0 of seed + r
        cfg = harness.parse_config(small_config_text(optimizer=name, seed=3, repetitions=2))
        harness.run_experiment(cfg, out_dir=tmp_path)
        _, records, _ = harness.train(replace(cfg, seed=cfg.seed + rep))
        header, *rows = read_csv(tmp_path / f"run_{cfg.seed + rep}.csv")
        assert len(rows) == len(records) == cfg.iterations + 1
        kinds = {f.name: f.type for f in fields(optim.RunRecord)}
        for row, rec in zip(rows, records):
            for column, cell in zip(header[:-1], row):  # all but the seconds
                value = getattr(rec, column)
                if kinds[column] == "int":
                    assert cell.isdigit() and isinstance(value, int), column
                    assert int(cell) == value, column
                else:
                    assert float(cell).hex() == value.hex(), column

    def test_summary_fields(self, tmp_path):
        cfg = harness.parse_config(small_config_text(repetitions=2))
        summary = harness.run_experiment(cfg, out_dir=tmp_path)
        with open(tmp_path / "summary.json") as fh:
            on_disk = json.load(fh)
        assert set(on_disk) == {
            "problem", "optimizer", "median_final_error", "median_heldout_error",
            "q25", "q75", "median_seconds", "nonfinite",
        }
        assert on_disk == summary
        assert summary["nonfinite"] == 0
        heldout = [harness.train(replace(cfg, seed=seed))[2] for seed in (0, 1)]
        assert summary["median_heldout_error"] == float(np.median(heldout))
        assert (tmp_path / "run_0.csv").exists()
        assert (tmp_path / "run_1.csv").exists()

    def test_empty_out_dir_raises_and_writes_nothing(self, tmp_path, monkeypatch):
        # Path("") is the working directory: the given out_dir is checked like the config's
        monkeypatch.chdir(tmp_path)
        cfg = harness.parse_config(small_config_text())
        with pytest.raises(ValueError, match="out_dir must not be empty"):
            harness.run_experiment(cfg, out_dir="")
        assert list(tmp_path.iterdir()) == []

    def test_all_optimizers_run(self, tmp_path):
        for name in ("ngd_cg", "ngd_dense", "gd", "bfgs"):
            cfg = harness.parse_config(small_config_text(optimizer=name, iterations=2))
            summary = harness.run_experiment(cfg, out_dir=tmp_path / name)
            assert np.isfinite(summary["median_final_error"])


def record_bits(records):
    """Every field but the seconds, floats as their exact hex."""
    return [
        [v.hex() if isinstance(v, float) else v for k, v in asdict(rec).items() if k != "seconds"]
        for rec in records
    ]


class TestNanSource:
    """The injected fault: a NaN source term, so theta0 of every poisson2d run has a NaN loss."""

    @pytest.fixture(autouse=True)
    def fault(self, monkeypatch):
        monkeypatch.setattr(problems.Poisson2D, "source", lambda self, x: np.full(len(x), np.nan))

    def config_text(self, **overrides):
        return small_config_text(problem="poisson2d", repetitions=2, seed=3, **overrides)

    def check_loss(self, cell):
        assert cell == "nan"

    def check_traces(self, out):
        for seed in (3, 4):  # each run ends at theta0's row, which records theta0's loss
            header, *rows = read_csv(out / f"run_{seed}.csv")
            (row,) = rows
            cells = dict(zip(header, row))
            assert (cells["iteration"], cells["matvecs"]) == ("0", "0")
            self.check_loss(cells["loss"])
            assert 0.0 < float(cells["h1_rel_error"]) < float("inf")

    def test_run_experiment_writes_each_trace_and_counts_the_runs(self, tmp_path):
        summary = harness.run_experiment(harness.parse_config(self.config_text()), tmp_path)
        self.check_traces(tmp_path)
        assert summary["nonfinite"] == 2

    def test_cli_run_writes_the_traces_then_exits_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(self.config_text(out_dir=tmp_path / "out"))
        assert cli_main(["run", str(cfg_path)]) == 1
        self.check_traces(tmp_path / "out")
        with open(tmp_path / "out" / "summary.json") as fh:
            assert json.load(fh)["nonfinite"] == 2
        assert json.loads(capsys.readouterr().out)["nonfinite"] == 2


class TestTheta0LossSquareOverflows(TestNanSource):
    """The injected fault: theta0[-1] = 1e78, the output bias, so theta0's loss is finite
    (about 1e156) but its square is not: the loop's row-0 stop, counted as nonfinite."""

    @pytest.fixture(autouse=True)
    def fault(self, monkeypatch):
        init = model.init

        def overflowing_init(topology, seed):
            params = init(topology, seed)
            params.values[-1] = 1e78
            return params

        monkeypatch.setattr(model, "init", overflowing_init)

    def check_loss(self, cell):
        assert 1e154 < float(cell) < float("inf")


class TestTrain:
    @pytest.mark.parametrize("name", ["nystrom_ngd", "gd"])
    def test_is_set_up_then_run_optimizer_then_heldout_h1_bitwise(self, name):
        cfg = harness.parse_config(small_config_text(optimizer=name, seed=3))
        theta, records, heldout_h1 = harness.train(cfg)
        prob, quad, theta0 = harness.set_up(cfg)
        want_theta, want_records = optim.run_optimizer(
            name, prob, theta0, cfg, quad, quad_eval=quad
        )
        want_heldout = prob.h1_relative_error(want_theta, harness.heldout_quadrature(prob, 3))
        assert theta.tobytes() == want_theta.tobytes()
        assert record_bits(records) == record_bits(want_records)
        assert len(records) == cfg.iterations + 1
        assert heldout_h1.hex() == want_heldout.hex()

    def test_h1_stop_ends_the_run_at_its_first_record_at_or_below_it(self):
        cfg = harness.parse_config(small_config_text(iterations=12))
        _, full, _ = harness.train(cfg)
        h1 = [r.h1_rel_error for r in full]
        stop = h1[len(h1) // 2]
        k = next(k for k, e in enumerate(h1) if e <= stop)
        assert 0 < k < len(full) - 1  # the stop ends the run early, after row 0
        _, stopped, _ = harness.train(cfg, h1_stop=stop)
        assert record_bits(stopped) == record_bits(full[: k + 1])

    def test_matvec_budget_is_run_optimizers_stop(self):
        # the run ends at its first record with at least the budget's matvecs
        cfg = harness.parse_config(small_config_text(iterations=12))
        _, full, _ = harness.train(cfg)
        k = len(full) // 2
        budget = full[k].matvecs - 1
        assert full[k - 1].matvecs < budget
        theta, stopped, _ = harness.train(cfg, matvec_budget=budget)
        prob, quad, theta0 = harness.set_up(cfg)
        want_theta, want_records = optim.run_optimizer(
            "nystrom_ngd", prob, theta0, cfg, quad, quad_eval=quad, matvec_budget=budget
        )
        assert theta.tobytes() == want_theta.tobytes()
        assert record_bits(stopped) == record_bits(want_records) == record_bits(full[: k + 1])


def quadrature_arrays(quad):
    return [getattr(quad, f.name) for f in fields(quad) if getattr(quad, f.name) is not None]


class TestSetUp:
    @pytest.mark.parametrize("name", problems.PROBLEM_NAMES)
    def test_draws_quadrature_and_theta0_from_the_seed(self, name):
        cfg = harness.ExperimentConfig(problem=name, hidden_width=3, hidden_depth=1, seed=5)
        prob, quad, theta0 = harness.set_up(cfg)
        assert prob.topology.widths == (prob.input_dim, 3, 1)
        # the quadrature is the seed's stream 2 and theta0 its stream 3
        expected = prob.sample_quadrature(cfg.n_interior, cfg.n_boundary, seed=[5, 2])
        for got, want in zip(quadrature_arrays(quad), quadrature_arrays(expected), strict=True):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(theta0, model.init(prob.topology, [5, 3]).values)

    def test_theta0_is_uncorrelated_with_the_quadrature(self):
        # drawn from one stream, |first-layer weights| correlated 0.62 with
        # frac(8x) of the interior coordinates, pooled over seeds 0-199
        weights, coords = [], []
        for seed in range(200):
            prob, quad, theta0 = harness.set_up(harness.ExperimentConfig(seed=seed))
            first_layer = prob.topology.layer_slices()[0][0]
            weights.append(np.abs(theta0[first_layer][:32]))
            coords.append(np.modf(8 * quad.interior_points.ravel()[:32])[0])
        assert abs(np.corrcoef(np.concatenate(weights), np.concatenate(coords))[0, 1]) < 0.1

    def test_a_run_draws_from_four_streams_that_start_apart(self, monkeypatch):
        # train builds one Generator per stream (held-out points, quadrature,
        # theta0, sketch); their first 64-bit draws differ
        first_draws = {}  # id -> (Generator, its first draw), the Generator kept alive
        default_rng = np.random.default_rng

        def spy(seed=None):
            rng = default_rng(seed)
            first_draws.setdefault(id(rng), (rng, copy.deepcopy(rng.bit_generator).random_raw()))
            return rng

        monkeypatch.setattr(np.random, "default_rng", spy)
        for seed in range(10):
            first_draws.clear()
            harness.train(harness.ExperimentConfig(
                hidden_width=3, n_interior=20, n_boundary=8, iterations=1, seed=seed
            ))
            draws = [draw for _, draw in first_draws.values()]
            assert len(draws) == len(set(draws)) == 4, seed

    def test_defaults_are_the_criterion_10_setup(self):
        prob, quad, theta0 = harness.set_up(harness.ExperimentConfig())
        assert prob.name == "poisson2d" and theta0.size == 337  # 16x2 tanh MLP
        assert (len(quad.interior_points), len(quad.boundary_points)) == (400, 160)

    @pytest.mark.parametrize("name", problems.PROBLEM_NAMES)
    def test_heldout_points_are_seed_stream_one_and_not_the_training_points(self, name):
        cfg = harness.ExperimentConfig(problem=name, hidden_width=3, seed=2)
        prob, quad, _ = harness.set_up(cfg)
        heldout = harness.heldout_quadrature(prob, 2)
        expected = prob.sample_quadrature(1600, 400, seed=[2, 1])
        for got, want in zip(quadrature_arrays(heldout), quadrature_arrays(expected), strict=True):
            np.testing.assert_array_equal(got, want)
        assert len(heldout.interior_points) == 1600
        assert not np.isin(heldout.interior_points, quad.interior_points).any()


class TestReadme:
    def test_python_example_runs(self, capsys):
        # the README's one python block, run as written against the current API
        (example,) = re.findall(r"```python\n(.*?)```", README, re.S)
        exec(compile(example, "README.md", "exec"), {})
        iteration, h1, heldout_h1 = capsys.readouterr().out.split()
        assert int(iteration) > 0 and float(h1) <= 1e-3 and 0.0 < float(heldout_h1) < 1e-2

    def test_command_lines_parse(self):
        # each command line the README shows, in a fenced block or inline, is one the CLI takes
        fenced = re.findall(r"```\w*\n(.*?)```", README, re.S)
        prose = re.sub(r"```\w*\n.*?```", "", README, flags=re.S)
        lines = [line for block in fenced for line in block.splitlines()]
        commands = [c for c in lines if c.startswith("nystromngd ")]
        commands += re.findall(r"`(nystromngd [^`]*)`", prose)
        assert "nystromngd run configs/poisson2d_nystrom.cfg" in commands and len(commands) >= 2
        for command in commands:
            assert build_parser().parse_args(command.split()[1:]).command == "run", command


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(small_config_text(iterations=2, out_dir=tmp_path / "out"))
        assert cli_main(["run", str(cfg_path)]) == 0
        assert (tmp_path / "out" / "summary.json").exists()
        assert "median_final_error" in capsys.readouterr().out

    def test_module_entry_point_runs(self, tmp_path):
        # python -m nystromngd.cli, the package's command line, in its own process
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(small_config_text(iterations=2, out_dir=tmp_path / "out"))
        blas = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
        result = subprocess.run(
            [sys.executable, "-m", "nystromngd.cli", "run", str(cfg_path)],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), **blas),
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        with open(tmp_path / "out" / "summary.json") as fh:
            assert json.load(fh) == json.loads(result.stdout)

    def test_spectrum_is_not_a_command(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        out = tmp_path / "out"
        cfg_path.write_text(small_config_text(out_dir=out))
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["spectrum", str(cfg_path)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "invalid choice: 'spectrum'" in err
        assert not out.exists()

    @pytest.mark.parametrize("option", [["--seed", "3"], ["--out", "d"]], ids=["seed", "out"])
    def test_option_is_not_an_argument(self, tmp_path, capsys, monkeypatch, option):
        # the config file alone says what runs
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(small_config_text(out_dir=tmp_path / "out"))
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["run", str(cfg_path), *option])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "unrecognized arguments: " + " ".join(option) in err
        assert list(tmp_path.iterdir()) == [cfg_path]

    @pytest.mark.parametrize(
        "keys, message",
        [
            (None, "[Errno 2] No such file or directory"),
            ({"bogus": 1}, "line 12: unknown config key 'bogus'\n"),
            ({"iterations": -1}, "iterations must be >= 0\n"),
            (
                {"optimizer": "newton"},
                f"unknown optimizer 'newton'; available: {optim.OPTIMIZER_NAMES}\n",
            ),
            ({"seed": -1}, "seed must be >= 0\n"),
            (
                {"problem": "stokes3d"},
                f"unknown problem 'stokes3d'; available: {problems.PROBLEM_NAMES}\n",
            ),
        ],
        ids=["missing", "unknown-key", "negative-count", "bad-value", "seed-neg", "bad-problem"],
    )
    def test_bad_config_file_fails_like_a_bad_argument(self, tmp_path, capsys, keys, message):
        cfg_path = tmp_path / "exp.cfg"
        out = tmp_path / "out"
        if keys is not None:
            cfg_path.write_text(small_config_text(**keys, out_dir=out))
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["run", str(cfg_path)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and f"error: {cfg_path}: {message}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "optimizer, width, message",
        [("bfgs", 72, "bfgs guard: p=5545 exceeds 5000")],
        ids=["bfgs"],
    )
    def test_config_past_a_size_guard_fails_like_a_bad_argument(
        self, tmp_path, capsys, optimizer, width, message
    ):
        # p follows from the config, so a run past a guard fails at parsing:
        # exit 1 is the status of a run whose theta0 loss is not finite
        cfg_path = tmp_path / "exp.cfg"
        out = tmp_path / "out"
        cfg_path.write_text(
            small_config_text(
                problem="poisson2d", optimizer=optimizer, hidden_width=width, hidden_depth=2,
                out_dir=out,
            )
        )
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["run", str(cfg_path)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and f"error: {cfg_path}: {message}\n" in err
        assert not out.exists()

    def test_output_path_that_is_a_file_fails_like_a_bad_argument(self, tmp_path, capsys):
        # not exit 1, the status of a run whose theta0 loss is not finite
        cfg_path = tmp_path / "exp.cfg"
        out = tmp_path / "afile"
        out.write_text("kept")
        cfg_path.write_text(small_config_text(out_dir=out))
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["run", str(cfg_path)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and f"error: {cfg_path}: " in err and "File exists" in err
        assert out.read_text() == "kept" and sorted(tmp_path.iterdir()) == [out, cfg_path]

    def test_empty_output_directory_fails_like_a_bad_argument(
        self, tmp_path, capsys, monkeypatch
    ):
        # Path("") is the working directory, where the outputs would land
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(small_config_text() + "\nout_dir =")
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["run", str(cfg_path)])
        assert exit_info.value.code == 2
        assert f"error: {cfg_path}: out_dir must not be empty\n" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg_path]
