import csv
import json
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from nystromngd import harness, model, optim, problems
from nystromngd.cli import main as cli_main

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
        harness.load_config(path)  # raises on an unknown key or a bad value

    @pytest.mark.parametrize(
        ("text", "where"),
        [("seed = 1\nell0 = p", "line 2: .*'ell0'"), ("iterations = 2.5", "line 1: .*'iterations'")],
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
        run = replace(cfg, seed=cfg.seed + rep)
        prob, quad, theta0 = harness.set_up(run)
        _, records = optim.run_optimizer(name, prob, theta0, run, quad, quad_eval=quad)
        header, *rows = read_csv(tmp_path / f"run_{run.seed}.csv")
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
            "q25", "q75", "median_seconds",
        }
        assert on_disk == summary
        heldout = []
        for seed in (0, 1):
            run = replace(cfg, seed=seed)
            prob, quad, theta0 = harness.set_up(run)
            theta, _ = optim.run_optimizer(run.optimizer, prob, theta0, run, quad)
            heldout.append(prob.h1_relative_error(theta, harness.heldout_quadrature(prob, seed)))
        assert summary["median_heldout_error"] == float(np.median(heldout))
        assert (tmp_path / "run_0.csv").exists()
        assert (tmp_path / "run_1.csv").exists()

    def test_all_optimizers_run(self, tmp_path):
        for name in ("ngd_cg", "ngd_dense", "gd", "bfgs"):
            cfg = harness.parse_config(small_config_text(optimizer=name, iterations=2))
            summary = harness.run_experiment(cfg, out_dir=tmp_path / name)
            assert np.isfinite(summary["median_final_error"])


def quadrature_arrays(quad):
    return [getattr(quad, f.name) for f in fields(quad) if getattr(quad, f.name) is not None]


class TestSetUp:
    @pytest.mark.parametrize("name", problems.PROBLEM_NAMES)
    def test_draws_quadrature_and_theta0_from_the_seed(self, name):
        cfg = harness.ExperimentConfig(problem=name, hidden_width=3, hidden_depth=1, seed=5)
        prob, quad, theta0 = harness.set_up(cfg)
        assert prob.topology.widths == (prob.input_dim, 3, 1)
        expected = prob.sample_quadrature(cfg.n_interior, cfg.n_boundary, seed=5)
        for got, want in zip(quadrature_arrays(quad), quadrature_arrays(expected), strict=True):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(theta0, model.init(prob.topology, 5).values)

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


class TestSpectrum:
    def test_identity_all_ones(self):
        np.testing.assert_array_equal(harness.normalized_spectrum(np.eye(6)), np.ones(6))

    def test_orthogonal_features_hand_ratios(self):
        # linear model with two orthonormal features and weights (1, 1/4):
        # G = diag(1, 1/4), normalized spectrum (1, 0.25)
        phi = np.eye(2)
        w = np.array([1.0, 0.25])
        g = phi.T @ (w[:, None] * phi)
        np.testing.assert_allclose(harness.normalized_spectrum(g), [1.0, 0.25], rtol=1e-15)

    @pytest.mark.parametrize("top", [0, -3])
    def test_top_below_one_raises(self, top):
        with pytest.raises(ValueError, match=f"top must be >= 1, got {top}"):
            harness.normalized_spectrum(np.eye(6), top=top)

    def test_values_in_unit_interval_descending(self, tmp_path):
        cfg = harness.parse_config(small_config_text())
        ratios = harness.dump_spectrum(cfg, out_dir=tmp_path, top=10)
        assert ratios[0] == 1.0
        assert np.all(ratios > 0)
        assert np.all(ratios <= 1.0)
        assert np.all(np.diff(ratios) <= 0)
        on_disk = np.loadtxt(tmp_path / "spectrum.txt")
        np.testing.assert_array_equal(on_disk, ratios)


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(small_config_text(iterations=2))
        assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "summary.json").exists()
        assert "median_final_error" in capsys.readouterr().out

    def test_seed_override(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(small_config_text(iterations=1))
        cli_main(["run", str(cfg_path), "--out", str(tmp_path / "o1"), "--seed", "7"])
        assert (tmp_path / "o1" / "run_7.csv").exists()

    def test_spectrum_subcommand(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(small_config_text())
        assert cli_main(
            ["spectrum", str(cfg_path), "--top", "5", "--out", str(tmp_path / "sp")]
        ) == 0
        vals = np.loadtxt(tmp_path / "sp" / "spectrum.txt")
        assert vals.shape == (5,)

    @pytest.mark.parametrize(
        "command, option, value, low",
        [
            ("spectrum", "--top", "0", 1),
            ("spectrum", "--top", "-3", 1),
            ("run", "--seed", "-1", 0),
            ("spectrum", "--seed", "-1", 0),
        ],
    )
    def test_int_option_below_its_bound_fails_at_parsing(
        self, tmp_path, capsys, command, option, value, low
    ):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(small_config_text())
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            cli_main([command, str(cfg_path), option, value, "--out", str(out)])
        assert exit_info.value.code == 2
        assert f"argument {option}: must be >= {low}, got {value}" in capsys.readouterr().err
        assert not out.exists()
