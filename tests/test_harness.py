import csv
import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from nystromngd import harness, model, optim, problems
from nystromngd.cli import main as cli_main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


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
        cfg = harness.parse_config(small_config_text(kappa=0.2))
        assert cfg.problem == "poisson1d"
        assert cfg.hidden_width == 5
        assert cfg.kappa == 0.2

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\nproblem = poisson2d  # trailing\n"
        assert harness.parse_config(text).problem == "poisson2d"

    def test_gamma_literal_p(self):
        assert harness.parse_config("gamma = p").gamma is None
        assert harness.parse_config("gamma = 3.5").gamma == 3.5

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
            "kappa = 2",
            "ell0 = 20\nell_max = 10",
            "cg_maxit = 0",
            "rank_ratio = 0",
            "rank_ratio = -1",
            "n_interior = 0",
            "n_interior = -5",
            "n_boundary = 0",
            "hidden_width = 0",
            "hidden_depth = -1",
            "seed = -1",
            "quad_seed = -1",
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

    def test_determinism_modulo_wallclock(self, tmp_path):
        cfg = harness.parse_config(small_config_text())
        harness.run_experiment(cfg, out_dir=tmp_path / "a")
        harness.run_experiment(cfg, out_dir=tmp_path / "b")
        rows_a = read_csv(tmp_path / "a" / "run_0.csv")
        rows_b = read_csv(tmp_path / "b" / "run_0.csv")
        drop_seconds = lambda rows: [r[:-1] for r in rows]
        assert drop_seconds(rows_a) == drop_seconds(rows_b)

    @pytest.mark.parametrize("name", ["nystrom_ngd", "gd"])
    def test_csv_round_trips_the_records_bitwise(self, tmp_path, name):
        cfg = harness.parse_config(small_config_text(optimizer=name, seed=3))
        harness.run_experiment(cfg, out_dir=tmp_path)
        prob = problems.make_problem(
            cfg.problem, hidden_width=cfg.hidden_width, hidden_depth=cfg.hidden_depth
        )
        quad = prob.sample_quadrature(cfg.n_interior, cfg.n_boundary, cfg.quad_seed)
        theta0 = model.init(prob.topology, cfg.seed).values
        _, records = optim.run_optimizer(name, prob, theta0, cfg, quad, quad_eval=quad)
        header, *rows = read_csv(tmp_path / "run_3.csv")
        assert len(rows) == len(records) == cfg.iterations
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
            "problem", "optimizer", "median_final_error", "q25", "q75", "median_seconds",
        }
        assert on_disk["median_final_error"] == summary["median_final_error"]
        assert (tmp_path / "run_0.csv").exists()
        assert (tmp_path / "run_1.csv").exists()

    def test_all_optimizers_run(self, tmp_path):
        for name in ("ngd_cg", "ngd_dense", "gd", "bfgs"):
            cfg = harness.parse_config(small_config_text(optimizer=name, iterations=2))
            summary = harness.run_experiment(cfg, out_dir=tmp_path / name)
            assert np.isfinite(summary["median_final_error"])


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
