"""Smoke tests: each script in scripts/ runs to completion on a tiny setting."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("run_benchmark.py", ["poisson1d", "--iterations", "1", "--seeds", "1", "--width", "4"]),
        ("sensitivity_sweep.py", ["poisson1d", "--iterations", "1", "--seeds", "1"]),
        ("spectral_decay.py", ["--top", "5", "--width", "4"]),
    ],
)
def test_script_runs(script, args, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "--out", str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert any(tmp_path.iterdir())
