"""Every line of the package, the scripts and the tests fits in 100 characters."""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LIMIT = 100
SOURCES = sorted(
    path for part in ("src", "scripts", "tests") for path in (ROOT / part).rglob("*.py")
)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_line_fits_the_limit(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    long = [n for n, line in enumerate(lines, start=1) if len(line) > LIMIT]
    assert not long, f"lines {long} are longer than {LIMIT} characters"
