from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WIDTH = 100


@pytest.mark.parametrize("folder", ["src", "tests"])
def test_lines_fit_the_width(folder):
    # the project's line width, for every Python file of the package and tests
    long = [f"{path.relative_to(ROOT)}:{n}"
            for path in sorted((ROOT / folder).rglob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), start=1)
            if len(line) > WIDTH]
    assert not long, f"lines over {WIDTH} columns: {long}"
