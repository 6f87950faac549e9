"""The package's supported Python versions agree with the CI matrix."""

import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _version(text):
    return tuple(map(int, text.split(".")))


def test_lowest_ci_python_is_the_requires_python_floor():
    with open(ROOT / "pyproject.toml", "rb") as f:
        requires = tomllib.load(f)["project"]["requires-python"]
    floor = re.fullmatch(r">=(\d+\.\d+)", requires)
    assert floor, f"expected a '>=X.Y' floor, got {requires!r}"
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    matrix = re.search(r"python-version:\s*\[([^\]]*)\]", workflow)
    assert matrix, "tests.yml has no python-version matrix"
    versions = re.findall(r'"(\d+\.\d+)"', matrix.group(1))
    assert versions
    assert min(versions, key=_version) == floor.group(1)
    assert sys.version_info[:2] >= _version(floor.group(1))
