"""The sources parse as Python 3.10, the floor that pyproject.toml states.

`ast.parse` with `feature_version` rejects the grammar added later, such as
`except*` or `type` aliases, so the suite fails on it even when it runs on
a newer Python.  (It checks syntax only, not newer library calls.)
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "hsk").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])


@pytest.mark.parametrize("path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
