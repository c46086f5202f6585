"""No module of hsk and no file of its tests imports a name that it never
uses.

There is no linter in the toolchain, so this reads each file with `ast`:
every name bound by an import must be read somewhere in the file, as a name
or as the root of an attribute chain.  `__init__.py` is exempt, since its
imports are the package's re-exports, and so is `tests/test_acceptance.py`,
the fixed acceptance contract, which is kept as it was written.
`from __future__ import annotations` binds no name that code reads, and is
exempt everywhere.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# (test id, path): hsk's modules by name, the test files under tests/
MODULES = [(p.name, p) for p in sorted((ROOT / "src" / "hsk").glob("*.py"))
           if p.name != "__init__.py"]
MODULES += [(f"tests/{p.name}", p) for p in sorted((ROOT / "tests").glob("*.py"))
            if p.name != "test_acceptance.py"]


def unused_imports(source: str) -> list[str]:
    """The names the source imports and never reads, in import order."""
    tree = ast.parse(source)
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in read]


def test_the_check_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nfrom x import a, b as c\nc(os)\n"
    assert unused_imports(source) == ["a"]


@pytest.mark.parametrize("path", [p for _, p in MODULES], ids=[name for name, _ in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
