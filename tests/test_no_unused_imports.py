"""No module of hsk and no file of its tests imports a name that it never
uses, and no module of hsk keeps a private name that nothing reads.

There is no linter in the toolchain, so this reads each file with `ast`:
every name bound by an import must be read somewhere in the file, as a name
or as the root of an attribute chain.  `__init__.py` is exempt, since its
imports are the package's re-exports, and so is `tests/test_acceptance.py`,
the fixed acceptance contract, which is kept as it was written.
`from __future__ import annotations` binds no name that code reads, and is
exempt everywhere.

Every module-level private name of hsk (a `_name` def, class or
assignment) must be read by another statement of its module, or by a file
under `tests/` or `perfbench/`, as a name, an attribute, an imported name
or a string (such as the attribute name given to `monkeypatch.setattr`).
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
HSK_MODULES = sorted((ROOT / "src" / "hsk").glob("*.py"))


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


def _names_read(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def unread_private_names(source: str, read_elsewhere: set[str]) -> list[str]:
    """The module-level `_name` defs, classes and assignments of the source
    that no other statement of it reads and that are not in `read_elsewhere`."""
    statements = ast.parse(source).body
    read_by = [_names_read(statement) for statement in statements]
    unread: list[str] = []
    for i, statement in enumerate(statements):
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = [statement.name]
        elif isinstance(statement, ast.Assign):
            bound = [t.id for t in statement.targets if isinstance(t, ast.Name)]
        elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
            bound = [statement.target.id]
        else:
            continue
        unread += [name for name in bound
                   if name.startswith("_") and not name.startswith("__")
                   and name not in read_elsewhere
                   and not any(name in read for j, read in enumerate(read_by) if j != i)]
    return unread


@pytest.fixture(scope="module")
def used_by_tests_and_benchmark() -> set[str]:
    """Every name, attribute, imported name and string constant of the files
    under tests/ and perfbench/."""
    used: set[str] = set()
    for path in [*(ROOT / "tests").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, ast.Name):
                used.add(n.id)
            elif isinstance(n, ast.Attribute):
                used.add(n.attr)
            elif isinstance(n, ast.alias):
                used.add(n.name)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                used.add(n.value)
    return used


def test_the_check_sees_an_unread_private_name():
    source = ("_A = 1\n_B: int = _A\n\n\ndef _f():\n    return _f()\n\n\n"
              "class _C:\n    pass\n\n\ndef g():\n    return _B\n")
    assert unread_private_names(source, set()) == ["_f", "_C"]
    assert unread_private_names(source, {"_C"}) == ["_f"]


@pytest.mark.parametrize("path", HSK_MODULES, ids=[p.name for p in HSK_MODULES])
def test_every_private_name_is_read(path, used_by_tests_and_benchmark):
    source = path.read_text(encoding="utf-8")
    assert unread_private_names(source, used_by_tests_and_benchmark) == []
