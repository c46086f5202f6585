"""No module of hsk defines a name that nothing reads.

Every module-level def, class and assignment of `src/hsk` must be read by
another statement of its module, or by another file under `src/`,
`tests/` or `perfbench/` that reaches it through its module: imported
from it (`from hsk.skeleton import name`, `from .skeleton import name`),
read as an attribute of it (`skeleton.name`, `hsk.skeleton.name`), or
named in a string, such as the attribute name given to
`monkeypatch.setattr`.  A name that another module defines and reads for
itself does not count, so a constant left behind when its last reader
goes is caught even where a test keeps a copy of it.

Inside a function, every nested def and every name bound by a plain
assignment must be read somewhere in the function, nested functions
included, other than by the nested def's own body.  Dunder names are
exempt, and so is `_`.

The check reads each file with `ast`; it runs no code.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
HSK = ROOT / "src" / "hsk"
HSK_MODULES = sorted(HSK.glob("*.py"))
READERS = [*HSK_MODULES, *sorted((ROOT / "tests").glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py"))]
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFS = (*FUNCTIONS, ast.ClassDef)


def _bound(statement: ast.stmt) -> list[str]:
    """The names a def, class or plain assignment binds."""
    if isinstance(statement, DEFS):
        names = [statement.name]
    elif isinstance(statement, ast.Assign):
        names = [t.id for t in statement.targets if isinstance(t, ast.Name)]
    elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        names = [statement.target.id]
    else:
        return []
    return [n for n in names if n != "_" and not (n.startswith("__") and n.endswith("__"))]


def _loads(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _hsk_module(module: str | None, level: int, path: Path) -> str | None:
    """The hsk module an import statement names, or None for another."""
    if level == 0:
        return module[len("hsk."):] if module and module.startswith("hsk.") else None
    inside = path.parent == HSK
    return module if inside and level == 1 and module else None


def reads_from_outside(source: str, path: Path) -> tuple[set[tuple[str, str]], set[str]]:
    """((module, name) pairs the file reads from hsk's modules, string
    constants of the file)."""
    tree = ast.parse(source)
    reads: set[tuple[str, str]] = set()
    aliases: dict[str, str] = {}  # a local name bound to an hsk module
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom):
            module = _hsk_module(n.module, n.level, path)
            if module is not None:
                reads |= {(module, a.name) for a in n.names}
            elif n.module == "hsk" or (n.level == 1 and n.module is None
                                        and path.parent == HSK):
                aliases |= {a.asname or a.name: a.name for a in n.names}
        elif isinstance(n, ast.Import):
            for a in n.names:
                if a.name.startswith("hsk.") and a.asname:
                    aliases[a.asname] = a.name[len("hsk."):]
    strings: set[str] = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute):
            owner = n.value
            if isinstance(owner, ast.Name) and owner.id in aliases:
                reads.add((aliases[owner.id], n.attr))
            elif (isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name)
                  and owner.value.id == "hsk"):
                reads.add((owner.attr, n.attr))
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            strings.add(n.value)
    return reads, strings


def unread_module_names(source: str, module: str, reads: set[tuple[str, str]],
                        strings: set[str]) -> list[str]:
    """The module-level names of the source that no other statement of it
    reads, that no other file reads from it and that no string names."""
    statements = ast.parse(source).body
    read_by = [_loads(statement) for statement in statements]
    return [name for i, statement in enumerate(statements) for name in _bound(statement)
            if (module, name) not in reads and name not in strings
            and not any(name in read for j, read in enumerate(read_by) if j != i)]


def unread_local_names(source: str) -> list[str]:
    """`function.name` for each nested def or plainly assigned name of a
    function that the function never reads."""
    unread: list[str] = []
    for function in ast.walk(ast.parse(source)):
        if not isinstance(function, FUNCTIONS):
            continue
        todo = list(function.body)  # the statements of this scope, not of nested ones
        while todo:
            statement = todo.pop()
            if not isinstance(statement, DEFS):
                todo += [s for s in ast.iter_child_nodes(statement) if isinstance(s, ast.stmt)]
            # a nested def's own body does not read it
            own = {id(n) for n in ast.walk(statement)} if isinstance(statement, DEFS) else set()
            unread += [f"{function.name}.{name}" for name in _bound(statement)
                       if not any(isinstance(n, ast.Name) and n.id == name
                                  and isinstance(n.ctx, ast.Load) and id(n) not in own
                                  for n in ast.walk(function))]
    return unread


@pytest.fixture(scope="module")
def outside_reads() -> dict[Path, tuple[set[tuple[str, str]], set[str]]]:
    return {path: reads_from_outside(path.read_text(encoding="utf-8"), path) for path in READERS}


def test_the_check_sees_an_unread_module_name():
    source = ("_A = 1\nB: int = _A\n\n\ndef f():\n    return f()\n\n\n"
              "class C:\n    pass\n\n\ndef g():\n    return B\n")
    assert unread_module_names(source, "m", set(), set()) == ["f", "C", "g"]
    other = "from hsk.m import C\nfrom hsk import m as mod\nmod.g()\nh(mod, 'f')\n"
    reads, strings = reads_from_outside(other, ROOT / "tests" / "x.py")
    assert unread_module_names(source, "m", reads, strings) == []
    # a name another module defines and reads for itself is not a read of m's
    assert unread_module_names(source, "m", *reads_from_outside(
        "C = 0\ng = C\nfrom hsk.n import f\n", ROOT / "tests" / "x.py")) == ["f", "C", "g"]


def test_the_check_sees_an_unread_local_name():
    source = ("def f(x):\n    kept = {}\n    lost = {}\n\n"
              "    def helper():\n        return kept\n\n"
              "    def unused():\n        return unused()\n\n"
              "    for _ in x:\n        found = helper()\n    return x\n")
    assert sorted(unread_local_names(source)) == ["f.found", "f.lost", "f.unused"]


@pytest.mark.parametrize("path", HSK_MODULES, ids=[p.name for p in HSK_MODULES])
def test_every_module_level_name_is_read(path, outside_reads):
    reads: set[tuple[str, str]] = set()
    strings: set[str] = set()
    for reader, (read, named) in outside_reads.items():
        if reader != path:
            reads |= read
            strings |= named
    assert unread_module_names(path.read_text(encoding="utf-8"), path.stem, reads, strings) == []


@pytest.mark.parametrize("path", HSK_MODULES, ids=[p.name for p in HSK_MODULES])
def test_every_local_name_is_read(path):
    assert unread_local_names(path.read_text(encoding="utf-8")) == []
