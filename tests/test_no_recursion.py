"""No function in `src/hsk` reaches itself through calls.

Terms and formulas may be nested to any depth, so a walker that recursed
on their structure would fail with RecursionError on deep input.  This
test builds each module's call graph by name from its syntax tree and
fails on any cycle, apart from the allowlisted functions, whose recursion
depth has a small bound that does not grow with the input's nesting.

Edges: a plain call `f(...)` goes to the nested function `f` of an
enclosing function, else to the module-level function `f`; a call
`self.m(...)` in a method goes to the method `m` of its class.  Calls in a
nested function (or a lambda's body, charged to the function around it)
belong to that function.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hsk"

# (module, function) -> why its recursion depth is bounded
ALLOWED = {
    ("skeleton", "_compositions"):
        "one level per argument of a symbol, so at most the size bound deep",
}


def call_graph(source: str) -> dict[str, set[str]]:
    """Qualified function name -> qualified names of the functions it calls."""
    tree = ast.parse(source)
    module_functions = {n.name for n in tree.body
                        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
    graph: dict[str, set[str]] = {}

    def nested_defs(fn) -> set[str]:
        """Names of the functions defined in fn's own body, not deeper."""
        found, todo = set(), list(fn.body)
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.add(node.name)
            elif not isinstance(node, (ast.ClassDef, ast.Lambda)):
                todo.extend(ast.iter_child_nodes(node))
        return found

    def visit_function(fn, qualname: str, scopes: list, cls: str | None) -> None:
        scopes = scopes + [(qualname, nested_defs(fn))]
        callees = graph.setdefault(qualname, set())
        todo = list(fn.body)
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit_function(node, f"{qualname}.{node.name}", scopes, None)
                continue
            if isinstance(node, ast.ClassDef):
                continue
            if isinstance(node, ast.Call):
                target = node.func
                if isinstance(target, ast.Name):
                    for scope, names in reversed(scopes):
                        if target.id in names:
                            callees.add(f"{scope}.{target.id}")
                            break
                    else:
                        if target.id in module_functions:
                            callees.add(target.id)
                elif (cls is not None and isinstance(target, ast.Attribute)
                      and isinstance(target.value, ast.Name) and target.value.id == "self"):
                    callees.add(f"{cls}.{target.attr}")
            todo.extend(ast.iter_child_nodes(node))

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            visit_function(node, node.name, [], None)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit_function(item, f"{node.name}.{item.name}", [], node.name)
    return graph


def self_reaching(graph: dict[str, set[str]]) -> set[str]:
    """The functions from which a path of calls leads back to themselves."""
    out = set()
    for start in graph:
        seen, todo = set(), list(graph[start])
        while todo:
            name = todo.pop()
            if name == start:
                out.add(start)
                break
            if name not in seen:
                seen.add(name)
                todo.extend(graph.get(name, ()))
    return out


def test_the_detector_sees_every_kind_of_cycle():
    source = '''
def direct(t):
    return direct(t.args[0])

def ping(t):
    return pong(t)

def pong(t):
    return [ping(a) for a in t.args]

def outer(t):
    def walk(u):
        return list(map(lambda a: walk(a), u.args))
    return walk(t)

class Parser:
    def parse(self):
        return self.parse_inner()

    def parse_inner(self):
        return self.parse()

def fine(t):
    def helper(u):
        return u
    return helper(t) and direct
'''
    assert self_reaching(call_graph(source)) == {
        "direct", "ping", "pong", "outer.walk", "Parser.parse", "Parser.parse_inner"}


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_no_function_reaches_itself(module):
    graph = call_graph((SRC / f"{module}.py").read_text(encoding="utf-8"))
    allowed = {name for mod, name in ALLOWED if mod == module}
    assert self_reaching(graph) == allowed
