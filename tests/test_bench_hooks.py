"""The benchmark's hooks still fit the code they reach into.

`perfbench/` measures hsk from outside: `spans.Tracer.install()` wraps
layer functions and `CongruenceEngine` methods by name, and
`run.clear_caches()` empties hsk's process-global caches by name, skipping
quietly whatever it cannot find.  These tests load `perfbench/run.py` as it
is and drive both against the live hsk modules, so renaming or deleting
one of those names fails here rather than in a traced benchmark run or in
the cold start of each batch.
"""

import importlib
import importlib.util
import pkgutil
import sys
from collections import Counter
from pathlib import Path

import pytest

import hsk
from helpers import unknowns_of
from hsk import arith, cli, qcheck, skeleton, sreu, syntax
from hsk.syntax import Application, FunctionSymbol, Signature
from hsk.textform import parse_formula

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """perfbench/run.py, loaded from its own directory as its script does."""
    saved = list(sys.path)
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)  # puts perfbench/ on sys.path itself
    finally:
        sys.path[:] = saved
    return module


def _hooked():
    """Everything `Tracer.install()` replaces."""
    return (qcheck.is_quasitautology, qcheck.falsifying_literals, qcheck.e_satisfiable,
            qcheck.CongruenceEngine.__init__, qcheck.CongruenceEngine.merge,
            skeleton.iter_formula_solutions, skeleton.substitute, sreu.convert_to_sreu,
            sreu.solve_sreu_bounded, cli.parse_formula, cli.print_formula, cli.print_term,
            arith.recognize_instance, arith.classify_failures)


def test_tracer_wraps_the_live_layers_and_restores_them(bench):
    before = _hooked()
    tracer = bench.Tracer()
    tracer.install()
    try:
        assert all(now is not then for now, then in zip(_hooked(), before))
        checked = cli.run(cli.RunConfig(command="check"), "hk1 = hk2 -> hk2 = hk1\n")
        # a predicate conjunct is no equational Horn conjunct, so the search
        # decides it by substitution and qcheck
        solved = cli.run(cli.RunConfig(command="solve"), "exists ?v. p(hk3) -> p(?v)\n")
    finally:
        tracer.uninstall()
    assert all(now is then for now, then in zip(_hooked(), before))
    assert checked == (0, "QUASITAUTOLOGY\n")
    assert solved == (0, "*1 := hk3\n")
    counts = tracer.counts
    assert counts["qcheck.search"] >= 2 and counts["qcheck.engines"] >= 2
    assert counts["qcheck.merges"] >= 1
    assert counts["skeleton.started"] == counts["skeleton.yielded"] == 1
    assert counts["skeleton.checks"] == counts["skeleton.checks_passed"] >= 1
    assert counts["textform.parse"] == 2
    # the search substitutes through the name the tracer wraps, so the traced
    # syntax.substitute_s cannot read 0 on working code
    assert counts["syntax.substitute"] >= 1
    assert any(name == "syntax.substitute" and parent == "skeleton"
               for _, name, parent in tracer.records)


def test_tracer_reaches_the_countermodel_layers(bench):
    # classify_failures takes its oracle as a default argument, which the
    # tracer overwrites so that the oracle's calls are traced too
    source = (PERFBENCH.parent / "fixtures" / "variant_failures.fml").read_text()
    expected = (PERFBENCH.parent / "fixtures" / "golden"
                / "countermodel_variant_failures.txt").read_text()
    default = arith.classify_failures.__defaults__
    tracer = bench.Tracer()
    tracer.install()
    try:
        result = cli.run(cli.RunConfig(command="countermodel"), source)
    finally:
        tracer.uninstall()
    assert arith.classify_failures.__defaults__ == default
    assert result == (0, expected)
    counts = tracer.counts
    assert counts["arith.recognize"] >= 1 and counts["arith.classify"] >= 1
    assert any(name == "qcheck" and parent == "arith.classify"
               for _, name, parent in tracer.records)


def test_tracer_counts_the_sreu_problems_and_constraints(bench):
    # clause_pipeline.fml converts to four problems of two constraints each
    source = (PERFBENCH.parent / "fixtures" / "clause_pipeline.fml").read_text()
    expected = (PERFBENCH.parent / "fixtures" / "golden"
                / "sreu_solve_clause_pipeline.txt").read_text()
    tracer = bench.Tracer()
    tracer.install()
    try:
        result = cli.run(cli.RunConfig(command="sreu", solve=True, max_size=3), source)
    finally:
        tracer.uninstall()
    assert result == (0, expected)
    counts = tracer.counts
    assert counts["sreu.problems"] == 4 and counts["sreu.constraints"] == 8
    assert counts["sreu.convert"] == 1 and counts["sreu.solve"] == 4
    assert counts["sreu.solved"] == 1
    # four distinct constraints, each printed once, and the witness term c
    assert counts["textform.print"] == 4 + 1


@pytest.mark.parametrize("source", [
    # k^k problems that repeat their clauses: `f(*1)` makes every conjunct
    # a class restriction, `f(*1, *2)` every conjunct a check, and the last
    # formula has two unknowns
    "p(a1) & p(a2) & p(a3) & (f(*1) = a1 | f(*1) = a2 | f(*1) = a3) -> p(c)",
    "p(a1) & p(a2) & p(a3) & (f(*1, *2) = a1 | f(*1, *2) = a2 | f(*1, *2) = a3) -> p(c)",
    "p(a1) & p(a2) & (*1 = a1 | *1 = a2) & (*2 = a1 | *2 = a2) -> p(c)",
])
def test_tracer_counts_each_distinct_conjunct_once(bench, monkeypatch, source):
    problems = sreu.convert_to_sreu(parse_formula(source))
    distinct = {c for problem in problems for c in problem.constraints}
    # each problem solved on its own: the (conjunct, terms of its unknowns)
    # pairs it decides, which the searches and the verifications of their
    # witnesses share, how often it matches each (conjunct, unknown) with
    # the hole for the unknown, the sides it puts the hole into for those
    # matches, and the conjuncts it substitutes for qcheck
    pairs, matches, holes, substituted = set(), Counter(), Counter(), set()
    decisions = calls = 0
    substitute, horn, holds = skeleton.substitute, skeleton._horn, skeleton.SearchMemo.holds
    match = None  # the match under way

    def recorded(f, assignment):
        nonlocal calls
        calls += 1
        if skeleton._HOLE in assignment.values():
            holes[match] += 1
        else:
            substituted.add((f, tuple(assignment[u] for u in unknowns_of(f))))
        return substitute(f, assignment)

    def matching(conjunct, u):
        nonlocal match
        match = conjunct, u
        matches[match] += 1
        return horn(conjunct, u)

    def deciding(memo, c, used, assignment):
        nonlocal decisions
        terms = tuple(assignment[u] for u in used)
        if (c, terms) not in memo.verdicts:
            decisions += 1
            pairs.add((c, terms))
        return holds(memo, c, used, assignment)

    with monkeypatch.context() as patch:
        patch.setattr(skeleton, "substitute", recorded)
        patch.setattr(skeleton, "_horn", matching)
        patch.setattr(skeleton.SearchMemo, "holds", deciding)
        for problem in problems:
            sreu.solve_sreu_bounded(problem, max_size=3)
    joined = 0
    join = syntax.conj

    def counted_conj(parts):
        nonlocal joined
        joined += 1
        return join(parts)

    matched, decided = [], []

    def matched_once(conjunct, u):
        matched.append((conjunct, u))
        return horn(conjunct, u)

    def decided_once(memo, c, used, assignment):
        terms = tuple(assignment[u] for u in used)
        if (c, terms) not in memo.verdicts:
            decided.append((c, terms))
        return holds(memo, c, used, assignment)

    tracer = bench.Tracer()
    tracer.install()
    try:
        with monkeypatch.context() as patch:
            for module in (syntax, sreu):
                patch.setattr(module, "conj", counted_conj)
            patch.setattr(skeleton, "_horn", matched_once)
            patch.setattr(skeleton.SearchMemo, "holds", decided_once)
            _, output = cli.run(cli.RunConfig(command="sreu", solve=True, max_size=3), source)
    finally:
        tracer.uninstall()
    # the command matches each distinct (conjunct, unknown) once, where the
    # problems solved on their own match it once per problem
    assert len(matched) == len(set(matched)) and set(matched) == set(matches)
    assert len(matches) < sum(matches.values())
    # no problem builds its conjunction, and no witness is verified on one:
    # a conjunction is built only for a distinct constraint's hypotheses
    assert joined <= len(distinct)
    counts = tracer.counts
    assert counts["sreu.problems"] == len(problems) and len(problems) in (27, 16)
    assert counts["sreu.constraints"] > len(distinct)
    # printed: each distinct constraint once, and each witness term
    assert counts["textform.print"] == len(distinct) + output.count(":=")
    # the command decides each distinct (conjunct, terms) pair once and
    # substitutes each once, besides the sides of one match each, where the
    # problems on their own repeat some of that work once per problem
    assert len(decided) == len(set(decided)) and set(decided) <= pairs
    hole_sides = sum(holes[m] // matches[m] for m in matches)  # those of one match each
    assert counts["syntax.substitute"] <= len(substituted) + hole_sides
    assert len(pairs) + len(substituted) + hole_sides < decisions + calls
    assert counts["sreu.solve"] == len(problems)


def test_clear_caches_empties_the_live_caches(bench):
    assert isinstance(qcheck._VERDICTS, dict)
    buckets = skeleton._class_member_buckets
    assert hasattr(buckets, "cache_clear")
    qcheck.is_quasitautology(parse_formula("hk4 = hk4"))
    a, b = Application(FunctionSymbol("hk5", 0), ()), Application(FunctionSymbol("hk6", 0), ())
    buckets((((a, b),), skeleton._HOLE, a),
            Signature(frozenset({a.symbol, b.symbol}), frozenset()), 1)
    assert qcheck._VERDICTS and buckets.cache_info().currsize
    bench.clear_caches()
    assert not qcheck._VERDICTS
    # every module-level lru_cache of hsk is one that clear_caches empties
    lru_caches = [f"{info.name}.{name}" for info in pkgutil.iter_modules(hsk.__path__)
                  if info.name != "__main__"  # importing it runs the command line
                  for name, value in vars(importlib.import_module(f"hsk.{info.name}")).items()
                  if hasattr(value, "cache_info") and value.cache_info().currsize]
    assert lru_caches == []
    assert buckets.cache_info().currsize == 0
