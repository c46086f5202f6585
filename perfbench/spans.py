"""Layer spans for the traced benchmark run, recorded from outside hsk.

`Tracer.install()` replaces each public layer function at the module
attribute its caller looks it up under, and `uninstall()` puts the
originals back; no hsk source file changes.  Every wrapped call is a span
(name, start, end, parent).  A span's self time is its duration minus the
time covered by its child spans.  Durations, self times and counts are
summed as the run goes.  Each command's span is kept in memory with its
problem number, and so are the layer calls the command makes directly,
merged per problem and layer (calls, seconds, first start, last end); all
are written out by `write()` when the run ends.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from framestack import on_fresh_chunk


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [name, start, child time]
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.records: dict[tuple, list] = {}  # (problem, name, parent) -> merged span
        self.problem = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans

    def enter(self, name: str) -> None:
        self.stack.append([name, perf_counter(), 0.0])

    def leave(self) -> None:
        end = perf_counter()
        name, start, children = self.stack.pop()
        duration = end - start
        self.busy[name] += duration
        self.self_time[name] += duration - children
        self.counts[name] += 1
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        if len(self.stack) < 2:  # the command, or a layer call it makes
            key = (self.problem, name, parent[0] if parent else None)
            merged = self.records.setdefault(key, [0, 0.0, start, end])
            merged[0] += 1
            merged[1] += duration
            merged[3] = end

    def parent(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    def span(self, name: str, fn, *args, **kwargs):
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.leave()

    # -- patching

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def timed(self, owner, attr: str, name: str, observe=None, reentrant=False,
              fresh_chunk=False) -> None:
        """Make owner.attr a span called `name`; `observe(result)` sees each
        result.  With `reentrant`, calls nested in a `name` span (recursion
        through the module global) pass straight through.  With
        `fresh_chunk`, a call the command makes through one other layer
        runs from a fresh frame-stack chunk (see framestack.py), so the
        wrapper frames above it do not move its recursion onto a chunk
        boundary; deeper calls, many and small, run in place."""
        original = target = getattr(owner, attr)
        if fresh_chunk:
            def original(*args):
                if len(self.stack) > 3:  # deeper than cli -> layer -> name
                    return target(*args)
                return on_fresh_chunk(target, *args)

        def wrapper(*args, **kwargs):
            if reentrant and self.parent() == name:
                return original(*args, **kwargs)
            self.enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.leave()
            if observe is not None:
                observe(result)
            return result

        self._patch(owner, attr, wrapper)

    def counted(self, owner, attr: str, name: str) -> None:
        """Count calls of owner.attr without a span."""
        original = getattr(owner, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def timed_generator(self, owner, attr: str, name: str) -> None:
        """Time every `next` of the generators owner.attr returns."""
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            inner = original(*args, **kwargs)
            self.counts[name + ".started"] += 1
            first = True
            try:
                while True:
                    self.enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.leave()
                    if first:
                        self.counts[name + ".yielded"] += 1
                        first = False
                    yield item
            finally:
                inner.close()

        self._patch(owner, attr, wrapper)

    def install(self) -> None:
        from hsk import arith, cli, models, qcheck, skeleton, sreu

        counts = self.counts

        def theory(result):
            counts["qcheck.theory_sat"] += bool(result)

        def verdict(result):
            if self.parent() == "skeleton":
                counts["skeleton.checks"] += 1
                counts["skeleton.checks_passed"] += bool(result)

        def converted(problems):
            counts["sreu.problems"] += len(problems)
            counts["sreu.constraints"] += sum(len(p.constraints) for p in problems)

        def solved(solution):
            counts["sreu.solved"] += solution is not None

        self.timed(qcheck, "is_quasitautology", "qcheck", verdict)
        self.timed(qcheck, "falsifying_literals", "qcheck.search", fresh_chunk=True)
        self.timed(qcheck, "e_satisfiable", "qcheck.theory", theory)
        self.counted(qcheck.CongruenceEngine, "__init__", "qcheck.engines")
        self.counted(qcheck.CongruenceEngine, "merge", "qcheck.merges")
        # classify_failures took is_quasitautology as a default argument
        self._patch(arith.classify_failures, "__defaults__", (qcheck.is_quasitautology,))
        self.timed_generator(skeleton, "iter_formula_solutions", "skeleton")
        self.timed(skeleton, "substitute", "syntax.substitute")
        self.timed(sreu, "convert_to_sreu", "sreu.convert", converted)
        self.timed(sreu, "solve_sreu_bounded", "sreu.solve", solved)
        self.timed(cli, "parse_formula", "textform.parse")
        self.timed(cli, "print_formula", "textform.print")
        self.timed(cli, "print_term", "textform.print")
        self.timed(arith, "recognize_instance", "arith.recognize")
        self.timed(arith, "classify_failures", "arith.classify")
        self.timed(models, "holds", "models.holds", reentrant=True)
        self.timed(models, "construct_alpha", "models.alpha")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results

    def layer_metrics(self, batches: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures per traced batch: (value, unit)."""
        busy, own, n = self.busy, self.self_time, self.counts

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        per = 1.0 / batches
        seconds = lambda value: (value * per, "s/batch")
        count = lambda value: (value * per, "count/batch")
        return {
            "qcheck.calls": count(n["qcheck"]),
            "qcheck.cache_hit_ratio": (1.0 - ratio(n["qcheck.search"], n["qcheck"]), "ratio"),
            "qcheck.busy_s": seconds(busy["qcheck"]),
            "qcheck.search_self_s": seconds(own["qcheck.search"]),
            "qcheck.theory_checks": count(n["qcheck.theory"]),
            "qcheck.theory_sat_ratio": (ratio(n["qcheck.theory_sat"], n["qcheck.theory"]),
                                        "ratio"),
            "qcheck.theory_s": seconds(busy["qcheck.theory"]),
            "qcheck.engines": count(n["qcheck.engines"]),
            "qcheck.merges": count(n["qcheck.merges"]),
            "skeleton.solves": count(n["skeleton.started"]),
            "skeleton.busy_s": seconds(busy["skeleton"]),
            "skeleton.self_s": seconds(own["skeleton"]),
            "skeleton.checks": count(n["skeleton.checks"]),
            "skeleton.check_pass_ratio": (ratio(n["skeleton.checks_passed"],
                                                n["skeleton.checks"]), "ratio"),
            "skeleton.witness_ratio": (ratio(n["skeleton.yielded"], n["skeleton.started"]),
                                       "ratio"),
            "syntax.substitute_s": seconds(busy["syntax.substitute"]),
            "sreu.convert_s": seconds(busy["sreu.convert"]),
            "sreu.problems": count(n["sreu.problems"]),
            "sreu.constraints": count(n["sreu.constraints"]),
            "sreu.solve_s": seconds(busy["sreu.solve"]),
            "sreu.solved_ratio": (ratio(n["sreu.solved"], n["sreu.solve"]), "ratio"),
            "textform.parse_s": seconds(busy["textform.parse"]),
            "textform.print_s": seconds(busy["textform.print"]),
            "arith.recognize_s": seconds(busy["arith.recognize"]),
            "arith.classify_s": seconds(busy["arith.classify"]),
            "models.holds_s": seconds(busy["models.holds"]),
            "models.holds_calls": count(n["models.holds"]),
            "models.alpha_s": seconds(busy["models.alpha"]),
            "cli.self_s": seconds(own["cli"]),
        }

    def write(self, path: Path, problems: list[str]) -> None:
        """Span records as JSON lines: problem number, its family, span name,
        parent span name, calls merged, their seconds, and the first start
        and last end (perf_counter seconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for (problem, name, parent), (calls, seconds, start, end) in self.records.items():
                out.write(json.dumps({"problem": problem, "family": problems[problem],
                                      "span": name, "parent": parent, "calls": calls,
                                      "seconds": round(seconds, 7), "start": round(start, 7),
                                      "end": round(end, 7)}))
                out.write("\n")
