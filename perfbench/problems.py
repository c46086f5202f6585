"""Seeded problem generators for the hsk benchmark.

Every problem is one `hsk` command: the keyword arguments of
`hsk.cli.RunConfig`, the input text, and a check of (exit status, output)
against the answer that follows from the problem's construction.  Nothing
here imports hsk: the expected answers never come from hsk's own output.

A batch is the full problem list of a workload.  The seed and the batch
number pick the constant names (so no two batches share a formula) and
the seeded parameters of the cheap families; the families, their order and
their sizes, and so the work, are the same in every batch.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

Check = Callable[[int, str], bool]

WORKLOADS = ("validity", "solve", "sreu")


@dataclass(frozen=True)
class Problem:
    family: str
    command: dict  # keyword arguments of hsk.cli.RunConfig
    text: str
    check: Check  # (exit status, output) -> does it match the known answer

    def key(self) -> tuple:
        return (self.family, tuple(sorted(self.command.items())), self.text)


def exact(status: int, output: str) -> Check:
    return lambda got_status, got: got_status == status and got == output


def verdict(valid: bool) -> Check:
    if valid:
        return exact(0, "QUASITAUTOLOGY\n")
    return exact(1, "NOT A QUASITAUTOLOGY\n")


# ---------------------------------------------------------------------------
# Term text


def nest(fn: str, depth: int, base: str) -> str:
    return f"{fn}(" * depth + base + ")" * depth


def special(base: str, lang: int) -> str:
    """Reserved constant `base` of language `lang` (0 is the plain one)."""
    return base if lang == 0 else f"{base}_{lang}"


class Names:
    """Fresh identifiers for one batch: `<letter><tag><index>`."""

    def __init__(self, rng: random.Random):
        self.tag = "".join(rng.choice("bcdfgjmnqrvwxy") for _ in range(2))
        self.tag += str(rng.randrange(100))

    def __call__(self, letter: str, index: int | str = "") -> str:
        return f"{letter}{self.tag}n{index}"


# ---------------------------------------------------------------------------
# Arithmetic encodings (the shapes of hsk.arith, written out as text)


class Lang:
    def __init__(self, index: int):
        self.z, self.zh, self.zt, self.k, self.kt = (
            special(b, index) for b in ("z", "zh", "zt", "k", "kt"))

    def num(self, t: str) -> str:
        return f"({self.z} = s({self.z}) -> {self.z} = {t})"

    def num_tilde(self, t: str) -> str:
        return f"({self.zt} = s({self.zt}) -> {self.zt} = {t})"

    def sim(self, a: str, b: str) -> str:
        return f"({self.z} = {self.zt} -> {a} = {b})"

    def plus(self, a: str, b: str, c: str) -> str:
        return f"({self.zt} = {a} -> {c} = {b})"

    def tab(self, t: str) -> str:
        z, k = self.z, self.k
        return f"({z} = s({z}) & {k} = pair(pair({z}, {z}), {k}) -> {k} = {t})"

    def tab_tilde(self, t: str) -> str:
        zh, zt, kt = self.zh, self.zt, self.kt
        return (f"({zh} = s({zh}) & {zt} = s({zt}) & "
                f"{kt} = pair(pair({zh}, {zt}), {kt}) -> {kt} = {t})")

    def sim_tilde(self, a: str, b: str) -> str:
        return (f"({self.z} = {self.zh} & {self.z} = {self.zt} & "
                f"{self.k} = {self.kt} -> {a} = {b})")

    def tim(self, x: str, y: str, z_arg: str, w: str, wt: str) -> str:
        z, k = self.z, self.k
        return (f"({self.zh} = s({z}) & {self.zt} = {x} & "
                f"{self.kt} = pair(pair({z}, {z}), {k}) -> "
                f"{wt} = pair(pair({y}, {z_arg}), {w}))")

    def add(self, a: str, b: str, c: str, w: str) -> str:
        return " & ".join([self.num_tilde(w), self.sim(b, w), self.plus(a, w, c)])

    def mul(self, x: str, y: str, z_arg: str, w: str, wt: str) -> str:
        return " & ".join([self.tab(w), self.tab_tilde(wt), self.sim_tilde(w, wt),
                           self.tim(x, y, z_arg, w, wt)])

    def n(self, m: int) -> str:
        return nest("s", m, self.z)

    def semitable(self, m: int, p: int, tilde: bool) -> str:
        """The (m, p)-semitable: rows (j, m*j) for j = p-1 down to 0."""
        x, y, slot = (self.zh, self.zt, self.kt) if tilde else (self.z, self.z, self.k)
        out = slot
        for j in range(p):  # innermost row is j = 0
            out = f"pair(pair({nest('s', j, x)}, {nest('s', m * j, y)}), {out})"
        return out


def semitable_size(m: int, p: int) -> int:
    return 1 + sum(4 + j + m * j for j in range(p))


# ---------------------------------------------------------------------------
# Golden fixture replays (command, fixture, exit status, golden file)

GOLDEN = {
    "validity": [
        (dict(command="check"), "implication_interference.fml", 0,
         "check_implication_interference.txt"),
        (dict(command="check", fmt="records"), "implication_interference.fml", 0,
         "check_implication_interference.rec"),
        (dict(command="countermodel"), "variant_failures.fml", 0,
         "countermodel_variant_failures.txt"),
        (dict(command="countermodel", fmt="records"), "variant_failures.fml", 0,
         "countermodel_variant_failures.rec"),
        (dict(command="eval", structure="table"), "table_eval.fml", 0, "eval_table.txt"),
    ],
    "solve": [
        (dict(command="skeleton", n=2), "guarded_choice.fml", 0,
         "skeleton_guarded_choice_n2.txt"),
        (dict(command="solve", n=2, max_size=1), "guarded_choice.fml", 0,
         "solve_guarded_choice_n2.txt"),
        (dict(command="solve", n=2, max_size=1, fmt="records"), "guarded_choice.fml", 0,
         "solve_guarded_choice_n2.rec"),
        (dict(command="solve", n=1, max_size=3), "guarded_choice.fml", 1,
         "solve_guarded_choice_n1.txt"),
        (dict(command="encode", m=0, n=2), "sum_query.dioph", 0, "encode_sum_query.txt"),
    ],
    "sreu": [
        (dict(command="sreu"), "clause_pipeline.fml", 0, "sreu_clause_pipeline.txt"),
        (dict(command="sreu", solve=True, max_size=3), "clause_pipeline.fml", 0,
         "sreu_solve_clause_pipeline.txt"),
        (dict(command="sreu", fmt="records"), "clause_pipeline.fml", 0,
         "sreu_clause_pipeline.rec"),
    ],
}


def golden_problems(workload: str, root: Path) -> list[Problem]:
    fixtures = root / "fixtures"
    out = []
    for command, source, status, golden in GOLDEN[workload]:
        text = (fixtures / source).read_text(encoding="utf-8")
        expected = (fixtures / "golden" / golden).read_text(encoding="utf-8")
        out.append(Problem(f"golden:{golden}", command, text, exact(status, expected)))
    return out


# ---------------------------------------------------------------------------
# validity: `check` and `countermodel` on ground formulas


def cycle(n: int, name: Names) -> Problem:
    """Colour every vertex of an n-cycle red or blue with adjacent vertices
    apart; that forces red = blue exactly when n is odd."""
    vs = [name("v", i) for i in range(1, n + 1)]
    red, blue = name("r"), name("b")
    colours = [f"({v} = {red} | {v} = {blue})" for v in vs]
    edges = [f"!({vs[i]} = {vs[(i + 1) % n]})" for i in range(n)]
    text = " & ".join(colours + edges) + f" -> {red} = {blue}"
    return Problem(f"cycle{n}", dict(command="check"), text, verdict(n % 2 == 1))


def pigeonhole(pigeons: int, holes: int, name: Names) -> Problem:
    """Pairwise distinct pigeons, each equal to some hole: contradictory
    exactly when there are more pigeons than holes."""
    ps = [name("p", i) for i in range(1, pigeons + 1)]
    hs = [name("h", i) for i in range(1, holes + 1)]
    places = ["(" + " | ".join(f"{p} = {h}" for h in hs) + ")" for p in ps]
    apart = [f"!({ps[i]} = {ps[j]})" for i in range(pigeons) for j in range(i + 1, pigeons)]
    text = " & ".join(places + apart) + f" -> {name('e', 1)} = {name('e', 2)}"
    return Problem(f"php{pigeons}_{holes}", dict(command="check"), text,
                   verdict(pigeons > holes))


def chain(n: int, m: int, k: int, name: Names) -> Problem:
    """f^n(a) = a & f^m(a) = a -> f^k(a) = a, valid iff gcd(n, m) divides k."""
    f, a = name("f"), name("a")
    text = (f"{nest(f, n, a)} = {a} & {nest(f, m, a)} = {a} -> "
            f"{nest(f, k, a)} = {a}")
    return Problem("chain", dict(command="check"), text, verdict(k % math.gcd(n, m) == 0))


def family_of_variants(lang_base: int, shift: int, kinds: list) -> list:
    """Variant instances of the additive encoding of `x1 + 1 = 0` and the
    multiplicative one of `x1 * x1 = 2`, with non-solution values that
    exercise the four failure cases (acceptance criterion 8)."""
    out = []
    for offset, kind in enumerate(kinds, start=1):
        lang = Lang(lang_base + offset)
        out.append(variant_instance(lang, kind, (shift + offset) % 4))
    return out


def variant_instance(lang: Lang, kind: str, case: int) -> str:
    z, zh, zt, k, kt = lang.z, lang.zh, lang.zt, lang.k, lang.kt
    if kind == "add":  # x1 + 1 = 0, bound to a non-solution
        x, w = [(f"pair({z}, {z})", zt), (z, f"s({k})"), (z, zt),
                (f"s({z})", f"s({zt})")][case]
        parts = [lang.num(x), lang.num(lang.n(1)), lang.num(z), lang.num_tilde(w),
                 lang.sim(lang.n(1), w), lang.plus(x, w, z)]
    elif kind == "sat":  # x1 + 1 = 2 at its solution x1 = 1
        x, w = f"s({z})", f"s({zt})"
        parts = [lang.num(x), lang.num(lang.n(1)), lang.num(lang.n(2)),
                 lang.num_tilde(w), lang.sim(lang.n(1), w), lang.plus(x, w, lang.n(2))]
    else:  # x1 * x1 = 2, bound to a non-solution; case 4 is the (1,1)-table pair
        x = z
        w, wt = [(f"s({z})", kt), (k, f"s({zh})"), (lang.semitable(0, 1, False), kt),
                 (k, kt), (lang.semitable(1, 1, False), lang.semitable(1, 1, True))][case]
        parts = [lang.num(x), lang.num(x), lang.num(lang.n(2)), lang.tab(w),
                 lang.tab_tilde(wt), lang.sim_tilde(w, wt),
                 lang.tim(x, x, lang.n(2), w, wt)]
    return " & ".join(parts)


_ALPHA_LINE = re.compile(r"alpha (\S+) = (\d+|J\(\d+,\d+\))")


def falsified(langs: list[int]) -> Check:
    """`countermodel` names every special constant of each language, in
    language order, and ends with FALSIFIED."""
    names = [special(b, i) for i in sorted(langs) for b in ("z", "zh", "zt", "k", "kt")]

    def check(status: int, output: str) -> bool:
        lines = output.splitlines()
        if status != 0 or not output.endswith("\n") or lines[-1:] != ["FALSIFIED"]:
            return False
        matches = [_ALPHA_LINE.fullmatch(line) for line in lines[:-1]]
        return all(matches) and [m.group(1) for m in matches] == names

    return check


def countermodel_problems(rng: random.Random, lang_base: int) -> list[Problem]:
    """The ten falsifiable and ten valid-disjunct families of criterion 8."""
    out = []
    command = dict(command="countermodel")
    for shift in range(4):
        out.append(family_of_variants(lang_base, shift, ["add"] * 3))
    for shift in range(4):
        out.append(family_of_variants(lang_base, shift, ["mul"] * 2))
    mixed = [variant_instance(Lang(lang_base + 1), "add", 3),
             variant_instance(Lang(lang_base + 2), "mul", 4)]
    out.append(mixed)
    out.append([variant_instance(Lang(lang_base + 1), "add", 2)])
    problems = []
    for family in out:
        langs = [lang_base + 1 + i for i in range(len(family))]
        rng.shuffle(family)  # the disjunct order does not change the answer
        problems.append(Problem("countermodel-falsified", command, " | ".join(family),
                                falsified(langs)))
    for good in (1, 2, 3):
        others = [variant_instance(Lang(lang_base + j), "add", j % 4)
                  for j in (1, 2, 3) if j != good]
        sat = variant_instance(Lang(lang_base + good), "sat", 0)
        for position in range(3):
            family = others[:position] + [sat] + others[position:]
            problems.append(Problem("countermodel-valid", command, " | ".join(family),
                                    exact(1, f"VALID DISJUNCT {position + 1}\n")))
    problems.append(Problem("countermodel-valid", command,
                            variant_instance(Lang(lang_base + 1), "sat", 0),
                            exact(1, "VALID DISJUNCT 1\n")))
    return problems


DEPTH_LADDER = (100, 250, 1000, 10000)


def validity_batch(rng: random.Random, batch: int) -> list[Problem]:
    name = Names(rng)
    lang = Lang(1 + batch % 7)
    problems = [cycle(n, name) for n in range(5, 14)]
    for holes in range(1, 6):
        problems.append(pigeonhole(holes + 1, holes, name))
        problems.append(pigeonhole(holes, holes, name))
    for i in range(40):  # depths spread evenly over 5..200; the seed moves them a step
        factor = 2 + i % 9  # a common factor, so that gcd(n, m) > 1
        steps = max(1, round(5 * (i + 1) / factor))
        n = factor * steps
        m = factor * max(1, (3 * steps) // 4 - rng.randint(0, 1))
        g = math.gcd(n, m)
        if i % 2 == 0:  # half valid: a multiple of the gcd
            k = g * max(1, n // g - rng.randint(0, 2))
        else:
            k = max(j for j in range(1, n + 1 - rng.randint(0, 2)) if j % g)
        problems.append(chain(n, m, k, name))
    check = dict(command="check")
    for i in range(40):
        m, p = rng.randint(0, 12), rng.randint(0, 12)
        q = m + p if i % 2 == 0 else rng.choice([j for j in range(0, 25) if j != m + p])
        text = lang.plus(lang.n(m), nest("s", p, lang.zt), lang.n(q))[1:-1]
        problems.append(Problem("plus", check, text, verdict(q == m + p)))
    for i in range(25):
        m = rng.randint(0, 12)
        p = m if i % 2 == 0 else rng.choice([j for j in range(0, 13) if j != m])
        text = lang.sim(lang.n(m), nest("s", p, lang.zt))[1:-1]
        problems.append(Problem("sim", check, text, verdict(m == p)))
    problems += countermodel_problems(rng, 10 * (1 + batch % 9))
    for k in DEPTH_LADDER:
        problems.append(Problem(f"depth{k}", check, f"{lang.n(k)} = {lang.n(k)}",
                                verdict(True)))
    return problems


# ---------------------------------------------------------------------------
# solve: bounded skeleton search on arithmetic encodings and guarded choice


def no_solution(bound: int) -> Check:
    return exact(1, f"NO SOLUTION WITHIN BOUND {bound}\n")


def witness(*terms: str) -> Check:
    return exact(0, "".join(f"*{i} := {t}\n" for i, t in enumerate(terms, start=1)))


MUL_PAIRS = ((1, 2), (2, 2), (3, 2), (0, 2), (4, 1))


def solve_batch(rng: random.Random, batch: int) -> list[Problem]:
    lang = Lang(1 + batch % 7)
    problems = []
    for m, p in MUL_PAIRS:
        bound = semitable_size(m, p)
        for q in sorted({m * p, m * p + 1, max(0, m * p - 1)}):
            matrix = lang.mul(lang.n(m), lang.n(p), lang.n(q), "?w1", "?w2")
            command = dict(command="solve", n=1, max_size=bound)
            expected = (witness(lang.semitable(m, p, False), lang.semitable(m, p, True))
                        if q == m * p else no_solution(bound))
            problems.append(Problem(f"mul{m}_{p}_{q}", command,
                                    f"exists ?w1. exists ?w2. {matrix}", expected))
    for i in range(64):
        m, p = divmod(i % 25, 5)
        q = m + p if i % 2 == 0 else rng.choice([j for j in range(0, 9) if j != m + p])
        bound = m + p + 3
        matrix = lang.add(lang.n(m), lang.n(p), lang.n(q), "?w1")
        expected = witness(nest("s", p, lang.zt)) if q == m + p else no_solution(bound)
        problems.append(Problem("add", dict(command="solve", n=1, max_size=bound),
                                f"exists ?w1. {matrix}", expected))
    name = Names(rng)
    for variant in range(2):
        pred = name("q", variant)
        for j in (1, 2, 3):
            consts = sorted(name("c", f"{variant}x{i}") for i in range(j))
            premise = " | ".join(f"{pred}({c})" for c in consts)
            text = f"exists ?v. {premise} -> {pred}(?v)"
            for n in (1, 2, 3):
                bound = rng.randint(1, 3)
                command = dict(command="solve", n=n, max_size=bound)
                # the canonically first tuple naming every premise constant
                expected = (witness(*([consts[0]] * (n - j + 1) + consts[1:]))
                            if n >= j else no_solution(bound))
                problems.append(Problem(f"guarded{j}_n{n}", command, text, expected))
    return problems


# ---------------------------------------------------------------------------
# sreu: clause conversion and per-problem solving


_SREU_LINE = re.compile(r"\[(\d+)\.(\d+)\] .+ -> .+|\[(\d+)\] (SOLVED (\S+)|NO SOLUTION WITHIN BOUND \d+)")


def sreu_answer(problem_count: int, width: int, solutions: set[str]) -> Check:
    """`sreu --solve` prints `width` constraint lines and one verdict line
    per problem; every witness must solve the input formula, and some
    problem is solved exactly when the formula has a solution."""

    def check(status: int, output: str) -> bool:
        if not output.endswith("\n"):
            return False
        constraints, verdicts, solved = 0, [], 0
        for line in output.splitlines():
            match = _SREU_LINE.fullmatch(line)
            if match is None:
                return False
            if match.group(1):
                constraints += 1
                continue
            verdicts.append(int(match.group(3)))
            if match.group(5) is not None:
                if match.group(5) not in solutions:
                    return False
                solved += 1
        return (verdicts == list(range(1, problem_count + 1))
                and constraints == problem_count * width
                and (solved > 0) == bool(solutions)
                and status == (0 if solved else 1))

    return check


def pipeline(k: int, flavour: str, name: Names) -> Problem:
    """p(a1) & ... & p(ak) & (*1 = a1 | ... | *1 = ak) -> p(c).

    Conversion gives one clause per disjunct and k alternatives per clause,
    so k^k problems of k constraints.  Flavours: `plain` is solved by *1 := c
    only; `nested` wraps the constants in f and is solved by *1 := f(c) only;
    `apart` compares f(*1) with the bare constants and has no solution.
    """
    pred, fn = name("p"), name("f")
    consts = [name("a", i) for i in range(1, k + 1)]
    c = name("c")
    wrap = (lambda t: f"{fn}({t})") if flavour == "nested" else (lambda t: t)
    unknown = f"{fn}(*1)" if flavour == "apart" else "*1"
    facts = [f"{pred}({wrap(a)})" for a in consts]
    choice = "(" + " | ".join(f"{unknown} = {wrap(a)}" for a in consts) + ")"
    text = " & ".join(facts + [choice]) + f" -> {pred}({wrap(c)})"
    solutions = set() if flavour == "apart" else {f"*1:={wrap(c)}"}
    return Problem(f"pipeline{k}-{flavour}", dict(command="sreu", solve=True, max_size=3),
                   text, sreu_answer(k ** k, k, solutions))


def two_unknowns(cross: bool, name: Names) -> Problem:
    """k = 2 with unknowns *1 and *2.  `cross` constrains each unknown by its
    own disjunction (4 clauses, 16 problems): solved when either is c.
    Otherwise one disjunction mentions both (2 clauses, 4 problems): solved
    by *1 = *2 = c only."""
    pred = name("p")
    a1, a2, c = name("a", 1), name("a", 2), name("c")
    facts = f"{pred}({a1}) & {pred}({a2})"
    if cross:
        text = (f"{facts} & (*1 = {a1} | *1 = {a2}) & (*2 = {a1} | *2 = {a2}) "
                f"-> {pred}({c})")
        solutions = ({f"*1:={c};*2:={t}" for t in (a1, a2, c)}
                     | {f"*1:={t};*2:={c}" for t in (a1, a2, c)})
        count, width = 16, 4
    else:
        text = f"{facts} & (*1 = {a1} | *2 = {a2}) -> {pred}({c})"
        solutions, count, width = {f"*1:={c};*2:={c}"}, 4, 2
    return Problem("two-unknowns-cross" if cross else "two-unknowns",
                   dict(command="sreu", solve=True, max_size=3), text,
                   sreu_answer(count, width, solutions))


SREU_MIX = {  # k -> count per flavour (plain, nested, apart)
    1: (8, 6, 6),
    2: (12, 10, 10),
    3: (8, 6, 6),
    4: (2, 1, 1),
    5: (1, 0, 0),
}


def sreu_batch(rng: random.Random, batch: int) -> list[Problem]:
    problems = []
    for k, counts in SREU_MIX.items():
        for flavour, count in zip(("plain", "nested", "apart"), counts):
            for _ in range(count):
                problems.append(pipeline(k, flavour, Names(rng)))
    for cross in (False, True):
        for _ in range(12):
            problems.append(two_unknowns(cross, Names(rng)))
    return problems


_BATCHES = {"validity": validity_batch, "solve": solve_batch, "sreu": sreu_batch}


def make_batch(workload: str, seed: int, batch: int, root: Path) -> list[Problem]:
    """The problems of one batch, family by family; the same (seed, batch)
    gives the same list."""
    rng = random.Random(f"hsk-bench:{workload}:{seed}:{batch}")
    return _BATCHES[workload](rng, batch) + golden_problems(workload, root)
