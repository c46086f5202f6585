"""Shared test utilities: seeded random generators and independent oracles."""

from __future__ import annotations

import importlib.util
import itertools
import pathlib
import random
import sys
from typing import Iterator

from hsk.arith import DiophantineFormula, DiophKind, Semitable, zero
from hsk.skeleton import _class_member_buckets
from hsk.sreu import Clause, SREUProblem
from hsk.syntax import (
    And,
    Application,
    ContractError,
    Equality,
    Formula,
    FunctionSymbol,
    Implies,
    Not,
    Or,
    PredApp,
    PredicateSymbol,
    Signature,
    Term,
    Unknown,
    Variable,
    conj,
    disj,
    nodes,
    numeral_of,
    subterms,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent

CONSTS = [FunctionSymbol(n, 0) for n in ("a", "b", "c")]
F1 = FunctionSymbol("f", 1)
G2 = FunctionSymbol("g", 2)
H3 = FunctionSymbol("h", 3)
P1 = PredicateSymbol("p", 1)
Q2 = PredicateSymbol("q", 2)


def bench_problems():
    """perfbench/problems.py, loaded from its file as the benchmark does."""
    spec = importlib.util.spec_from_file_location("perfbench_problems",
                                                  ROOT / "perfbench" / "problems.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def unknowns_of(x: Term | Formula) -> list[Unknown]:
    """Unknowns occurring in x, in first occurrence order."""
    return [n for n in nodes(x) if isinstance(n, Unknown)]


def problem_of(clauses: tuple[Clause, ...]) -> SREUProblem:
    """The problem of these rigid clauses, each constraint built from its
    own `Clause.formula()`."""
    return SREUProblem(tuple(c.formula() for c in clauses))


def signature_of(f: Formula) -> Signature:
    """Exactly the function and predicate symbols occurring in f."""
    fns: set[FunctionSymbol] = set()
    preds: set[PredicateSymbol] = set()
    for n in nodes(f):
        if isinstance(n, Application):
            fns.add(n.symbol)
        elif isinstance(n, PredApp):
            preds.add(n.symbol)
    return Signature(frozenset(fns), frozenset(preds))


def enumerate_terms(sig: Signature, max_size: int) -> Iterator[Term]:
    """All variable- and unknown-free terms over sig with size <= max_size,
    in canonical order, without duplicates: the search's stream of an
    unconstrained unknown.

    A signature without constants gets one fresh constant injected so the
    stream is never vacuously empty.
    """
    if max_size < 0:
        raise ContractError("size bound must be >= 0")
    for bucket in _class_member_buckets(None, sig, max_size):
        yield from bucket


def random_ground_term(rng: random.Random, max_size: int) -> Term:
    """A ground term over {a, b, c, f/1, g/2, h/3} with at most max_size nodes."""
    if max_size <= 1:
        return Application(rng.choice(CONSTS), ())
    roll = rng.random()
    if roll < 0.35:
        return Application(rng.choice(CONSTS), ())
    if roll < 0.65:
        return Application(F1, (random_ground_term(rng, max_size - 1),))
    if roll < 0.9 or max_size < 4:
        budget = max_size - 1
        left = random_ground_term(rng, rng.randint(1, max(1, budget - 1)))
        return Application(G2, (left, random_ground_term(rng, budget - 1)))
    budget = max_size - 1
    parts = [random_ground_term(rng, max(1, budget // 3)) for _ in range(3)]
    return Application(H3, tuple(parts))


def random_ground_formula(rng: random.Random, pool: list[Term], depth: int,
                          pred_atoms: list[PredApp]) -> Formula:
    """A ground formula over a fixed term pool and optional predicate atoms."""
    if depth <= 0 or rng.random() < 0.3:
        if pred_atoms and rng.random() < 0.4:
            return rng.choice(pred_atoms)
        return Equality(rng.choice(pool), rng.choice(pool))
    roll = rng.random()
    sub = lambda: random_ground_formula(rng, pool, depth - 1, pred_atoms)
    if roll < 0.2:
        return Not(sub())
    if roll < 0.45:
        return And(sub(), sub())
    if roll < 0.7:
        return Or(sub(), sub())
    return Implies(sub(), sub())


def _constant(name: str) -> Term:
    return Application(FunctionSymbol(name, 0), ())


def cycle_formula(n: int) -> Formula:
    """Every vertex of an n-cycle is red or blue, adjacent vertices differ
    -> red = blue.  Valid exactly when n is odd."""
    vs = [_constant(f"v{i}") for i in range(n)]
    red, blue = _constant("red"), _constant("blue")
    colours = [Or(Equality(v, red), Equality(v, blue)) for v in vs]
    edges = [Not(Equality(vs[i], vs[(i + 1) % n])) for i in range(n)]
    return Implies(conj(colours + edges), Equality(red, blue))


def pigeonhole_formula(pigeons: int, holes: int) -> Formula:
    """Pairwise distinct pigeons, each equal to some hole -> e1 = e2.
    Valid exactly when there are more pigeons than holes."""
    ps = [_constant(f"p{i}") for i in range(pigeons)]
    hs = [_constant(f"h{j}") for j in range(holes)]
    places = [disj([Equality(p, h) for h in hs]) for p in ps]
    apart = [Not(Equality(ps[i], ps[j]))
             for i in range(pigeons) for j in range(i + 1, pigeons)]
    return Implies(conj(places + apart), Equality(_constant("e1"), _constant("e2")))


# ---------------------------------------------------------------------------
# Exhaustive model enumeration for small ground formulas.
#
# A structure decides a ground formula through (1) which of the formula's
# subterms it identifies and (2) the truth of the predicate atoms, constant
# across congruent argument tuples.  Identification patterns are exactly the
# congruence-compatible partitions of the subterm set, each realised by a
# quotient structure, so enumerating partitions plus valuations enumerates
# all structures up to the formula's horizon.


def _set_partitions(items: list) -> Iterator[list[list]]:
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[head] + partition[i]] + partition[i + 1:]
        yield [[head]] + partition


def formula_terms(f: Formula) -> list[Term]:
    """Distinct subterms of the atoms of f, in first occurrence order."""
    out: list[Term] = []
    seen = set()

    def walk(g: Formula) -> None:
        if isinstance(g, Equality):
            leaves = (g.lhs, g.rhs)
        elif isinstance(g, PredApp):
            leaves = g.args
        elif isinstance(g, Not):
            walk(g.body)
            return
        else:
            walk(g.lhs)
            walk(g.rhs)
            return
        for leaf in leaves:
            for t in subterms(leaf):
                if t not in seen:
                    seen.add(t)
                    out.append(t)

    walk(f)
    return out


def _congruence_compatible(block_of: dict[Term, int], terms: list[Term]) -> bool:
    apps = [t for t in terms if isinstance(t, Application) and t.args]
    for s, t in itertools.combinations(apps, 2):
        if s.symbol != t.symbol:
            continue
        if all(block_of[x] == block_of[y] for x, y in zip(s.args, t.args)):
            if block_of[s] != block_of[t]:
                return False
    return True


def _pred_atoms(f: Formula) -> list[PredApp]:
    out: list[PredApp] = []
    seen = set()

    def walk(g: Formula) -> None:
        if isinstance(g, PredApp):
            if g not in seen:
                seen.add(g)
                out.append(g)
        elif isinstance(g, Not):
            walk(g.body)
        elif isinstance(g, Equality):
            return
        else:
            walk(g.lhs)
            walk(g.rhs)

    walk(f)
    return out


def _evaluate(f: Formula, block_of: dict[Term, int], pred_val: dict[tuple, bool]) -> bool:
    if isinstance(f, Equality):
        return block_of[f.lhs] == block_of[f.rhs]
    if isinstance(f, PredApp):
        return pred_val[(f.symbol, tuple(block_of[a] for a in f.args))]
    if isinstance(f, Not):
        return not _evaluate(f.body, block_of, pred_val)
    if isinstance(f, And):
        return _evaluate(f.lhs, block_of, pred_val) and _evaluate(f.rhs, block_of, pred_val)
    if isinstance(f, Or):
        return _evaluate(f.lhs, block_of, pred_val) or _evaluate(f.rhs, block_of, pred_val)
    return (not _evaluate(f.lhs, block_of, pred_val)) or _evaluate(f.rhs, block_of, pred_val)


def valid_by_model_enumeration(f: Formula) -> bool:
    """Independent validity oracle: try every congruence-compatible
    identification of the subterms and every predicate valuation."""
    terms = formula_terms(f)
    atoms = _pred_atoms(f)
    for partition in _set_partitions(terms):
        block_of = {t: i for i, block in enumerate(partition) for t in block}
        if not _congruence_compatible(block_of, terms):
            continue
        keys = sorted(
            {(a.symbol, tuple(block_of[x] for x in a.args)) for a in atoms},
            key=repr,
        )
        for bits in itertools.product((False, True), repeat=len(keys)):
            pred_val = dict(zip(keys, bits))
            if not _evaluate(f, block_of, pred_val):
                return False
    return True


def parse_semitable(t: Term, x: Term, y: Term, z_slot: Term) -> Semitable | None:
    """Recognise t as a semitable instance over (x, y, z_slot)."""
    rows: list[tuple[int, int]] = []
    while t != z_slot:
        if not (isinstance(t, Application) and t.symbol.name == "pair"):
            return None
        row, t = t.args
        if not (isinstance(row, Application) and row.symbol.name == "pair"):
            return None
        p = numeral_of(row.args[0], x)
        q = numeral_of(row.args[1], y)
        if p is None or q is None:
            return None
        rows.append((p, q))
    return Semitable(tuple(rows))


def eval_diophantine(psi: DiophantineFormula) -> bool:
    """Arithmetic truth of a closed diophantine formula."""
    z0 = zero(0)
    total = True
    for atom in psi.atoms:
        values = []
        for t in atom.terms():
            m = numeral_of(t, z0) if not isinstance(t, Variable) else None
            if m is None:
                raise ContractError(f"free variable in closed formula: {t}")
            values.append(m)
        a, b, c = values
        total = total and ((a + b == c) if atom.kind is DiophKind.ADD else (a * b == c))
    return total
