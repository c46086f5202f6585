"""Existential formulas, skeletons, and bounded brute-force solving.

The solver enumerates candidate tuples in a fixed canonical order (total
size first, then component-wise term order) so results are reproducible.
Candidate terms come from one bottom-up tree-automaton enumerator,
`_sized_terms`.  An unconstrained unknown gets the one-state automaton, which
accepts every term.  A conjunct that constrains a single unknown through a
chain of ground equality hypotheses narrows its stream to the target's
congruence class: the states are then the closure classes of the
hypotheses' subterms, each named by its root term in `qcheck`'s congruence
engine.  Every candidate stream, constrained or not, is built by
`_class_member_buckets` and kept in its one LRU cache of `_CLASS_CACHE_SIZE`
entries.  Every reported witness is still verified against the whole
formula.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Hashable, Iterator, Sequence

from . import qcheck
from .syntax import (
    Application,
    ContractError,
    Equality,
    Exists,
    Forall,
    Formula,
    FunctionSymbol,
    Implies,
    PredApp,
    PredicateSymbol,
    Signature,
    Term,
    Unknown,
    Variable,
    canonical_key,
    disj,
    flatten_and,
    nodes,
    substitute,
)


@dataclass(frozen=True)
class ExistentialFormula:
    """exists x1 ... xk . matrix, with a quantifier-free matrix."""

    bound_vars: tuple[Variable, ...]
    matrix: Formula

    def __post_init__(self) -> None:
        by_class: dict[type, set] = {}  # the matrix's nodes, from one walk
        for n in nodes(self.matrix):
            by_class.setdefault(type(n), set()).add(n)
        if Exists in by_class or Forall in by_class:
            raise ContractError("matrix must be quantifier-free")
        if Unknown in by_class:
            raise ContractError("matrix must not contain unknowns")
        if len(set(self.bound_vars)) != len(self.bound_vars):
            raise ContractError("bound variables must be distinct")
        # in a quantifier-free matrix every variable is free
        if not by_class.get(Variable, set()) <= set(self.bound_vars):
            raise ContractError("matrix has variables outside the bound tuple")


def existential_of(f: Formula) -> ExistentialFormula:
    """Peel the leading exists-prefix of a closed formula."""
    bound: list[Variable] = []
    while isinstance(f, Exists):
        bound.append(f.var)
        f = f.body
    return ExistentialFormula(tuple(bound), f)


def close_existentially(psi: ExistentialFormula) -> Formula:
    """The closed formula `exists bound_vars. matrix`; inverse of existential_of."""
    out = psi.matrix
    for v in reversed(psi.bound_vars):
        out = Exists(v, out)
    return out


@dataclass(frozen=True)
class Skeleton:
    source: ExistentialFormula
    n: int
    unknown_tuples: tuple[tuple[Unknown, ...], ...]
    formula: Formula

    def all_unknowns(self) -> tuple[Unknown, ...]:
        return tuple(u for tup in self.unknown_tuples for u in tup)


def make_skeleton(psi: ExistentialFormula, n: int) -> Skeleton:
    """The disjunction of n matrix copies over disjoint fresh unknown tuples.

    Unknowns are numbered 1.. in tuple order, so the result is a pure
    function of (psi, n).
    """
    if n < 1:
        raise ContractError("skeleton size must be >= 1")
    width = len(psi.bound_vars)
    tuples = []
    disjuncts = []
    counter = itertools.count(1)
    for _ in range(n):
        fresh = tuple(Unknown(next(counter)) for _ in range(width))
        tuples.append(fresh)
        disjuncts.append(substitute(psi.matrix, dict(zip(psi.bound_vars, fresh))))
    return Skeleton(psi, n, tuple(tuples), disj(disjuncts))


def verify_solution(sk: Skeleton, sol: dict[Unknown, Term]) -> bool:
    """Substitute and decide validity; the assignment must cover exactly
    the skeleton's unknowns with variable- and unknown-free terms."""
    if set(sol) != set(sk.all_unknowns()):
        raise ContractError("assignment does not match the skeleton's unknowns")
    if not all(t.ground for t in sol.values()):
        raise ContractError("assignment maps to non-ground terms")
    return qcheck.is_quasitautology(substitute(sk.formula, sol))


# ---------------------------------------------------------------------------
# Term enumeration


_INJECTED_CONSTANT = FunctionSymbol("c#0", 0)


def _sorted_symbols(sig: Signature) -> list[FunctionSymbol]:
    return sorted(sig.function_symbols, key=lambda f: (f.name, f.arity))


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ways to write total as an ordered sum of `parts` positive ints."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for head in range(1, total - parts + 2):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _sized_terms(
    sig: Signature,
    max_size: int,
    step: Callable[[FunctionSymbol, tuple[Hashable, ...]], Hashable | None],
) -> list[dict[Hashable, list[Term]]]:
    """sized[n][state] = the terms over sig of size n that the bottom-up tree
    automaton `step` takes to `state`, each list sorted by canonical_key.

    `step(symbol, arg_states)` is the transition: the state of an
    application from the states of its arguments, or None to reject it.  It
    is called once per tuple of argument states, and the argument terms are
    combined only for accepted tuples.  A signature without constants gets
    one fresh constant injected so the enumeration is never vacuously empty.
    """
    symbols = _sorted_symbols(sig)
    if not any(f.arity == 0 for f in symbols):
        symbols = sorted(symbols + [_INJECTED_CONSTANT], key=lambda f: (f.name, f.arity))
    sized: list[dict[Hashable, list[Term]]] = [{} for _ in range(max_size + 1)]
    for n in range(1, max_size + 1):
        fresh = sized[n]
        for symbol in symbols:
            for shape in _compositions(n - 1, symbol.arity):
                for states in itertools.product(*(sized[s] for s in shape)):
                    state = step(symbol, states)
                    if state is None:
                        continue
                    pools = (sized[s][q] for s, q in zip(shape, states))
                    fresh.setdefault(state, []).extend(
                        Application(symbol, args) for args in itertools.product(*pools)
                    )
        for terms in fresh.values():
            terms.sort(key=canonical_key)
    return sized


def _any_term(symbol: FunctionSymbol, arg_states: tuple[int, ...]) -> int:
    """The one-state automaton: it accepts every term."""
    return 0


def enumerate_terms(sig: Signature, max_size: int) -> Iterator[Term]:
    """All variable- and unknown-free terms over sig with size <= max_size,
    in canonical order, without duplicates.

    A signature without constants gets one fresh constant injected so the
    stream is never vacuously empty.
    """
    if max_size < 0:
        raise ContractError("size bound must be >= 0")
    for bucket in _class_member_buckets((), None, sig, max_size):
        yield from bucket


# ---------------------------------------------------------------------------
# Candidate streams from single-unknown equality constraints


def _peel_implication(f: Formula) -> tuple[list[Formula], Formula]:
    hypotheses: list[Formula] = []
    while isinstance(f, Implies):
        hypotheses.extend(flatten_and(f.lhs))
        f = f.rhs
    return hypotheses, f


def _unary_constraint(conjunct: Formula, u: Unknown) -> tuple[tuple[tuple[Term, Term], ...], Term] | None:
    """Match `hyps -> s = u` (or `u = s`) with ground hyps and s."""
    hypotheses, conclusion = _peel_implication(conjunct)
    if not isinstance(conclusion, Equality):
        return None
    parts: list[tuple[Term, Term]] = []
    for h in hypotheses:
        if not isinstance(h, Equality):
            return None
        if not (h.lhs.ground and h.rhs.ground):
            return None
        parts.append((h.lhs, h.rhs))
    for target, slot in ((conclusion.lhs, conclusion.rhs), (conclusion.rhs, conclusion.lhs)):
        if slot == u and target.ground:
            return (tuple(parts), target)
    return None


# Distinct (equalities, target, sig, max_size) keys kept by
# _class_member_buckets, for constrained and unconstrained streams alike;
# the least recently used one is dropped beyond it.
_CLASS_CACHE_SIZE = 128


@lru_cache(maxsize=_CLASS_CACHE_SIZE)
def _class_member_buckets(
    equalities: tuple[tuple[Term, Term], ...],
    target: Term | None,
    sig: Signature,
    max_size: int,
) -> tuple[tuple[Term, ...], ...]:
    """buckets[n] = terms t over sig of size n with `equalities -> target = t`
    valid, i.e. the members of target's congruence class, smallest first;
    a target of None asks for every term, through the one-state automaton.

    The classes of the (finite) subterm universe, named by their root
    terms, act as automaton states: an application belongs to a universe
    class exactly when some universe application with the same symbol and
    argument classes does.  The engine closes the leaves under subterms
    itself, and its `parent` table lists that universe.
    """
    if target is None:
        step, accepting = _any_term, 0
    else:
        leaves = [target]
        for lhs, rhs in equalities:
            leaves.extend((lhs, rhs))
        closure = qcheck.CongruenceEngine(leaves)
        for lhs, rhs in equalities:
            closure.merge(lhs, rhs)
        find = closure.find

        transitions: dict[tuple, Term] = {}
        for t in closure.parent:  # the subterms of the leaves
            if isinstance(t, Application):
                transitions[(t.symbol, tuple([find(a) for a in t.args]))] = find(t)

        def step(symbol: FunctionSymbol, states: tuple[Term, ...]) -> Term | None:
            return transitions.get((symbol, states))

        accepting = find(target)
    sized = _sized_terms(sig, max_size, step)
    return tuple(tuple(by_state.get(accepting, ())) for by_state in sized)


# ---------------------------------------------------------------------------
# Bounded search


def _candidate_buckets(
    conjuncts: list[Formula],
    used_by: list[list[Unknown]],
    unknowns: tuple[Unknown, ...],
    sig: Signature,
    max_size: int,
) -> tuple[list[tuple[tuple[Term, ...], ...]], set[int]] | None:
    """Per-unknown size buckets, narrowed by matching unary constraints.

    `used_by[i]` lists the unknowns of `conjuncts[i]`.  Returns the buckets
    plus the indices of conjuncts consumed as stream constraints (their
    validity is guaranteed for stream members), or None when some
    ground conjunct is already invalid.
    """
    for c in conjuncts:
        if c.ground and not qcheck.is_quasitautology(c):
            return None
    per_unknown: list[tuple[tuple[Term, ...], ...]] = []
    consumed: set[int] = set()
    for u in unknowns:
        constraint = None
        for idx, c in enumerate(conjuncts):
            if idx not in consumed and used_by[idx] == [u]:
                constraint = _unary_constraint(c, u)
                if constraint is not None:
                    consumed.add(idx)
                    break
        eqs, target = constraint or ((), None)
        per_unknown.append(_class_member_buckets(eqs, target, sig, max_size))
    return per_unknown, consumed


def iter_formula_solutions(
    formula: Formula,
    unknowns: Sequence[Unknown] | None = None,
    sig: Signature | None = None,
    max_size: int = 6,
) -> Iterator[dict[Unknown, Term]]:
    """Solutions for the given unknown tuple in canonical order, each a
    dict from the unknowns to ground terms.

    Order: smallest total size first, then lexicographically by the
    canonical term order along the tuple.  The formula must be
    quantifier-free.  One walk of each conjunct gives its unknowns and its
    symbols; without `unknowns` the search takes the formula's, in first
    occurrence order, and without `sig` the symbols of the formula.
    """
    if max_size < 0:
        raise ContractError("size bound must be >= 0")
    conjuncts = flatten_and(formula)
    used_by: list[list[Unknown]] = []  # the unknowns of each conjunct
    functions: set[FunctionSymbol] = set()
    predicates: set[PredicateSymbol] = set()
    for c in conjuncts:
        used = []
        for n in nodes(c):
            if isinstance(n, Unknown):
                used.append(n)
            elif isinstance(n, Application):
                functions.add(n.symbol)
            elif isinstance(n, PredApp):
                predicates.add(n.symbol)
            elif isinstance(n, (Exists, Forall)):
                raise ContractError("input must be quantifier-free")
        used_by.append(used)
    if unknowns is None:
        unknowns = dict.fromkeys(u for used in used_by for u in used)
    unknowns = tuple(unknowns)
    if sig is None:
        sig = Signature(frozenset(functions), frozenset(predicates))
    if not unknowns:
        if qcheck.is_quasitautology(formula):
            yield {}
        return
    narrowed = _candidate_buckets(conjuncts, used_by, unknowns, sig, max_size)
    if narrowed is None:
        return
    per_unknown, consumed = narrowed

    position = {u: i for i, u in enumerate(unknowns)}
    checks_at_depth: list[list[Formula]] = [[] for _ in unknowns]
    for idx, (c, used) in enumerate(zip(conjuncts, used_by)):
        if idx in consumed:
            continue
        if used and all(u in position for u in used):
            checks_at_depth[max(position[u] for u in used)].append(c)

    min_size: list[int] = []
    max_of: list[int] = []
    for buckets in per_unknown:
        sizes = [n for n, b in enumerate(buckets) if b]
        if not sizes:
            return
        min_size.append(sizes[0])
        max_of.append(sizes[-1])
    suffix_min = [0] * (len(unknowns) + 1)
    suffix_max = [0] * (len(unknowns) + 1)
    for i in range(len(unknowns) - 1, -1, -1):
        suffix_min[i] = suffix_min[i + 1] + min_size[i]
        suffix_max[i] = suffix_max[i + 1] + max_of[i]

    assignment: dict[Unknown, Term] = {}

    def prune_fails(depth: int) -> bool:
        """A conjunct whose last unknown is this one fails."""
        for c in checks_at_depth[depth]:
            if not qcheck.is_quasitautology(substitute(c, assignment)):
                return True
        return False

    def candidates(depth: int, budget: int) -> Iterator[tuple[int, Term]]:
        """(budget left, term) for each term unknown `depth` may take so
        that the later unknowns can use up exactly what is left."""
        low = max(min_size[depth], budget - suffix_max[depth + 1])
        high = min(max_of[depth], budget - suffix_min[depth + 1])
        return ((budget - n, t) for n in range(low, high + 1) for t in per_unknown[depth][n])

    for total in range(suffix_min[0], suffix_max[0] + 1):
        levels = [candidates(0, total)]  # the candidates left for each assigned unknown
        while levels:
            depth = len(levels) - 1
            picked = next(levels[-1], None)
            if picked is None:
                levels.pop()
                assignment.pop(unknowns[depth], None)
                continue
            left, assignment[unknowns[depth]] = picked
            if prune_fails(depth):
                continue
            if depth + 1 < len(unknowns):
                levels.append(candidates(depth + 1, left))
                continue
            if qcheck.is_quasitautology(substitute(formula, assignment)):
                yield dict(assignment)


def iter_solutions(
    sk: Skeleton, sig: Signature | None = None, max_size: int = 6
) -> Iterator[dict[Unknown, Term]]:
    yield from iter_formula_solutions(sk.formula, sk.all_unknowns(), sig, max_size)


def solve_bounded(
    sk: Skeleton, sig: Signature | None = None, max_size: int = 6
) -> dict[Unknown, Term] | None:
    """First solution in canonical order with every term of size <= max_size,
    or None when the bounded space is exhausted (which does not imply the
    skeleton is unsolvable)."""
    for solution in iter_solutions(sk, sig, max_size):
        return solution
    return None
