"""Existential formulas, skeletons, and bounded brute-force solving.

The solver enumerates candidate tuples in a fixed canonical order (total
size first, then component-wise term order) so results are reproducible.
It takes a conjunction as the sequence of its conjuncts: a skeleton's are
those of its formula, an sreu problem's are its constraints.

A search is planned before it runs.  The plan builds everything that does
not depend on the terms assigned: each conjunct's role, each unknown's
stream, and for a search with join filters its key tables, the key states
of its streams' terms, its indexes and its side programs.  The run then
only reads prefixes, the terms of the first unknowns, and the candidates
the plan gives each.

One pass over the conjuncts gives each conjunct one of four roles, which
it keeps for the whole search.  A conjunct without unknowns is *decided at
once*, so a search without unknowns ends with the plan.  Any other waits
for the depth of its last unknown u, the one the search assigns last, and
is matched once against `E' -> l = r` (`_horn`), with E' a set of
equations and a fresh constant, the hole, for u wherever u occurs.  It is
then
- a *class restriction* of u where the match is ground throughout;
- a *join filter* of u where E' is ground and hole-free and the bare hole
  faces a side of earlier unknowns;
- a *check*, decided for every candidate of u, otherwise.

A class restriction holds at u := t exactly when E' and hole = t imply
l = r, the hole being fresh: where E' alone implies l = r, so that every
term passes and the restriction is dropped, or where t's class in the
closure of E' over the hole, l and r is a root whose merge with the hole
joins l and r.  This is rigid E-unification of one variable (Gallier,
Narendran, Plaisted & Snyder, Inf. & Comp. 1990).  The classes are the
states of a bottom-up tree automaton (Downey, Sethi & Tarjan, JACM 1980),
and `_sized_terms` is the one enumerator of the terms each state accepts;
an unconstrained stream is that of the one-state automaton.  It gives each
term its rank as it builds it, its place by size and then in canonical
order, which within one size is by symbol and then by the tuple of its
arguments' ranks, so no term is walked to be sorted.
`_class_member_buckets` keeps the members of a restriction's accepted
roots, merged by rank, with the ranks (`Stream`), in its one LRU cache of
`_CLASS_CACHE_SIZE` entries, so the problems of one `sreu` conversion
share them.  u's stream
is the bucket-wise intersection of its restrictions' streams, and a
restriction whose stream is empty ends the search at plan time.  A
restriction that accepts no class fails whatever u is, at every size and
over every signature, so the memo keeps that verdict.

A join filter `E -> u = side` holds earlier unknowns in its side, so it is
decided only during the search.  The closure of E and its transition table
(`_congruence_table`) give every ground term a class key, the state of a
bottom-up key automaton, and the conjunct is valid exactly when u and the
side have one key.  The plan builds one table per distinct E and keys
into it each term that the enumerations of u's and the held unknowns'
streams built, from its arguments' keys, in rank order, one lookup each
(`_key_states`).  Then u's index is its stream by size and by its
candidates' key states (`_index`), and each side is compiled once to a
postorder program over its unknowns' slots (`_side_program`), which runs
on the key states of the prefix's terms, without building the instance,
once per tuple of terms assigned to the unknowns the depth's sides hold.
The search then reads only the candidates whose keys are those of the
filters' sides: a hash join that drops a candidate only where a check
would have rejected it, so the stream keeps its order.  Tables, keys,
indexes and programs live as long as one search.  Every reported witness
is still verified, conjunct by conjunct, apart from the streams and keys
that found it: a conjunction is valid exactly when each of its conjuncts
is.

The search reads each prefix, the terms of the unknowns before u, once.
The depths are a chain of generators, built by a loop, each reading the
prefixes of the one before in order, by total size and then along the
tuple.  A prefix waits under every total, its size + n, at which u has
candidates of size n for it: every size of u's stream, or where u has join
filters, the sizes of the index entry of the prefix's side keys.  Once
every prefix of size at most s has come, so have all those waiting under
the totals up to s + u's least size, and each such total is emitted: its
waiting prefixes in tuple order, each followed by its candidates that pass
the checks at u, and then a marker that every prefix up to the last
total emitted has come.  The last depth feeds the final verification.

A `SearchMemo` holds what does not depend on the signature or the bound:
the walk of each conjunct (its unknowns in first occurrence order and its
symbols), its match with each unknown as the hole and the role that match
gives it, the set of conjuncts known to fail whatever their terms, and
the verdict of each conjunct decided by a check or a witness's
verification, under the conjunct and the terms assigned to its own
unknowns.  An equational Horn conjunct is decided by one congruence
closure over its match and the terms of its unknowns, any other by qcheck
(`SearchMemo.holds`).  A search makes a fresh memo unless it is given one;
a command that solves many conjunctions of few distinct conjuncts, as
`hsk sreu --solve` does with the k^k problems of one conversion, passes
one memo to every search, so each distinct conjunct is walked once,
matched and given its role once per unknown, and decided once under each
tuple of terms.  A search that holds a conjunct known to fail ends before
it builds a signature or a stream, as most of the k^k problems do; where
the memo has met all its conjuncts and no unknowns are given to check, it
ends before its walks too.  The memo lives as long as the command.
Streams, keys, indexes and programs are still built per search: they
depend on the signature and the bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter, itemgetter
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

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
    disj,
    flatten_and,
    nodes,
    substitute,
    subterms,
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
    """All ways to write total as an ordered sum of `parts` positive ints,
    in lexicographic order: the gaps between 0, the cut points and total."""
    if parts == 0 or total < parts:
        if total == parts:
            yield ()
        return
    for cuts in itertools.combinations(range(1, total), parts - 1):
        bounds = (0, *cuts, total)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def _sized_terms(
    sig: Signature,
    max_size: int,
    step: Callable[[FunctionSymbol, tuple[Hashable, ...]], Hashable | None],
) -> tuple[list[dict[Hashable, list[Term]]], dict[Term, int]]:
    """(sized, rank): sized[n][state] = the terms over sig of size n that
    the bottom-up tree automaton `step` takes to `state`, in canonical
    order, and rank[t] = t's place among all the terms built, by size and
    then in canonical order.

    Within one size that order is by symbol and then by the tuple of the
    argument ranks, across every composition of the argument sizes: each
    size's terms are sorted once on that tuple, and no term is walked.
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
    rank: dict[Term, int] = {}
    for n in range(1, max_size + 1):
        built: list[tuple[tuple[int, ...], Term, Hashable]] = []  # (order, term, state)
        for place, symbol in enumerate(symbols):
            for shape in _compositions(n - 1, symbol.arity):
                for states in itertools.product(*(sized[s] for s in shape)):
                    state = step(symbol, states)
                    if state is None:
                        continue
                    pools = (sized[s][q] for s, q in zip(shape, states))
                    built += [((place, *map(rank.__getitem__, args)), Application(symbol, args),
                               state) for args in itertools.product(*pools)]
        if built:
            built.sort(key=itemgetter(0))
            fresh = sized[n]
            for _, t, state in built:
                rank[t] = len(rank)
                fresh.setdefault(state, []).append(t)
    return sized, rank


def _any_term(symbol: FunctionSymbol, arg_states: tuple[int, ...]) -> int:
    """The one-state automaton: it accepts every term."""
    return 0


# ---------------------------------------------------------------------------
# Candidate streams from ground equational conjuncts


# Equations as (lhs, rhs) pairs; a closure takes only ground ones.
Equalities = tuple[tuple[Term, Term], ...]
# `E' -> l = r` with the hole for u: E' as pairs, l and r.
Horn = tuple[Equalities, Term, Term]


class Stream(tuple):
    """stream[n] = an unknown's candidate terms of size n, in canonical
    order: a tuple of buckets, with the ranks of the enumeration that built
    them.  `rank` gives every term it built, the stream's terms and their
    subterms, its place by size and then in canonical order
    (`_sized_terms`), so each term comes after its arguments."""

    rank: dict[Term, int]

    def __new__(cls, buckets: Iterable[tuple[Term, ...]], rank: dict[Term, int]):
        stream = super().__new__(cls, buckets)
        stream.rank = rank
        return stream


# The fresh constant that stands for u; its name is no token, so no parsed
# term holds it.
_HOLE = Application(FunctionSymbol("#hole", 0), ())


def _horn(conjunct: Formula, u: Unknown) -> Horn | None:
    """Match `hyps -> l = r`, curried or not, where every hyp is an
    equation, and put `_HOLE` for u wherever u occurs: the hyps as pairs and
    the conclusion's sides, a bare hole first.  A bare u is the hole itself,
    a side without u is kept as it is, and only a side that holds u below a
    symbol is rebuilt."""
    pairs: list[tuple[Term, Term]] = []
    while isinstance(conjunct, Implies):
        for h in flatten_and(conjunct.lhs):
            if not isinstance(h, Equality):
                return None
            pairs.append((h.lhs, h.rhs))
        conjunct = conjunct.rhs
    if not isinstance(conjunct, Equality):
        return None

    def hole(t: Term) -> Term:
        if t is u:
            return _HOLE
        if t.ground or u not in subterms(t):
            return t
        return substitute(t, {u: _HOLE})

    *parts, (l, r) = [(hole(lhs), hole(rhs))
                      for lhs, rhs in (*pairs, (conjunct.lhs, conjunct.rhs))]
    return (tuple(parts), r, l) if r is _HOLE else (tuple(parts), l, r)


_RESTRICTION, _JOIN, _CHECK = "restriction", "join", "check"


def _role(horn: Horn | None) -> str:
    """What the plan makes of a conjunct with this match: a class
    restriction where the match is ground throughout, a join filter where
    E' is ground and hole-free and the bare hole faces a side of earlier
    unknowns, and a check otherwise."""
    if horn is None:
        return _CHECK
    equalities, l, r = horn
    hyps = [side for pair in equalities for side in pair]
    if all(t.ground for t in (l, r, *hyps)):
        return _RESTRICTION
    if l is _HOLE and all(t.ground for t in hyps) and not any(
            s is _HOLE for t in (r, *hyps) for s in subterms(t)):
        return _JOIN
    return _CHECK


def _congruence_table(
    equalities: Equalities, leaves: Sequence[Term] = ()
) -> tuple[qcheck.CongruenceEngine, dict[tuple, Term]]:
    """The closure of the equalities over the leaves and their sides, closed
    under subterms, and its transition table mapping each universe
    application's (symbol, argument roots) to its root."""
    closure = qcheck.CongruenceEngine([*leaves, *(side for pair in equalities for side in pair)])
    for lhs, rhs in equalities:
        closure.merge(lhs, rhs)
    find = closure.find
    transitions: dict[tuple, Term] = {}
    for t in closure.parent:  # the subterms of the leaves
        if isinstance(t, Application):
            transitions[(t.symbol, tuple([find(a) for a in t.args]))] = find(t)
    return closure, transitions


def _key_states(terms: Iterable[Term], table: dict[tuple, Hashable]) -> dict[Term, Hashable]:
    """The class key of each term, in the congruence closure whose
    transition table this is (`_congruence_table`).  Every term comes
    after its arguments, as in the ranks of the enumeration that built
    them, and its key is one step of the closure's key automaton: the
    table's entry for its symbol and its arguments' keys.

    Where the closure's universe has no such application, the entry is a
    new number, made the first time it is met, so keys stay flat: a term
    outside the universe meets a universe class exactly when it is
    congruent to a member, and two terms have one key exactly when the
    equalities imply that they are equal.  Terms keyed into one table have
    one key whichever stream they come from."""
    keys: dict[Term, Hashable] = {}
    of = keys.__getitem__
    for t in terms:
        keys[t] = table.setdefault((t.symbol, tuple(map(of, t.args))), len(table))
    return keys


# Distinct (restriction, sig, max_size) keys kept by _class_member_buckets,
# for restricted and unconstrained streams alike; the least recently used
# one is dropped beyond it.
_CLASS_CACHE_SIZE = 128


@lru_cache(maxsize=_CLASS_CACHE_SIZE)
def _class_member_buckets(
    restriction: Horn | None, sig: Signature, max_size: int
) -> Stream | None:
    """buckets[n] = the terms t over sig of size n that make the class
    restriction `E' -> l = r` valid at hole := t, in canonical order; a
    restriction of None asks for every term, through the one-state
    automaton.  Where every term makes it valid, the result is None, so
    that no search builds the stream of every term for a conjunct that
    holds whatever u is.  Where no class is accepted, the result is (), no
    bucket at all: no term makes it valid at any size.  That sets it apart
    from accepted classes without a member within the bound, whose buckets
    are all empty.

    The states are the classes of the closure of E' over the hole, l and
    r, named by their roots: an application is in a class exactly when
    some universe application with its symbol and argument classes is.
    The accepted roots are those whose merge with the hole joins l and r,
    and a bucket is their terms merged by rank.
    """
    if restriction is None:
        step: Callable[[FunctionSymbol, tuple], Hashable | None] = _any_term
        accepting: list[Hashable] = [0]
    else:
        equalities, l, r = restriction
        closure, transitions = _congruence_table(equalities, (_HOLE, l, r))
        if closure.same(l, r):
            return None
        accepting = []
        for root in {closure.find(t) for t in closure.parent}:
            mark = closure.mark()
            closure.merge(root, _HOLE)
            if closure.same(l, r):
                accepting.append(root)
            closure.undo(mark)
        if not accepting:
            return ()

        def step(symbol: FunctionSymbol, states: tuple[Term, ...]) -> Term | None:
            return transitions.get((symbol, states))

    sized, rank = _sized_terms(sig, max_size, step)
    return Stream([tuple(sorted(itertools.chain(*[by_state.get(q, ()) for q in accepting]),
                                key=rank.__getitem__)) for by_state in sized], rank)


def _intersection(streams: list[Stream]) -> Stream:
    """The terms of every stream, bucket by bucket, in canonical order; the
    first stream's enumeration ranks them."""
    if len(streams) == 1:
        return streams[0]
    out = []
    for buckets in zip(*streams):
        base = min(buckets, key=len)
        others = [set(b) for b in buckets if b is not base]
        out.append(tuple([t for t in base if all(t in other for other in others)]))
    return Stream(out, streams[0].rank)


# ---------------------------------------------------------------------------
# Bounded search


# A conjunct's unknowns in first occurrence order, and its function and
# predicate symbols.
Walk = tuple[tuple[Unknown, ...], frozenset[FunctionSymbol], frozenset[PredicateSymbol]]


# A prefix of the search, the terms of the first unknowns, with its total
# size; (size, None) says that every prefix of size at most size has come.
Prefixed = tuple[int, tuple[Term, ...] | None]
# An unknown's candidates that fit a prefix, as (size, terms) by size.
Sizes = Sequence[tuple[int, Sequence[Term]]]


def _index(sized: Sizes, keys: Sequence[Mapping[Term, Hashable]]) -> dict[tuple, Sizes]:
    """An unknown's candidates by their tuple of key states, one per join
    filter, each as (size, terms) by size, in the stream's order."""
    index: dict[tuple, list[tuple[int, list[Term]]]] = {}
    for n, bucket in sized:
        by_keys: dict[tuple, list[Term]] = {}
        for t in bucket:
            by_keys.setdefault(tuple([key[t] for key in keys]), []).append(t)
        for states, terms in by_keys.items():
            index.setdefault(states, []).append((n, terms))
    return index


def _side_program(side: Term, table: Mapping[tuple, Hashable],
                  slots: Mapping[Unknown, tuple[int, Mapping[Term, Hashable]]]
                  ) -> Callable[[Sequence[Term]], Hashable | None]:
    """The class key of a join side's instance under a prefix, as a
    program compiled once: the key states of the prefix's terms in the
    side's unknowns' slots, each slot a place in the prefix and the key of
    each term there, and then the side's other distinct nodes bottom-up, by
    size, each one table lookup.  Ground nodes are looked up at compile
    time.

    The program mints no number: where the table has no entry for a node,
    it returns None.  Once every candidate of u has been keyed into the
    table, that means that no candidate has the side's key, since a node
    outside the table would get a number no term has, and so would every
    node above it."""
    # one register per distinct node: a ground node's key, or None until
    # the run fills it
    compiled: list[Hashable | None] = []
    loads: list[tuple[int, int, Mapping[Term, Hashable]]] = []  # (register, place, keys)
    code: list[tuple[int, FunctionSymbol, list[int]]] = []  # (register, symbol, arguments')
    register: dict[Term, int] = {}
    for t in sorted(dict.fromkeys(subterms(side)), key=attrgetter("size")):  # arguments first
        register[t] = len(compiled)
        if type(t) is Unknown:
            loads.append((len(compiled), *slots[t]))
            compiled.append(None)
        elif t.ground:
            compiled.append(table.get((t.symbol, tuple([compiled[register[a]] for a in t.args]))))
        else:
            code.append((len(compiled), t.symbol, [register[a] for a in t.args]))
            compiled.append(None)
    get, out = table.get, register[side]

    def run(prefix: Sequence[Term]) -> Hashable | None:
        registers = compiled.copy()
        for r, place, keys in loads:
            registers[r] = keys[prefix[place]]
        for r, symbol, args in code:
            registers[r] = get((symbol, tuple([registers[a] for a in args])))
            if registers[r] is None:
                return None
        return registers[out]

    return run


class SearchMemo:
    """The per-conjunct work that bounded searches share: each conjunct's
    walk, its match and role with each unknown as the hole, and each
    verdict of a check or a witness's verification under the conjunct and
    the terms of its own unknowns, on which alone that verdict depends.
    A restriction joins `failing` once its stream shows that it fails
    whatever u is, since that verdict holds at every size and over every
    signature; a stream empty only within its bound teaches nothing.
    `failing` also takes a false conjunct without unknowns.  A restriction
    has one unknown, so its verdict does not depend on the order of a
    search's unknowns.  The searches of one command share one memo, which
    lives as long as the command."""

    def __init__(self) -> None:
        self.walks: dict[Formula, Walk] = {}
        self.horns: dict[tuple[Formula, Unknown], tuple[str, Horn | None]] = {}
        self.verdicts: dict[tuple[Formula, tuple[Term, ...]], bool] = {}
        # the conjuncts known to fail whatever their terms
        self.failing: set[Formula] = set()

    def walk(self, conjunct: Formula) -> Walk:
        """The conjunct's unknowns and symbols; a quantifier or a free
        variable raises ContractError."""
        walk = self.walks.get(conjunct)
        if walk is None:
            unknowns: list[Unknown] = []
            functions: set[FunctionSymbol] = set()
            predicates: set[PredicateSymbol] = set()
            for n in nodes(conjunct):
                if isinstance(n, Unknown):
                    unknowns.append(n)
                elif isinstance(n, Application):
                    functions.add(n.symbol)
                elif isinstance(n, PredApp):
                    predicates.add(n.symbol)
                elif isinstance(n, (Exists, Forall)):
                    raise ContractError("input must be quantifier-free")
                elif isinstance(n, Variable):
                    raise ContractError(
                        f"input must hold only unknowns and ground terms, got {n}")
            walk = self.walks[conjunct] = (
                tuple(unknowns), frozenset(functions), frozenset(predicates))
        return walk

    def horn(self, conjunct: Formula, u: Unknown) -> tuple[str, Horn | None]:
        """The role of the conjunct where u is its last unknown, with
        `_horn(conjunct, u)`; both are worked out once."""
        found = self.horns.get((conjunct, u))
        if found is None:
            horn = _horn(conjunct, u)
            found = self.horns[conjunct, u] = (_role(horn), horn)
        return found

    def holds(self, conjunct: Formula, unknowns: tuple[Unknown, ...],
              assignment: Mapping[Unknown, Term], last: Unknown | None) -> bool:
        """Whether the conjunct, whose unknowns are these, in first
        occurrence order, is valid under the assignment σ; `last` is the one
        the search assigns last, or None where there are no unknowns.  The
        verdict is kept under the conjunct and its unknowns' terms in that
        order, whatever the search's order.

        A conjunct that matches `E' -> l = r` with the hole for `last`, u
        (`horn`, as the plan matched it), is decided by one closure, with no
        substitution and no search: Eσ implies lσ = rσ exactly when E',
        hole = σ(u) and v = σ(v) for its other unknowns v imply l = r, each
        unknown read as a fresh constant.  Unknowns are rigid and σ's terms
        are ground, so in a model of either side every term equals its
        instance, and equals replace equals.  Any other conjunct, and one
        without unknowns, is decided by qcheck."""
        key = (conjunct, tuple([assignment[u] for u in unknowns]))
        verdict = self.verdicts.get(key)
        if verdict is None:
            horn = None if last is None else self.horn(conjunct, last)[1]
            if horn is None:
                verdict = qcheck.is_quasitautology(
                    substitute(conjunct, assignment) if unknowns else conjunct)
            else:
                equalities, l, r = horn
                verdict = qcheck.entails(
                    (*equalities, (_HOLE, assignment[last]),
                     *[(v, assignment[v]) for v in unknowns if v is not last]),
                    l, r)
            self.verdicts[key] = verdict
        return verdict


def iter_formula_solutions(
    conjuncts: Sequence[Formula],
    unknowns: Sequence[Unknown] | None = None,
    sig: Signature | None = None,
    max_size: int = 6,
    memo: SearchMemo | None = None,
) -> Iterator[dict[Unknown, Term]]:
    """Solutions of the conjunction of `conjuncts` for the given unknown
    tuple in canonical order, each a dict from the unknowns to ground terms.

    Order: smallest total size first, then lexicographically by the
    canonical term order along the tuple.  The conjuncts must be
    quantifier-free and free of variables, and at least one (ContractError
    otherwise, whatever the order of the conjuncts).  The walk
    of each conjunct gives its unknowns and its symbols; without `unknowns`
    the search takes the conjuncts', in first occurrence order, and without
    `sig` their symbols.  Given `unknowns` must include every unknown of the
    conjuncts.  Walks, matches, failures and verdicts come from `memo`, a
    fresh one if none is given, and what the search learns goes back into
    it.  Key tables, key states, indexes and side programs are built at
    plan time, before the first prefix, and live as long as the search.
    """
    if max_size < 0:
        raise ContractError("size bound must be >= 0")
    if not conjuncts:
        raise ContractError("empty conjunction")
    memo = SearchMemo() if memo is None else memo
    # A conjunct known to fail whatever its terms ends the search before a
    # signature or a stream is built, and before the walks where those
    # raised nothing when the memo met them and no given unknowns need
    # checking.  Most problems of one `sreu` conversion end there, which
    # keeps `sreu` about 5 % faster than ending them after their walks
    # (`prewalk_exit` in BENCH_planned_search.json).
    known_to_fail = not memo.failing.isdisjoint(conjuncts)
    if known_to_fail and unknowns is None and all(c in memo.walks for c in conjuncts):
        return
    walks = [memo.walk(c) for c in conjuncts]
    used_by = [used for used, _, _ in walks]  # the unknowns of each conjunct
    if unknowns is None:
        unknowns = dict.fromkeys(u for used in used_by for u in used)
    elif not {u for used in used_by for u in used} <= set(unknowns):
        raise ContractError("the unknowns must include every unknown of the formula")
    elif len(set(unknowns)) != len(unknowns):
        raise ContractError("the unknowns must be distinct")
    if known_to_fail:
        return
    unknowns = tuple(unknowns)
    position = {u: i for i, u in enumerate(unknowns)}
    # each conjunct's last unknown, the one the search assigns last
    lasts = [None if not used else used[0] if len(used) == 1
             else max(used, key=position.__getitem__) for used in used_by]
    if sig is None:
        sig = Signature(frozenset().union(*[functions for _, functions, _ in walks]),
                        frozenset().union(*[predicates for _, _, predicates in walks]))

    # The plan: a conjunct without unknowns is decided at once.  Any other
    # waits for the depth of its last unknown u, and its match there with
    # the hole for u gives its role (`_role`): a class restriction of u, a
    # join filter of u, or a check of every candidate.  A restriction whose
    # stream shows that it holds whatever u is drops out of the search, and
    # one whose stream shows that it fails, like a false conjunct without
    # unknowns, joins the memo's failing conjuncts.
    # per unknown, the streams of its class restrictions
    restricted: list[list[Stream]] = [[] for _ in unknowns]
    # per depth, each check with its unknowns and the last of them
    checks_at_depth: list[list[tuple[Formula, tuple[Unknown, ...], Unknown]]] = [
        [] for _ in unknowns]
    # per depth, each join filter's E, its side and the earlier unknowns the
    # side holds, the conjunct's unknowns other than u; per unknown, the Es
    # of its filters and of the sides that hold it, under which the search
    # keys its terms
    filters_at_depth: list[list[tuple[Equalities, Term, tuple[Unknown, ...]]]] = [
        [] for _ in unknowns]
    keyed_by: list[dict[Equalities, None]] = [{} for _ in unknowns]
    for c, used, last in zip(conjuncts, used_by, lasts):
        if last is None:
            if not memo.holds(c, used, {}, None):
                memo.failing.add(c)
                return
            continue
        depth = position[last]
        role, horn = memo.horn(c, last)
        if role is _RESTRICTION:
            stream = _class_member_buckets(horn, sig, max_size)
            if stream is None:  # it holds whatever u is
                continue
            if not stream:  # it fails whatever u is
                memo.failing.add(c)
                return
            if not any(stream):  # no term within the bound
                return
            restricted[depth].append(stream)
        elif role is _JOIN:
            equalities, _, side = horn
            held = tuple([v for v in used if v is not last])
            filters_at_depth[depth].append((equalities, side, held))
            for v in (last, *held):
                keyed_by[position[v]][equalities] = None
        else:
            checks_at_depth[depth].append((c, used, last))
    if not unknowns:  # the plan decided every conjunct
        yield {}
        return
    per_unknown = [_intersection(streams) if streams
                   else _class_member_buckets(None, sig, max_size) for streams in restricted]

    # per depth, each size at which the unknown has candidates, with them
    sized: list[Sizes] = [[(n, bucket) for n, bucket in enumerate(buckets) if bucket]
                          for buckets in per_unknown]
    if not all(sized):
        return
    min_size = [candidates[0][0] for candidates in sized]

    # per depth, u's candidates for a prefix where u has join filters
    fittings: list[Callable[[tuple[Term, ...]], Sizes] | None] = [None] * len(unknowns)
    if any(filters_at_depth):  # the many small searches of `sreu` have none
        # One table per E, and the key states of every keyed unknown's
        # terms under each of its Es, all before any side program is
        # compiled, so that a program may read a missing entry as no
        # candidate.
        tables = {e: _congruence_table(e)[1]
                  for e in dict.fromkeys(e for keyed in keyed_by for e in keyed)}
        keys = [{e: _key_states(stream.rank, tables[e]) for e in keyed}
                for stream, keyed in zip(per_unknown, keyed_by)]

        def join(depth: int) -> Callable[[tuple[Term, ...]], Sizes]:
            """u's candidates for a prefix: those whose keys are those of
            its filters' sides, once per tuple of the terms the sides hold."""
            filters = filters_at_depth[depth]
            index = _index(sized[depth], [keys[depth][e] for e, _, _ in filters])
            programs = [_side_program(side, tables[e], {v: (position[v], keys[position[v]][e])
                                                        for v in side_unknowns})
                        for e, side, side_unknowns in filters]

            def fitting(prefix: tuple[Term, ...]) -> Sizes:
                return index.get(tuple([run(prefix) for run in programs]), ())

            held = sorted({position[v] for _, _, side_unknowns in filters
                           for v in side_unknowns})
            if len(held) == depth:  # the sides hold the whole prefix, which comes once
                return fitting
            # they hold part of it, which other prefixes share
            project = itemgetter(*held)
            found_for: dict[Hashable, Sizes] = {}

            def shared(prefix: tuple[Term, ...]) -> Sizes:
                terms_held = project(prefix)
                found = found_for.get(terms_held)
                if found is None:
                    found = found_for[terms_held] = fitting(prefix)
                return found

            return shared

        fittings = [join(depth) if filters else None
                    for depth, filters in enumerate(filters_at_depth)]
    assignment: dict[Unknown, Term] = {}

    def merged(depth: int, prefixes: Iterator[Prefixed]) -> Iterator[Prefixed]:
        """The prefixes over unknowns[:depth + 1] that pass their checks, in
        order, from those over unknowns[:depth], with a marker (size, None)
        once every prefix of size at most size has come.  While a prefix is
        yielded, the assignment holds its terms."""
        u, low, checks, fitting = (unknowns[depth], min_size[depth], checks_at_depth[depth],
                                   fittings[depth])
        waiting: dict[int, list[tuple[tuple[Term, ...], Sequence[Term]]]] = {}
        # per unknown of the prefix, each term's place by size and then in
        # canonical order, from the enumeration that built it
        ranks = [per_unknown[i].rank for i in range(depth)]

        def emit(total: int) -> Iterator[Prefixed]:
            group = waiting.pop(total, None)
            if group is None:
                return
            if depth > 1:  # prefixes of several sizes, in tuple order
                group.sort(key=lambda waiter: tuple(map(dict.__getitem__, ranks, waiter[0])))
            for prefix, terms in group:
                assignment.update(zip(unknowns, prefix))
                for t in terms:
                    assignment[u] = t
                    for c, used, last in checks:
                        if not memo.holds(c, used, assignment, last):
                            break
                    else:
                        yield total, (*prefix, t)

        ready = -1  # every total up to this one is emitted
        for size, prefix in prefixes:
            if prefix is None:  # every prefix of size at most `size` has come
                for total in range(ready + 1, size + low + 1):
                    yield from emit(total)
                ready = size + low
                yield ready, None
                continue
            found = sized[depth] if fitting is None else fitting(prefix)
            for n, terms in found:
                waiting.setdefault(size + n, []).append((prefix, terms))
        for total in sorted(waiting):  # every prefix has come
            yield from emit(total)
            yield total, None

    prefixes: Iterator[Prefixed] = iter([(0, ()), (0, None)])  # the empty prefix
    for depth in range(len(unknowns)):
        prefixes = merged(depth, prefixes)
    # A conjunction is valid exactly when each of its conjuncts is, so a
    # witness is verified conjunct by conjunct, apart from the streams and
    # keys that found it, with the verdicts the checks left in the memo.
    for _, prefix in prefixes:
        if prefix is not None and all(memo.holds(c, used, assignment, last)
                                      for c, used, last in zip(conjuncts, used_by, lasts)):
            yield dict(assignment)


def iter_solutions(
    sk: Skeleton, sig: Signature | None = None, max_size: int = 6
) -> Iterator[dict[Unknown, Term]]:
    yield from iter_formula_solutions(flatten_and(sk.formula), sk.all_unknowns(), sig, max_size)


def solve_bounded(
    sk: Skeleton, sig: Signature | None = None, max_size: int = 6
) -> dict[Unknown, Term] | None:
    """First solution in canonical order with every term of size <= max_size,
    or None when the bounded space is exhausted (which does not imply the
    skeleton is unsolvable)."""
    for solution in iter_solutions(sk, sig, max_size):
        return solution
    return None
