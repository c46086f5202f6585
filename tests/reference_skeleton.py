"""Earlier code of `hsk.skeleton`, kept as the references that tests
compare the current code against.

- The two term enumerators as they were before they became one
  tree-automaton enumerator: `_terms_by_size` for all terms, and
  `_target_class_buckets` (then `_class_member_buckets`) for the members of
  one congruence class.  Kept unchanged, apart from that name, the
  `lru_cache` on it and two lookups that follow the congruence engine's API
  (the universe is a local set of subterms, and the engine is keyed by the
  terms themselves).
- The bounded search `iter_formula_solutions` as it was before it merged by
  total size: it walks the unknowns depth first once per total size, so it
  meets each prefix again for every total it fits in.  Kept unchanged,
  apart from its imports; its plan, streams and keys are those of
  `hsk.skeleton`."""

from __future__ import annotations

import itertools
from functools import cache
from typing import Iterator, Sequence

from hsk import qcheck
from hsk.skeleton import (
    _CHECK,
    _HOLDS,
    _JOIN,
    _RESTRICTION,
    Equalities,
    SearchMemo,
    Stream,
    _class_keys,
    _class_member_buckets,
    _intersection,
)
from hsk.syntax import (
    Application,
    ContractError,
    Formula,
    FunctionSymbol,
    Signature,
    Term,
    Unknown,
    canonical_key,
    conj,
    subterms,
    substitute,
)

_INJECTED_CONSTANT = FunctionSymbol("c#0", 0)


def _sorted_symbols(sig: Signature) -> list[FunctionSymbol]:
    return sorted(sig.function_symbols, key=lambda f: (f.name, f.arity))


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ways to write total as an ordered sum of `parts` positive ints."""
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for head in range(1, total - parts + 2):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _terms_by_size(sig: Signature, max_size: int) -> list[list[Term]]:
    """buckets[n] = all solution-eligible terms over sig of size n, sorted."""
    symbols = _sorted_symbols(sig)
    if not any(f.arity == 0 for f in symbols):
        symbols = sorted(symbols + [_INJECTED_CONSTANT], key=lambda f: (f.name, f.arity))
    buckets: list[list[Term]] = [[] for _ in range(max_size + 1)]
    for n in range(1, max_size + 1):
        batch: list[Term] = []
        for symbol in symbols:
            if symbol.arity == 0:
                if n == 1:
                    batch.append(Application(symbol, ()))
                continue
            for shape in _compositions(n - 1, symbol.arity):
                for args in itertools.product(*(buckets[s] for s in shape)):
                    batch.append(Application(symbol, args))
        batch.sort(key=canonical_key)
        buckets[n] = batch
    return buckets


def _target_class_buckets(
    equalities: tuple[tuple[Term, Term], ...],
    target: Term,
    sig: Signature,
    max_size: int,
) -> tuple[tuple[Term, ...], ...]:
    """buckets[n] = terms t over sig of size n with `equalities -> target = t`
    valid, i.e. the members of target's congruence class, smallest first.

    The classes of the (finite) subterm universe act as automaton states:
    an application belongs to a universe class exactly when some universe
    application with the same symbol and argument classes does.
    """
    leaves = [target]
    for lhs, rhs in equalities:
        leaves.extend((lhs, rhs))
    universe = {s for t in leaves for s in subterms(t)}
    closure = qcheck.CongruenceEngine(universe)
    for lhs, rhs in equalities:
        closure.merge(lhs, rhs)

    def root_of(t: Term) -> Term:
        return closure.find(t)

    transitions: dict[tuple, Term] = {}
    for t in universe:
        if isinstance(t, Application):
            key = (t.symbol, tuple(root_of(a) for a in t.args))
            transitions[key] = root_of(t)

    symbols = _sorted_symbols(sig)
    target_root = root_of(target)
    # sized[n][cls] = universe-class members of size n built over sig
    sized: list[dict[Term, list[Term]]] = [dict() for _ in range(max_size + 1)]
    for n in range(1, max_size + 1):
        fresh = sized[n]
        for symbol in symbols:
            if symbol.arity == 0:
                if n != 1:
                    continue
                cls = transitions.get((symbol, ()))
                if cls is not None:
                    fresh.setdefault(cls, []).append(Application(symbol, ()))
                continue
            for shape in _compositions(n - 1, symbol.arity):
                pools = [
                    [(cls, term) for cls, terms in sized[s].items() for term in terms]
                    for s in shape
                ]
                for combo in itertools.product(*pools):
                    key = (symbol, tuple(cls for cls, _ in combo))
                    cls = transitions.get(key)
                    if cls is not None:
                        fresh.setdefault(cls, []).append(
                            Application(symbol, tuple(term for _, term in combo))
                        )
        for terms in fresh.values():
            terms.sort(key=canonical_key)
    return tuple(
        tuple(sized[n].get(target_root, ())) for n in range(max_size + 1)
    )


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
    conjuncts.  Walks, matches and verdicts come from `memo`, a fresh one
    if none is given, and what the search learns goes back into it.
    """
    if max_size < 0:
        raise ContractError("size bound must be >= 0")
    if not conjuncts:
        raise ContractError("empty conjunction")
    memo = SearchMemo() if memo is None else memo
    # A conjunct known to fail whatever its terms ends the search before a
    # signature or a stream is built.  Where the memo has met every
    # conjunct, their walks raise nothing, so a search without given
    # unknowns to check ends before it walks them.
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
    # stream shows that it holds whatever u is keeps `_HOLDS` in the memo
    # instead, and one whose stream shows that it fails, like a false
    # conjunct without unknowns, joins the memo's failing conjuncts.
    # per unknown, the streams of its class restrictions
    restricted: list[list[Stream]] = [[] for _ in unknowns]
    # per depth, each check with its unknowns
    checks_at_depth: list[list[tuple[Formula, tuple[Unknown, ...]]]] = [[] for _ in unknowns]
    # per depth, each join filter's E and side, and the earlier unknowns
    # the sides hold: the conjuncts' unknowns other than u
    filters_at_depth: list[list[tuple[Equalities, Term]]] = [[] for _ in unknowns]
    held_at_depth: list[dict[Unknown, None]] = [{} for _ in unknowns]
    for c, used, last in zip(conjuncts, used_by, lasts):
        if last is None:
            if not memo.holds(c, used, {}):
                memo.failing.add(c)
                return
            continue
        depth = position[last]
        role, horn = memo.horn(c, last)
        if role is _RESTRICTION:
            stream = _class_member_buckets(horn, sig, max_size)
            if stream is None:  # it holds whatever u is
                memo.horns[c, last] = (_HOLDS, horn)
                continue
            if not stream:  # it fails whatever u is
                memo.failing.add(c)
                return
            if not any(stream):  # no term within the bound
                return
            restricted[depth].append(stream)
        elif role is _JOIN:
            equalities, _, side = horn
            filters_at_depth[depth].append((equalities, side))
            held_at_depth[depth].update(dict.fromkeys(v for v in used if v is not last))
        elif role is _CHECK:
            checks_at_depth[depth].append((c, used))
        # and a restriction that holds whatever u is (_HOLDS) drops out
    if not unknowns:  # the plan decided every conjunct
        yield {}
        return
    per_unknown = [_intersection(streams) if streams
                   else _class_member_buckets(None, sig, max_size) for streams in restricted]

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
        for c, used in checks_at_depth[depth]:
            if not memo.holds(c, used, assignment):
                return True
        return False

    # Only a search with join filters keys terms.  Its keys, its indexes
    # and each depth's side keys, by the terms of the unknowns the sides
    # hold, live as long as it does.
    if any(filters_at_depth):
        keys_of = cache(_class_keys)
        side_keys: list[dict[tuple[Term, ...], tuple]] = [{} for _ in unknowns]

        @cache
        def indexed(depth: int, n: int) -> dict[tuple, list[Term]]:
            """The size-n bucket of unknown `depth`, by its filters' keys."""
            keyers = [keys_of(equalities) for equalities, _ in filters_at_depth[depth]]
            index: dict[tuple, list[Term]] = {}
            for t in per_unknown[depth][n]:
                index.setdefault(tuple([key(t) for key in keyers]), []).append(t)
            return index

    def candidates(depth: int, budget: int) -> Iterator[tuple[int, Term]]:
        """(budget left, term) for each term unknown `depth` may take so
        that the later unknowns can use up exactly what is left and the
        join filters at this depth hold."""
        low = max(min_size[depth], budget - suffix_max[depth + 1])
        high = min(max_of[depth], budget - suffix_min[depth + 1])
        if filters_at_depth[depth]:
            held = tuple([assignment[v] for v in held_at_depth[depth]])
            keys = side_keys[depth].get(held)
            if keys is None:
                keys = side_keys[depth][held] = tuple([
                    keys_of(equalities)(side, assignment)
                    for equalities, side in filters_at_depth[depth]])
            return ((budget - n, t) for n in range(low, high + 1)
                    for t in indexed(depth, n).get(keys, ()))
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
            if qcheck.is_quasitautology(substitute(conj(conjuncts), assignment)):
                yield dict(assignment)
