"""The two term enumerators of `hsk.skeleton` as they were before they
became one tree-automaton enumerator: `_terms_by_size` for all terms, and
`_class_member_buckets` for the members of one congruence class.  Kept
unchanged, apart from the `lru_cache` on `_class_member_buckets` and two
lookups that follow the congruence engine's API (the universe is a local
set of subterms, and the engine is keyed by the terms themselves), as the
reference that tests compare the merged enumerator against."""

from __future__ import annotations

import itertools
from typing import Iterator

from hsk import qcheck
from hsk.syntax import Application, FunctionSymbol, Signature, Term, canonical_key, subterms

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


def _class_member_buckets(
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
