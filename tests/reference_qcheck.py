"""The falsifier search as it was before the incremental closure: a
recursive walk over the goals that checks each complete branch from
scratch with `e_satisfiable`.  Kept unchanged as the reference that
tests compare the incremental search against."""

from __future__ import annotations

from hsk.qcheck import Literal, e_satisfiable
from hsk.syntax import (
    _CONNECTIVES,
    And,
    Atom,
    ContractError,
    Equality,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    PredApp,
    Variable,
    nodes,
    subterms,
)


def is_quantifier_free(f: Formula) -> bool:
    return not any(isinstance(g, (Exists, Forall)) for g in nodes(f, _CONNECTIVES))


def _check_ground_atom(atom: Atom) -> None:
    sides = (atom.lhs, atom.rhs) if isinstance(atom, Equality) else atom.args
    for t in sides:
        for sub in subterms(t):
            if isinstance(sub, Variable):
                raise ContractError(f"literal is not ground: {atom}")


def falsifying_literals(f: Formula) -> dict[Atom, bool] | None:
    """A satisfiable truth assignment (partial, as literals) making f false.

    Returns None when no structure falsifies f, i.e. when f is valid.
    The search walks the propositional structure, accumulating forced
    literals and branching where falsification allows a choice; complete
    branches are checked with `e_satisfiable`.
    """
    if not is_quantifier_free(f):
        raise ContractError("input must be quantifier-free")
    checked: dict[frozenset, bool] = {}

    def leaf_ok(lits: dict[Atom, bool]) -> bool:
        key = frozenset(lits.items())
        hit = checked.get(key)
        if hit is None:
            hit = e_satisfiable([Literal(v, a) for a, v in lits.items()])
            checked[key] = hit
        return hit

    def search(goals: list[tuple[Formula, bool]], lits: dict[Atom, bool]) -> dict[Atom, bool] | None:
        if not goals:
            return dict(lits) if leaf_ok(lits) else None
        g, want = goals[0]
        rest = goals[1:]
        if isinstance(g, (Equality, PredApp)):
            _check_ground_atom(g)
            seen = lits.get(g)
            if seen is not None:
                return search(rest, lits) if seen == want else None
            lits[g] = want
            found = search(rest, lits)
            if found is None:
                del lits[g]
            return found
        if isinstance(g, Not):
            return search([(g.body, not want)] + rest, lits)
        if isinstance(g, And):
            if want:
                return search([(g.lhs, True), (g.rhs, True)] + rest, lits)
            return (search([(g.lhs, False)] + rest, lits)
                    or search([(g.rhs, False)] + rest, lits))
        if isinstance(g, Or):
            if want:
                return (search([(g.lhs, True)] + rest, lits)
                        or search([(g.rhs, True)] + rest, lits))
            return search([(g.lhs, False), (g.rhs, False)] + rest, lits)
        if isinstance(g, Implies):
            if want:
                return (search([(g.lhs, False)] + rest, lits)
                        or search([(g.rhs, True)] + rest, lits))
            return search([(g.lhs, True), (g.rhs, False)] + rest, lits)
        raise ContractError(f"not a formula: {g!r}")

    return search([(f, False)], {})
