"""Validity of ground quantifier-free formulas with identity.

A formula is valid exactly when its negation has no model, and for ground
formulas modulo uninterpreted functions/predicates that is decidable by
congruence closure: we search for a propositionally consistent way to
falsify the formula whose literal set is satisfiable modulo the identity
axioms (reflexivity, symmetry, transitivity, function and predicate
congruence).

The search is DPLL(T) with congruence closure as the theory (Nieuwenhuis,
Oliveras & Tinelli, JACM 2006).  One closure over the subterms of all the
formula's atoms lives for the whole search.  Each literal is checked
against the literals before it as it is asserted, so a conflict prunes its
branch at once; goals that leave no choice are taken before any branch;
backtracking undoes the closure from its trail.  Terms are interned, so the
closure keys its tables by the terms themselves and needs no private
numbering of nodes (Nieuwenhuis & Oliveras, Inf. & Comp. 2007).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Sequence

from .syntax import (
    And,
    Application,
    Atom,
    ContractError,
    Equality,
    Formula,
    Implies,
    Not,
    Or,
    PredApp,
    PredicateSymbol,
    Term,
    Variable,
    atoms_of,
)


class DomainError(ValueError):
    """A term fell outside the universe handed to the closure."""


@dataclass(frozen=True)
class Literal:
    positive: bool
    atom: Atom


# ---------------------------------------------------------------------------
# Union-find congruence closure


class CongruenceEngine:
    """Congruence closure over a fixed universe of ground terms, closed
    under subterms on construction (Downey, Sethi & Tarjan, JACM 1980),
    with undo.

    The terms themselves are the nodes: they are interned, so they serve as
    dict keys without translation.  `parent`, `size` and `uses` are keyed
    by term; `sig` maps a symbol and the roots of its arguments to an
    application with that signature.  Classes are joined by size and never
    path-compressed, so a union changes one parent link.  Each union leaves
    one trail entry: the absorbed root, the keeping root, the keeper's
    use-list length before the union and the signature keys the union
    inserted.  `undo(mark)` pops the trail back to a `mark()` and restores
    the partition, the class sizes, the use-lists and the signature table
    exactly.
    """

    def __init__(self, universe: Iterable[Term]):
        self.parent: dict[Term, Term] = {}  # the universe, in first visit order
        stack = list(universe)
        while stack:
            t = stack.pop()
            if t in self.parent:
                continue
            if isinstance(t, Variable):
                raise ContractError(f"congruence closure requires ground terms, got {t}")
            self.parent[t] = t
            if isinstance(t, Application):
                stack.extend(t.args)
        self.size: dict[Term, int] = dict.fromkeys(self.parent, 1)  # valid at roots
        self.uses: dict[Term, list[Application]] = {t: [] for t in self.parent}
        self.sig: dict[tuple, Application] = {}
        self.trail: list[tuple[Term, Term, int, list[tuple]]] = []
        for t in self.parent:
            if isinstance(t, Application) and t.args:
                for a in t.args:
                    self.uses[a].append(t)
                self.sig[(t.symbol, t.args)] = t  # every term is its own root

    def find(self, t: Term) -> Term:
        parent = self.parent
        while parent[t] is not t:
            t = parent[t]
        return t

    def _roots(self, a: Term, b: Term) -> tuple[Term, Term]:
        try:
            return self.find(a), self.find(b)
        except KeyError as missing:
            raise DomainError(f"term outside universe: {missing.args[0]}") from None

    def _signature(self, t: Application) -> tuple:
        find = self.find
        return (t.symbol, tuple([find(a) for a in t.args]))

    def mark(self) -> int:
        """A point of the trail that `undo` can return to."""
        return len(self.trail)

    def merge(self, a: Term, b: Term) -> None:
        pending = [self._roots(a, b)]
        find, parent, size, uses, sig = self.find, self.parent, self.size, self.uses, self.sig
        while pending:
            a, b = pending.pop()
            ra, rb = find(a), find(b)
            if ra is rb:
                continue
            if size[ra] < size[rb]:
                ra, rb = rb, ra
            parent[rb] = ra
            size[ra] += size[rb]
            inserted: list[tuple] = []
            self.trail.append((rb, ra, len(uses[ra]), inserted))
            moved = uses[rb]  # left in place: rb is no root until undone
            for u in moved:
                key = self._signature(u)
                other = sig.get(key)
                if other is None:
                    sig[key] = u
                    inserted.append(key)
                elif find(other) is not find(u):
                    pending.append((other, u))
            uses[ra].extend(moved)

    def undo(self, mark: int) -> None:
        """Return to the state at `mark`, undoing every later union."""
        trail, parent, size, uses, sig = self.trail, self.parent, self.size, self.uses, self.sig
        while len(trail) > mark:
            rb, ra, kept, inserted = trail.pop()
            for key in inserted:
                del sig[key]
            del uses[ra][kept:]
            size[ra] -= size[rb]
            parent[rb] = rb

    def same(self, a: Term, b: Term) -> bool:
        ra, rb = self._roots(a, b)
        return ra is rb


# ---------------------------------------------------------------------------
# Satisfiability of ground literal sets


def _atom_terms(atom: Atom) -> tuple[Term, ...]:
    return (atom.lhs, atom.rhs) if isinstance(atom, Equality) else atom.args


def e_satisfiable(literals: Sequence[Literal]) -> bool:
    """Does some structure satisfy all the ground literals?

    Positive equalities are closed under the identity axioms; the set is
    unsatisfiable exactly when a negated equality joins one class or a
    predicate occurs positively and negatively on congruent argument
    tuples.  A literal with a variable raises ContractError.
    """
    closure = CongruenceEngine(t for lit in literals for t in _atom_terms(lit.atom))
    for lit in literals:
        if lit.positive and isinstance(lit.atom, Equality):
            closure.merge(lit.atom.lhs, lit.atom.rhs)
    for lit in literals:
        if not lit.positive and isinstance(lit.atom, Equality):
            if closure.same(lit.atom.lhs, lit.atom.rhs):
                return False
    positives = [lit.atom for lit in literals if lit.positive and isinstance(lit.atom, PredApp)]
    negatives = [lit.atom for lit in literals if not lit.positive and isinstance(lit.atom, PredApp)]
    for pos in positives:
        for neg in negatives:
            if pos.symbol != neg.symbol:
                continue
            if all(closure.same(a, b) for a, b in zip(pos.args, neg.args)):
                return False
    return True


# ---------------------------------------------------------------------------
# The decision procedure


def falsifying_literals(f: Formula) -> dict[Atom, bool] | None:
    """A satisfiable truth assignment (partial, as literals) making f false.

    Returns None when no structure falsifies f, i.e. when f is valid.
    The search starts from the goal "f is false" and keeps one congruence
    closure over the subterms of f's atoms, built once; a quantifier in f or
    a variable in an atom raises ContractError there.  At each node it first
    takes every goal that leaves no choice (an atom, a negation, a true
    conjunction, a false disjunction or implication), asserting atoms as it
    meets them.  Each asserted literal is checked against those before it: a
    negated equality whose sides are congruent, or a predicate asserted both
    ways on congruent arguments, is a conflict and closes the branch at
    once.  Only then does it branch, on the first waiting goal, left side
    first; open choice points wait on an explicit stack.  The waiting goals
    are a linked list `(goal, rest)` that both branches share, so a branch
    copies nothing and walks only its own goal.  Closing a branch undoes its
    literals and its merges.
    """
    closure = CongruenceEngine(t for atom in atoms_of(f) for t in _atom_terms(atom))
    find = closure.find
    lits: dict[Atom, bool] = {}  # in assertion order
    apart: list[tuple[Term, Term]] = []  # the sides of the negated equalities
    held: list[tuple[bool, PredicateSymbol, tuple[Term, ...]]] = []  # predicate literals

    def consistent() -> bool:
        """No negated equality and no predicate literal pair conflicts."""
        if any(find(a) is find(b) for a, b in apart):
            return False
        keys = {(v, s, tuple([find(a) for a in args])) for v, s, args in held}
        return not any((not v, s, roots) in keys for v, s, roots in keys)

    def assert_literal(atom: Atom, value: bool) -> bool:
        """Record atom = value; False when it conflicts with the literals."""
        seen = lits.get(atom)
        if seen is not None:
            return seen == value
        lits[atom] = value
        if isinstance(atom, Equality):
            if value:
                before = closure.mark()
                closure.merge(atom.lhs, atom.rhs)
                return closure.mark() == before or consistent()
            apart.append((atom.lhs, atom.rhs))
            return find(atom.lhs) is not find(atom.rhs)
        held.append((value, atom.symbol, atom.args))
        roots = [find(a) for a in atom.args]
        return not any(v != value and s == atom.symbol and [find(a) for a in args] == roots
                       for v, s, args in held)

    def retract(mark: int, count: int) -> None:
        closure.undo(mark)
        while len(lits) > count:
            atom, value = lits.popitem()
            if isinstance(atom, PredApp):
                held.pop()
            elif not value:
                apart.pop()

    # Open choice points, innermost last: the trail mark and literal count
    # where the choice was made, the right branch's goal, and the goals
    # waiting after it as a linked list (goal, rest) that ends in None.
    choice_points: list[tuple[int, int, tuple, tuple | None]] = []
    goal, waiting = (f, False), None
    while True:
        stack = [goal]
        choices: list[tuple[Formula, bool]] = []
        while stack:
            g, want = stack.pop()
            if isinstance(g, (Equality, PredApp)):
                if not assert_literal(g, want):
                    break
            elif isinstance(g, Not):
                stack.append((g.body, not want))
            elif isinstance(g, Implies):
                if want:
                    choices.append((g, want))
                else:
                    stack += ((g.rhs, False), (g.lhs, True))
            elif isinstance(g, And) if want else isinstance(g, Or):
                stack += ((g.rhs, want), (g.lhs, want))
            else:
                choices.append((g, want))
        else:  # no conflict: this goal's choices wait before the older ones
            for choice in reversed(choices):
                waiting = (choice, waiting)
            if waiting is None:
                return dict(lits)
            (g, want), waiting = waiting
            left = not want if isinstance(g, Implies) else want
            choice_points.append((closure.mark(), len(lits), (g.rhs, want), waiting))
            goal = (g.lhs, left)
            continue
        if not choice_points:
            return None
        mark, count, goal, waiting = choice_points.pop()
        retract(mark, count)


# Verdicts by formula, oldest first; beyond the limit the oldest one goes,
# in constant time (deleting a plain dict's first key leaves dead slots
# that every later `next(iter(...))` scans).
_VERDICTS: OrderedDict[Formula, bool] = OrderedDict()
_VERDICT_CACHE_LIMIT = 1 << 20


def is_quasitautology(f: Formula) -> bool:
    """True when the ground quantifier-free formula f holds in every structure."""
    verdict = _VERDICTS.get(f)
    if verdict is None:
        verdict = falsifying_literals(f) is None
        if len(_VERDICTS) >= _VERDICT_CACHE_LIMIT:
            _VERDICTS.popitem(last=False)
        _VERDICTS[f] = verdict
    return verdict
