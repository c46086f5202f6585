"""Validity of ground quantifier-free formulas with identity.

A formula is valid exactly when its negation has no model, and for ground
formulas modulo uninterpreted functions/predicates that is decidable by
congruence closure: we search for a propositionally consistent way to
falsify the formula whose literal set is satisfiable modulo the identity
axioms (reflexivity, symmetry, transitivity, function and predicate
congruence).

The search is DPLL(T) with congruence closure as the theory (Nieuwenhuis,
Oliveras & Tinelli, JACM 2006).  One closure over the formula's atoms and
their subterms lives for the whole search.  A predicate atom is a node of
it, true exactly when joined to a truth constant (Nieuwenhuis & Oliveras,
Inf. & Comp. 2007), so every literal equates two nodes and the one
conflict is a false literal whose two nodes are joined.  Each literal is
checked as it is asserted, so a conflict prunes its branch at once; goals
that leave no choice are taken before any branch; backtracking undoes the
closure from its trail.  Nodes are interned, so the closure keys its
tables by the nodes themselves.

A ground equational Horn implication `E -> l = r` needs no search: it is
valid exactly when l = r holds in the closure of E, and `entails` decides
it with one closure and no formula.
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
    FunctionSymbol,
    Implies,
    Node,
    Not,
    Or,
    PredApp,
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
    """Congruence closure over a fixed universe of ground terms and
    predicate atoms, closed under arguments on construction (Downey, Sethi
    & Tarjan, JACM 1980), with undo.

    The nodes are the terms and atoms themselves: they are interned, so
    they serve as dict keys without translation.  `parent`, `size` and
    `uses` are keyed by node; `sig` maps a function or predicate symbol and
    the roots of its arguments to a node with that signature.  Classes are
    joined by size and never path-compressed, so a union changes one parent
    link.  Each union leaves one trail entry: the absorbed root, the keeping
    root, the keeper's use-list length before the union and the signature
    keys the union inserted.  `undo(mark)` pops the trail back to a `mark()`
    and restores the partition, the class sizes, the use-lists and the
    signature table exactly.
    """

    def __init__(self, universe: Iterable[Node]):
        self.parent: dict[Node, Node] = {}  # the universe, in first visit order
        stack = list(universe)
        while stack:
            t = stack.pop()
            if t in self.parent:
                continue
            if isinstance(t, Variable):
                raise ContractError(f"congruence closure requires ground terms, got {t}")
            self.parent[t] = t
            if isinstance(t, (Application, PredApp)):
                stack.extend(t.args)
        self.size: dict[Node, int] = dict.fromkeys(self.parent, 1)  # valid at roots
        self.uses: dict[Node, list[Node]] = {t: [] for t in self.parent}
        self.sig: dict[tuple, Node] = {}
        self.trail: list[tuple[Node, Node, int, list[tuple]]] = []
        for t in self.parent:
            if isinstance(t, (Application, PredApp)) and t.args:
                for a in t.args:
                    self.uses[a].append(t)
                self.sig[(t.symbol, t.args)] = t  # every node is its own root

    def find(self, t: Node) -> Node:
        parent = self.parent
        while parent[t] is not t:
            t = parent[t]
        return t

    def _roots(self, a: Node, b: Node) -> tuple[Node, Node]:
        try:
            return self.find(a), self.find(b)
        except KeyError as missing:
            raise DomainError(f"term outside universe: {missing.args[0]}") from None

    def _signature(self, t: Application | PredApp) -> tuple:
        find = self.find
        return (t.symbol, tuple([find(a) for a in t.args]))

    def mark(self) -> int:
        """A point of the trail that `undo` can return to."""
        return len(self.trail)

    def merge(self, a: Node, b: Node) -> None:
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

    def same(self, a: Node, b: Node) -> bool:
        ra, rb = self._roots(a, b)
        return ra is rb


def entails(equalities: Sequence[tuple[Term, Term]], lhs: Term, rhs: Term) -> bool:
    """Whether the equations imply lhs = rhs in every structure: one closure
    over their sides and lhs and rhs, with every equation merged.  An
    unknown is a constant here, like any nullary application."""
    closure = CongruenceEngine([lhs, rhs, *(side for pair in equalities for side in pair)])
    for a, b in equalities:
        closure.merge(a, b)
    return closure.same(lhs, rhs)


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


# The truth constant: a predicate atom is true exactly when it is joined to
# it.  No parsed name starts with '#', so no formula mentions it.
_TRUE = Application(FunctionSymbol("#true", 0), ())


def _sides(atom: Atom) -> tuple[Node, Node]:
    """The two nodes that the atom says are equal."""
    return (atom.lhs, atom.rhs) if isinstance(atom, Equality) else (atom, _TRUE)


def falsifying_literals(f: Formula) -> dict[Atom, bool] | None:
    """A satisfiable truth assignment (partial, as literals) making f false.

    Returns None when no structure falsifies f, i.e. when f is valid.
    The search starts from the goal "f is false" and keeps one congruence
    closure over the sides of f's atoms, built once; a quantifier in f or a
    variable in an atom raises ContractError there.  At each node it first
    takes every goal that leaves no choice (an atom, a negation, a true
    conjunction, a false disjunction or implication), asserting atoms as it
    meets them.  A true literal joins its sides and a false one keeps them
    apart.  A false literal whose sides are joined is the one conflict and
    closes the branch at once: a false literal is checked as it is
    asserted, and all of them after each merge that joins two classes.
    Only then does the search branch, on the first waiting goal, left side
    first; open choice points wait on an explicit stack.  The waiting goals
    are a linked list `(goal, rest)` that both branches share, so a branch
    copies nothing and walks only its own goal.  Closing a branch undoes its
    literals and its merges.
    """
    closure = CongruenceEngine(side for atom in atoms_of(f) for side in _sides(atom))
    find = closure.find
    lits: dict[Atom, bool] = {}  # in assertion order
    apart: list[tuple[Node, Node]] = []  # the sides of the false literals

    def assert_literal(atom: Atom, value: bool) -> bool:
        """Record atom = value; False when it conflicts with the literals."""
        seen = lits.get(atom)
        if seen is not None:
            return seen == value
        lits[atom] = value
        a, b = _sides(atom)
        if value:
            before = closure.mark()
            closure.merge(a, b)
            return closure.mark() == before or not any(find(x) is find(y) for x, y in apart)
        apart.append((a, b))
        return find(a) is not find(b)

    def retract(mark: int, count: int) -> None:
        closure.undo(mark)
        while len(lits) > count:
            if not lits.popitem()[1]:
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
