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
backtracking undoes the closure from its trail.
"""

from __future__ import annotations

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
    canonical_key,
    is_quantifier_free,
    subterms,
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
    """Congruence closure over a fixed universe, closed under subterms on
    construction (Downey, Sethi & Tarjan, JACM 1980), with undo.

    Classes are joined by size and never path-compressed, so a union
    changes one parent link.  Each union leaves one trail entry: the
    absorbed root, the keeping root, the keeper's use-list length before
    the union and the signature keys the union inserted.  `undo(mark)`
    pops the trail back to a `mark()` and restores the partition, the
    class sizes, the use-lists and the signature table exactly.
    """

    def __init__(self, universe: Iterable[Term]):
        self.ids: dict[Term, int] = {}
        self.terms: list[Term] = []
        self.args: list[tuple[int, ...]] = []  # argument ids of each term
        self.parent: list[int] = []
        self.size: list[int] = []  # class sizes, valid at roots
        self.uses: list[list[int]] = []  # ids of applications using this class
        self.trail: list[tuple[int, int, int, list[tuple]]] = []
        for t in universe:
            self._add(t)
        self.sig: dict[tuple, int] = {}
        for i, arg_ids in enumerate(self.args):
            if arg_ids:
                self.sig[self._signature(i)] = i

    def _add(self, t: Term) -> int:
        known = self.ids.get(t)
        if known is not None:
            return known
        if isinstance(t, Variable):
            raise ContractError(f"congruence closure requires ground terms, got {t}")
        arg_ids: tuple[int, ...] = ()
        if isinstance(t, Application):
            arg_ids = tuple([self._add(a) for a in t.args])
        tid = len(self.terms)
        self.ids[t] = tid
        self.terms.append(t)
        self.args.append(arg_ids)
        self.parent.append(tid)
        self.size.append(1)
        self.uses.append([])
        for aid in arg_ids:
            self.uses[aid].append(tid)
        return tid

    def find(self, i: int) -> int:
        parent = self.parent
        while parent[i] != i:
            i = parent[i]
        return i

    def _signature(self, tid: int) -> tuple:
        find = self.find
        return (self.terms[tid].symbol, tuple([find(a) for a in self.args[tid]]))

    def mark(self) -> int:
        """A point of the trail that `undo` can return to."""
        return len(self.trail)

    def merge(self, a: Term, b: Term) -> None:
        try:
            pending = [(self.ids[a], self.ids[b])]
        except KeyError as missing:
            raise DomainError(f"term outside universe: {missing.args[0]}") from None
        find, parent, size, uses, sig = self.find, self.parent, self.size, self.uses, self.sig
        while pending:
            i, j = pending.pop()
            ri, rj = find(i), find(j)
            if ri == rj:
                continue
            if size[ri] < size[rj]:
                ri, rj = rj, ri
            parent[rj] = ri
            size[ri] += size[rj]
            inserted: list[tuple] = []
            self.trail.append((rj, ri, len(uses[ri]), inserted))
            moved = uses[rj]  # left in place: rj is no root until undone
            for uid in moved:
                key = self._signature(uid)
                other = sig.get(key)
                if other is None:
                    sig[key] = uid
                    inserted.append(key)
                elif find(other) != find(uid):
                    pending.append((other, uid))
            uses[ri].extend(moved)

    def undo(self, mark: int) -> None:
        """Return to the state at `mark`, undoing every later union."""
        trail, parent, size, uses, sig = self.trail, self.parent, self.size, self.uses, self.sig
        while len(trail) > mark:
            rj, ri, kept, inserted = trail.pop()
            for key in inserted:
                del sig[key]
            del uses[ri][kept:]
            size[ri] -= size[rj]
            parent[rj] = rj

    def same(self, a: Term, b: Term) -> bool:
        try:
            return self.find(self.ids[a]) == self.find(self.ids[b])
        except KeyError as missing:
            raise DomainError(f"term outside universe: {missing.args[0]}") from None

    def classes(self) -> list[list[Term]]:
        grouped: dict[int, list[Term]] = {}
        for i, t in enumerate(self.terms):
            grouped.setdefault(self.find(i), []).append(t)
        return list(grouped.values())


def subterm_closure(terms: Iterable[Term]) -> set[Term]:
    out: set[Term] = set()
    for t in terms:
        out.update(subterms(t))
    return out


@dataclass(frozen=True)
class CongruencePartition:
    universe: frozenset[Term]
    classes: tuple[frozenset[Term], ...]

    def class_of(self, t: Term) -> frozenset[Term]:
        for cls in self.classes:
            if t in cls:
                return cls
        raise DomainError(f"term outside universe: {t}")

    def same_class(self, a: Term, b: Term) -> bool:
        return self.class_of(a) is self.class_of(b)


def congruence_close(
    equalities: Sequence[tuple[Term, Term]], universe: Iterable[Term]
) -> CongruencePartition:
    """Smallest congruence over `universe` containing `equalities`.

    The universe must be subterm closed and contain both sides of every
    equality; violations raise DomainError.
    """
    universe_set = set(universe)
    for t in universe_set:
        if isinstance(t, Application):
            for a in t.args:
                if a not in universe_set:
                    raise DomainError(f"universe not subterm closed at {a}")
    closure = CongruenceEngine(universe_set)
    for lhs, rhs in equalities:
        closure.merge(lhs, rhs)
    classes = sorted(
        (sorted(cls, key=canonical_key) for cls in closure.classes()),
        key=lambda cls: canonical_key(cls[0]),
    )
    return CongruencePartition(
        frozenset(universe_set), tuple(frozenset(cls) for cls in classes)
    )


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
    closure over the subterms of f's atoms, built once; a variable in an
    atom raises ContractError there.  At each node it first takes every
    goal that leaves no choice (an atom, a negation, a true conjunction,
    a false disjunction or implication), asserting atoms as it meets them.
    Each asserted literal is checked against those before it: a negated
    equality whose sides are congruent, or a predicate asserted both ways
    on congruent arguments, is a conflict and closes the branch at once.
    Only then does it branch, on the first remaining goal, left side
    first.  Closing a branch undoes its literals and its merges.
    """
    if not is_quantifier_free(f):
        raise ContractError("input must be quantifier-free")
    closure = CongruenceEngine(t for atom in atoms_of(f) for t in _atom_terms(atom))
    ids, find = closure.ids, closure.find
    lits: dict[Atom, bool] = {}
    asserted: list[Atom] = []  # the keys of lits, in assertion order
    apart: list[tuple[int, int]] = []  # ids of the negated equalities
    held: list[tuple[bool, PredicateSymbol, tuple[int, ...]]] = []  # predicate literals

    def consistent() -> bool:
        """No negated equality and no predicate literal pair conflicts."""
        if any(find(i) == find(j) for i, j in apart):
            return False
        keys = {(v, s, tuple([find(a) for a in args])) for v, s, args in held}
        return not any((not v, s, roots) in keys for v, s, roots in keys)

    def assert_literal(atom: Atom, value: bool) -> bool:
        """Record atom = value; False when it conflicts with the literals."""
        seen = lits.get(atom)
        if seen is not None:
            return seen == value
        lits[atom] = value
        asserted.append(atom)
        if isinstance(atom, Equality):
            if value:
                before = closure.mark()
                closure.merge(atom.lhs, atom.rhs)
                return closure.mark() == before or consistent()
            i, j = ids[atom.lhs], ids[atom.rhs]
            apart.append((i, j))
            return find(i) != find(j)
        arg_ids = tuple([ids[a] for a in atom.args])
        held.append((value, atom.symbol, arg_ids))
        roots = [find(a) for a in arg_ids]
        return not any(v != value and s == atom.symbol and [find(a) for a in args] == roots
                       for v, s, args in held)

    def retract(mark: int, count: int) -> None:
        closure.undo(mark)
        while len(asserted) > count:
            atom = asserted.pop()
            if isinstance(atom, PredApp):
                held.pop()
            elif not lits[atom]:
                apart.pop()
            del lits[atom]

    def search(goals: list[tuple[Formula, bool]]) -> dict[Atom, bool] | None:
        mark, count = closure.mark(), len(asserted)
        stack = goals[::-1]
        choices: list[tuple[Formula, bool]] = []
        while stack:
            g, want = stack.pop()
            if isinstance(g, (Equality, PredApp)):
                if not assert_literal(g, want):
                    retract(mark, count)
                    return None
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
        if not choices:
            return dict(lits)
        (g, want), rest = choices[0], choices[1:]
        left = not want if isinstance(g, Implies) else want
        for branch in ((g.lhs, left), (g.rhs, want)):
            found = search([branch] + rest)
            if found is not None:
                return found
        retract(mark, count)
        return None

    return search([(f, False)])


_VERDICTS: dict[Formula, bool] = {}
_VERDICT_CACHE_LIMIT = 1 << 20


def is_quasitautology(f: Formula) -> bool:
    """True when the ground quantifier-free formula f holds in every structure."""
    verdict = _VERDICTS.get(f)
    if verdict is None:
        verdict = falsifying_literals(f) is None
        if len(_VERDICTS) >= _VERDICT_CACHE_LIMIT:
            _VERDICTS.clear()
        _VERDICTS[f] = verdict
    return verdict
