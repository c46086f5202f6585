"""Rigid equality constraint problems and the clause conversion pipeline.

A quantifier-free formula is turned into a finite class of problems, each a
conjunction of rigid Horn clauses ``e1 & ... & em -> lhs = rhs`` (every atom
an equality), such that a substitution for the unknowns solves the formula
exactly when it solves at least one problem of the class: the product over
the formula's clauses of the rigid alternatives of each Horn clause that a
consequent atom makes, counted before any problem is built.  A problem
holds the tuple of its constraints' formulas, its conjuncts, which the
bounded search takes as they are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from . import skeleton as _skeleton
from .syntax import (
    And,
    Application,
    Atom,
    ContractError,
    Equality,
    Formula,
    FunctionSymbol,
    Implies,
    Not,
    Or,
    PredApp,
    Signature,
    Term,
    Unknown,
    conj,
    const,
    disj,
    nodes,
)

# the most clauses, and problems before deduplication, that one conversion
# may build
_MAX_ALTERNATIVES = 1 << 16


@dataclass(frozen=True)
class Clause:
    """antecedent atoms -> consequent atoms (disjunction on the right)."""

    antecedent: tuple[Atom, ...]
    consequent: tuple[Atom, ...]

    def predicate_atom_count(self) -> int:
        return sum(
            1 for a in self.antecedent + self.consequent if isinstance(a, PredApp)
        )

    def formula(self) -> Formula:
        body: Formula = disj(self.consequent)
        if self.antecedent:
            return Implies(conj(self.antecedent), body)
        return body


@dataclass(frozen=True)
class SREUProblem:
    """Rigid Horn constraints and `conjuncts`, the formula of each, in the
    same order.  The problem is their conjunction: the search takes the
    conjuncts as they are, and the printer prints each one."""

    constraints: tuple[Clause, ...]  # rigid Horn clauses
    conjuncts: tuple[Formula, ...]  # constraints[i].formula(), for each i

    def __post_init__(self) -> None:
        if not self.constraints:
            raise ContractError("empty constraint conjunction")

    @property
    def formula(self) -> Formula:
        """The conjunction of the conjuncts."""
        return conj(self.conjuncts)


# ---------------------------------------------------------------------------
# Step 1: conjunction of clauses


def _cnf(f: Formula) -> list[list[tuple[bool, Atom]]]:
    """Clause list (as signed atom rows) equivalent to f, from a worklist
    of (subformula, sign, sides done) tasks; finished rows wait on `done`.
    Never empty: an atom gives one row, and a join of nonempty row lists
    is nonempty.  A quantifier raises ContractError, and so does a join of
    more than `_MAX_ALTERNATIVES` rows, counted before it is built."""
    done: list[list[list[tuple[bool, Atom]]]] = []
    todo: list[tuple[Formula, bool, bool]] = [(f, True, False)]
    while todo:
        g, positive, joined = todo.pop()
        if isinstance(g, (Equality, PredApp)):
            done.append([[(positive, g)]])
        elif isinstance(g, Not):
            todo.append((g.body, not positive, False))
        elif not isinstance(g, (And, Or, Implies)):
            raise ContractError("clause conversion requires a quantifier-free formula")
        elif joined:
            right, left = done.pop(), done.pop()
            # a true And, a false Or or a false Implies is a conjunction
            conjunctive = positive == isinstance(g, And)
            # counted before joining: later joins never shrink the count
            n = len(left) + len(right) if conjunctive else len(left) * len(right)
            if n > _MAX_ALTERNATIVES:
                raise ContractError(f"clause conversion gives at least {n} clauses, "
                                    f"over the limit {_MAX_ALTERNATIVES}")
            done.append(left + right if conjunctive else [l + r for l in left for r in right])
        else:
            left_sign = not positive if isinstance(g, Implies) else positive
            todo += ((g, positive, True), (g.rhs, positive, False), (g.lhs, left_sign, False))
    return done.pop()


def to_clause_conjunction(f: Formula) -> list[Clause]:
    """Equivalent conjunction of clauses; distribution keeps the left-to-right
    literal order, and a clause without positive atoms gets the consequent
    ``c#i = d#i`` over two new distinct constants, the least i above the
    last one whose names f does not use.  A quantifier in f raises
    ContractError."""
    clauses: list[Clause] = []
    used = {n.symbol.name for n in nodes(f) if isinstance(n, (Application, PredApp))}
    fresh = 0
    for row in _cnf(f):
        antecedent = tuple(atom for sign, atom in row if not sign)
        consequent = tuple(atom for sign, atom in row if sign)
        if not consequent:
            fresh += 1
            while f"c#{fresh}" in used or f"d#{fresh}" in used:
                fresh += 1
            consequent = (
                Equality(
                    const(FunctionSymbol(f"c#{fresh}", 0)),
                    const(FunctionSymbol(f"d#{fresh}", 0)),
                ),
            )
        clauses.append(Clause(antecedent, consequent))
    return clauses


# ---------------------------------------------------------------------------
# Step 2: per-clause elimination of predicate symbols


def _eliminate_step(c: Clause) -> list[tuple[Clause, ...]]:
    """The alternatives, each a tuple of clauses, that replace the Horn
    clause c, which carries a predicate atom; [] deletes the branch (an
    unmatched predicate consequent can always be falsified).  Every new
    clause has fewer predicate atoms than c."""
    consequent = c.consequent[0]
    is_pred = isinstance(consequent, PredApp)
    if is_pred and not any(
        isinstance(a, PredApp) and a.symbol == consequent.symbol for a in c.antecedent
    ):
        return []
    j, atom = next((j, a) for j, a in enumerate(c.antecedent) if isinstance(a, PredApp))
    rest = c.antecedent[:j] + c.antecedent[j + 1:]
    if is_pred and atom.symbol == consequent.symbol:
        # same predicate: either the arguments agree pairwise, or the
        # clause holds without this hypothesis
        equalities = tuple(
            Clause(rest, (Equality(b, a),)) for b, a in zip(atom.args, consequent.args)
        )
        return [equalities, (Clause(rest, c.consequent),)]
    # drop the leftmost predicate hypothesis: it names another predicate
    # than the consequent's, or the consequent is an identity, which such
    # hypotheses never constrain
    return [(Clause(rest, c.consequent),)]


def rigid_alternatives(c: Clause) -> list[tuple[Clause, ...]]:
    """The tuples of rigid Horn clauses that can replace the Horn clause c,
    in rewriting order; [] when every branch is deleted.

    Each rewrite replaces the leftmost clause carrying a predicate atom,
    and the clauses before it carry none, so the next scan starts there.
    """
    if len(c.consequent) != 1:
        raise ContractError("predicate elimination needs Horn clauses")
    results: list[tuple[Clause, ...]] = []
    todo = [((c,), 0)]  # (alternative still to rewrite, where to scan), next on top
    while todo:
        clauses, start = todo.pop()
        i = next((i for i in range(start, len(clauses))
                  if clauses[i].predicate_atom_count()), None)
        if i is None:  # no predicate atom left: rigid
            results.append(clauses)
            continue
        count = clauses[i].predicate_atom_count()
        alternatives = _eliminate_step(clauses[i])
        # each new clause carries fewer predicate atoms than the one it
        # replaces, so the multiset of counts drops (Dershowitz-Manna)
        # and the rewriting ends
        for alternative in alternatives:
            assert all(d.predicate_atom_count() < count for d in alternative), \
                "measure must drop"
        todo += [(clauses[:i] + alternative + clauses[i + 1:], i)
                 for alternative in reversed(alternatives)]
    return results


def _trivial_constraint() -> Clause:
    c = const(FunctionSymbol("c#0", 0))
    return Clause((), (Equality(c, c),))


def convert_to_sreu(f: Formula) -> list[SREUProblem]:
    """The class of problems solution equivalent to f: one per choice of a
    consequent atom for each clause and of a rigid alternative for each
    Horn clause so chosen, first occurrence first, an empty one getting the
    trivially solvable ``c#0 = c#0``.  Over `_MAX_ALTERNATIVES`
    alternatives, counted before any is built, raises ContractError.

    Each distinct rigid clause gets its formula once.  Problems are
    deduplicated as tuples of those formulas, which are hash-consed, so
    the tuples hash and compare by identity in C; a rigid Horn clause and
    its formula determine each other, so a dict maps each formula back to
    its clause, and the problems and their order are those of the clause
    tuples."""
    choices = [[rigid_alternatives(Clause(c.antecedent, (a,))) for a in c.consequent]
               for c in to_clause_conjunction(f)]
    total = math.prod(sum(map(len, per)) for per in choices)
    if total > _MAX_ALTERNATIVES:
        # Python prints at most 4 300 decimal digits of an int
        shown = total if total.bit_length() <= 1000 else f"at least 2**{total.bit_length() - 1}"
        raise ContractError(f"clause conversion gives {shown} alternatives, "
                            f"over the limit {_MAX_ALTERNATIVES}")
    formulas: dict[Clause, Formula] = {}  # each distinct clause's, built once
    clause_of: dict[Formula, Clause] = {}  # and back

    def formula(c: Clause) -> Formula:
        if c not in formulas:
            formulas[c] = c.formula()
            clause_of[formulas[c]] = c
        return formulas[c]

    # the choices again, each alternative as the tuple of its formulas
    conjunct_choices = [[[tuple([formula(c) for c in alternative]) for alternative in per_atom]
                         for per_atom in per_clause] for per_clause in choices]
    # the Horn choices vary slowest; a dict keeps the first occurrence
    found = dict.fromkeys(sum(parts, ()) for horn in product(*conjunct_choices)
                          for parts in product(*horn))
    problems = []
    for conjuncts in found:
        conjuncts = conjuncts or (formula(_trivial_constraint()),)
        problems.append(SREUProblem(tuple([clause_of[g] for g in conjuncts]), conjuncts))
    return problems


def solve_sreu_bounded(
    problem: SREUProblem, sig: Signature | None = None, max_size: int = 6,
    memo: _skeleton.SearchMemo | None = None,
) -> dict[Unknown, Term] | None:
    """First assignment of the problem's unknowns, in first occurrence
    order, that solves all constraints, in the deterministic search order
    of the bounded skeleton solver.  The problems of one conversion share
    their conjuncts, so a caller solving several of them passes one memo
    (`skeleton.SearchMemo`) to each call."""
    for solution in _skeleton.iter_formula_solutions(problem.conjuncts, None, sig, max_size,
                                                     memo):
        return solution
    return None
