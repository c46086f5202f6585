"""Rigid equality constraint problems and the clause conversion pipeline.

A quantifier-free formula is turned into a finite class of problems, each a
conjunction of rigid Horn clauses ``e1 & ... & em -> lhs = rhs`` (every atom
an equality), such that a substitution for the unknowns solves the formula
exactly when it solves at least one problem of the class: the product over
the formula's clauses of the rigid alternatives of each Horn clause that a
consequent atom makes, counted before any problem is built.  A problem
is the tuple of its constraints, each the formula of its rigid Horn
clause, which the bounded search takes as they are.
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
    Variable,
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

    def formula(self) -> Formula:
        body: Formula = disj(self.consequent)
        if self.antecedent:
            return Implies(conj(self.antecedent), body)
        return body


@dataclass(frozen=True)
class SREUProblem:
    """Rigid Horn constraints, each the formula ``E -> l = r`` (or ``l = r``)
    of its clause.  The problem is their conjunction: the search takes the
    constraints as they are, and the printer prints each one."""

    constraints: tuple[Formula, ...]

    def __post_init__(self) -> None:
        if not self.constraints:
            raise ContractError("empty constraint conjunction")

    @property
    def formula(self) -> Formula:
        """The conjunction of the constraints."""
        return conj(self.constraints)


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
    ContractError, and so does a free variable."""
    clauses: list[Clause] = []
    rows = _cnf(f)
    used: set[str] = set()
    for n in nodes(f):
        if isinstance(n, (Application, PredApp)):
            used.add(n.symbol.name)
        elif isinstance(n, Variable):
            raise ContractError(f"input must hold only unknowns and ground terms, got {n}")
    fresh = 0
    for row in rows:
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
# Step 2: per-clause elimination of predicate symbols, in closed form: a
# predicate consequent follows exactly when it matches one hypothesis of
# its predicate, and no other predicate hypothesis constrains an identity


def rigid_alternatives(c: Clause) -> list[tuple[Clause, ...]]:
    """The tuples of rigid Horn clauses that can replace the Horn clause c,
    with E its equality hypotheses in order.  An equality consequent gives
    the one tuple ``(E -> consequent,)``.  A consequent ``P(s1, ..., sn)``
    gives, for each hypothesis ``P(t1, ..., tn)`` in order, repeats kept,
    the tuple of the clauses ``E -> ti = si``, the hypothesis argument on
    the left (``()`` for a nullary P); with no hypothesis of P it gives [],
    which deletes the branch, since the consequent can then be falsified.
    Every other predicate hypothesis is dropped."""
    if len(c.consequent) != 1:
        raise ContractError("predicate elimination needs Horn clauses")
    consequent = c.consequent[0]
    equalities = tuple(a for a in c.antecedent if isinstance(a, Equality))
    if isinstance(consequent, Equality):
        return [(Clause(equalities, c.consequent),)]
    return [tuple(Clause(equalities, (Equality(t, s),)) for t, s in zip(h.args, consequent.args))
            for h in c.antecedent if isinstance(h, PredApp) and h.symbol == consequent.symbol]


def _trivial_constraint() -> Clause:
    c = const(FunctionSymbol("c#0", 0))
    return Clause((), (Equality(c, c),))


def convert_to_sreu(f: Formula) -> list[SREUProblem]:
    """The class of problems solution equivalent to f: one per choice of a
    consequent atom for each clause and of a rigid alternative for each
    Horn clause so chosen, first occurrence first, an empty one getting the
    trivially solvable ``c#0 = c#0``.  Over `_MAX_ALTERNATIVES`
    alternatives, counted before any is built, raises ContractError.

    Each alternative is the tuple of its clauses' formulas, built once.
    Problems are deduplicated as tuples of those formulas, which are
    hash-consed, so the tuples hash and compare by identity in C."""
    choices = [[[tuple([g.formula() for g in alternative])
                 for alternative in rigid_alternatives(Clause(c.antecedent, (a,)))]
                for a in c.consequent] for c in to_clause_conjunction(f)]
    total = math.prod(sum(map(len, per)) for per in choices)
    if total > _MAX_ALTERNATIVES:
        # Python prints at most 4 300 decimal digits of an int
        shown = total if total.bit_length() <= 1000 else f"at least 2**{total.bit_length() - 1}"
        raise ContractError(f"clause conversion gives {shown} alternatives, "
                            f"over the limit {_MAX_ALTERNATIVES}")
    # the Horn choices vary slowest; a dict keeps the first occurrence
    found = dict.fromkeys(sum(parts, ()) for horn in product(*choices)
                          for parts in product(*horn))
    trivial = (_trivial_constraint().formula(),)
    return [SREUProblem(constraints or trivial) for constraints in found]


def solve_sreu_bounded(
    problem: SREUProblem, sig: Signature | None = None, max_size: int = 6,
    memo: _skeleton.SearchMemo | None = None,
) -> dict[Unknown, Term] | None:
    """First assignment of the problem's unknowns, in first occurrence
    order, that solves all constraints, in the deterministic search order
    of the bounded skeleton solver.  The problems of one conversion share
    their constraints, so a caller solving several of them passes one memo
    (`skeleton.SearchMemo`) to each call."""
    for solution in _skeleton.iter_formula_solutions(problem.constraints, None, sig, max_size,
                                                     memo):
        return solution
    return None
