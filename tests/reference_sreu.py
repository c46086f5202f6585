"""Predicate elimination and clause conversion as they were when a rigid
clause was found by a scan of its own before each rewrite, each rewrite
returned whole conjunctions checked by a multiset measure, the conversion
checked for quantifiers in a walk of its own, and every Horn conjunction
was split out whole before any was rewritten.  Kept unchanged, but for
local `is_horn` and `is_rigid` in place of the deleted `Clause` methods,
and the measure's helpers, `horn_split`, `_dedupe` and `ClauseConjunction`
moved here from `hsk.sreu`, as the reference that tests compare the
conversion pipeline against."""

from __future__ import annotations

from typing import Sequence

from hsk.sreu import Clause, SREUProblem, _cnf, _trivial_constraint
from hsk.syntax import (
    ContractError,
    Equality,
    Formula,
    FunctionSymbol,
    PredApp,
    const,
)
from reference_qcheck import is_quantifier_free


ClauseConjunction = tuple[Clause, ...]


def is_horn(c: Clause) -> bool:
    return len(c.consequent) == 1


def is_rigid(c: Clause) -> bool:
    return is_horn(c) and all(
        isinstance(a, Equality) for a in c.antecedent + c.consequent
    )


def _dedupe(formulas: list[ClauseConjunction]) -> list[ClauseConjunction]:
    seen: set[ClauseConjunction] = set()
    out: list[ClauseConjunction] = []
    for f in formulas:
        if f not in seen:
            seen.add(f)
            out.append(f)
    return out


def horn_split(gamma: Sequence[Sequence[Clause]]) -> list[ClauseConjunction]:
    """Replace every clause with m > 1 consequent atoms by m alternatives,
    iterated to a fixpoint; the class stays solution equivalent."""
    out: list[ClauseConjunction] = []
    todo = [tuple(clauses) for clauses in reversed(gamma)]  # the next one on top
    while todo:
        clauses = todo.pop()
        i = next((i for i, c in enumerate(clauses) if not is_horn(c)), None)
        if i is None:
            out.append(clauses)
            continue
        c = clauses[i]
        if not c.consequent:
            raise ContractError("clause with empty consequent")
        todo += [clauses[:i] + (Clause(c.antecedent, (atom,)),) + clauses[i + 1:]
                 for atom in reversed(c.consequent)]
    return _dedupe(out)


def _pred_counts(clauses: ClauseConjunction) -> tuple[int, ...]:
    return tuple(sorted(c.predicate_atom_count() for c in clauses))


def _multiset_lt(smaller: tuple[int, ...], larger: tuple[int, ...]) -> bool:
    """Dershowitz-Manna ordering on multisets of naturals."""
    if smaller == larger:
        return False
    removed = list(larger)
    added = list(smaller)
    for x in list(added):
        if x in removed:
            removed.remove(x)
            added.remove(x)
    return all(any(x < y for y in removed) for x in added)


def to_clause_conjunction(f: Formula) -> list[Clause]:
    """Equivalent conjunction of clauses; distribution keeps the left-to-right
    literal order, and a clause without positive atoms gets the consequent
    ``c#i = d#i`` over two new distinct constants."""
    if not is_quantifier_free(f):
        raise ContractError("clause conversion requires a quantifier-free formula")
    clauses: list[Clause] = []
    fresh = 0
    for row in _cnf(f):
        antecedent = tuple(atom for sign, atom in row if not sign)
        consequent = tuple(atom for sign, atom in row if sign)
        if not consequent:
            fresh += 1
            consequent = (
                Equality(
                    const(FunctionSymbol(f"c#{fresh}", 0)),
                    const(FunctionSymbol(f"d#{fresh}", 0)),
                ),
            )
        clauses.append(Clause(antecedent, consequent))
    return clauses


def _eliminate_step(clauses: ClauseConjunction) -> list[ClauseConjunction] | None:
    """One rewrite on the leftmost clause carrying a predicate atom.

    Returns None to delete the formula (an unmatched predicate consequent
    can always be falsified), otherwise the replacement alternatives.
    """
    for i, c in enumerate(clauses):
        if c.predicate_atom_count() == 0:
            continue
        consequent = c.consequent[0]
        if isinstance(consequent, PredApp):
            if not any(
                isinstance(a, PredApp) and a.symbol == consequent.symbol
                for a in c.antecedent
            ):
                return None
            j, atom = next(
                (j, a) for j, a in enumerate(c.antecedent) if isinstance(a, PredApp)
            )
            rest = c.antecedent[:j] + c.antecedent[j + 1:]
            if atom.symbol != consequent.symbol:
                replacement = (Clause(rest, c.consequent),)
                return [clauses[:i] + replacement + clauses[i + 1:]]
            # same predicate: either the arguments agree pairwise, or the
            # clause holds without this hypothesis
            equalities = tuple(
                Clause(rest, (Equality(b, a),))
                for b, a in zip(atom.args, consequent.args)
            )
            dropped = (Clause(rest, c.consequent),)
            return [
                clauses[:i] + equalities + clauses[i + 1:],
                clauses[:i] + dropped + clauses[i + 1:],
            ]
        # identity consequent with predicate hypotheses: such hypotheses
        # never constrain equational validity, drop the leftmost one
        j, _ = next((j, a) for j, a in enumerate(c.antecedent) if isinstance(a, PredApp))
        rest = c.antecedent[:j] + c.antecedent[j + 1:]
        return [clauses[:i] + (Clause(rest, c.consequent),) + clauses[i + 1:]]
    return [clauses]


def eliminate_predicates(gamma: Sequence[Sequence[Clause]]) -> list[SREUProblem]:
    """Rewrite Horn-clause conjunctions until only identity constraints
    remain; unsolvable branches are deleted, alternatives keep their order."""

    results: list[ClauseConjunction] = []
    for clauses in gamma:
        clauses = tuple(clauses)
        if not all(is_horn(c) for c in clauses):
            raise ContractError("predicate elimination needs Horn clauses")
        todo = [clauses]  # alternatives still to rewrite, the next one on top
        while todo:
            clauses = todo.pop()
            if all(is_rigid(c) for c in clauses):
                results.append(clauses)
                continue
            replacements = _eliminate_step(clauses)
            if replacements is None:
                continue
            before = _pred_counts(clauses)
            for replacement in replacements:
                assert _multiset_lt(_pred_counts(replacement), before), "measure must drop"
            todo += reversed(replacements)
    # a conjunction with every clause eliminated as valid: anything solves it
    return [SREUProblem(clauses or (_trivial_constraint(),)) for clauses in _dedupe(results)]


def convert_to_sreu(f: Formula) -> list[SREUProblem]:
    """Compose the three steps; the resulting class is solution equivalent
    to f.  Formulas with no clauses left (f propositionally valid) yield a
    single trivially solvable problem."""
    clauses = to_clause_conjunction(f)
    if not clauses:
        return [SREUProblem((_trivial_constraint(),))]
    return eliminate_predicates(horn_split([clauses]))
