import itertools
import random

import pytest

import reference_sreu
from helpers import signature_of, unknowns_of
from hsk import qcheck, skeleton, sreu
from hsk.sreu import (
    Clause,
    ContractError,
    SREUProblem,
    convert_to_sreu,
    rigid_alternatives,
    solve_sreu_bounded,
    to_clause_conjunction,
)
from hsk.skeleton import enumerate_terms
from hsk.syntax import (
    And,
    Application,
    Equality,
    Formula,
    FunctionSymbol,
    Implies,
    Not,
    Or,
    PredApp,
    PredicateSymbol,
    Unknown,
    substitute,
)
from hsk.textform import parse_formula, print_formula

A = Application(FunctionSymbol("a", 0), ())
B = Application(FunctionSymbol("b", 0), ())
C = Application(FunctionSymbol("c", 0), ())
P = PredicateSymbol("p", 1)
STAR = Unknown(1)

SKELETON_39 = "p(a) & p(b) & (*1 = a | *1 = b) -> p(c)"


def pa(t):
    return PredApp(P, (t,))


# ---------------------------------------------------------------------------
# Step (i)


def test_clauses_of_worked_skeleton():
    clauses = to_clause_conjunction(parse_formula(SKELETON_39))
    assert clauses == [
        Clause((pa(A), pa(B), Equality(STAR, A)), (pa(C),)),
        Clause((pa(A), pa(B), Equality(STAR, B)), (pa(C),)),
    ]


def test_clause_of_bare_equality():
    clauses = to_clause_conjunction(parse_formula("a = b"))
    assert clauses == [Clause((), (Equality(A, B),))]


def test_negative_atom_gets_fresh_disequality():
    clauses = to_clause_conjunction(parse_formula("!p(a)"))
    assert len(clauses) == 1
    (clause,) = clauses
    assert clause.antecedent == (pa(A),)
    (concl,) = clause.consequent
    assert isinstance(concl, Equality)
    left, right = concl.lhs, concl.rhs
    assert left.symbol.name == "c#1" and right.symbol.name == "d#1"
    assert left != right


def test_clause_conversion_preserves_meaning():
    for text in (SKELETON_39, "!(p(a) & (a = b | !p(b)))", "a = b -> b = a",
                 "p(a) | !p(a)"):
        f = parse_formula(text)
        clauses = to_clause_conjunction(f)
        if not clauses:
            continue
        rebuilt = clauses[0].formula()
        for clause in clauses[1:]:
            rebuilt = And(rebuilt, clause.formula())
        # equivalence checked only on formulas without fresh constants
        if any("#" in s.name for s in signature_of(rebuilt).function_symbols):
            continue
        assert qcheck.is_quasitautology(Implies(f, rebuilt))
        assert qcheck.is_quasitautology(Implies(rebuilt, f))


# ---------------------------------------------------------------------------
# Splitting: one Horn clause per consequent atom, shown on equalities alone


def test_horn_split_two_consequents():
    out = convert_to_sreu(parse_formula("c = a -> a = b | a = c"))
    assert out == [
        SREUProblem((Clause((Equality(C, A),), (Equality(A, B),)),)),
        SREUProblem((Clause((Equality(C, A),), (Equality(A, C),)),)),
    ]


def test_horn_split_keeps_consequent_order():
    out = convert_to_sreu(parse_formula("a = b | b = c | a = c"))
    assert out == [
        SREUProblem((Clause((), (Equality(A, B),)),)),
        SREUProblem((Clause((), (Equality(B, C),)),)),
        SREUProblem((Clause((), (Equality(A, C),)),)),
    ]


def test_horn_split_fixpoint_on_horn_input():
    clause = Clause((Equality(A, B),), (Equality(B, C),))
    assert convert_to_sreu(clause.formula()) == [SREUProblem((clause,))]


def test_horn_split_not_needed_for_worked_example():
    # the worked example's shape, two Horn clauses from one disjunctive
    # hypothesis, with equalities in place of the predicate atoms
    f = parse_formula("a = c & (*1 = a | *1 = b) -> b = c")
    clauses = to_clause_conjunction(f)
    assert len(clauses) == 2
    assert convert_to_sreu(f) == [SREUProblem(tuple(clauses))]


def test_horn_split_deduplicates():
    out = convert_to_sreu(parse_formula("a = b | a = b"))
    assert out == [SREUProblem((Clause((), (Equality(A, B),)),))]


# ---------------------------------------------------------------------------
# Elimination of predicate symbols from one Horn clause


def test_unmatched_consequent_deletes_formula():
    assert rigid_alternatives(Clause((), (pa(A),))) == []


def test_unmatched_consequent_deletes_even_with_other_predicates():
    q = PredicateSymbol("q", 1)
    clause = Clause((PredApp(q, (B,)), Equality(A, B)), (pa(A),))
    assert rigid_alternatives(clause) == []


def test_distinct_predicate_hypothesis_removed():
    q = PredicateSymbol("q", 1)
    clause = Clause((PredApp(q, (B,)), pa(B)), (pa(A),))
    out = rigid_alternatives(clause)
    # q(b) removed, then the matching p-pair resolves to one identity
    assert out == [(Clause((), (Equality(B, A),)),)]


def test_identity_consequent_with_predicate_hypothesis():
    clause = Clause((pa(A), Equality(STAR, B)), (Equality(A, C),))
    out = rigid_alternatives(clause)
    assert out == [(Clause((Equality(STAR, B),), (Equality(A, C),)),)]


def test_same_predicate_split_orientation():
    # hypothesis atom argument appears on the left of the produced identity
    clause = Clause((pa(B),), (pa(A),))
    out = rigid_alternatives(clause)
    assert out == [(Clause((), (Equality(B, A),)),)]


def test_rigid_input_unchanged():
    clause = Clause((Equality(A, B),), (Equality(B, C),))
    assert rigid_alternatives(clause) == [(clause,)]


def test_non_horn_input_rejected():
    with pytest.raises(ContractError, match="predicate elimination needs Horn clauses"):
        rigid_alternatives(Clause((), (pa(A), pa(B))))


# ---------------------------------------------------------------------------
# Full pipeline on the worked example


def test_pipeline_produces_the_four_problems_in_order():
    problems = convert_to_sreu(parse_formula(SKELETON_39))
    texts = [
        " & ".join(print_formula(c.formula()) for c in problem.constraints)
        for problem in problems
    ]
    assert texts == [
        "*1 = a -> a = c & *1 = b -> a = c",
        "*1 = a -> a = c & *1 = b -> b = c",
        "*1 = a -> b = c & *1 = b -> a = c",
        "*1 = a -> b = c & *1 = b -> b = c",
    ]


def test_horn_choices_vary_slowest():
    # the first clause has two rigid alternatives, the second two consequent
    # atoms; a flat product over each clause's options would interleave them
    problems = convert_to_sreu(parse_formula("(p(u) & p(v) -> p(y)) & (a = b | a = c)"))
    texts = [
        " & ".join(print_formula(c.formula()) for c in problem.constraints)
        for problem in problems
    ]
    assert texts == ["u = y & a = b", "v = y & a = b", "u = y & a = c", "v = y & a = c"]


@pytest.mark.parametrize("text, count", [
    # 17 clauses of two consequent atoms each
    (" & ".join(f"(a = b{i} | a = c{i})" for i in range(17)), "131072"),
    # 32 * 32 such clauses: a count too long to print in decimal
    (" | ".join("(" + " & ".join(f"{x}{i} = a" for i in range(32)) + ")" for x in "bc"),
     r"at least 2\*\*1024"),
], ids=["2**17", "2**1024"])
def test_conversion_over_the_limit_builds_nothing(monkeypatch, text, count):
    f = parse_formula(text)
    monkeypatch.setattr(sreu, "SREUProblem", None)  # any problem built would fail
    with pytest.raises(ContractError,
                       match=rf"^clause conversion gives {count} alternatives, "
                             r"over the limit 65536$"):
        convert_to_sreu(f)


def test_problem_unknowns_are_a_tuple_in_first_occurrence_order():
    problem = convert_to_sreu(parse_formula("*2 = a & *1 = *2 -> b = *3"))[0]
    assert tuple(unknowns_of(problem.formula)) == (Unknown(2), Unknown(1), Unknown(3))


def test_pipeline_solvability_of_the_four_problems():
    problems = convert_to_sreu(parse_formula(SKELETON_39))
    witnesses = [solve_sreu_bounded(problem, max_size=3) for problem in problems]
    assert witnesses[1] == {STAR: C}
    assert witnesses[0] is None and witnesses[2] is None and witnesses[3] is None


def test_rigid_constraint_input_passes_through():
    problems = convert_to_sreu(parse_formula("a = b -> *1 = c"))
    assert problems == [
        SREUProblem((Clause((Equality(A, B),), (Equality(STAR, C),)),))
    ]


def test_generalized_deletion_example():
    problems = convert_to_sreu(parse_formula("p(a) -> *1 = b"))
    assert problems == [SREUProblem((Clause((), (Equality(STAR, B),)),))]


def test_repeated_solves_share_the_unconstrained_buckets(monkeypatch):
    # every unknown of these problems is unconstrained, so each solve reads
    # one stream for one (signature, bound) key: it is built once
    problems = convert_to_sreu(parse_formula(SKELETON_39))
    sig = signature_of(parse_formula(SKELETON_39))
    built = []
    sized_terms = skeleton._sized_terms

    def counted(*args):
        built.append(args[:2])
        return sized_terms(*args)

    monkeypatch.setattr(skeleton, "_sized_terms", counted)
    skeleton._class_member_buckets.cache_clear()
    try:
        for _ in range(3):
            for problem in problems:
                solve_sreu_bounded(problem, sig, max_size=3)
    finally:
        skeleton._class_member_buckets.cache_clear()
    assert built == [(sig, 3)]


def test_solve_trivial_constraint():
    problems = convert_to_sreu(parse_formula("*1 = a"))
    sol = solve_sreu_bounded(problems[0], max_size=2)
    assert sol == {STAR: A}


# ---------------------------------------------------------------------------
# Solution equivalence at desk scale


def _solves_formula(f, sigma):
    return qcheck.is_quasitautology(substitute(f, sigma))


def _solves_some_problem(problems, sigma):
    return any(_solves_formula(p.formula, sigma) for p in problems)


@pytest.mark.parametrize("text", [
    SKELETON_39,
    "p(a) -> *1 = b",
    "(p(*1) -> p(a)) & (*1 = b | *1 = a)",
    "!(*1 = a) | f(*1) = f(a)",
    "q2(*1, *2) & p(a) -> q2(a, b)",
    "*1 = a -> p(f(a)) | p(f(*1))",
])
def test_solution_equivalence_exhaustive(text):
    f = parse_formula(text)
    problems = convert_to_sreu(f)
    sig = signature_of(f)
    unknowns = unknowns_of(f)
    pool = list(enumerate_terms(sig, 3))
    for combo in itertools.product(pool, repeat=len(unknowns)):
        sigma = dict(zip(unknowns, combo))
        assert _solves_formula(f, sigma) == _solves_some_problem(problems, sigma)


# ---------------------------------------------------------------------------
# The pipeline against its reference


F1 = FunctionSymbol("f", 1)
PREDICATES = (PredicateSymbol("r", 0), P, PredicateSymbol("q2", 2))
C0 = Application(FunctionSymbol("c#0", 0), ())
TRIVIAL = Clause((), (Equality(C0, C0),))


def _random_term(rng: random.Random, depth: int):
    if depth and rng.random() < 0.25:
        return Application(F1, (_random_term(rng, depth - 1),))
    return rng.choice((A, B, C, STAR, Unknown(2)))


def _random_formula(rng: random.Random, depth: int) -> Formula:
    """A quantifier-free formula over equalities, two unknowns and the
    predicates r, p and q2 of arity 0, 1 and 2."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Equality(_random_term(rng, 1), _random_term(rng, 1))
        symbol = rng.choice(PREDICATES)
        return PredApp(symbol, tuple(_random_term(rng, 1) for _ in range(symbol.arity)))
    connective = rng.choice((Not, And, Or, Implies, Implies))
    if connective is Not:
        return Not(_random_formula(rng, depth - 1))
    return connective(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))


def test_conversion_matches_the_reference_on_random_formulas():
    # the problems' constraint tuples, in order, for 2 000 seeded formulas
    rng = random.Random(20190)
    deleted = trivial = split = 0
    for _ in range(2000):
        f = _random_formula(rng, 3)
        assert to_clause_conjunction(f) == reference_sreu.to_clause_conjunction(f)
        got = [p.constraints for p in convert_to_sreu(f)]
        assert got == [p.constraints for p in reference_sreu.convert_to_sreu(f)], f
        deleted += not got
        trivial += any(c == TRIVIAL for constraints in got for c in constraints)
        split += len(got) > 1
    # every outcome of the elimination occurs: deletion, the trivial
    # constraint of a nullary predicate, and several alternatives
    assert deleted > 400 and trivial > 10 and split > 150
