import dataclasses
import itertools
import random

import pytest

import reference_sreu
from helpers import ROOT, bench_problems, enumerate_terms, problem_of, signature_of, unknowns_of
from hsk import cli, qcheck, skeleton, sreu, syntax
from hsk.sreu import (
    Clause,
    ContractError,
    SREUProblem,
    convert_to_sreu,
    rigid_alternatives,
    solve_sreu_bounded,
    to_clause_conjunction,
)
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
from hsk.textform import parse_formula, print_formula, print_term

A = Application(FunctionSymbol("a", 0), ())
B = Application(FunctionSymbol("b", 0), ())
C = Application(FunctionSymbol("c", 0), ())
P = PredicateSymbol("p", 1)
STAR = Unknown(1)

SKELETON_39 = "p(a) & p(b) & (*1 = a | *1 = b) -> p(c)"
APART_39 = "p(a) & p(b) & (f(*1) = a | f(*1) = b) -> p(c)"
CROSS_39 = "p(a) & p(b) & (f(*1, *2) = a | f(*1, *2) = b) -> p(c)"


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
        problem_of((Clause((Equality(C, A),), (Equality(A, B),)),)),
        problem_of((Clause((Equality(C, A),), (Equality(A, C),)),)),
    ]


def test_horn_split_keeps_consequent_order():
    out = convert_to_sreu(parse_formula("a = b | b = c | a = c"))
    assert out == [
        problem_of((Clause((), (Equality(A, B),)),)),
        problem_of((Clause((), (Equality(B, C),)),)),
        problem_of((Clause((), (Equality(A, C),)),)),
    ]


def test_horn_split_fixpoint_on_horn_input():
    clause = Clause((Equality(A, B),), (Equality(B, C),))
    assert convert_to_sreu(clause.formula()) == [problem_of((clause,))]


def test_horn_split_not_needed_for_worked_example():
    # the worked example's shape, two Horn clauses from one disjunctive
    # hypothesis, with equalities in place of the predicate atoms
    f = parse_formula("a = c & (*1 = a | *1 = b) -> b = c")
    clauses = to_clause_conjunction(f)
    assert len(clauses) == 2
    assert convert_to_sreu(f) == [problem_of(tuple(clauses))]


def test_horn_split_deduplicates():
    out = convert_to_sreu(parse_formula("a = b | a = b"))
    assert out == [problem_of((Clause((), (Equality(A, B),)),))]


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
        " & ".join(print_formula(c) for c in problem.constraints)
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
        " & ".join(print_formula(c) for c in problem.constraints)
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


@pytest.mark.parametrize("text, count", [
    # six conjunctions give 6**6 clauses, and a seventh disjunct 6**7
    (" | ".join("(" + " & ".join(f"a{i}{j} = b{i}{j}" for j in range(6)) + ")"
                for i in range(7)), "279936"),
    # two conjoined copies of 6**6 clauses
    (" & ".join("(" + " | ".join("(" + " & ".join(f"a{k}{i}{j} = b" for j in range(6)) + ")"
                                 for i in range(6)) + ")" for k in range(2)), "93312"),
], ids=["disjunction", "conjunction"])
def test_clause_form_over_the_limit_is_refused(text, count):
    f = parse_formula(text)
    with pytest.raises(ContractError,
                       match=rf"^clause conversion gives at least {count} clauses, "
                             r"over the limit 65536$"):
        to_clause_conjunction(f)


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
        problem_of((Clause((Equality(A, B),), (Equality(STAR, C),)),))
    ]


def test_generalized_deletion_example():
    problems = convert_to_sreu(parse_formula("p(a) -> *1 = b"))
    assert problems == [problem_of((Clause((), (Equality(STAR, B),)),))]


def test_repeated_solves_share_the_unconstrained_buckets(monkeypatch):
    # every conjunct of the CROSS_39 problems holds *1 in a hypothesis of
    # *2, so it is a check and both unknowns are unconstrained: each solve
    # reads one stream for one (signature, bound) key, and it is built
    # once.  The `apart` problems restrict their unknown by conjuncts such
    # as `f(*1) = a -> a = c`, which no term passes, so they enumerate
    # nothing.  The problems of SKELETON_39 restrict theirs by four distinct
    # hypothesis conjuncts: `*1 = a -> a = c` and `*1 = b -> b = c` pass c,
    # and each of their streams is built once too; no term passes the other
    # two, such as `*1 = b -> a = c`, so they enumerate nothing
    built = []
    sized_terms = skeleton._sized_terms

    def counted(*args):
        built.append(args[:2])
        return sized_terms(*args)

    monkeypatch.setattr(skeleton, "_sized_terms", counted)
    for text, streams in ((CROSS_39, 1), (APART_39, 0), (SKELETON_39, 2)):
        problems = convert_to_sreu(parse_formula(text))
        sig = signature_of(parse_formula(text))
        built.clear()
        skeleton._class_member_buckets.cache_clear()
        try:
            for _ in range(3):
                for problem in problems:
                    solve_sreu_bounded(problem, sig, max_size=3)
        finally:
            skeleton._class_member_buckets.cache_clear()
        assert built == [(sig, 3)] * streams, text


def _fails_whatever_the_unknown_is(conjunct, u):
    """No ground subterm of the conjunct and no fresh constant makes it
    valid at u.  In a conjunct `u = a -> b = c` or `f(u) = a -> b = c`, any
    term is congruent to one of those subterms or to none of its terms,
    and has the verdict of that subterm or of the fresh constant."""
    fresh = Application(FunctionSymbol("fresh", 0), ())
    ground = {t for side in (n for n in syntax.nodes(conjunct) if isinstance(n, Application))
              for t in syntax.subterms(side) if t.ground}
    return not any(qcheck.is_quasitautology(substitute(conjunct, {u: t}))
                   for t in [*ground, fresh])


@pytest.mark.parametrize("flavour", ["plain", "apart"])
def test_learned_verdicts_spare_most_searches_their_signature(monkeypatch, flavour):
    # k = 4: 256 problems of four conjuncts over 16 distinct ones, such as
    # `*1 = a1 -> a2 = c` or, apart, `f(*1) = a1 -> a2 = c`.  Most accept no
    # class, so they fail whatever *1 is, and the command's memo learns that
    # the first time a search reads their stream.  A later search that meets
    # one among conjuncts the memo knows ends before it builds a signature.
    # So signatures are built at most once per distinct conjunct the memo
    # meets first, and once per problem that no such verdict decides; each
    # search reads at most one stream per conjunct
    unknown = "f(*1)" if flavour == "apart" else "*1"
    text = ("p(a1) & p(a2) & p(a3) & p(a4) & "
            f"({' | '.join(f'{unknown} = a{i}' for i in range(1, 5))}) -> p(c)")
    problems = convert_to_sreu(parse_formula(text))
    distinct = {c for problem in problems for c in problem.constraints}
    failing = {c for c in distinct if _fails_whatever_the_unknown_is(c, STAR)}
    undecided = sum(not failing & set(problem.constraints) for problem in problems)
    assert (len(problems), len(distinct), undecided) == (
        (256, 16, 1) if flavour == "plain" else (256, 16, 0))
    signatures = streams = 0
    signature, buckets = skeleton.Signature, skeleton._class_member_buckets

    def counted_signature(*args):
        nonlocal signatures
        signatures += 1
        return signature(*args)

    def counted_buckets(*args):
        nonlocal streams
        streams += 1
        return buckets(*args)

    monkeypatch.setattr(skeleton, "Signature", counted_signature)
    monkeypatch.setattr(skeleton, "_class_member_buckets", counted_buckets)
    status, output = cli.run(cli.RunConfig(command="sreu", solve=True, max_size=3), text)
    assert status == (0 if undecided else 1)
    assert output.count("] SOLVED") == undecided
    assert signatures <= len(distinct) + undecided
    assert streams <= 4 * (len(distinct) + undecided)


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
    # the fresh constants of a clause without positive atoms avoid these names
    "c#1 = d#1 -> !(*1 = a)",
    "(c#1 = *1 -> !p(d#2)) & (!(*1 = c#3) | d#1 = *1)",
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
TRIVIAL = Clause((), (Equality(C0, C0),)).formula()


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


def _random_horn_clause(rng: random.Random) -> Clause:
    """A Horn clause of up to 7 hypotheses over equalities and the
    predicates r, p and q2: the consequent an equality or a predicate atom,
    and the hypotheses interleaving equalities, atoms of the consequent's
    predicate and of the others, and repeats of earlier hypotheses."""

    def atom(symbol):
        return PredApp(symbol, tuple(_random_term(rng, 1) for _ in range(symbol.arity)))

    def equality():
        return Equality(_random_term(rng, 1), _random_term(rng, 1))

    consequent = equality() if rng.random() < 0.25 else atom(rng.choice(PREDICATES))
    own = consequent.symbol if isinstance(consequent, PredApp) else rng.choice(PREDICATES)
    hypotheses: list = []
    for _ in range(rng.randint(0, 7)):
        roll = rng.random()
        if hypotheses and roll < 0.2:
            hypotheses.append(rng.choice(hypotheses))
        elif roll < 0.55:
            hypotheses.append(atom(own))
        elif roll < 0.75:
            hypotheses.append(atom(rng.choice([q for q in PREDICATES if q != own])))
        else:
            hypotheses.append(equality())
    return Clause(tuple(hypotheses), (consequent,))


def test_closed_form_elimination_matches_the_rewriting():
    # as lists, for 6 000 seeded Horn clauses: the same tuples in the same
    # order, with the same duplicates
    rng = random.Random(1995)
    matched = repeated = 0
    for _ in range(6000):
        c = _random_horn_clause(rng)
        got = rigid_alternatives(c)
        assert got == reference_sreu.rigid_alternatives_by_rewriting(c), c
        consequent = c.consequent[0]
        if isinstance(consequent, PredApp):
            own = [a for a in c.antecedent
                   if isinstance(a, PredApp) and a.symbol == consequent.symbol]
            matched += len(own) >= 2
            repeated += len(set(own)) < len(own)
    # many consequents meet several hypotheses of their predicate, and
    # some meet the same one twice
    assert matched > 1500 and repeated > 500


# ---------------------------------------------------------------------------
# One command shares work across its problems


def _unshared_sreu_solve(config: cli.RunConfig, text: str) -> tuple[int, str]:
    """`hsk sreu --solve` with nothing shared between problems: each
    constraint printed afresh, and each problem rebuilt from its
    constraints and solved with a fresh memo."""
    lines, any_solved = [], False
    for i, problem in enumerate(convert_to_sreu(parse_formula(cli._strip_comments(text))),
                                start=1):
        texts = [print_formula(c) for c in problem.constraints]
        solution = solve_sreu_bounded(SREUProblem(problem.constraints),
                                      max_size=config.max_size)
        any_solved |= solution is not None
        witness = None if solution is None else ";".join(
            f"*{u.index}:={print_term(t)}" for u, t in sorted(solution.items(),
                                                             key=lambda kv: kv[0].index))
        if config.fmt == "records":
            lines.append(f"problem_index={i}\tverdict=sreu\twitness="
                         + " & ".join(f"({t})" for t in texts))
            lines.append(f"problem_index={i}\tverdict=no-solution" if witness is None
                         else f"problem_index={i}\tverdict=solved\twitness={witness}")
        else:
            lines += [f"[{i}.{j}] {t}" for j, t in enumerate(texts, start=1)]
            lines.append(f"[{i}] NO SOLUTION WITHIN BOUND {config.max_size}" if witness is None
                         else f"[{i}] SOLVED {witness}" if witness else f"[{i}] SOLVED")
    return (0 if any_solved else 1), "".join(f"{line}\n" for line in lines)


def _sharing_inputs():
    """(config, text): the sreu goldens, batch 0 of the benchmark's sreu
    workload (seed 7), and seeded random formulas over two unknowns."""
    for problem in bench_problems().make_batch("sreu", 7, 0, ROOT):
        yield cli.RunConfig(**problem.command), problem.text
    rng = random.Random(1995)
    for _ in range(150):
        text = print_formula(_random_formula(rng, 3))
        yield cli.RunConfig(command="sreu", solve=True, max_size=2), text


def test_shared_work_leaves_every_sreu_output_byte_identical():
    # every input goes through `sreu --solve` in text and in records form
    solved = compared = 0
    for config, text in _sharing_inputs():
        for fmt in ("text", "records"):
            solving = dataclasses.replace(config, solve=True, fmt=fmt)
            got = cli.run(solving, text)
            assert got == _unshared_sreu_solve(solving, text), (fmt, text)
            compared += 1
            solved += "SOLVED" in got[1] or "verdict=solved" in got[1]
    assert compared > 500 and solved > 200
