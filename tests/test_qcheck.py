import random

import pytest

import reference_qcheck
from helpers import (
    CONSTS,
    F1,
    G2,
    H3,
    P1,
    Q2,
    cycle_formula,
    formula_terms,
    pigeonhole_formula,
    random_ground_formula,
    random_ground_term,
    valid_by_model_enumeration,
)
from hsk import models, qcheck, syntax
from hsk.qcheck import (
    CongruenceEngine,
    ContractError,
    DomainError,
    Literal,
    e_satisfiable,
    falsifying_literals,
    is_quasitautology,
)
from hsk.syntax import (
    And,
    Application,
    Equality,
    Exists,
    Implies,
    Not,
    Or,
    PredApp,
    PredicateSymbol,
    Variable,
    conj,
    numeral,
    subterms,
)
from hsk.textform import parse_formula, print_formula

A = Application(CONSTS[0], ())
B = Application(CONSTS[1], ())
C = Application(CONSTS[2], ())
R = PredApp(PredicateSymbol("r", 0), ())


def fa(t):
    return Application(F1, (t,))


def closed(equalities, universe):
    engine = CongruenceEngine(universe)
    for lhs, rhs in equalities:
        engine.merge(lhs, rhs)
    return engine


def class_count(engine):
    return len({engine.find(t) for t in engine.parent})


# ---------------------------------------------------------------------------
# The congruence engine


def test_close_one_step():
    engine = closed([(A, B)], [fa(A), fa(B)])
    assert set(engine.parent) == {A, B, fa(A), fa(B)}  # closed under subterms
    assert engine.same(A, B)
    assert engine.same(fa(A), fa(B))
    assert not engine.same(A, fa(A))
    assert class_count(engine) == 2


def test_close_empty_is_discrete():
    engine = closed([], [A, B])
    assert class_count(engine) == 2
    assert not engine.same(A, B)


def test_close_supports_conversion_example():
    # hypotheses of the solvable converted problem, solved by the constant c
    engine = closed([(C, A)], [A, B, C])
    assert engine.same(A, C)
    assert not engine.same(B, C)


def test_close_rejects_terms_outside_universe():
    with pytest.raises(DomainError):
        closed([(A, fa(A))], [A])
    with pytest.raises(DomainError):
        CongruenceEngine([A]).same(fa(A), A)
    with pytest.raises(ContractError):
        CongruenceEngine([fa(Variable("x1"))])


def test_predicate_atoms_are_closed_under_their_arguments():
    engine = closed([(A, B)], [PredApp(P1, (A,)), PredApp(P1, (B,)), PredApp(Q2, (A, B))])
    assert engine.same(PredApp(P1, (A,)), PredApp(P1, (B,)))
    assert not engine.same(PredApp(P1, (A,)), PredApp(Q2, (A, B)))
    assert not engine.same(PredApp(P1, (A,)), A)


def test_predicate_and_function_symbols_of_one_name_stay_apart():
    p = Application(syntax.FunctionSymbol("p", 1), (A,))
    engine = closed([], [p, PredApp(P1, (A,))])
    assert not engine.same(p, PredApp(P1, (A,)))


def test_a_nullary_predicate_atom_is_its_own_class():
    engine = closed([(A, B)], [R, A, B, fa(A)])
    assert set(engine.parent) == {R, A, B, fa(A)}
    assert {t for t in engine.parent if engine.same(t, R)} == {R}


def test_engine_closes_a_deep_term_without_recursion():
    assert len(CongruenceEngine([numeral(5000, A)]).parent) == 5001


def test_deep_identity_is_a_quasitautology():
    t = numeral(5000, A)
    assert is_quasitautology(Equality(t, t))


# ---------------------------------------------------------------------------
# e_satisfiable


def test_symmetry_conflict():
    lits = [Literal(True, Equality(A, B)), Literal(False, Equality(B, A))]
    assert e_satisfiable(lits) is False


def test_consistent_chain():
    lits = [Literal(True, Equality(A, B)), Literal(True, Equality(B, C)),
            Literal(True, Equality(A, C))]
    assert e_satisfiable(lits) is True


def test_predicate_congruence_conflict():
    lits = [Literal(True, Equality(A, B)), Literal(True, PredApp(P1, (A,))),
            Literal(False, PredApp(P1, (B,)))]
    assert e_satisfiable(lits) is False


def test_deep_congruence_propagation():
    f3 = fa(fa(fa(A)))
    f5 = fa(fa(f3))
    lits = [Literal(True, Equality(f3, A)), Literal(True, Equality(f5, A)),
            Literal(False, Equality(fa(A), A))]
    assert e_satisfiable(lits) is False


# ---------------------------------------------------------------------------
# is_quasitautology: fixed examples


def test_worked_examples():
    assert is_quasitautology(parse_formula("(c = a -> a = c) & (c = b -> b = c)"))
    assert not is_quasitautology(parse_formula("a = b"))
    assert is_quasitautology(
        parse_formula("z = zt & zt = s(z) -> s(z) = zt | z = s(zt)"))
    assert is_quasitautology(parse_formula("k = k"))


def test_rejects_non_ground_and_quantified():
    with pytest.raises(ContractError):
        is_quasitautology(Equality(Variable("x1"), A))
    with pytest.raises(ContractError):
        is_quasitautology(Exists(Variable("x1"), Equality(A, A)))


def test_the_search_walks_its_input_once(monkeypatch):
    # collecting the atoms is the one walk, and it rejects a quantifier
    walks = []
    nodes = syntax.nodes

    def counted(*args):
        walks.append(args[0])
        return nodes(*args)

    f = parse_formula("(a = b | c = d) -> p(e) | e = f")
    quantified = parse_formula("a = b | forall ?x. ?x = a")
    monkeypatch.setattr(syntax, "nodes", counted)
    assert falsifying_literals(f) is not None
    assert walks == [f]
    with pytest.raises(ContractError, match="^input must be quantifier-free$"):
        falsifying_literals(quantified)
    assert walks == [f, quantified]


VERDICTS = [
    ("p(a) & a = b -> p(b)", True),
    ("p(a) & !p(b) -> !(a = b)", True),
    ("q(a, b) & a = c -> q(c, b)", True),
    ("p(a) -> p(b)", False),
    ("p(f(a)) & f(a) = f(b) -> p(f(b)) | p(a)", True),
    ("r | !r", True),
    ("(r & !r) -> a = b", True),
    ("!(r -> r)", False),
    ("r -> p(a)", False),
]


@pytest.mark.parametrize("text,valid", VERDICTS, ids=[t for t, _ in VERDICTS])
def test_verdicts_with_predicate_atoms(text, valid):
    f = parse_formula(text)
    assert is_quasitautology(f) is valid
    assert valid_by_model_enumeration(f) is valid


# ---------------------------------------------------------------------------
# Identity axiom schemas under random instantiation


def _axiom_instances(rng: random.Random):
    t = lambda: random_ground_term(rng, 5)
    a, b, c = t(), t(), t()
    yield Equality(a, a)
    yield Implies(Equality(a, b), Equality(b, a))
    yield Implies(And(Equality(a, b), Equality(b, c)), Equality(a, c))
    for symbol in (F1, G2, H3):
        xs = [t() for _ in range(symbol.arity)]
        ys = [t() for _ in range(symbol.arity)]
        hyp = conj([Equality(x, y) for x, y in zip(xs, ys)])
        yield Implies(hyp, Equality(Application(symbol, tuple(xs)),
                                    Application(symbol, tuple(ys))))
    xs, ys = [t()], [t()]
    hyp = conj([Equality(x, y) for x, y in zip(xs, ys)] + [PredApp(P1, tuple(xs))])
    yield Implies(hyp, PredApp(P1, tuple(ys)))


def test_identity_axioms_are_quasitautologies():
    rng = random.Random(11)
    count = 0
    while count < 120:
        for axiom in _axiom_instances(rng):
            assert is_quasitautology(axiom)
            count += 1


def test_theorem_on_constants_property():
    # fresh constant k: validity of (k = a -> phi(k)) matches validity of phi(a)
    rng = random.Random(23)
    fresh = Application(CONSTS[2], ())  # generators below avoid c
    consts = CONSTS[:2]

    def term(max_size):
        if max_size <= 1 or rng.random() < 0.4:
            return Application(rng.choice(consts), ())
        return fa(term(max_size - 1))

    for _ in range(150):
        hole = Variable("v")
        pool = [hole, term(3), term(3)]
        body = random_ground_formula(rng, pool, 3, [PredApp(P1, (p,)) for p in pool])
        a = term(3)
        from hsk.syntax import substitute
        phi_k = substitute(body, {hole: fresh})
        phi_a = substitute(body, {hole: a})
        lhs = Implies(Equality(fresh, a), phi_k)
        assert is_quasitautology(lhs) == is_quasitautology(phi_a)


def test_ground_identity_iff_syntactic():
    rng = random.Random(37)
    for _ in range(200):
        a = random_ground_term(rng, 4)
        b = random_ground_term(rng, 4)
        assert is_quasitautology(Equality(a, b)) == (a == b)


def test_validity_monotone_under_disjunction():
    rng = random.Random(41)
    pool = [A, B, fa(A), fa(B)]
    for _ in range(100):
        phi = random_ground_formula(rng, pool, 3, [PredApp(P1, (A,))])
        psi = random_ground_formula(rng, pool, 3, [PredApp(P1, (B,))])
        if is_quasitautology(phi):
            assert is_quasitautology(Or(phi, psi))


# ---------------------------------------------------------------------------
# Agreement with exhaustive model enumeration


def _small_pool(rng: random.Random):
    # subterm-closed pool with at most 6 distinct terms
    pool = [A, B]
    while len(pool) < 6 and rng.random() < 0.8:
        base = rng.choice(pool)
        candidate = fa(base) if rng.random() < 0.7 else Application(G2, (base, rng.choice(pool)))
        if candidate not in pool and len(set(subterms(candidate)) | set(pool)) <= 6:
            pool = sorted(set(pool) | set(subterms(candidate)), key=repr)
    return pool


def test_agreement_with_model_enumeration():
    rng = random.Random(5150)
    for _ in range(60):
        pool = _small_pool(rng)
        atoms = [PredApp(P1, (rng.choice(pool),)), PredApp(P1, (rng.choice(pool),))]
        f = random_ground_formula(rng, pool, 4, atoms)
        assert is_quasitautology(f) == valid_by_model_enumeration(f)


def test_validity_implies_truth_in_structures():
    rng = random.Random(77)
    zoo = [models.two_point_structure(), models.table_structure(),
           models.m_alpha(models.AlphaAssignment({}))]
    from hsk.arith import zero, zero_tilde, k_plain
    pool = [zero(), zero_tilde(), k_plain()]
    for _ in range(80):
        f = random_ground_formula(rng, pool, 3, [])
        if is_quasitautology(f):
            for structure in zoo:
                assert models.holds(structure, f)


# ---------------------------------------------------------------------------
# The incremental search against the procedure it replaced


def _kleene(f, lits):
    """Value of f under the partial assignment lits: True, False or None."""
    if isinstance(f, (Equality, PredApp)):
        return lits.get(f)
    if isinstance(f, Not):
        value = _kleene(f.body, lits)
        return None if value is None else not value
    lhs, rhs = _kleene(f.lhs, lits), _kleene(f.rhs, lits)
    if isinstance(f, And):
        if lhs is False or rhs is False:
            return False
        return True if lhs and rhs else None
    if isinstance(f, Implies):
        lhs = None if lhs is None else not lhs
    if lhs is True or rhs is True:
        return True
    return False if lhs is False and rhs is False else None


def _differential_cases():
    rng = random.Random(9001)
    for _ in range(150):
        pool = sorted({random_ground_term(rng, 4) for _ in range(rng.randint(2, 4))}, key=repr)
        atoms = [PredApp(P1, (rng.choice(pool),)) for _ in range(2)]
        atoms += [PredApp(Q2, (rng.choice(pool), rng.choice(pool))) for _ in range(2)]
        yield random_ground_formula(rng, pool, rng.randint(2, 5), atoms)
    for _ in range(40):
        # predicate congruence, the equalities asserted after and before
        xs = tuple(random_ground_term(rng, 3) for _ in range(2))
        ys = tuple(random_ground_term(rng, 3) for _ in range(2))
        joined = conj([Equality(x, y) for x, y in zip(xs, ys)][:rng.randint(1, 2)])
        yield Implies(And(PredApp(Q2, xs), Not(PredApp(Q2, ys))), Not(joined))
        yield Implies(And(joined, PredApp(Q2, xs)), PredApp(Q2, ys))
    for n in range(3, 10):
        yield cycle_formula(n)
    for h in range(1, 5):
        yield pigeonhole_formula(h + 1, h)
        yield pigeonhole_formula(h, h)
    for _ in range(40):
        # a nullary predicate atom, which has no arguments to be congruent on
        pool = sorted({random_ground_term(rng, 3) for _ in range(rng.randint(2, 3))}, key=repr)
        atoms = [R, PredApp(P1, (rng.choice(pool),))]
        yield random_ground_formula(rng, pool, rng.randint(2, 5), atoms)


def test_search_agrees_with_reference_and_oracle():
    enumerated = 0
    for f in _differential_cases():
        found = falsifying_literals(f)
        assert (found is None) == (reference_qcheck.falsifying_literals(f) is None)
        if len(formula_terms(f)) <= 7:
            assert (found is None) == valid_by_model_enumeration(f)
            enumerated += 1
        if found is not None:
            assert _kleene(f, found) is False
            assert e_satisfiable([Literal(v, a) for a, v in found.items()])
    assert enumerated >= 100


# ---------------------------------------------------------------------------
# Undo on the congruence engine


def _engine_state(engine):
    return (engine.parent, engine.size, engine.uses, engine.sig)


@pytest.mark.parametrize("text,literals", [
    ("(a = b | c = d) -> e = f", [("e = f", False), ("a = b", True)]),
    ("(a = b | c = d) & (e = f | a = c) -> a = b",
     [("a = b", False), ("c = d", True), ("e = f", True)]),
    ("(a = b -> c = d) & (c = d | b = c) -> a = c",
     [("a = c", False), ("a = b", False), ("c = d", True)]),
])
def test_search_takes_the_left_branch_first(text, literals):
    """The first falsifying assignment in left-first depth-first order, its
    literals in the order they were asserted; the second and third inputs
    make the search back out of a left branch."""
    found = falsifying_literals(parse_formula(text))
    assert [(print_formula(atom), value) for atom, value in found.items()] == literals


def test_engine_undo_restores_the_replayed_prefix():
    rng = random.Random(4242)
    for _ in range(60):
        universe = []
        for t in (random_ground_term(rng, 6) for _ in range(rng.randint(3, 8))):
            for sub in subterms(t):
                if sub not in universe:
                    universe.append(sub)
        engine = CongruenceEngine(universe)
        active = []  # the merges in effect, as (lhs, rhs)
        marks = []  # (engine mark, number of merges in effect at it)
        for _ in range(40):
            roll = rng.random()
            if roll < 0.55:
                pair = (rng.choice(universe), rng.choice(universe))
                engine.merge(*pair)
                active.append(pair)
            elif roll < 0.75:
                marks.append((engine.mark(), len(active)))
            elif marks:
                mark, kept = marks.pop()
                engine.undo(mark)
                del active[kept:]
                fresh = CongruenceEngine(universe)
                for pair in active:
                    fresh.merge(*pair)
                assert _engine_state(engine) == _engine_state(fresh)
                assert [engine.find(t) for t in universe] == \
                    [fresh.find(t) for t in universe]


# ---------------------------------------------------------------------------
# Work counts of the search


class _TooManyMerges(Exception):
    pass


def _valid_within(monkeypatch, f, bound):
    """The search's verdict on f; raises once it makes more than bound
    merge calls."""
    calls = [0]
    merge = CongruenceEngine.merge

    def counted(self, a, b):
        calls[0] += 1
        if calls[0] > bound:
            raise _TooManyMerges(f"more than {bound} merges")
        return merge(self, a, b)

    monkeypatch.setattr(CongruenceEngine, "merge", counted)
    verdict = falsifying_literals(f) is None
    monkeypatch.setattr(CongruenceEngine, "merge", merge)
    return verdict


def _isinstance_calls(monkeypatch, f):
    """The isinstance calls qcheck makes while searching f."""
    calls = [0]

    def counted(obj, cls):
        calls[0] += 1
        return isinstance(obj, cls)

    with monkeypatch.context() as patch:
        patch.setattr(qcheck, "isinstance", counted, raising=False)
        falsifying_literals(f)
    return calls[0]


def test_disjunctive_hypotheses_take_linear_work(monkeypatch):
    # the waiting goals are shared by both branches, not copied and walked
    # again at every node, so twice the hypotheses take about twice the work
    def hypotheses(n):
        hyps = " & ".join(f"(a{i} = b{i} | c{i} = d{i})" for i in range(n))
        return parse_formula(f"{hyps} -> e = f")

    small = _isinstance_calls(monkeypatch, hypotheses(200))
    large = _isinstance_calls(monkeypatch, hypotheses(400))
    assert large / small < 3


def test_odd_cycles_take_quadratically_many_merges(monkeypatch):
    for n in range(5, 32, 2):
        assert _valid_within(monkeypatch, cycle_formula(n), n * n)


# measured: one more pigeon than holes, h = 1..6
PIGEONHOLE_MERGES = {1: 2, 2: 10, 3: 48, 4: 260, 5: 1630, 6: 11742}


def test_pigeonhole_merge_counts(monkeypatch):
    for h, bound in PIGEONHOLE_MERGES.items():
        assert _valid_within(monkeypatch, pigeonhole_formula(h + 1, h), bound)


# ---------------------------------------------------------------------------
# The verdict cache


def test_verdict_cache_drops_the_oldest_entry(monkeypatch):
    monkeypatch.setattr(qcheck, "_VERDICT_CACHE_LIMIT", 4)
    monkeypatch.setattr(qcheck, "_VERDICTS", type(qcheck._VERDICTS)())
    formulas = [parse_formula(f"a{i} = b{i}") for i in range(6)]
    for f in formulas:
        assert not is_quasitautology(f)
    assert list(qcheck._VERDICTS) == formulas[2:]
