import functools
import itertools
import random
from collections import Counter

import pytest

import reference_skeleton
from helpers import enumerate_terms, signature_of, unknowns_of
from hsk import arith, qcheck, skeleton, sreu, syntax
from hsk.arith import zero, zero_symbol, zero_tilde
from hsk.skeleton import (
    ContractError,
    ExistentialFormula,
    Skeleton,
    existential_of,
    iter_formula_solutions,
    iter_solutions,
    make_skeleton,
    solve_bounded,
    verify_solution,
)
from hsk.syntax import (
    Application,
    Equality,
    FunctionSymbol,
    Implies,
    Not,
    Or,
    Signature,
    Unknown,
    Variable,
    canonical_key,
    conj,
    flatten_and,
    numeral,
    substitute,
    term_size,
)
from hsk.textform import ParseError, parse_formula, parse_term

A = Application(FunctionSymbol("a", 0), ())
B = Application(FunctionSymbol("b", 0), ())
GUARDED_CHOICE = "exists ?v. p(a) | p(b) -> p(?v)"


def test_existential_validation():
    with pytest.raises(ContractError):
        ExistentialFormula((), parse_formula("p(?v)"))
    with pytest.raises(ContractError):
        ExistentialFormula((Variable("v"),), parse_formula("p(*1)"))


def test_existential_formula_checks_its_matrix_in_one_walk(monkeypatch):
    walks, rebuilds = [], []
    nodes, rebuild = syntax.nodes, syntax.rebuild

    def counted_nodes(*args):
        walks.append(args[0])
        return nodes(*args)

    def counted_rebuild(*args):
        rebuilds.append(args[0])
        return rebuild(*args)

    matrix = parse_formula("p(a) | q(f(?x), ?y) -> ?x = ?y")
    monkeypatch.setattr(syntax, "nodes", counted_nodes)
    monkeypatch.setattr(skeleton, "nodes", counted_nodes, raising=False)
    monkeypatch.setattr(syntax, "rebuild", counted_rebuild)
    psi = ExistentialFormula((Variable("x"), Variable("y")), matrix)
    assert psi.matrix is matrix
    assert walks == [matrix] and rebuilds == []


def test_make_skeleton_examples():
    psi = existential_of(parse_formula(GUARDED_CHOICE))
    sk2 = make_skeleton(psi, 2)
    assert sk2.formula == parse_formula("(p(a) | p(b) -> p(*1)) | (p(a) | p(b) -> p(*2))")
    sk1 = make_skeleton(existential_of(parse_formula("exists ?v. p(?v)")), 1)
    assert sk1.formula == parse_formula("p(*1)")
    pair_psi = existential_of(parse_formula("exists ?v. exists ?u. q(?v, ?u)"))
    sk = make_skeleton(pair_psi, 1)
    assert sk.formula == parse_formula("q(*1, *2)")
    assert sk.unknown_tuples == ((Unknown(1), Unknown(2)),)


def test_make_skeleton_deterministic():
    psi = existential_of(parse_formula(GUARDED_CHOICE))
    assert make_skeleton(psi, 3) == make_skeleton(psi, 3)


def test_verify_solution_examples():
    psi = existential_of(parse_formula(GUARDED_CHOICE))
    sk2 = make_skeleton(psi, 2)
    assert verify_solution(sk2, {Unknown(1): A, Unknown(2): B})
    sk1 = make_skeleton(psi, 1)
    assert not verify_solution(sk1, {Unknown(1): A})
    taut = make_skeleton(existential_of(parse_formula("exists ?v. p(?v) -> p(?v)")), 1)
    assert verify_solution(taut, {Unknown(1): parse_term("g(a, b)")})


def test_verify_solution_contract():
    psi = existential_of(parse_formula(GUARDED_CHOICE))
    sk2 = make_skeleton(psi, 2)
    with pytest.raises(ContractError):
        verify_solution(sk2, {Unknown(1): A})
    with pytest.raises(ContractError):
        verify_solution(sk2, {Unknown(1): A, Unknown(2): Unknown(1)})
    for unknowns in (sk2.unknown_tuples[0], ()):  # a search's tuple must cover them too
        with pytest.raises(ContractError, match="every unknown"):
            list(iter_formula_solutions(flatten_and(sk2.formula), unknowns))
    # a repeated unknown would yield each solution once per repeat
    with pytest.raises(ContractError, match="distinct"):
        list(iter_formula_solutions(flatten_and(parse_formula("*1 = a | *1 = b")),
                                    (Unknown(1), Unknown(1)), max_size=1))
    # the search takes a conjunction's conjuncts, and the plan decides the
    # ground ones: a search without unknowns yields {} once they all hold
    with pytest.raises(ContractError, match="empty conjunction"):
        list(iter_formula_solutions([]))
    holding = [parse_formula("a = a"), parse_formula("p(a) -> p(a)")]
    assert list(iter_formula_solutions(holding)) == [{}]
    assert list(iter_formula_solutions([*holding, parse_formula("a = b")])) == []


def test_verify_invariant_under_unknown_renaming():
    psi = existential_of(parse_formula(GUARDED_CHOICE))
    sk = make_skeleton(psi, 2)
    renamed = Skeleton(
        sk.source, sk.n,
        ((Unknown(7),), (Unknown(9),)),
        substitute(sk.formula, {Unknown(1): Unknown(7),
                                Unknown(2): Unknown(9)}),
    )
    assert verify_solution(sk, {Unknown(1): A, Unknown(2): B}) == \
        verify_solution(renamed, {Unknown(7): A, Unknown(9): B})


def test_size_monotonicity_by_padding():
    psi = existential_of(parse_formula(GUARDED_CHOICE))
    sk2 = make_skeleton(psi, 2)
    sol2 = solve_bounded(sk2, max_size=1)
    assert sol2 is not None
    sk3 = make_skeleton(psi, 3)
    padded = dict(sol2)
    padded[Unknown(3)] = padded[Unknown(1)]
    assert verify_solution(sk3, padded)


# ---------------------------------------------------------------------------
# enumerate_terms


def _count_terms(arities: list[int], max_size: int) -> int:
    # independent recursive counter over the same signature
    by_size = {0: 0}
    for n in range(1, max_size + 1):
        total = 0
        for arity in arities:
            if arity == 0:
                total += 1 if n == 1 else 0
            else:
                for shape in itertools.product(range(1, n), repeat=arity):
                    if sum(shape) == n - 1:
                        product = 1
                        for s in shape:
                            product *= by_size[s]
                        total += product
        by_size[n] = total
    return sum(by_size.values())


def test_enumerate_single_constant():
    sig = Signature(frozenset({FunctionSymbol("a", 0)}), frozenset())
    assert list(enumerate_terms(sig, 2)) == [A]


def test_enumerate_numerals():
    sig = Signature(frozenset({zero_symbol(), FunctionSymbol("s", 1)}), frozenset())
    got = list(enumerate_terms(sig, 3))
    assert got == [numeral(0, zero()), numeral(1, zero()), numeral(2, zero())]


def test_enumerate_counts_match_recursive_oracle():
    # up to arity 2 the terms are built in canonical order anyway; with f/3,
    # size 5 builds f(b, a, s(a)) before f(a, s(a), a), which sorts first, so
    # only the second signature shows whether the stream is sorted
    for arities in ({"a": 0, "f": 2}, {"a": 0, "b": 0, "s": 1, "f": 3}):
        sig = Signature(frozenset(FunctionSymbol(name, n) for name, n in arities.items()),
                        frozenset())
        for bound in range(1, 8):
            got = list(enumerate_terms(sig, bound))
            assert len(got) == len(set(got))
            assert len(got) == _count_terms(list(arities.values()), bound)
            assert all(term_size(t) <= bound for t in got)
            assert got == sorted(got, key=canonical_key)
    # frozen expectation for the cumulative count of {a, f/2} at bound 7:
    # 1 + 1 + 2 + 5
    sig = Signature(frozenset({FunctionSymbol("a", 0), FunctionSymbol("f", 2)}), frozenset())
    assert len(list(enumerate_terms(sig, 7))) == 9


def test_enumerate_injects_constant_when_missing():
    sig = Signature(frozenset({FunctionSymbol("f", 1)}), frozenset())
    got = list(enumerate_terms(sig, 2))
    assert len(got) == 2
    assert all(term_size(t) <= 2 for t in got)


# ---------------------------------------------------------------------------
# solve_bounded


def test_solve_guarded_choice():
    psi = existential_of(parse_formula(GUARDED_CHOICE))
    sol = solve_bounded(make_skeleton(psi, 2), max_size=1)
    assert sol == {Unknown(1): A, Unknown(2): B}
    assert solve_bounded(make_skeleton(psi, 1), max_size=3) is None


def test_solve_add_unique_witness():
    for m, p in [(2, 3), (0, 0), (1, 2)]:
        matrix = arith.add(numeral(m, zero()), numeral(p, zero()),
                           numeral(m + p, zero()), Variable("w1"))
        psi = ExistentialFormula((Variable("w1"),), matrix)
        sols = list(iter_solutions(make_skeleton(psi, 1), max_size=m + p + 3))
        expected = numeral(p, zero_tilde())
        assert sols == [{Unknown(1): expected}]


def test_solve_returns_first_in_canonical_order():
    psi = existential_of(parse_formula("exists ?v. ?v = a | ?v = f(a)"))
    sol = solve_bounded(make_skeleton(psi, 1), max_size=3)
    assert sol == {Unknown(1): A}


def test_search_walks_each_conjunct_once(monkeypatch):
    sk = make_skeleton(existential_of(parse_formula(
        "exists ?v. exists ?u. (a = b -> ?v = a) & (p(?v) -> p(?u)) & (?u = f(?v) | ?u = ?v)"
        " & (p(a) -> p(a))")), 1)
    [problem] = sreu.convert_to_sreu(parse_formula(
        "(a = b -> *1 = a) & (*2 = f(*1)) & (c = c) & (*1 = a -> *2 = *3)"))
    walked, deciding = [], []
    nodes, atoms_of = syntax.nodes, qcheck.atoms_of

    def counted(root, *args):
        if not deciding:  # the falsifier's walks of what it decides are its own
            walked.append(root)
        return nodes(root, *args)

    def decided(f):
        deciding.append(f)
        try:
            return atoms_of(f)
        finally:
            deciding.pop()

    monkeypatch.setattr(syntax, "nodes", counted)
    monkeypatch.setattr(skeleton, "nodes", counted)
    monkeypatch.setattr(qcheck, "atoms_of", decided)
    for formula, search in ((sk.formula, lambda: list(iter_solutions(sk, max_size=2))),
                            (problem.formula, lambda: sreu.solve_sreu_bounded(problem))):
        walked.clear()
        assert search()
        conjuncts = flatten_and(formula)
        assert len(conjuncts) == 4
        assert Counter(walked) == Counter(conjuncts)  # each once, the whole formula never
    # the problems of one conversion share their conjuncts: with one memo
    # across their searches, each distinct conjunct is walked once
    problems = sreu.convert_to_sreu(parse_formula(
        "(*1 = a | *1 = b) & (*2 = f(*1) | *2 = a) & (f(*1) = *2 -> *2 = f(a))"))
    distinct = {c for p in problems for c in p.constraints}
    assert len(problems) == 4 and len(distinct) == 5
    memo = skeleton.SearchMemo()
    walked.clear()
    solutions = [sreu.solve_sreu_bounded(p, max_size=2, memo=memo) for p in problems]
    assert Counter(walked) == Counter(distinct)
    assert solutions[0] == {Unknown(1): A, Unknown(2): parse_term("f(a)")}


def test_search_defaults_to_the_formulas_unknowns_and_signature():
    for text in ("(a = b -> *1 = a) & (p(*1) -> p(*2)) & (*2 = f(*1) | *2 = *1)",
                 "*2 = g(*1, *3) & (f(a) = *1 | q(*3))", "p(a) -> p(a)", "*1 = *1"):
        f = parse_formula(text)
        conjuncts = flatten_and(f)
        expected = list(iter_formula_solutions(conjuncts, unknowns_of(f), signature_of(f), 2))
        assert list(iter_formula_solutions(conjuncts, max_size=2)) == expected


@pytest.mark.parametrize("text", ["exists ?x. *1 = ?x", "*1 = a & forall ?x. ?x = *1",
                                  "a = a & (exists ?x. a = ?x)"])
def test_search_rejects_quantified_input(text):
    for unknowns in (None, (), (Unknown(1),)):
        with pytest.raises(ContractError, match="quantifier-free"):
            list(iter_formula_solutions(flatten_and(parse_formula(text)), unknowns))


def test_solver_deterministic():
    psi = existential_of(parse_formula(GUARDED_CHOICE))
    sk = make_skeleton(psi, 2)
    first = [solve_bounded(sk, max_size=2) for _ in range(3)]
    assert first[0] == first[1] == first[2]


def _naive_solutions(formula, unknowns, sig, max_size):
    """Reference solver: full product of the term streams, ordered by
    (total size, componentwise canonical order)."""
    pool = list(enumerate_terms(sig, max_size))
    out = []
    for combo in itertools.product(pool, repeat=len(unknowns)):
        sigma = dict(zip(unknowns, combo))
        if qcheck.is_quasitautology(substitute(formula, sigma)):
            out.append((combo, sigma))
    out.sort(key=lambda pair: (sum(term_size(t) for t in pair[0]),
                               tuple(canonical_key(t) for t in pair[0])))
    return [sigma for _, sigma in out]


def test_solver_agrees_with_naive_product_search():
    cases = [
        ("exists ?v. p(a) | p(b) -> p(?v)", 1),
        ("exists ?v. z = s(z) -> z = ?v", 1),
        ("exists ?v. exists ?u. (?v = f(a) -> ?u = a) & (a = a -> ?v = f(?u))", 2),
        ("exists ?v. !(?v = a) -> b = ?v", 1),
        ("exists ?v. exists ?u. q(?v, ?u) -> q(?u, ?v)", 2),
    ]
    for text, n_unknowns in cases:
        psi = existential_of(parse_formula(text))
        sk = make_skeleton(psi, 1)
        sig = signature_of(sk.formula)
        for bound in (1, 2, 3):
            fast = list(iter_solutions(sk, sig, bound))
            slow = _naive_solutions(sk.formula, sk.all_unknowns(), sig, bound)
            assert fast == slow, (text, bound)


def test_solver_agrees_with_naive_search_on_random_formulas():
    import random

    from hsk.syntax import And, Equality, Implies, Not, Or, PredApp, PredicateSymbol

    rng = random.Random(31337)
    consts = [FunctionSymbol(n, 0) for n in ("a", "b")]
    f1 = FunctionSymbol("f", 1)
    p = PredicateSymbol("p", 1)

    def rterm(depth, unknowns):
        roll = rng.random()
        if depth <= 0 or roll < 0.4:
            if unknowns and rng.random() < 0.45:
                return rng.choice(unknowns)
            return Application(rng.choice(consts), ())
        return Application(f1, (rterm(depth - 1, unknowns),))

    def ratom(unknowns):
        if rng.random() < 0.75:
            return Equality(rterm(2, unknowns), rterm(2, unknowns))
        return PredApp(p, (rterm(2, unknowns),))

    def rformula(depth, unknowns):
        roll = rng.random()
        if depth <= 0 or roll < 0.35:
            return ratom(unknowns)
        if roll < 0.5:
            return Not(rformula(depth - 1, unknowns))
        ctor = rng.choice([And, Or, Implies, And, Implies])
        return ctor(rformula(depth - 1, unknowns), rformula(depth - 1, unknowns))

    from hsk.skeleton import iter_formula_solutions

    trials = 0
    for _ in range(150):
        k = rng.randint(1, 2)
        unknowns = [Unknown(i + 1) for i in range(k)]
        f = rformula(3, unknowns)
        if len(unknowns_of(f)) != k:
            continue
        sig = signature_of(f)
        bound = rng.randint(1, 3)
        fast = list(iter_formula_solutions(flatten_and(f), unknowns, sig, bound))
        slow = _naive_solutions(f, unknowns, sig, bound)
        assert fast == slow, (f, bound)
        trials += 1
    assert trials > 80


_SHARED_POOL = [
    "*1 = f(f(b))",  # one class, whose one member has size 3 and needs f
    "*1 = a -> f(a) = b",  # accepts no class: fails whatever *1 is
    "f(*1) = a -> f(f(*1)) = f(a)",  # holds whatever *1 is
    "*1 = *1",  # holds whatever *1 is
    "*2 = a -> *2 = b",  # one class, b's
    "*2 = f(*2)",  # one class, which no term reaches
    "*1 = a | *1 = f(f(b))",  # a check
    "*2 = f(*1)",  # a join filter of *2, or a check of *1 where *1 comes last
    "a = a",
    "a = b",
]


def test_a_shared_memo_learns_only_what_holds_at_every_bound():
    # searches that share one memo and their conjuncts, under several
    # signatures and bounds, must each give what a fresh memo and the naive
    # search give: the memo keeps a restriction's verdict only where it
    # holds at every size and over every signature.  The accepted class of
    # `*1 = f(f(b))` has no member within bound 2, nor over a signature
    # without f, and a member within bound 3 over one with f
    u1, u2 = Unknown(1), Unknown(2)
    pool = [parse_formula(text) for text in _SHARED_POOL]
    a, b, f, g = (FunctionSymbol("a", 0), FunctionSymbol("b", 0), FunctionSymbol("f", 1),
                  FunctionSymbol("g", 2))
    sigs = [Signature(frozenset(symbols), frozenset())
            for symbols in ({a, b, f}, {a, b}, {a, b, f, g})]
    memo = skeleton.SearchMemo()

    def search(conjuncts, unknowns, sig, bound):
        shared = list(iter_formula_solutions(conjuncts, unknowns, sig, bound, memo))
        fresh = list(iter_formula_solutions(conjuncts, unknowns, sig, bound))
        assert shared == fresh == _naive_solutions(conj(conjuncts), unknowns, sig, bound), (
            [str(c) for c in conjuncts], unknowns, sig, bound)
        return shared

    deep = [pool[0]]
    assert search(deep, [u1], sigs[0], 2) == []
    assert search(deep, [u1], sigs[1], 3) == []
    assert search(deep, [u1], sigs[0], 3) == [{u1: parse_term("f(f(b))")}]
    rng = random.Random(1990)
    learned = solved = 0
    for _ in range(200):
        conjuncts = rng.sample(pool, rng.randint(1, 4))
        unknowns = [u for u in (u1, u2) if any(u in syntax.nodes(c) for c in conjuncts)]
        rng.shuffle(unknowns)
        # a search with a restriction the memo learned to fail whatever its
        # unknown is, which the false ground `a = b` does not count as
        learned += any(c in memo.failing and memo.walks[c][0] for c in conjuncts)
        solved += bool(search(conjuncts, unknowns, rng.choice(sigs), rng.randint(0, 3)))
    assert learned > 30 and solved > 30


_EQ_CONSTS = [Application(FunctionSymbol(n, 0), ()) for n in ("a", "b")]
_EQ_F = FunctionSymbol("f", 1)
_EQ_G = FunctionSymbol("g", 2)
_EQ_SIG = Signature(frozenset({*(c.symbol for c in _EQ_CONSTS), _EQ_F, _EQ_G}), frozenset())


def _random_ground_equations(rng):
    """Ground equations over a, b, f and g whose congruences reach terms
    outside their own subterms: f(a) = a also equates f(f(a)) with a."""
    a, b = _EQ_CONSTS
    fa, fb = Application(_EQ_F, (a,)), Application(_EQ_F, (b,))
    pool = [(fa, a), (a, b), (fb, a), (Application(_EQ_G, (a, b)), b),
            (Application(_EQ_G, (a, a)), fa), (Application(_EQ_F, (fb,)), b)]
    return [Equality(*rng.choice(pool)) for _ in range(rng.randint(0, 3))]


def _random_equational_formula(rng, u1, u2, self_side=False):
    """A conjunction of `ground equations -> s = t` conjuncts: *2 alone on
    one side and *1 inside the other (join filters of *2), sometimes unary
    constraints on *1 or *2 (class restrictions, one or two per unknown) or
    a check beside them, such as `*2 = g(*1, f(*2))`; with `self_side`,
    also one or two conjuncts whose other side holds *2 nested beside *1,
    which are checks too."""
    a, b = _EQ_CONSTS

    def around(t):
        roll = rng.random()
        if roll < 0.3:
            return t
        if roll < 0.6:
            return Application(_EQ_F, (t,))
        return Application(_EQ_G, (t, rng.choice(_EQ_CONSTS)) if rng.random() < 0.5
                           else (rng.choice(_EQ_CONSTS), t))

    def implied(conclusion):
        hyps = _random_ground_equations(rng)
        return Implies(conj(hyps), conclusion) if hyps else conclusion

    def unary(u, target):
        return implied(Equality(target, u) if rng.random() < 0.5 else Equality(u, target))

    conjuncts = []
    for _ in range(rng.randint(1, 2)):
        s = around(u1)
        conjuncts.append(implied(Equality(s, u2) if rng.random() < 0.5 else Equality(u2, s)))
    targets = [a, b, Application(_EQ_F, (a,))]
    if rng.random() < 0.4:  # a class restriction of *1
        target = rng.choice(targets)
        conjuncts.append(implied(Equality(target, u1)))
        if rng.random() < 0.5:  # a second ground side
            conjuncts.append(unary(u1, target))
    if rng.random() < 0.2:  # two class restrictions of *2
        target = rng.choice(targets)
        conjuncts += [unary(u2, target), unary(u2, target)]
    if rng.random() < 0.3:  # a conjunct the filters leave to the checks
        conjuncts.append(Not(Equality(u1, u2)) if rng.random() < 0.5
                         else implied(Equality(u2, Application(
                             _EQ_G, (u1, Application(_EQ_F, (u2,)))))))
    for _ in range(rng.randint(1, 2) if self_side else 0):
        inner = around(u2)
        side = Application(_EQ_G, (u1, inner) if rng.random() < 0.5 else (inner, u1))
        hyps = _random_ground_equations(rng)
        if rng.random() < 0.5:  # a hypothesis that one instance meets
            c1, c2 = rng.choice(_EQ_CONSTS), rng.choice(_EQ_CONSTS)
            hyps.append(Equality(substitute(side, {u1: c1, u2: c2}), c2))
        conclusion = Equality(u2, side) if rng.random() < 0.5 else Equality(side, u2)
        conjuncts.append(Implies(conj(hyps), conclusion) if hyps else conclusion)
    rng.shuffle(conjuncts)
    return conj(conjuncts)


def test_equational_filters_agree_with_naive_search(monkeypatch):
    # conjuncts `E -> s(*1) = *2` with ground E join *2's stream with *1 by
    # class keys, and `E -> *1 = t` with ground t restrict *1's stream to a
    # class; every solution and its order must be those of the naive
    # search, which decides each pair through qcheck
    rng = random.Random(2718)
    u1, u2 = Unknown(1), Unknown(2)
    sig = Signature(frozenset({*(c.symbol for c in _EQ_CONSTS), _EQ_F, _EQ_G}), frozenset())
    matched = []  # the ground sides the plan matched, (unknown, restriction)
    streamed = []  # the restrictions whose streams the plan read
    compiled = set()  # the join sides the search compiled to programs
    # the conjuncts the search decided: a check conjunct at a candidate,
    # and so before any witness's verification decides it again
    checked = set()
    horn, buckets = skeleton._horn, skeleton._class_member_buckets
    side_program = skeleton._side_program
    holds = skeleton.SearchMemo.holds

    def matching(conjunct, u):
        found = horn(conjunct, u)
        if found is not None and found[1] is skeleton._HOLE and found[2].ground:
            matched.append((u, found))
        return found

    def streaming(restriction, sig, max_size):
        if restriction is not None:
            streamed.append(restriction)
        return buckets(restriction, sig, max_size)

    def compiling(side, table, slots):
        compiled.add(side)
        return side_program(side, table, slots)

    def deciding(memo, c, used, assignment, last):
        checked.add(c)
        return holds(memo, c, used, assignment, last)

    monkeypatch.setattr(skeleton, "_horn", matching)
    monkeypatch.setattr(skeleton, "_class_member_buckets", streaming)
    monkeypatch.setattr(skeleton, "_side_program", compiling)
    monkeypatch.setattr(skeleton.SearchMemo, "holds", deciding)
    fired = fired_ground = solved = 0
    for _ in range(120):
        f = _random_equational_formula(rng, u1, u2)
        bound = rng.randint(1, 3)
        matched.clear()
        streamed.clear()
        compiled.clear()
        fast = list(iter_formula_solutions(flatten_and(f), [u1, u2], sig, bound))
        assert fast == _naive_solutions(f, [u1, u2], sig, bound), (str(f), bound)
        # every ground side the plan reaches is a class restriction, its
        # stream read at plan time; a second ground side on one unknown
        # narrows its stream by the intersection of the two
        read = {id(r) for r in streamed}
        assert all(id(m) in read for _, m in matched)
        second_ground = [m for i, (u, m) in enumerate(matched)
                         if any(v is u for v, _ in matched[:i])]
        fired += bool(compiled)
        fired_ground += bool(second_ground)
        solved += bool(fast)
    assert fired > 100 and fired_ground > 30 and solved > 40
    # a side that holds *2 itself beside *1 makes its conjunct a check from
    # the plan on: the search never compiles it, since the hole for *2 is
    # in it, and checks it where the other checks let *2 reach it
    self_checked = self_solved = 0
    for _ in range(100):
        f = _random_equational_formula(rng, u1, u2, self_side=True)
        bound = rng.randint(1, 3)
        compiled.clear()
        checked.clear()
        fast = list(iter_formula_solutions(flatten_and(f), [u1, u2], sig, bound))
        assert fast == _naive_solutions(f, [u1, u2], sig, bound), (str(f), bound)
        own = [c for c in flatten_and(f) if (found := horn(c, u2)) and found[1] is
               skeleton._HOLE and {u1, skeleton._HOLE} <= set(syntax.nodes(found[2]))]
        assert own and not any(skeleton._HOLE in syntax.nodes(t) for t in compiled), str(f)
        self_checked += any(c in checked for c in own)
        self_solved += bool(fast)
    assert self_checked > 30 and self_solved > 6


def test_a_free_variable_in_a_join_side_is_checked():
    # a side with a free variable has no class key, so its conjunct could
    # be no join filter; the search's walk of the conjunct refuses the
    # variable before any role is given
    with pytest.raises(ContractError, match="ground terms, got [?]x"):
        list(iter_formula_solutions(flatten_and(parse_formula("*1 = a & *2 = f(*1, ?x)"))))


def test_join_sides_are_keyed_once_per_assignment_of_their_unknowns(monkeypatch):
    # in mul(1, 2, 3) both join filters of ?w2, `Sim~(w1, w2)` and
    # `Tim(…, w1, w2)`, hold ?w1 alone.  A walk per total size, with no
    # solution to find, would enter ?w2's depth again for each ?w1
    # candidate at every total size that leaves ?w2 a size its stream has;
    # a side's program runs once per term of ?w1 all the same
    w1, w2 = Variable("w1"), Variable("w2")
    matrix = arith.mul(numeral(1, zero()), numeral(2, zero()), numeral(3, zero()), w1, w2)
    sk = make_skeleton(ExistentialFormula((w1, w2), matrix), 1)
    keyings = Counter()  # per side, the times its program ran
    held = {}  # per side, the terms of ?w1 its program ran on
    streams = []  # each unknown's stream, as the plan gives it
    side_program, intersection = skeleton._side_program, skeleton._intersection

    def counted(side, table, slots):
        run = side_program(side, table, slots)

        def counted_run(prefix):
            keyings[side] += 1
            held.setdefault(side, set()).add(prefix[0])
            return run(prefix)

        return counted_run

    def recorded(per_unknown):
        streams.append(intersection(per_unknown))
        return streams[-1]

    monkeypatch.setattr(skeleton, "_side_program", counted)
    monkeypatch.setattr(skeleton, "_intersection", recorded)
    assert list(iter_solutions(sk, max_size=11)) == []
    first, second = streams  # ?w1's and ?w2's
    sizes = [n for n, bucket in enumerate(second) if bucket]
    # one run per filter each time a walk per total size would enter ?w2's
    # depth, for each ?w1 candidate and total size
    entered = sum(map(len, first)) * (sizes[-1] - sizes[0] + 1)
    assert len(keyings) == 2
    for side, times in keyings.items():
        assert times <= len(held[side]) <= sum(map(len, first))
    assert sum(keyings.values()) < 2 * entered


def _random_three_unknown_formula(rng, unknowns):
    """A conjunction of `ground equations -> u = side` conjuncts whose side
    holds some of the unknowns before u, and sometimes class restrictions
    and checks: join filters of the later unknowns whose sides hold only
    part of what the search assigned before them."""

    def around(t):
        roll = rng.random()
        if roll < 0.5:
            return t
        if roll < 0.75:
            return Application(_EQ_F, (t,))
        return Application(_EQ_G, (t, rng.choice(_EQ_CONSTS)) if rng.random() < 0.5
                           else (rng.choice(_EQ_CONSTS), t))

    def implied(conclusion):
        hyps = _random_ground_equations(rng)
        return Implies(conj(hyps), conclusion) if hyps else conclusion

    conjuncts = []
    for i in range(1, len(unknowns)):
        u = unknowns[i]
        last = i == len(unknowns) - 1
        for _ in range((1 if rng.random() < 0.7 else 2) if last else rng.randint(0, 1)):
            earlier = rng.sample(unknowns[:i], rng.randint(1, min(2, i)))
            side = (around(earlier[0]) if len(earlier) == 1
                    else Application(_EQ_G, tuple(earlier)))
            conjuncts.append(implied(Equality(u, side) if rng.random() < 0.5
                                     else Equality(side, u)))
    for u in unknowns:
        if rng.random() < 0.2:  # a class restriction
            target = rng.choice([*_EQ_CONSTS, Application(_EQ_F, (_EQ_CONSTS[0],))])
            conjuncts.append(implied(Equality(u, target)))
    if rng.random() < 0.3:  # a check
        conjuncts.append(Not(Equality(*rng.sample(unknowns, 2))))
    rng.shuffle(conjuncts)
    return conj(conjuncts)


def test_join_keys_agree_with_naive_search_on_three_unknowns():
    # with a third unknown, a depth's join sides may hold the first unknown
    # but not the second, or the second alone; the side keys the search
    # keeps per assignment of their own unknowns must give every solution
    # of the naive search, in its order
    rng = random.Random(1980)
    sig = Signature(frozenset({*(c.symbol for c in _EQ_CONSTS), _EQ_F, _EQ_G}), frozenset())
    unknowns = [Unknown(1), Unknown(2), Unknown(3)]
    trials = partial = solved = 0
    for _ in range(100):
        f = _random_three_unknown_formula(rng, unknowns)
        if {n for n in syntax.nodes(f) if isinstance(n, Unknown)} != set(unknowns):
            continue
        trials += 1
        bound = rng.randint(1, 3)
        fast = list(iter_formula_solutions(flatten_and(f), unknowns, sig, bound))
        assert fast == _naive_solutions(f, unknowns, sig, bound), (str(f), bound)
        # a join filter of *3 whose side lacks one of *1 and *2
        partial += any(
            (found := skeleton._horn(c, unknowns[2])) and skeleton._role(found) == "join"
            and len({n for n in syntax.nodes(found[2]) if isinstance(n, Unknown)}) == 1
            for c in flatten_and(f))
        solved += bool(fast)
    assert trials > 80 and partial > 30 and solved > 15


def test_join_indexes_and_side_programs_match_the_keying_walks():
    # per prefix, the candidates of u that the index by key states and the
    # side programs give must be those, in order, that the walks they
    # replaced give: each candidate and each side keyed bottom-up by
    # `_class_keys` under the assignment.  Sides hold one or two earlier
    # unknowns, whose terms lie inside and outside E's universe
    rng = random.Random(2024)
    h = FunctionSymbol("h", 1)
    sig = Signature(_EQ_SIG.function_symbols | {h}, frozenset())
    u1, u2 = Unknown(1), Unknown(2)
    a, b = _EQ_CONSTS

    def side_of(held):
        leaves = [*held, *held, a, b]
        t = rng.choice(held)
        for _ in range(rng.randint(0, 2)):
            roll = rng.random()
            t = (Application(_EQ_F, (t,)) if roll < 0.3 else Application(h, (t,)) if roll < 0.4
                 else Application(_EQ_G, (t, rng.choice(leaves)) if roll < 0.7
                                  else (rng.choice(leaves), t)))
        if not set(held) <= set(syntax.nodes(t)):
            t = Application(_EQ_G, (t, held[-1] if held[0] in syntax.nodes(t) else held[0]))
        return t

    seen = Counter()
    for _ in range(400):
        bound = rng.randint(1, 3)
        target = rng.choice([None, a, b, Application(_EQ_F, (a,))])
        eqs = tuple((e.lhs, e.rhs) for e in _random_ground_equations(rng))
        stream = skeleton._class_member_buckets(
            None if target is None else (eqs, skeleton._HOLE, target), sig, bound)
        if not stream or not any(stream):
            continue
        sized = [(n, bucket) for n, bucket in enumerate(stream) if bucket]
        held_streams = [skeleton._class_member_buckets(None, sig, rng.randint(1, 2))
                        for _ in (u1, u2)]
        filters = []
        for _ in range(rng.randint(1, 2)):
            held = rng.choice([(u1,), (u2,), (u1, u2)])
            e = eqs if rng.random() < 0.5 else tuple(
                (x.lhs, x.rhs) for x in _random_ground_equations(rng))
            filters.append((e, side_of(held), held))
        # the new path: one table per E, every term keyed after its arguments
        tables = {e: skeleton._congruence_table(e)[1] for e, _, _ in filters}
        own = {e: skeleton._key_states(stream.rank, tables[e]) for e in tables}
        held_keys = [{e: skeleton._key_states(held_stream.rank, tables[e]) for e in tables}
                     for held_stream in held_streams]
        index = skeleton._index(sized, [own[e] for e, _, _ in filters])
        programs = [skeleton._side_program(side, tables[e], {
            v: (v.index - 1, held_keys[v.index - 1][e]) for v in held})
            for e, side, held in filters]
        # the walks: the reference keyers, one per E for the search
        keys_of = functools.cache(reference_skeleton._class_keys)
        reference_index = reference_skeleton._indexed(sized, [keys_of(e) for e, _, _ in filters])
        sides = [(keys_of(e), side) for e, side, _ in filters]
        for prefix in itertools.product(*(itertools.chain(*s) for s in held_streams)):
            got = index.get(tuple([run(prefix) for run in programs]), ())
            want = reference_index.get(
                reference_skeleton._side_keys(sides, dict(zip((u1, u2), prefix))), ())
            assert [(n, list(terms)) for n, terms in got] == \
                [(n, list(terms)) for n, terms in want], ([str(s) for _, s, _ in filters], prefix)
            seen["found" if want else "none"] += 1
            universe = {n for e, _, _ in filters for pair in e for side in pair
                        for n in syntax.subterms(side)}
            seen["inside" if prefix[0] in universe else "outside"] += 1
        seen["two held"] += any(len(held) == 2 for _, _, held in filters)
        seen["two filters"] += len(filters) == 2
    assert seen["found"] > 500 and seen["none"] > 3000, seen
    assert seen["inside"] > 2000 and seen["outside"] > 2000, seen
    assert seen["two held"] > 100 and seen["two filters"] > 100, seen


def _random_linked_formula(rng, unknowns):
    """A conjunction over the unknowns whose later ones are linked to
    earlier ones by join filters `E -> u = side`, a side holding one or two
    earlier linked unknowns, with class restrictions and checks beside
    them, at the last depth and sometimes at others.  One unknown between
    two linked ones may share no conjunct with any other: its prefixes
    then meet the later depths in every size at once."""
    a, b = _EQ_CONSTS

    def implied(conclusion):
        hyps = _random_ground_equations(rng)
        return Implies(conj(hyps), conclusion) if hyps else conclusion

    free = rng.randrange(1, len(unknowns) - 1) if len(unknowns) > 2 and rng.random() < 0.5 else None
    linked = [u for i, u in enumerate(unknowns) if i != free]
    conjuncts = []
    for i in range(1, len(linked)):
        earlier = rng.sample(linked[:i], min(i, rng.choice((1, 2, 2))))
        if len(earlier) == 1:
            side = earlier[0] if rng.random() < 0.3 else Application(_EQ_F, (earlier[0],))
        else:
            side = Application(_EQ_G, tuple(earlier))
        conjuncts.append(implied(Equality(linked[i], side) if rng.random() < 0.5
                                 else Equality(side, linked[i])))
    for u in unknowns:
        if rng.random() < 0.25:  # a class restriction
            conjuncts.append(implied(Equality(u, rng.choice([a, b, Application(_EQ_F, (a,))]))))
    last = unknowns[-1]
    for _ in range(rng.randint(0, 2)):  # checks at the last depth
        other = rng.choice(unknowns[:-1])
        conjuncts.append(Or(Equality(last, other), Equality(last, Application(_EQ_F, (other,))))
                         if rng.random() < 0.5 else Or(Equality(last, a), Equality(other, b)))
    if len(linked) > 2 and rng.random() < 0.3:  # a check at a middle depth
        conjuncts.append(Or(Equality(linked[1], linked[0]), Equality(linked[1], a)))
    rng.shuffle(conjuncts)
    return conjuncts


def test_merged_search_agrees_with_the_per_total_walk():
    # the search merges each depth's prefixes by total size, where the
    # reference walks all depths again for every total; at bounds the
    # naive product cannot reach, with two to four unknowns, both must give
    # every solution in one order.  Prefixes of two or more terms that wait
    # under one total arrive by size, not in tuple order, so the order
    # tells a merge that does not sort them, or that emits a total before
    # every prefix of its size has come
    rng = random.Random(2019)
    sig = Signature(frozenset({*(c.symbol for c in _EQ_CONSTS), _EQ_F, _EQ_G}), frozenset())
    unsorted = early = wide = solved = 0
    for _ in range(100):
        k = rng.randint(2, 4)
        unknowns = [Unknown(i + 1) for i in range(k)]
        conjuncts = _random_linked_formula(rng, unknowns)
        bound = rng.randint(4, 6) if k == 2 else rng.randint(4, 5)
        # the first solutions, where a loose conjunction has thousands
        fast = list(itertools.islice(iter_formula_solutions(conjuncts, unknowns, sig, bound), 400))
        slow = list(itertools.islice(
            reference_skeleton.iter_formula_solutions(conjuncts, unknowns, sig, bound), 400))
        assert fast == slow, ([str(c) for c in conjuncts], bound)
        tuples = [tuple(s[u] for u in unknowns) for s in fast]
        sizes = [sum(t.size for t in terms) for terms in tuples]
        # two solutions of one total whose prefixes of two terms come in
        # the other order by size
        unsorted += any(
            sizes[i] == sizes[j] and term_size(tuples[i][0]) + term_size(tuples[i][1])
            > term_size(tuples[j][0]) + term_size(tuples[j][1])
            for i in range(len(tuples)) for j in range(i + 1, len(tuples)) if k > 2)
        early += any(sizes[i] == sizes[i + 1] and tuples[i][:-1] != tuples[i + 1][:-1]
                     for i in range(len(tuples) - 1))
        wide += any(skeleton._role(found) == "join"
                    and len({n for n in syntax.nodes(found[2]) if isinstance(n, Unknown)}) == 2
                    for c in conjuncts for u in unknowns
                    if (found := skeleton._horn(c, u)) is not None)
        solved += bool(fast)
    assert unsorted > 5 and early > 15 and wide > 15 and solved > 30


def test_the_search_keys_each_prefix_once(monkeypatch):
    # mul(2,3,7) at bound 22 has no solution, and the encoding of
    # `0 * 3 = x1; 0 + x2 = 1` its first at bound 16.  Walked once per
    # total, their join depths were entered 194 810 and 533 572 times.
    # Merged by total, each prefix is read once, and a depth's side
    # programs run together, once per tuple of the terms that the sides of
    # the depth hold: 8 855 and 7 890 tuples over all depths
    runs = []  # per run of a side program: the program, its slots' places, the prefix
    side_program = skeleton._side_program

    def counted(side, table, slots):
        run, program = side_program(side, table, slots), len(programs)
        places = {place for place, _ in slots.values()}
        programs.append(side)

        def counted_run(prefix):
            runs.append((program, places, prefix))
            return run(prefix)

        return counted_run

    def keyed(most):
        """Each run's program, depth and the terms that its depth's sides
        hold, no two alike, at most `most` (depth, terms) pairs, and the
        programs of one depth run equally often."""
        held = {}  # per depth, the places of the prefix its sides hold
        for _, places, prefix in runs:
            held.setdefault(len(prefix), set()).update(places)
        keyings = [(program, len(prefix), tuple(prefix[i] for i in sorted(held[len(prefix)])))
                   for program, _, prefix in runs]
        assert len(keyings) == len(set(keyings))
        assert len({(depth, terms) for _, depth, terms in keyings}) <= most
        per_depth = {}
        for (program, depth), times in Counter(k[:2] for k in keyings).items():
            per_depth.setdefault(depth, set()).add(times)
        assert all(len(times) == 1 for times in per_depth.values())

    monkeypatch.setattr(skeleton, "_side_program", counted)
    z, w1, w2 = zero(), Variable("w1"), Variable("w2")
    matrix = arith.mul(numeral(2, z), numeral(3, z), numeral(7, z), w1, w2)
    programs = []
    assert solve_bounded(make_skeleton(ExistentialFormula((w1, w2), matrix), 1),
                         max_size=22) is None
    assert len(programs) == 2
    keyed(8855)
    runs.clear()
    programs = []
    psi = arith.encoding(arith.parse_diophantine("0 * 3 = x1\n0 + x2 = 1"))
    sk = make_skeleton(psi, 1)
    found = next(iter_formula_solutions(flatten_and(sk.formula), sk.unknown_tuples[0],
                                        max_size=16))
    assert [found[u] for u in sk.unknown_tuples[0][:2]] == [numeral(0, z), numeral(1, z)]
    keyed(7890)


def test_the_search_neither_sorts_nor_keys_terms_by_walking_them(monkeypatch):
    # cold, mul(2,3,7) at bound 22 sorted its streams with 17 706
    # `canonical_key` walks and keyed its candidates and sides with 53 130
    # `rebuild` walks.  The enumeration ranks each term as it builds it, and
    # a join key is one table lookup from the keys of a term's arguments
    z, w1, w2 = zero(), Variable("w1"), Variable("w2")
    matrix = arith.mul(numeral(2, z), numeral(3, z), numeral(7, z), w1, w2)
    sk = make_skeleton(ExistentialFormula((w1, w2), matrix), 1)
    walks = Counter()

    def counting(name, walk):
        def counted(*args, **kwargs):
            walks[name] += 1
            return walk(*args, **kwargs)
        return counted

    for name in ("canonical_key", "rebuild"):
        walk = counting(name, getattr(syntax, name))
        monkeypatch.setattr(syntax, name, walk)
        monkeypatch.setattr(skeleton, name, walk, raising=False)
    skeleton._class_member_buckets.cache_clear()
    try:
        assert solve_bounded(sk, max_size=22) is None
    finally:
        skeleton._class_member_buckets.cache_clear()
    assert walks == {}


def test_the_search_checks_no_prefix_beyond_the_first_solution(monkeypatch):
    # a check at each of ?x2 and ?x3, and a first solution, (a, f(a),
    # g(a, f(a))), of total 7, above the least total, 4, and far below what
    # the bound allows.  Each depth emits total by total, so no prefix
    # larger than the solution is checked, nor any twice; the per-total
    # walk checks some again at every total, and none the merge does not
    a, b = _EQ_CONSTS
    x1, x2, x3 = (Unknown(i) for i in (1, 2, 3))
    conjuncts = [
        Or(Equality(x2, Application(_EQ_F, (x1,))), Equality(x1, Application(_EQ_F, (x2,)))),
        Or(Equality(x3, Application(_EQ_G, (x1, x2))), Equality(x3, Application(_EQ_G, (x2, x1)))),
    ]
    sig = Signature(frozenset({a.symbol, b.symbol, _EQ_F, _EQ_G}), frozenset())
    checked = []  # per check, the conjunct and the terms of its unknowns
    holds = skeleton.SearchMemo.holds

    def counted(memo, c, used, assignment, last):
        terms = tuple(assignment[u] for u in used)
        assert sum(t.size for t in terms) <= 7, [str(t) for t in terms]
        checked.append((c, terms))
        return holds(memo, c, used, assignment, last)

    monkeypatch.setattr(skeleton.SearchMemo, "holds", counted)
    first = next(iter_formula_solutions(conjuncts, [x1, x2, x3], sig, 10))
    fa = Application(_EQ_F, (a,))
    assert [first[u] for u in (x1, x2, x3)] == [a, fa, Application(_EQ_G, (a, fa))]
    # the witness's verification decides each conjunct last, from the
    # verdicts its checks left
    merged, verified = checked[:-len(conjuncts)], checked[-len(conjuncts):]
    walk = skeleton.SearchMemo().walk
    assert verified == [(c, tuple(first[u] for u in walk(c)[0])) for c in conjuncts]
    assert set(verified) <= set(merged)
    checked.clear()
    assert next(reference_skeleton.iter_formula_solutions(conjuncts, [x1, x2, x3], sig, 10)) == first
    assert len(merged) == len(set(merged)) and set(checked) <= set(merged)
    assert len(checked) > len(set(checked))


def test_a_check_decides_its_conjunct_on_the_match_the_plan_made(monkeypatch):
    # searched over (*2, *1), `*1 = f(*2)` waits for *1, the unknown
    # assigned last, though *2 is the last of its own unknowns; deciding
    # it puts the hole on *1 as the plan did, so each conjunct is matched
    # once, with its last unknown
    matched = []
    horn = skeleton._horn

    def matching(conjunct, u):
        matched.append((conjunct, u))
        return horn(conjunct, u)

    monkeypatch.setattr(skeleton, "_horn", matching)
    joined, restriction = flatten_and(parse_formula("*1 = f(*2) & *2 = a"))
    u1, u2 = Unknown(1), Unknown(2)
    found = list(iter_formula_solutions([joined, restriction], [u2, u1], max_size=3))
    assert [{u: str(t) for u, t in f.items()} for f in found] == [{u2: "a", u1: "f(a)"}]
    assert matched == [(joined, u1), (restriction, u2)]


def test_a_learned_failure_still_lets_every_conjunct_be_checked():
    # one memo learns that `a = b` and a restriction accepting no class fail
    # whatever their terms; a search that holds one of them beside a
    # conjunct with a free variable must refuse the variable in either
    # order, and given unknowns that miss or repeat one are refused too
    memo = skeleton.SearchMemo()
    failing = [parse_formula("a = b"), parse_formula("*1 = a -> f(a) = b")]
    for c in failing:
        assert list(iter_formula_solutions([c], max_size=2, memo=memo)) == []
    assert memo.failing == set(failing)
    free = parse_formula("*2 = f(?x)")
    for c in failing:
        for conjuncts in ([c, free], [free, c]):
            with pytest.raises(ContractError, match="ground terms, got [?]x"):
                list(iter_formula_solutions(conjuncts, max_size=2, memo=memo))
    restriction = failing[1]
    with pytest.raises(ContractError, match="include every unknown"):
        list(iter_formula_solutions([restriction], [], max_size=2, memo=memo))
    with pytest.raises(ContractError, match="distinct"):
        list(iter_formula_solutions([restriction], [Unknown(1)] * 2, max_size=2, memo=memo))
    # where the memo has met every conjunct, the search ends before its walks
    walked = []
    walk = memo.walk
    memo.walk = lambda c: walked.append(c) or walk(c)
    assert list(iter_formula_solutions([parse_formula("*1 = a"), restriction],
                                       max_size=2, memo=memo)) == []
    assert walked == [parse_formula("*1 = a"), restriction]
    walked.clear()
    assert list(iter_formula_solutions([parse_formula("*1 = a"), restriction],
                                       max_size=2, memo=memo)) == []
    assert walked == []


def _random_horn_conjunct(rng, unknowns):
    """`G1 -> (G2 -> … -> l = r)` over a, b, f, g and 1–3 of the unknowns,
    each Gi a conjunction of one or more equations, with no hypothesis at
    all a fifth of the time; an unknown may sit under f or g on either
    side, and a hypothesis may be trivial, such as `*1 = *1`."""
    used = unknowns[:rng.randint(1, 3)]
    a, b = _EQ_CONSTS

    def term(depth):
        roll = rng.random()
        if depth == 0 or roll < 0.5:
            return rng.choice(used) if rng.random() < 0.5 else rng.choice((a, b))
        if roll < 0.8:
            return Application(_EQ_F, (term(depth - 1),))
        return Application(_EQ_G, (term(depth - 1), term(depth - 1)))

    def equation():
        if rng.random() < 0.15:
            u = rng.choice(used)
            return Equality(u, u)
        return Equality(term(2), term(2))

    hyps = [equation() for _ in range(rng.randint(0, 4) if rng.random() < 0.8 else 0)]
    # the conclusion holds an unknown, so that the conjunct has one
    u = rng.choice(used)
    side = u if rng.random() < 0.5 else Application(_EQ_F, (u,))
    out = Equality(side, term(2)) if rng.random() < 0.5 else Equality(term(2), side)
    cuts = sorted(rng.sample(range(1, len(hyps)), rng.randint(0, len(hyps) - 1))) if hyps else []
    groups = [hyps[i:j] for i, j in zip([0, *cuts], [*cuts, len(hyps)])] if hyps else []
    for group in reversed(groups):
        out = Implies(conj(group), out)
    return out


def test_equational_horn_conjuncts_are_decided_by_one_closure(monkeypatch):
    # `SearchMemo.holds` decides an equational Horn conjunct E -> l = r under
    # an assignment σ on the closure of E' (E with the hole for the unknown
    # assigned last, u), hole = σ(u) and v = σ(v) for its other unknowns, with no
    # substitution and no qcheck; every verdict must be qcheck's on the
    # substituted conjunct
    rng = random.Random(4211)
    unknowns = [Unknown(i) for i in (1, 2, 3)]
    a, b = _EQ_CONSTS
    fa, fb = Application(_EQ_F, (a,)), Application(_EQ_F, (b,))
    pool = [a, b, fa, fb, Application(_EQ_F, (fa,)), Application(_EQ_F, (fb,)),
            *(Application(_EQ_G, (x, y)) for x in (a, b) for y in (a, b))]  # sizes 1-3
    cases = []
    for _ in range(5000):
        c = _random_horn_conjunct(rng, unknowns)
        sigma = {u: rng.choice(pool[:3] if rng.random() < 0.5 else pool) for u in unknowns_of(c)}
        cases.append((c, sigma, qcheck.is_quasitautology(substitute(c, sigma))))

    def no_qcheck(f):
        raise AssertionError(f"qcheck reached on {f}")

    monkeypatch.setattr(qcheck, "is_quasitautology", no_qcheck)
    memo = skeleton.SearchMemo()
    seen = Counter()
    for c, sigma, expected in cases:
        used = memo.walk(c)[0]
        # the hole may go on any of them, as a search may assign any last
        last = rng.choice(used) if used else None
        assert memo.holds(c, used, sigma, last) == expected, (
            str(c), {str(u): str(t) for u, t in sigma.items()})
        seen[expected] += 1
        seen["unknowns", len(used)] += 1
        groups = []  # the hypotheses of each implication, outermost first
        while isinstance(c, Implies):
            groups.append(c.lhs)
            c = c.rhs
        seen["curried"] += len(groups) > 1
        seen["conjunctive"] += any(not isinstance(g, Equality) for g in groups)
        seen["trivial"] += any(h.lhs is h.rhs and not h.ground
                               for g in groups for h in flatten_and(g))
        seen["nested"] += any(isinstance(n, Application) and not n.ground
                              for g in (*groups, c) for n in syntax.nodes(g))
    assert seen[True] > 900 and seen[False] > 3000, seen
    assert seen["unknowns", 1] > 2000 and seen["unknowns", 2] > 1000, seen
    assert seen["unknowns", 3] > 400, seen
    assert seen["curried"] > 1000 and seen["conjunctive"] > 1000, seen
    assert seen["trivial"] > 800 and seen["nested"] > 3000, seen


def test_the_verification_rejects_what_a_loose_restriction_admits(monkeypatch):
    # a class restriction whose stream admits every term lets through terms
    # that break it; the verification of each witness, conjunct by
    # conjunct, must reject them, so the solutions stay those of the naive
    # search.  Every witness has each of its conjuncts decided before it is
    # yielded
    rng = random.Random(1931)
    u1, u2 = Unknown(1), Unknown(2)
    buckets, holds = skeleton._class_member_buckets, skeleton.SearchMemo.holds
    loosened = []  # the restrictions whose streams admit every term
    decided = []  # per call of holds, the conjunct, its terms and the verdict

    def loose(restriction, sig, max_size):
        if restriction is not None:
            loosened.append(restriction)
        return buckets(None, sig, max_size)

    def deciding(memo, c, used, assignment, last):
        verdict = holds(memo, c, used, assignment, last)
        decided.append((c, tuple(assignment[u] for u in used), verdict))
        return verdict

    monkeypatch.setattr(skeleton, "_class_member_buckets", loose)
    monkeypatch.setattr(skeleton.SearchMemo, "holds", deciding)
    walk = skeleton.SearchMemo().walk
    rejected = solved = 0
    for case in range(300):
        if case % 2:
            f, unknowns, _ = _random_hypothesis_formula(rng, u1, u2, sides=rng.random() < 0.5)
            sig = _HYP_SIG
        else:
            f, unknowns = _random_equational_formula(rng, u1, u2, rng.random() < 0.3), [u1, u2]
            sig = _EQ_SIG
        bound = rng.randint(1, 3)
        conjuncts = flatten_and(f)
        loosened.clear()
        decided.clear()
        fast = []
        for solution in iter_formula_solutions(conjuncts, unknowns, sig, bound):
            seen = {(c, terms) for c, terms, _ in decided}
            assert all((c, tuple(solution[u] for u in walk(c)[0])) in seen for c in conjuncts)
            fast.append(solution)
        assert fast == _naive_solutions(f, unknowns, sig, bound), (str(f), bound)
        restrictions = {c for c in conjuncts if any(
            skeleton._horn(c, u) in loosened for u in walk(c)[0])}
        rejected += any(c in restrictions and not verdict for c, _, verdict in decided)
        solved += bool(fast)
    assert rejected > 100 and solved > 50


def test_the_hole_is_no_parsed_term():
    with pytest.raises(ParseError):
        parse_term(skeleton._HOLE.symbol.name)


def _keyed(terms, equalities):
    """The class key under the equalities of every subterm of the terms,
    each keyed after its arguments, and the table they were keyed into."""
    universe = sorted({n for t in terms for n in syntax.subterms(t)}, key=canonical_key)
    table = skeleton._congruence_table(tuple(equalities))[1]
    keys = skeleton._key_states(universe, table)
    return keys, table


def test_class_keys_decide_ground_implications():
    # two ground terms have one class key exactly when the equations imply
    # that they are equal; terms outside the equations' universe meet its
    # classes through their arguments, and a fresh symbol never does
    rng = random.Random(1618)
    a, b = _EQ_CONSTS
    fresh = Application(FunctionSymbol("d", 0), ())
    h = FunctionSymbol("h", 1)
    outside_agree = fresh_seen = 0
    for _ in range(300):
        eqs = _random_ground_equations(rng)
        universe = set()
        for e in eqs:
            for side in (e.lhs, e.rhs):
                universe.update(syntax.nodes(side))
        pool = sorted(universe | {a, b, fresh}, key=canonical_key)
        for _ in range(2):  # grow the pool past the universe
            t = rng.choice(pool)
            pool += [Application(_EQ_F, (t,)), Application(h, (t,)),
                     Application(_EQ_G, (t, rng.choice(pool)))]
        keys, _ = _keyed(pool, [(e.lhs, e.rhs) for e in eqs])
        for _ in range(12):
            s, t = rng.choice(pool), rng.choice(pool)
            claim = Implies(conj(eqs), Equality(s, t)) if eqs else Equality(s, t)
            agree = keys[s] == keys[t]
            assert agree == qcheck.is_quasitautology(claim), str(claim)
            if agree and s is not t and not {s, t} <= universe:
                outside_agree += 1
            if fresh in (s, t) or h in (s.symbol, t.symbol):
                fresh_seen += 1
    assert outside_agree > 50 and fresh_seen > 1000


def test_class_keys_read_unknown_leaves_through_the_assignment():
    # a side program gives a term with unknowns the key of its instance,
    # which is not built, from the keys of the terms in the unknowns'
    # slots.  Where the instance's key is none the table holds, it returns
    # None, which no keyed candidate matches: a candidate has the side's
    # key exactly when the equations imply that it equals the instance
    rng = random.Random(1414)
    u1, u2 = Unknown(1), Unknown(2)

    def rterm(depth, leaves):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(leaves)
        if rng.random() < 0.5:
            return Application(_EQ_F, (rterm(depth - 1, leaves),))
        return Application(_EQ_G, (rterm(depth - 1, leaves), rterm(depth - 1, leaves)))

    patterns = matched = missing = 0
    for case in range(300):
        eqs = [(e.lhs, e.rhs) for e in _random_ground_equations(rng)]
        pattern = rterm(3, [*_EQ_CONSTS, u1, u2])
        sigma = {u1: rterm(2, _EQ_CONSTS), u2: rterm(2, _EQ_CONSTS)}
        instance = substitute(pattern, sigma)
        candidates = [rterm(3, _EQ_CONSTS) for _ in range(6)]
        if case % 2:  # the instance among the candidates keyed
            candidates.append(instance)
        keys, table = _keyed([*sigma.values(), *candidates], eqs)
        run = skeleton._side_program(pattern, table, {u1: (0, keys), u2: (1, keys)})
        key = run((sigma[u1], sigma[u2]))
        if instance in keys:
            assert key == keys[instance], str(pattern)
        for c in candidates:
            claim = Implies(conj([Equality(*e) for e in eqs]), Equality(instance, c)) if eqs \
                else Equality(instance, c)
            assert (key == keys[c]) == qcheck.is_quasitautology(claim), (str(pattern), str(c))
            matched += key == keys[c]
        patterns += not pattern.ground
        missing += key is None
    assert patterns > 150 and matched > 300 and missing > 30


_HYP_CONSTS = [Application(FunctionSymbol(n, 0), ()) for n in ("a", "b", "c")]
_HYP_F = FunctionSymbol("f", 1)
_HYP_H = FunctionSymbol("h", 2)
_HYP_SIG = Signature(frozenset({*(c.symbol for c in _HYP_CONSTS), _HYP_F, _HYP_H}), frozenset())


def _small_ground(rng, size):
    """A ground term over a, b, c, f and h of at most `size` symbols."""
    if size <= 1 or rng.random() < 0.4:
        return rng.choice(_HYP_CONSTS)
    if size == 2 or rng.random() < 0.5:
        return Application(_HYP_F, (_small_ground(rng, size - 1),))
    return Application(_HYP_H, (rng.choice(_HYP_CONSTS), _small_ground(rng, size - 2)))


def _random_hypothesis_conjunct(rng, u, nested):
    """`E & u = a1 & ... & u = ak -> l = r` with 1 to 3 bare hypotheses on
    u in either orientation, ground E, l and r drawn mostly from the
    conjunct's own terms, sometimes curried; when asked, a nested
    occurrence of u (`f(u) = t` or `h(u, c) = t`) joins the hypotheses,
    and sometimes stands for one side of the conclusion too."""
    anchors = [_small_ground(rng, 3) for _ in range(rng.randint(1, 3))]
    hyps = [Equality(u, a) if rng.random() < 0.5 else Equality(a, u) for a in anchors]
    pool = list(anchors)
    for _ in range(rng.randint(0, 2)):
        lhs, rhs = _small_ground(rng, 3), _small_ground(rng, 3)
        hyps.append(Equality(lhs, rhs))
        pool += [lhs, rhs]
    if nested:
        inside = (Application(_HYP_F, (u,)) if rng.random() < 0.5
                  else Application(_HYP_H, (u, rng.choice(_HYP_CONSTS))))
        hyps.append(Equality(inside, _small_ground(rng, 2)))
    rng.shuffle(hyps)

    def side():
        t = rng.choice(pool) if rng.random() < 0.7 else _small_ground(rng, 3)
        return Application(_HYP_F, (t,)) if rng.random() < 0.25 else t

    conclusion = Equality(side(), side())
    if nested and rng.random() < 0.5:
        conclusion = Equality(inside, conclusion.rhs)
    cut = rng.randint(1, len(hyps))
    if cut < len(hyps) and rng.random() < 0.3:
        return Implies(conj(hyps[:cut]), Implies(conj(hyps[cut:]), conclusion))
    return Implies(conj(hyps), conclusion)


def _hypothesis_list(conjunct):
    """The hypotheses of a possibly curried implication."""
    hyps = []
    while isinstance(conjunct, Implies):
        hyps += flatten_and(conjunct.lhs)
        conjunct = conjunct.rhs
    return hyps


def _random_ground_side(rng, u, target):
    """`E -> u = side` with 0 to 2 ground equations E over a, b, c, f and h,
    in either orientation, whose side is mostly the target."""
    side = target if rng.random() < 0.6 else _small_ground(rng, 2)
    conclusion = Equality(u, side) if rng.random() < 0.5 else Equality(side, u)
    hyps = [Equality(_small_ground(rng, 2), _small_ground(rng, 2))
            for _ in range(rng.randint(0, 2))]
    return Implies(conj(hyps), conclusion) if hyps else conclusion


def _random_hypothesis_formula(rng, u1, u2, sides=False):
    """Hypothesis-shaped conjuncts on *1, some with nested occurrences, and
    sometimes a ground side on *1 or a second unknown *2 with its own
    conjuncts and a join filter `f(*1) = *2`; with `sides`, also two more
    ground sides on *1, mostly of one target.  Returns the formula, its
    unknowns and its nested conjuncts."""
    nested = set()
    unknowns = [u1] if rng.random() < 0.7 else [u1, u2]
    conjuncts = []
    for u in unknowns:
        for _ in range(rng.randint(1, 3)):
            inside = rng.random() < 0.2
            c = _random_hypothesis_conjunct(rng, u, inside)
            if inside:
                nested.add(c)
            conjuncts.append(c)
    if rng.random() < 0.2:
        conjuncts.append(Equality(u1, _small_ground(rng, 2)))
    if sides:  # *1's stream is the intersection of three or more
        target = _small_ground(rng, 2)
        conjuncts += [_random_ground_side(rng, u1, target) for _ in range(2)]
    if len(unknowns) == 2 and rng.random() < 0.5:
        conjuncts.append(Equality(Application(_HYP_F, (u1,)), u2))
    rng.shuffle(conjuncts)
    return conj(conjuncts), unknowns, nested


def _sides(restriction):
    """The terms of a restriction `E' -> l = r`: l, r and the sides of E'."""
    equalities, l, r = restriction
    return [l, r, *(side for pair in equalities for side in pair)]


def _anchors(restriction):
    """The anchors a of a restriction's hypotheses `hole = a`, in either
    orientation."""
    return [b if a is skeleton._HOLE else a for a, b in restriction[0]
            if skeleton._HOLE in (a, b)]


def _nested(restriction):
    """Whether the hole occurs in a restriction below a function symbol."""
    return any(t is not skeleton._HOLE and skeleton._HOLE in syntax.nodes(t)
               for t in _sides(restriction))


def _accepted_roots(restriction, stream):
    """The classes of the closure of E' that the terms of a restriction's
    stream fall in."""
    keys = reference_skeleton._class_keys(restriction[0])
    return {keys(t) for bucket in stream for t in bucket}


def _class_outcome(conjunct, u, restriction):
    """What a restriction whose hole is only a bare hypothesis side says
    about the classes of its closure, decided through qcheck: `filters`
    where some hole-free term of its universe makes the conjunct valid,
    since every class has one, and `fails` where none does."""
    universe = {n for t in _sides(restriction) for n in syntax.subterms(t)} - {skeleton._HOLE}
    passes = any(qcheck.is_quasitautology(substitute(conjunct, {u: t})) for t in universe)
    return "filters" if passes else "fails"


def test_hypothesis_filters_agree_with_naive_search(monkeypatch):
    # a conjunct whose one unknown is a hypothesis side, bare or nested,
    # restricts the unknown's class in the closure of E', E with the hole
    # for u; beside other restrictions, the unknown's stream is the
    # intersection of theirs.  Every solution and its order must be those of
    # the naive search, which decides each candidate through qcheck
    rng = random.Random(1729)
    u1, u2 = Unknown(1), Unknown(2)
    matched = []  # the hypothesis-shaped conjuncts the plan made restrictions, (conjunct, horn)
    seen = set()  # the conjuncts the plan matched
    source = {}  # the conjunct and unknown of each restriction, by identity
    outcomes = []  # what each hypothesis-shaped restriction the plan read says
    streams = {}  # the restrictions the plan read and their streams, by unknown
    horn, buckets = skeleton._horn, skeleton._class_member_buckets

    def matching(conjunct, u):
        found = horn(conjunct, u)
        seen.add(conjunct)
        if found is not None and all(t.ground for t in _sides(found)):
            source[id(found)] = conjunct, u
            if _anchors(found) or _nested(found):
                matched.append((conjunct, found))
        return found

    def streaming(restriction, sig, max_size):
        stream = buckets(restriction, sig, max_size)
        if restriction is not None:
            conjunct, u = source[id(restriction)]
            streams.setdefault(u, []).append((restriction, stream))
            if _anchors(restriction) and not _nested(restriction):
                outcome = "holds" if stream is None else _class_outcome(conjunct, u, restriction)
                assert outcome != "fails" or not any(stream), str(conjunct)
                outcomes.append(outcome)
        return stream

    monkeypatch.setattr(skeleton, "_horn", matching)
    monkeypatch.setattr(skeleton, "_class_member_buckets", streaming)
    # the two conjuncts that show both restrictions of the lemma: without
    # E' the first would reject f(h(a, a)), which lies outside E's universe
    # and holds; the second has *1 nested, holds at g(b) and g(h(a)) and
    # fails at a fresh constant, so it restricts *1 to g(b)'s class
    a_b = parse_formula("*1 = a & *1 = b -> a = f(h(b, a))")
    nested_h = parse_formula("*1 = a & h(*1) = b -> g(b) = a")
    cases = [(a_b, [u1], set(), signature_of(a_b), 4),
             (nested_h, [u1], {nested_h}, signature_of(nested_h), 3)]
    cases += [(*_random_hypothesis_formula(rng, u1, u2), _HYP_SIG, rng.randint(1, 3))
              for _ in range(200)]
    # beside the floors below, which count the cases above
    with_sides = [(*_random_hypothesis_formula(rng, u1, u2, sides=True), _HYP_SIG,
                   rng.randint(2, 3)) for _ in range(100)]
    fired = several = flipped = nested_seen = multi = solved = 0
    intersected = several_roots = 0
    kinds = Counter()
    for case, (f, unknowns, nested, sig, bound) in enumerate(cases + with_sides):
        matched.clear()
        seen.clear()
        source.clear()
        outcomes.clear()
        streams.clear()
        fast = list(iter_formula_solutions(flatten_and(f), unknowns, sig, bound))
        assert fast == _naive_solutions(f, unknowns, sig, bound), (str(f), bound)
        # every nested occurrence the plan reaches becomes a restriction
        assert nested & seen <= {c for c, _ in matched}, str(f)
        if case >= len(cases):
            # three or more streams narrow one unknown together, among them
            # a ground side's and a hypothesis conjunct's
            for read in streams.values():
                narrowing = [(r, b) for r, b in read if b is not None and any(b)]
                if (len(narrowing) >= 3 and any(_anchors(r) for r, _ in narrowing)
                        and any(not _anchors(r) for r, _ in narrowing)):
                    intersected += 1
                    several_roots += any(_anchors(r) and len(_accepted_roots(r, b)) >= 2
                                         for r, b in narrowing)
            continue
        fired += bool(matched)
        several += any(len(_anchors(found)) >= 2 for _, found in matched)
        flipped += any(h.rhs in (u1, u2) for c, _ in matched for h in _hypothesis_list(c))
        nested_seen += bool(nested)
        multi += len(unknowns) == 2 and bool(matched)
        kinds.update(set(outcomes))
        solved += "filters" in outcomes and bool(fast)
    a_b_horn, nested_horn = skeleton._horn(a_b, u1), skeleton._horn(nested_h, u1)
    assert all(t.ground for t in _sides(a_b_horn) + _sides(nested_horn))
    assert _anchors(a_b_horn) and not _nested(a_b_horn) and _nested(nested_horn)
    assert fired > 170 and several > 120 and flipped > 120 and nested_seen > 60 and multi > 40
    assert kinds["holds"] > 60 and kinds["filters"] > 100 and kinds["fails"] > 40
    assert solved > 25
    assert intersected > 30 and several_roots > 10


def test_class_streams_match_brute_force_filter():
    # the narrowed candidate stream must equal filtering every term through
    # the restriction's validity check, in the same order
    s1 = FunctionSymbol("s", 1)
    pair2 = FunctionSymbol("pair", 2)
    z = Application(zero_symbol(), ())
    zt = Application(zero_tilde().symbol, ())
    k = Application(FunctionSymbol("k", 0), ())
    u = Unknown(1)
    numerals = Signature(frozenset({zero_symbol(), s1, pair2, FunctionSymbol("k", 0)}),
                         frozenset())
    cases = [
        # numerals: z = s(z) |- z = t
        (Implies(Equality(z, Application(s1, (z,))), Equality(z, u)), numerals, 4),
        # tables: z = s(z), k = pair(pair(z,z),k) |- k = t
        (Implies(conj([Equality(z, Application(s1, (z,))),
                       Equality(k, Application(pair2, (Application(pair2, (z, z)), k)))]),
                 Equality(u, k)), numerals, 7),
        # two merged constants
        (Implies(Equality(z, zt), Equality(Application(s1, (z,)), u)),
         Signature(frozenset({zero_symbol(), zero_tilde().symbol, s1}), frozenset()), 4),
        # no equations at all: the class is the target alone
        (Equality(Application(s1, (z,)), u),
         Signature(frozenset({zero_symbol(), s1}), frozenset()), 4),
    ]
    hypothesis_shaped = [
        # t = a joins f(a) with d exactly where t is b or c, two classes of
        # which c's is infinite
        ("*1 = a & f(b) = d & f(c) = d & c = f(f(c)) -> f(a) = d", 5),
        # E' = E + {a = b} alone implies the conclusion: every term
        ("*1 = a & *1 = b -> f(a) = f(b)", 3),
        # only t = b joins a with b
        ("*1 = a -> a = b", 3),
        # no class joins f(a) with b: no term
        ("*1 = a -> f(a) = b", 3),
        # curried, the anchor on the right: t = b is f(b) where t is a or
        # in f(b)'s class, two roots
        ("f(a) = b -> b = *1 -> f(b) = f(f(f(a)))", 5),
        # the one accepted class, {a, f(b)}, comes from E
        ("a = f(b) & *1 = g(a, b) -> g(f(b), b) = a", 4),
        # nested: t = a and h(t) = b join g(b) with a exactly where t is in
        # g(b)'s class, which holds g(h(a))
        ("*1 = a & h(*1) = b -> g(b) = a", 4),
        # no class joins a1 with c: no term
        ("f(*1) = a1 -> a1 = c", 3),
        # E' alone implies the conclusion by congruence: every term
        ("f(*1) = a -> f(f(*1)) = f(a)", 3),
        # a term's class would have to be its own image under f: no term
        ("*1 = f(*1)", 3),
    ]
    cases += [(parse_formula(text), signature_of(parse_formula(text)), bound)
              for text, bound in hypothesis_shaped]
    seen = Counter()
    for conjunct, sig, bound in cases:
        restriction = skeleton._horn(conjunct, u)
        buckets = skeleton._class_member_buckets(restriction, sig, bound)
        slow = [t for t in enumerate_terms(sig, bound)
                if qcheck.is_quasitautology(substitute(conjunct, {u: t}))]
        if buckets is None:  # every term passes
            seen["every"] += 1
            assert slow == list(enumerate_terms(sig, bound)), str(conjunct)
            continue
        fast = [t for bucket in buckets for t in bucket]
        assert fast == slow, str(conjunct)
        # a restriction that accepts no class has no bucket at all; one that
        # accepts a class has a bucket per size, even where no term reaches
        # the class, as none reaches the one `*1 = f(*1)` accepts
        assert len(buckets) in (0, bound + 1)
        assert all(term_size(t) == n for n, bucket in enumerate(buckets) for t in bucket)
        seen["no class" if not buckets else "empty" if not fast else "several"
             if len(_accepted_roots(restriction, buckets)) >= 2 else "one"] += 1
    assert seen == {"one": 7, "several": 2, "every": 2, "empty": 1, "no class": 2}


def _random_nested_conjunct(rng, u, where):
    """`E -> l = r` over a, b, c, f and h, sometimes curried, in which u
    occurs below a function symbol in a hypothesis, in the conclusion or in
    both, as `where` says, and elsewhere bare, nested or not at all; sides
    often repeat earlier ones."""

    def nested():
        inner = u if rng.random() < 0.7 else Application(_HYP_F, (u,))
        if rng.random() < 0.5:
            return Application(_HYP_F, (inner,))
        c = rng.choice(_HYP_CONSTS)
        return Application(_HYP_H, (inner, c) if rng.random() < 0.5 else (c, inner))

    made = []  # the terms so far, which the next ones often repeat

    def term():
        roll = rng.random()
        if made and roll < 0.4:
            return rng.choice(made)
        made.append(u if roll < 0.5 else nested() if roll < 0.6 else _small_ground(rng, 3))
        return made[-1]

    def equation(first):
        return Equality(first, term()) if rng.random() < 0.5 else Equality(term(), first)

    hyps = [equation(term()) for _ in range(rng.randint(0, 2))]
    if where != "conclusion":
        hyps.append(equation(nested()))
    rng.shuffle(hyps)
    conclusion = equation(nested() if where != "hypothesis" else term())
    if not hyps:
        return conclusion
    cut = rng.randint(1, len(hyps))
    if cut < len(hyps) and rng.random() < 0.3:
        return Implies(conj(hyps[:cut]), Implies(conj(hyps[cut:]), conclusion))
    return Implies(conj(hyps), conclusion)


def test_nested_restrictions_match_qcheck_per_candidate():
    # with the hole for u wherever u occurs, every equational Horn conjunct
    # of one unknown is a class restriction, however deep u sits; its
    # stream must be exactly the candidates that make the conjunct valid,
    # each decided through qcheck, in the same order
    rng = random.Random(1213)
    u = Unknown(1)
    seen = Counter()
    verdicts = 0
    for case in range(300):
        where = ("hypothesis", "conclusion", "both")[case % 3]
        conjunct = _random_nested_conjunct(rng, u, where)
        bound = rng.randint(3, 4)
        restriction = skeleton._horn(conjunct, u)
        assert all(t.ground for t in _sides(restriction)) and _nested(restriction)
        buckets = skeleton._class_member_buckets(restriction, _HYP_SIG, bound)
        pool = list(enumerate_terms(_HYP_SIG, bound))
        slow = [t for t in pool if qcheck.is_quasitautology(substitute(conjunct, {u: t}))]
        verdicts += len(pool)
        if buckets is None:  # every term passes
            assert slow == pool, str(conjunct)
            seen["every", where] += 1
            continue
        fast = [t for bucket in buckets for t in bucket]
        assert fast == slow, (str(conjunct), bound)
        seen["none" if not fast else "some", where] += 1
    assert verdicts > 8000
    assert all(seen[outcome, where] >= 5 for outcome in ("every", "none", "some")
               for where in ("hypothesis", "conclusion", "both")), seen


_ENUM_POOL = [FunctionSymbol(n, 0) for n in ("a", "b", "c", "d")] + \
    [FunctionSymbol(n, 1) for n in ("f", "s")] + \
    [FunctionSymbol(n, 2) for n in ("g", "pair")]


def _random_class_query(rng, pool=_ENUM_POOL):
    """Ground equations and a target term over the pool, which may use
    symbols outside the signature enumerated, as sreu hypotheses do.

    Sides are flat (a symbol applied to constants).  Equations between
    constants and between applications of one symbol put several tuples of
    argument classes into one class, so its members come from several state
    tuples; an equation t = f(.., t, ..) makes t's class infinite."""
    consts = [f for f in pool if f.arity == 0]

    def flat(symbol):
        return Application(symbol, tuple(Application(rng.choice(consts), ())
                                          for _ in range(symbol.arity)))

    eqs = []
    for _ in range(rng.randint(0, 6)):
        roll = rng.random()
        if roll < 0.4:
            eqs.append((flat(rng.choice(consts)), flat(rng.choice(consts))))
            continue
        lhs = flat(rng.choice(pool))
        if roll < 0.55:
            wrapper = rng.choice([f for f in pool if f.arity])
            args = list(flat(wrapper).args)
            args[rng.randrange(wrapper.arity)] = lhs
            rhs = Application(wrapper, tuple(args))
        elif lhs.args and roll < 0.8:
            rhs = flat(lhs.symbol)
        else:
            rhs = flat(rng.choice(pool))
        eqs.append((lhs, rhs))
    applications = [t for eq in eqs for t in eq if t.args]
    if applications and rng.random() < 0.8:
        return tuple(eqs), rng.choice(applications)
    return tuple(eqs), flat(rng.choice(pool))


def _random_signature(rng, least):
    symbols = rng.sample(_ENUM_POOL, rng.randint(least, len(_ENUM_POOL)))
    return Signature(frozenset(symbols), frozenset())


def test_enumerator_matches_reference_enumerators():
    # the one tree-automaton enumerator against the two loops it replaced,
    # bucket by bucket and in order: with the one-state automaton it must
    # give `_terms_by_size`, with closure classes as states the members of
    # the target's class
    rng = random.Random(4242)
    for _ in range(60):
        sig = _random_signature(rng, 1)
        bound = rng.randint(0, 5)
        sized, rank = skeleton._sized_terms(sig, bound, skeleton._any_term)
        got = [b.get(0, []) for b in sized]
        want = reference_skeleton._terms_by_size(sig, bound)
        assert got == want, (sig, bound)
        # each term's rank is its place by size and then in canonical order
        assert rank == {t: place for place, t in enumerate(itertools.chain(*want))}
        # the cached stream of an unconstrained unknown is the same enumeration
        unconstrained = skeleton._class_member_buckets.__wrapped__(None, sig, bound)
        assert unconstrained == tuple(tuple(b) for b in want), (sig, bound)
    shared_buckets = 0
    for _ in range(1500):
        sig = _random_signature(rng, 4)
        bound = rng.randint(0, 5)
        eqs, target = _random_class_query(rng)
        restriction = (eqs, skeleton._HOLE, target)  # `eqs -> u = target`
        got = skeleton._class_member_buckets.__wrapped__(restriction, sig, bound)
        want = reference_skeleton._target_class_buckets(eqs, target, sig, bound)
        assert got == want, (eqs, target, sig, bound)
        shared_buckets += sum(len(b) > 1 for b in got)
    assert shared_buckets > 300  # buckets of several members, whose order is checked


_ORDER_POOL = [FunctionSymbol(n, 0) for n in ("a", "b", "c")] + \
    [FunctionSymbol(n, 1) for n in ("f", "s")] + [FunctionSymbol("g", 2)] + \
    [FunctionSymbol(n, 3) for n in ("f", "h")]


def test_class_streams_come_in_canonical_order_by_construction():
    # every bucket of a stream, restricted or not, is in canonical order
    # as it comes from the cache, with symbols of arity 0 to 3.  Over {a,
    # b, s/1, f/3} at size 5, a loop over the compositions of the argument
    # sizes builds f(b, a, s(a)) before f(a, s(a), a), which comes first.
    # A restriction whose hole sits below a symbol may accept several
    # classes, whose members are merged
    rng = random.Random(3141)
    a, b = (Application(FunctionSymbol(n, 0), ()) for n in ("a", "b"))
    s, f = FunctionSymbol("s", 1), FunctionSymbol("f", 3)
    trap = Signature(frozenset({a.symbol, b.symbol, s, f}), frozenset())
    size_five = skeleton._class_member_buckets.__wrapped__(None, trap, 5)[5]
    first, later = (Application(f, (a, Application(s, (a,)), a)),
                    Application(f, (b, a, Application(s, (a,)))))
    assert size_five.index(first) < size_five.index(later)
    checked = Counter()
    for case in range(1000):
        least = 1 if case % 4 == 0 else 5
        sig = Signature(frozenset(rng.sample(_ORDER_POOL, rng.randint(least, len(_ORDER_POOL)))),
                        frozenset())
        bound = rng.randint(0, 5)
        if case % 4 == 0:
            restriction = None
        else:
            eqs, target = _random_class_query(rng, _ORDER_POOL)
            restriction = (eqs, skeleton._HOLE, target)
        stream = skeleton._class_member_buckets.__wrapped__(restriction, sig, bound)
        for bucket in stream or ():
            assert bucket == reference_skeleton._canonical(bucket), (restriction, sig, bound)
            checked["restricted" if restriction else "unconstrained", len(bucket) > 1] += 1
            checked["ternary"] += any(t.symbol.arity == 3 for t in bucket)
    # `f(x1, c) = t, …, f(xk, c) = t -> f(hole, c) = t` accepts the classes
    # of x1, …, xk
    consts = [f for f in _ORDER_POOL if f.arity == 0]

    def small():
        symbol = rng.choice(_ORDER_POOL)
        return Application(symbol, tuple(Application(rng.choice(consts), ())
                                         for _ in range(symbol.arity)))

    for _ in range(300):
        wrapper, target = rng.choice([f for f in _ORDER_POOL if f.arity]), small()
        place, fill = rng.randrange(wrapper.arity), [small() for _ in range(wrapper.arity)]

        def wrap(x):
            return Application(wrapper, (*fill[:place], x, *fill[place + 1:]))

        eqs = tuple((wrap(small()), target) for _ in range(rng.randint(2, 4)))
        restriction = (eqs, wrap(skeleton._HOLE), target)
        sig = Signature(frozenset(rng.sample(_ORDER_POOL, 5)) | set(consts), frozenset())
        stream = skeleton._class_member_buckets.__wrapped__(restriction, sig, rng.randint(1, 4))
        for bucket in stream or ():
            assert bucket == reference_skeleton._canonical(bucket), restriction
            checked["several classes"] += len(_accepted_roots(restriction, [bucket])) > 1
    assert checked["restricted", True] > 250 and checked["unconstrained", True] > 250, checked
    assert checked["ternary"] > 100 and checked["several classes"] > 50, checked


def test_class_member_cache_is_bounded():
    cached = skeleton._class_member_buckets
    bound = skeleton._CLASS_CACHE_SIZE
    assert cached.cache_info().maxsize == bound
    cached.cache_clear()
    try:
        for i in range(bound + 20):
            c = FunctionSymbol(f"c{i}", 0)
            cached(((), skeleton._HOLE, Application(c, ())),
                   Signature(frozenset({c}), frozenset()), 1)
            assert cached.cache_info().currsize <= bound
        assert cached.cache_info().currsize == bound
    finally:
        cached.cache_clear()


def test_negative_size_bound_is_rejected():
    sig = Signature(frozenset({FunctionSymbol("a", 0)}), frozenset())
    with pytest.raises(ContractError):
        list(enumerate_terms(sig, -1))
    with pytest.raises(ContractError):
        list(iter_formula_solutions([parse_formula("p(*1)")], [Unknown(1)], sig, -1))
    with pytest.raises(ContractError):
        list(iter_formula_solutions([parse_formula("a = a")], [], sig, -1))
    assert list(enumerate_terms(sig, 0)) == []


def test_completeness_within_bound():
    # any accepted assignment within the bound is found by the search
    matrix = arith.num(Variable("x1"))
    psi = ExistentialFormula((Variable("x1"),), matrix)
    sk = make_skeleton(psi, 1)
    sig = Signature(frozenset({zero_symbol(), FunctionSymbol("s", 1),
                               FunctionSymbol("pair", 2), zero_tilde().symbol}),
                    frozenset())
    found = list(iter_solutions(sk, sig, 4))
    expected = [{Unknown(1): numeral(m, zero())} for m in range(4)]
    assert found == expected
