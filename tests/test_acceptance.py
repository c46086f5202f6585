"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import itertools
import random
import time

import pytest

from helpers import (
    CONSTS,
    F1,
    G2,
    H3,
    P1,
    enumerate_terms,
    eval_diophantine,
    random_ground_formula,
    random_ground_term,
    signature_of,
    unknowns_of,
    valid_by_model_enumeration,
)
from hsk import arith, models, sreu
from hsk.arith import (
    Semitable,
    associate,
    classify_failures,
    instantiate,
    k_plain,
    k_tilde,
    make_variant,
    mp_semitable,
    parse_diophantine,
    zero,
    zero_hat,
    zero_tilde,
)
from hsk.cli import RunConfig, run
from hsk.models import construct_alpha, holds, m_alpha
from hsk.qcheck import is_quasitautology
from hsk.skeleton import (
    ExistentialFormula,
    existential_of,
    iter_solutions,
    make_skeleton,
    solve_bounded,
)
from hsk.syntax import (
    And,
    Application,
    Equality,
    FunctionSymbol,
    Implies,
    Or,
    PredApp,
    Signature,
    Unknown,
    Variable,
    conj,
    numeral,
    substitute,
    term_size,
)
from hsk.textform import parse_formula, parse_term, print_formula


def _report(number: int, description: str, elapsed: float) -> None:
    print(f"ACCEPTANCE {number:02d} PASS ({elapsed:6.2f}s) {description}")


# ---------------------------------------------------------------------------
# 1. Conversion pipeline exactness on the guarded-choice clause skeleton


def test_criterion_1_pipeline_exactness():
    t0 = time.monotonic()
    f = parse_formula("p(a) & p(b) & (*1 = a | *1 = b) -> p(c)")
    problems = sreu.convert_to_sreu(f)
    texts = [
        [print_formula(c) for c in problem.constraints]
        for problem in problems
    ]
    assert texts == [
        ["*1 = a -> a = c", "*1 = b -> a = c"],
        ["*1 = a -> a = c", "*1 = b -> b = c"],
        ["*1 = a -> b = c", "*1 = b -> a = c"],
        ["*1 = a -> b = c", "*1 = b -> b = c"],
    ]
    witnesses = [sreu.solve_sreu_bounded(p, max_size=3) for p in problems]
    assert witnesses[1] == {Unknown(1): parse_term("c")}
    assert witnesses[0] is None and witnesses[2] is None and witnesses[3] is None
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(1, "four conversion problems, only the second solvable (by c)", elapsed)


# ---------------------------------------------------------------------------
# 2. Skeleton sizes 1 and 2 of the guarded choice formula


def test_criterion_2_skeleton_sizes():
    t0 = time.monotonic()
    psi = existential_of(parse_formula("exists ?v. p(a) | p(b) -> p(?v)"))
    sol = solve_bounded(make_skeleton(psi, 2), max_size=1)
    assert sol == {Unknown(1): parse_term("a"), Unknown(2): parse_term("b")}
    assert solve_bounded(make_skeleton(psi, 1), max_size=3) is None
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(2, "size-2 skeleton solved at bound 1; size-1 exhausted at bound 3", elapsed)


# ---------------------------------------------------------------------------
# 3. Identity axiom suite


def test_criterion_3_identity_axioms():
    t0 = time.monotonic()
    rng = random.Random(1303)
    t = lambda: random_ground_term(rng, 5)
    failures = 0
    count = 0
    while count < 500:
        a, b, c = t(), t(), t()
        instances = [
            Equality(a, a),
            Implies(Equality(a, b), Equality(b, a)),
            Implies(And(Equality(a, b), Equality(b, c)), Equality(a, c)),
        ]
        for symbol in (F1, G2, H3):
            xs = [t() for _ in range(symbol.arity)]
            ys = [t() for _ in range(symbol.arity)]
            hyp = conj([Equality(x, y) for x, y in zip(xs, ys)])
            instances.append(Implies(hyp, Equality(Application(symbol, tuple(xs)),
                                                   Application(symbol, tuple(ys)))))
        xs, ys = [t(), t()], [t(), t()]
        hyp = conj([Equality(x, y) for x, y in zip(xs, ys)]
                   + [PredApp(P1, (xs[0],))])
        instances.append(Implies(hyp, PredApp(P1, (ys[0],))))
        for axiom in instances:
            if not is_quasitautology(axiom):
                failures += 1
            count += 1
    assert failures == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(3, f"{count} random identity-axiom instances all valid", elapsed)


# ---------------------------------------------------------------------------
# 4. Agreement with exhaustive model enumeration


def test_criterion_4_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(1404)
    A = Application(CONSTS[0], ())
    B = Application(CONSTS[1], ())
    agree = 0
    for _ in range(200):
        pool = [A, B]
        while len(pool) < 6 and rng.random() < 0.85:
            base = rng.choice(pool)
            grown = Application(F1, (base,)) if rng.random() < 0.7 else \
                Application(G2, (base, rng.choice(pool)))
            extra = set()
            from hsk.syntax import subterms
            for s in subterms(grown):
                extra.add(s)
            if len(extra | set(pool)) <= 6:
                pool = list(dict.fromkeys(pool + list(extra)))
        atoms = [PredApp(P1, (rng.choice(pool),)), PredApp(P1, (rng.choice(pool),))]
        f = random_ground_formula(rng, pool, 4, atoms)
        assert is_quasitautology(f) == valid_by_model_enumeration(f)
        agree += 1
    assert agree == 200
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(4, "200/200 agreement with exhaustive model enumeration", elapsed)


# ---------------------------------------------------------------------------
# 5. The simulation lemmas at desk scale


def _solve_matrix(matrix, bound_vars, max_size, sig=None):
    psi = ExistentialFormula(tuple(bound_vars), matrix)
    sk = make_skeleton(psi, 1)
    return list(itertools.islice(iter_solutions(sk, sig, max_size), 2))


def test_criterion_5_simulation_lemmas():
    t0 = time.monotonic()
    z0 = zero()
    zt0 = zero_tilde()

    # numeral characterisation for every term of size <= 4 over the language
    lemma_sig = Signature(
        frozenset({z0.symbol, zt0.symbol, k_plain().symbol, FunctionSymbol("s", 1),
                   FunctionSymbol("pair", 2)}),
        frozenset(),
    )
    numerals = {numeral(m, z0) for m in range(4)}
    tilde_numerals = {numeral(m, zt0) for m in range(4)}
    for t in enumerate_terms(lemma_sig, 4):
        assert is_quasitautology(arith.num(t)) == (t in numerals)
        assert is_quasitautology(arith.num_tilde(t)) == (t in tilde_numerals)

    # similarity of numerals: equality of exponents
    for m in range(7):
        for p in range(7):
            f = arith.sim(numeral(m, z0), numeral(p, zt0))
            assert is_quasitautology(f) == (m == p)

    # additive shape: valid exactly when the exponents add up
    for m in range(6):
        for p in range(6):
            for q in range(6):
                f = arith.plus(numeral(m, z0), numeral(p, zt0), numeral(q, z0))
                assert is_quasitautology(f) == (q == m + p)

    # bounded additive solving with the unique mirrored-numeral witness
    for m in range(5):
        for p in range(5):
            for q in range(5):
                matrix = arith.add(numeral(m, z0), numeral(p, z0), numeral(q, z0),
                                   Variable("w1"))
                found = _solve_matrix(matrix, [Variable("w1")], m + p + 3)
                if q == m + p:
                    assert found == [{Unknown(1): numeral(p, zt0)}]
                else:
                    assert found == []

    # tables: every semitable instance is accepted, perturbations are not
    rows_pool = [(p, q) for p in range(3) for q in range(3)]
    tables = [Semitable(rows) for length in range(4)
              for rows in itertools.product(rows_pool, repeat=length)]
    for table in tables:
        assert is_quasitautology(arith.tab(table.instantiate(zero(), zero(), k_plain())))
        assert is_quasitautology(arith.tab_tilde(
            table.instantiate(zero_hat(), zero_tilde(), k_tilde())))
    table_model = models.table_structure()
    perturbed = [
        parse_term("z"), parse_term("zh"), parse_term("s(k)"), parse_term("pair(z, k)"),
        parse_term("pair(pair(z, z), z)"), parse_term("pair(k, pair(z, z))"),
        parse_term("pair(pair(z, s(z)), s(k))"), parse_term("pair(pair(s(z), z), zt)"),
        parse_term("pair(z, pair(pair(z, z), k))"),
        parse_term("pair(pair(z, z), pair(z, k))"),
        parse_term("k"), parse_term("pair(pair(zh, zt), k)"),
        parse_term("pair(pair(zt, zh), kt)"), parse_term("pair(pair(zh, z), kt)"),
        parse_term("pair(zh, pair(zt, kt))"), parse_term("s(pair(pair(zh, zt), kt))"),
        parse_term("pair(pair(zh, s(k)), kt)"), parse_term("pair(pair(s(kt), zt), kt)"),
        parse_term("pair(pair(zh, zt), pair(zh, kt))"), parse_term("pair(kt, kt)"),
    ]
    assert len(perturbed) == 20
    for t in perturbed[:10]:
        assert not is_quasitautology(arith.tab(t))
    for t in perturbed[10:]:
        f = arith.tab_tilde(t)
        assert not is_quasitautology(f)
        assert not holds(table_model, f)  # the table structure falsifies it

    # table similarity: identical underlying semitables only
    short_tables = [Semitable(rows) for length in range(3)
                    for rows in itertools.product(rows_pool, repeat=length)]
    for ta in short_tables:
        for tb in short_tables:
            f = arith.sim_tilde(ta.instantiate(zero(), zero(), k_plain()),
                                tb.instantiate(zero_hat(), zero_tilde(), k_tilde()))
            assert is_quasitautology(f) == (ta == tb)

    # course-of-values shift equation characterises the (m, p)-tables
    shifted_base = parse_term("pair(pair(z, z), k)")
    from hsk.syntax import pair as mk_pair
    mp_pool = short_tables + [mp_semitable(m, p) for m in range(4) for p in range(4)]
    for m in range(4):
        for p in range(4):
            for table in mp_pool:
                lhs = table.instantiate(parse_term("s(z)"), numeral(m, z0), shifted_base)
                rhs = mk_pair(mk_pair(numeral(p, z0), numeral(m * p, z0)),
                              table.instantiate(zero(), zero(), k_plain()))
                assert (lhs == rhs) == table.is_mp(m, p)

    # bounded multiplicative solving with the unique table-pair witness
    for m in range(3):
        for p in range(3):
            witness_w = mp_semitable(m, p).instantiate(zero(), zero(), k_plain())
            witness_wt = mp_semitable(m, p).instantiate(zero_hat(), zero_tilde(),
                                                        k_tilde())
            bound = term_size(witness_w)
            for q in sorted({m * p, m * p + 1, max(0, m * p - 1)}):
                matrix = arith.mul(numeral(m, z0), numeral(p, z0), numeral(q, z0),
                                   Variable("w1"), Variable("w2"))
                found = _solve_matrix(matrix, [Variable("w1"), Variable("w2")], bound)
                if q == m * p:
                    assert found == [{Unknown(1): witness_w,
                                      Unknown(2): witness_wt}]
                else:
                    assert found == []

    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    _report(5, "numeral/similarity/addition/table/multiplication lemmas, no deviation",
            elapsed)


# ---------------------------------------------------------------------------
# 6. Arithmetic truth matches bounded solvability of the association


def test_criterion_6_truth_matches_solvability():
    t0 = time.monotonic()
    fixtures = [
        "2 + 3 = 5",
        "1 + 1 = 3",
        "0 + 0 = 0",
        "3 + 0 = 3",
        "2 * 2 = 4",
        "1 * 2 = 3",
        "2 * 1 = 2",
        "0 * 2 = 0",
        "1 + 2 = 3\n2 * 1 = 2",
        "1 + 2 = 3\n1 * 2 = 3",
    ]
    for text in fixtures:
        psi = parse_diophantine(text)
        truth = eval_diophantine(psi)
        phi = associate(psi)
        bound = 3 + 3 + 3  # covers numeral witnesses ...
        for atom in psi.atoms:
            if atom.kind.value == "*":
                from hsk.syntax import numeral_of
                m = numeral_of(atom.a, zero())
                p = numeral_of(atom.b, zero())
                table = mp_semitable(m, p).instantiate(zero(), zero(), k_plain())
                bound = max(bound, term_size(table))
        matrix = phi.formula()
        bound_vars = [*phi.numeric_vars(), *phi.table_vars()]
        found = _solve_matrix(matrix, bound_vars, bound)
        assert bool(found) == truth, text
    elapsed = time.monotonic() - t0
    _report(6, "10 closed diophantine fixtures agree with bounded solvability", elapsed)


# ---------------------------------------------------------------------------
# 7. Disjunct interference in the additive encoding


def test_criterion_7_interference():
    t0 = time.monotonic()
    psi = parse_diophantine("x1 + 1 = 0")
    phi = associate(psi)
    x1, w1 = Variable("x1"), Variable("w1")
    inst0 = instantiate(phi, {x1: zero(), w1: zero_tilde()})
    inst1 = instantiate(phi, {x1: numeral(1, zero()),
                              w1: numeral(1, zero_tilde())})
    assert not is_quasitautology(inst0.formula())
    assert not is_quasitautology(inst1.formula())
    assert is_quasitautology(Or(inst0.formula(), inst1.formula()))
    # explicit falsifying structures for the single instances
    for inst in (inst0, inst1):
        alpha = construct_alpha([(0, classify_failures(inst))])
        assert not holds(m_alpha(alpha), inst.formula())
    elapsed = time.monotonic() - t0
    _report(7, "disjunction valid while both disjuncts fail, each falsified", elapsed)


# ---------------------------------------------------------------------------
# 8. Bounded simultaneous falsification of variant families


def _variant_instance(phi, i, values):
    variant = make_variant(phi, i)
    renamed = {Variable(f"{v.name}@{i}"): term for v, term in values.items()}
    return instantiate(variant, renamed)


def _fresh(lang, text):
    return parse_term(text.replace("@", f"_{lang}" if lang else ""))


def test_criterion_8_bounded_main_property():
    t0 = time.monotonic()
    x1, w1, w2 = Variable("x1"), Variable("w1"), Variable("w2")
    z0 = zero()

    add_phi = associate(parse_diophantine("x1 + 1 = 0"))
    sat_phi = associate(parse_diophantine("x1 + 1 = 2"))
    mul_phi = associate(parse_diophantine("x1 * x1 = 2"))

    def bad_add(i, which):
        # non-solutions exercising the four failure cases
        if which == 0:
            return {x1: parse_term(f"pair(z_{i}, z_{i})"), w1: zero_tilde(i)}
        if which == 1:
            return {x1: zero(i), w1: parse_term(f"s(k_{i})")}
        if which == 2:
            return {x1: zero(i), w1: zero_tilde(i)}
        return {x1: numeral(1, zero(i)), w1: numeral(1, zero_tilde(i))}

    def bad_mul(i, which):
        if which == 0:
            return {x1: zero(i), w1: parse_term(f"s(z_{i})"), w2: k_tilde(i)}
        if which == 1:
            return {x1: zero(i), w1: k_plain(i), w2: parse_term(f"s(zh_{i})")}
        if which == 2:
            return {x1: zero(i),
                    w1: mp_semitable(0, 1).instantiate(zero(i), zero(i), k_plain(i)),
                    w2: k_tilde(i)}
        return {x1: zero(i), w1: k_plain(i), w2: k_tilde(i)}

    negative_families = []
    for shift in range(4):
        negative_families.append([
            _variant_instance(add_phi, i, bad_add(i, (shift + i) % 4))
            for i in (1, 2, 3)
        ])
    for shift in range(4):
        negative_families.append([
            _variant_instance(mul_phi, i, bad_mul(i, (shift + i) % 4))
            for i in (1, 2)
        ])
    negative_families.append([
        _variant_instance(add_phi, 1, bad_add(1, 3)),
        _variant_instance(mul_phi, 2, {
            x1: zero(2),
            w1: mp_semitable(1, 1).instantiate(zero(2), zero(2), k_plain(2)),
            w2: mp_semitable(1, 1).instantiate(zero_hat(2), zero_tilde(2), k_tilde(2)),
        }),
    ])
    negative_families.append([_variant_instance(add_phi, 1, bad_add(1, 2))])
    assert len(negative_families) == 10

    for family in negative_families:
        for inst in family:
            assert not is_quasitautology(inst.formula())
        failures = [(inst.language_index, classify_failures(inst)) for inst in family]
        alpha = construct_alpha(failures)
        structure = m_alpha(alpha)
        for inst in family:
            assert not holds(structure, inst.formula())
        disjunction = family[0].formula()
        for inst in family[1:]:
            disjunction = Or(disjunction, inst.formula())
        assert not is_quasitautology(disjunction)

    # families with one genuinely valid disjunct are accepted
    good_add = {x1: numeral(1, z0), w1: numeral(1, zero_tilde())}
    positive_families = []
    for i in (1, 2, 3):
        renamed = {x1: numeral(1, zero(i)), w1: numeral(1, zero_tilde(i))}
        good = instantiate(make_variant(sat_phi, i),
                           {Variable(f"{v.name}@{i}"): t for v, t in renamed.items()})
        assert is_quasitautology(good.formula())
        others = [_variant_instance(add_phi, j, bad_add(j, j % 4))
                  for j in (1, 2, 3) if j != i]
        for position in range(3):
            family = others[:position] + [good] + others[position:]
            positive_families.append(family)
    positive_families.append([
        instantiate(make_variant(sat_phi, 1),
                    {Variable("x1@1"): numeral(1, zero(1)),
                     Variable("w1@1"): numeral(1, zero_tilde(1))}),
    ])
    assert len(positive_families) == 10
    for family in positive_families:
        disjunction = family[0].formula()
        for inst in family[1:]:
            disjunction = Or(disjunction, inst.formula())
        assert is_quasitautology(disjunction)

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(8, "10 families falsified simultaneously, 10 accepted", elapsed)


# ---------------------------------------------------------------------------
# 9. Solution equivalence of the conversion


def test_criterion_9_solution_equivalence():
    t0 = time.monotonic()
    fixtures = [
        "p(a) & p(b) & (*1 = a | *1 = b) -> p(c)",
        "p(a) -> *1 = b",
        "(p(*1) -> p(a)) & (*1 = b | *1 = a)",
        "!(*1 = a) | f(*1) = f(a)",
        "q2(*1, *2) & p(a) -> q2(a, b)",
        "*1 = a -> p(f(a)) | p(f(*1))",
        "*1 = b",
        "a = b -> *1 = a",
        "p(*1) | !p(*1)",
        "p(*1) & !p(*1)",
        "(*1 = a -> p(b)) & (p(b) -> *1 = a)",
        "f(*1) = f(a) -> *1 = a",
        "p(f(*1)) -> p(f(a))",
        "(*1 = a | *2 = b) & q2(*1, *2) -> q2(a, b)",
        "*1 = *2 -> f(*1) = f(*2)",
        "!p(*1) -> !p(a)",
        "(p(a) | p(b)) & (p(a) -> *1 = a) & (p(b) -> *1 = b) -> p(*1)",
        "f(a) = a -> f(f(*1)) = *1",
        "q2(a, *1) & q2(*1, b) -> q2(a, b)",
        "(*1 = f(a) -> *2 = a) & (*2 = a -> *1 = f(a))",
    ]
    assert len(fixtures) == 20
    checked = 0
    for text in fixtures:
        f = parse_formula(text)
        problems = sreu.convert_to_sreu(f)
        unknowns = unknowns_of(f)
        pool = list(enumerate_terms(signature_of(f), 3))
        for combo in itertools.product(pool, repeat=len(unknowns)):
            sigma = dict(zip(unknowns, combo))
            direct = is_quasitautology(substitute(f, sigma))
            via = any(
                is_quasitautology(substitute(p.formula, sigma)) for p in problems
            )
            assert direct == via, (text, sigma)
            checked += 1
    elapsed = time.monotonic() - t0
    _report(9, f"conversion solution-equivalent on {checked} ground substitutions",
            elapsed)


# ---------------------------------------------------------------------------
# 10. Byte-identical command output across repeated runs


def test_criterion_10_cli_determinism():
    t0 = time.monotonic()
    import pathlib

    fixture_dir = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
    golden_dir = fixture_dir / "golden"
    runs = [
        (RunConfig("check"), "implication_interference.fml",
         "check_implication_interference.txt", 0),
        (RunConfig("skeleton", n=2), "guarded_choice.fml",
         "skeleton_guarded_choice_n2.txt", 0),
        (RunConfig("solve", n=2, max_size=1), "guarded_choice.fml",
         "solve_guarded_choice_n2.txt", 0),
        (RunConfig("solve", n=1, max_size=3), "guarded_choice.fml",
         "solve_guarded_choice_n1.txt", 1),
        (RunConfig("sreu", solve=True, max_size=3), "clause_pipeline.fml",
         "sreu_solve_clause_pipeline.txt", 0),
        (RunConfig("encode", n=2, m=0), "sum_query.dioph", "encode_sum_query.txt", 0),
        (RunConfig("eval", structure="table"), "table_eval.fml", "eval_table.txt", 0),
        (RunConfig("countermodel"), "variant_failures.fml",
         "countermodel_variant_failures.txt", 0),
    ]
    for config, source, golden, expected_status in runs:
        text = (fixture_dir / source).read_text()
        outputs = set()
        for _ in range(3):
            status, output = run(config, text)
            assert status == expected_status
            outputs.add(output)
        assert len(outputs) == 1
        assert outputs.pop() == (golden_dir / golden).read_text()
    elapsed = time.monotonic() - t0
    _report(10, "golden outputs byte-identical across 3 runs", elapsed)
