import random

import pytest

import hsk.arith as arith_module
import reference_arith
from helpers import eval_diophantine, parse_semitable, signature_of
from hsk import qcheck, skeleton, syntax
from hsk.arith import (
    ContractError,
    Diagnosis,
    DiophAtom,
    DiophKind,
    FailureCase,
    PCArithFormula,
    PrimKind,
    Semitable,
    add,
    add_block,
    associate,
    assign_n,
    classify_failures,
    instantiate,
    instantiate_numeral,
    k_plain,
    k_tilde,
    make_variant,
    mp_semitable,
    mul,
    mul_block,
    num,
    num_block,
    num_tilde,
    parse_diophantine,
    plus,
    recognize_conjunct,
    recognize_instance,
    reduction_f,
    sim,
    sim_tilde,
    tab,
    tab_tilde,
    tim,
    zero,
    zero_hat,
    zero_tilde,
)
from hsk.models import construct_alpha, holds, m_alpha
from hsk.syntax import (
    And,
    Application,
    Equality,
    Implies,
    Not,
    Or,
    SpecialBase,
    Variable,
    conj,
    const,
    flatten_and,
    numeral,
    rebuild,
    special_constant,
    substitute,
)
from hsk.syntax import pair as mk_pair
from hsk.textform import parse_formula, parse_term, print_formula

X1 = Variable("x1")
W1 = Variable("w1")


# ---------------------------------------------------------------------------
# Builders produce the exact displayed shapes


def test_num_builder_shape():
    assert print_formula(num(parse_term("s(z)"))) == "z = s(z) -> z = s(z)"
    assert print_formula(num(X1)) == "z = s(z) -> z = ?x1"
    assert print_formula(num_tilde(X1)) == "zt = s(zt) -> zt = ?x1"


def test_sim_plus_shapes():
    assert print_formula(sim(X1, W1)) == "z = zt -> ?x1 = ?w1"
    assert print_formula(plus(X1, W1, zero())) == "zt = ?x1 -> z = ?w1"


def test_add_unfolds_to_three_conjuncts():
    f = add(X1, parse_term("s(z)"), zero(), W1)
    assert print_formula(f) == (
        "(zt = s(zt) -> zt = ?w1) & (z = zt -> s(z) = ?w1) & (zt = ?x1 -> z = ?w1)"
    )


def test_tab_shapes():
    assert print_formula(tab(W1)) == "z = s(z) & k = pair(pair(z, z), k) -> k = ?w1"
    assert print_formula(tab_tilde(W1)) == (
        "zh = s(zh) & zt = s(zt) & kt = pair(pair(zh, zt), kt) -> kt = ?w1"
    )
    assert print_formula(sim_tilde(W1, Variable("w2"))) == (
        "z = zh & z = zt & k = kt -> ?w1 = ?w2"
    )


def test_tim_shape():
    f = tim(X1, parse_term("s(z)"), zero(), W1, Variable("w2"))
    assert print_formula(f) == (
        "zh = s(z) & zt = ?x1 & kt = pair(pair(z, z), k) -> ?w2 = pair(pair(s(z), z), ?w1)"
    )


def test_mul_has_four_conjuncts_with_table_similarity():
    f = mul(X1, X1, X1, W1, Variable("w2"))
    assert len(print_formula(f).split("->")) == 5  # four implications
    assert "z = zh & z = zt & k = kt" in print_formula(f)


def test_literal_similarity_breaks_multiplication():
    # with the plain similarity conjunct in place of Sim~ no (m, p) table
    # pair is accepted, although each satisfies mul
    w2 = Variable("w2")
    for m, p in ((1, 1), (2, 1), (1, 2), (2, 2)):
        x, y, z = numeral(m, zero()), numeral(p, zero()), numeral(m * p, zero())
        literal = conj([tab(W1), tab_tilde(w2), sim(W1, w2), tim(x, y, z, W1, w2)])
        assert "z = zt -> ?w1 = ?w2" in print_formula(literal)
        table = mp_semitable(m, p)
        sigma = {
            W1: table.instantiate(zero(), zero(), k_plain()),
            w2: table.instantiate(zero_hat(), zero_tilde(), k_tilde()),
        }
        assert qcheck.is_quasitautology(substitute(mul(x, y, z, W1, w2), sigma))
        assert not qcheck.is_quasitautology(substitute(literal, sigma))


# ---------------------------------------------------------------------------
# Semitables


def test_semitable_instantiation_right_associates():
    t = Semitable(((1, 2), (0, 0)))
    inst = t.instantiate(zero(), zero(), k_plain())
    assert inst == parse_term("pair(pair(s(z), s(s(z))), pair(pair(z, z), k))")


def test_mp_semitable_recursion():
    assert mp_semitable(2, 0) == Semitable(())
    assert mp_semitable(2, 1) == Semitable(((0, 0),))
    assert mp_semitable(2, 2) == Semitable(((1, 2), (0, 0)))
    assert mp_semitable(3, 3) == Semitable(((2, 6), (1, 3), (0, 0)))
    assert mp_semitable(2, 2).is_mp(2, 2)
    assert not Semitable(((2, 4), (1, 2))).is_mp(2, 2)  # missing the (0, 0) row


def test_parse_semitable_round_trip():
    for rows in [(), ((0, 0),), ((2, 1), (1, 1), (0, 3))]:
        table = Semitable(rows)
        inst = table.instantiate(zero_hat(), zero_tilde(), k_tilde())
        assert parse_semitable(inst, zero_hat(), zero_tilde(), k_tilde()) == table
    assert parse_semitable(parse_term("pair(z, k)"), zero(), zero(), k_plain()) is None


def test_shift_equation_characterizes_mp_tables():
    # substituting (s(z), s^m(z), pair(pair(z,z),k)) into a semitable yields
    # the (p, m*p) row consed onto its plain instance exactly for (m,p)-tables
    shifted_base = parse_term("pair(pair(z, z), k)")
    candidates = [Semitable(rows) for rows in [
        (), ((0, 0),), ((1, 2), (0, 0)), ((1, 1), (0, 0)), ((2, 4), (1, 2), (0, 0)),
        ((0, 0), (1, 2)), ((2, 2), (0, 0)),
    ]]
    for m in range(4):
        for p in range(4):
            for table in candidates:
                lhs = table.instantiate(parse_term("s(z)"),
                                        numeral(m, zero()), shifted_base)
                rhs_row = parse_term(
                    f"pair({print_term_numeral(p)}, {print_term_numeral(m * p)})")
                from hsk.syntax import pair as mk_pair
                rhs = mk_pair(rhs_row, table.instantiate(zero(), zero(), k_plain()))
                assert (lhs == rhs) == (table.is_mp(m, p) and True), (m, p, table)


def print_term_numeral(exponent):
    out = "z"
    for _ in range(exponent):
        out = f"s({out})"
    return out


# ---------------------------------------------------------------------------
# Diophantine formulas


def test_parse_diophantine():
    psi = parse_diophantine("x1 + 1 = 0\nx1 * x2 = s^2(z)\n")
    assert psi.atoms[0] == DiophAtom(DiophKind.ADD, X1, numeral(1, zero()),
                                     numeral(0, zero()))
    assert psi.atoms[1].kind is DiophKind.MUL
    assert psi.variables() == (X1, Variable("x2"))


def test_parse_diophantine_rejects_bad_variables():
    with pytest.raises(ContractError):
        parse_diophantine("y + 1 = 0")
    with pytest.raises(ContractError):
        parse_diophantine("")


def test_eval_diophantine():
    assert eval_diophantine(parse_diophantine("2 + 3 = 5"))
    assert not eval_diophantine(parse_diophantine("1 * 2 = 3"))
    assert eval_diophantine(parse_diophantine("2 + 3 = 5\n2 * 2 = 4"))
    assert not eval_diophantine(parse_diophantine("2 + 3 = 5\n2 * 2 = 5"))
    with pytest.raises(ContractError):
        eval_diophantine(parse_diophantine("x1 + 1 = 0"))


# ---------------------------------------------------------------------------
# Association


def test_associate_add_atom():
    phi = associate(parse_diophantine("x1 + 1 = 0"))
    assert phi.blocks == (
        num_block(X1),
        num_block(numeral(1, zero())),
        num_block(numeral(0, zero())),
        add_block(X1, numeral(1, zero()), numeral(0, zero()), W1),
    )
    assert phi.numeric_vars() == (X1,)
    assert phi.table_vars() == (W1,)


def test_associate_mul_atom():
    phi = associate(parse_diophantine("x1 * x2 = 2"))
    assert phi.blocks[3] == mul_block(X1, Variable("x2"), numeral(2, zero()),
                                      W1, Variable("w2"))
    assert phi.table_vars() == (W1, Variable("w2"))


def test_associate_keeps_table_variables_disjoint():
    phi = associate(parse_diophantine("x1 + 1 = 0\nx1 * x1 = 2"))
    assert phi.table_vars() == (W1, Variable("w2"), Variable("w3"))


def test_num_coverage_invariant_enforced():
    with pytest.raises(ContractError):
        PCArithFormula((add_block(X1, zero(), zero(), W1),))


def test_instantiate_numeral():
    phi = associate(parse_diophantine("x1 + 1 = 0"))
    inst = instantiate_numeral(phi, X1, 0)
    assert inst.blocks[0] == num_block(numeral(0, zero()))
    assert inst.numeric_vars() == ()
    inst1 = instantiate_numeral(phi, X1, 1)
    assert inst1.blocks[0] == num_block(numeral(1, zero()))
    with pytest.raises(ContractError):
        instantiate_numeral(phi, Variable("x9"), 1)
    with pytest.raises(ContractError):
        instantiate_numeral(phi, Variable("v"), 1)


# ---------------------------------------------------------------------------
# Variants and the n-fold assignment


def test_make_variant_renames_constants_and_variables():
    phi = associate(parse_diophantine("x1 + 1 = 0"))
    v2 = make_variant(phi, 2)
    assert v2.language_index == 2
    assert print_formula(v2.blocks[0][0].formula()) == "z_2 = s(z_2) -> z_2 = ?x1@2"
    assert v2.numeric_vars() == (Variable("x1@2"),)
    with pytest.raises(ContractError):
        make_variant(v2, 3)


def test_variant_renaming_is_invertible():
    phi = associate(parse_diophantine("x1 + 1 = 0\nx1 * x1 = 2"))
    variant = make_variant(phi, 4)

    def unrename(term):
        from hsk.syntax import Application, special_constant

        if isinstance(term, Variable):
            assert term.name.endswith("@4")
            return Variable(term.name[:-2])
        if isinstance(term, Application):
            symbol = term.symbol
            if symbol.special is not None and symbol.special.language_index == 4:
                symbol = special_constant(symbol.special.base, 0)
            return Application(symbol, tuple(unrename(a) for a in term.args))
        return term

    restored = arith_module._mapped(variant, unrename, 0)
    assert restored.blocks == phi.blocks


def test_variant_shares_no_special_constants():
    phi = associate(parse_diophantine("x1 + 1 = 0"))
    sig1 = signature_of(make_variant(phi, 1).formula())
    sig2 = signature_of(make_variant(phi, 2).formula())
    specials1 = {s for s in sig1.function_symbols if s.special}
    specials2 = {s for s in sig2.function_symbols if s.special}
    assert specials1.isdisjoint(specials2)


def test_variant_solvability_transfers():
    # renaming a solution moves it between the languages
    phi = associate(parse_diophantine("x1 + 1 = 2"))
    inst = instantiate(phi, {X1: numeral(1, zero()),
                             W1: numeral(1, zero_tilde())})
    assert qcheck.is_quasitautology(inst.formula())
    v3 = make_variant(phi, 3)
    inst3 = instantiate(v3, {Variable("x1@3"): numeral(1, zero(3)),
                             Variable("w1@3"): numeral(1, zero_tilde(3))})
    assert qcheck.is_quasitautology(inst3.formula())


def test_instance_formula_is_the_substituted_formula():
    # an instance keeps the blocks of the formula it instantiates
    phi = make_variant(associate(parse_diophantine("x1 + 1 = x2\nx2 * x1 = 2")), 2)
    values = {v: numeral(1, zero(2)) for v in phi.numeric_vars()}
    values.update({v: k_tilde(2) for v in phi.table_vars()})
    inst = instantiate(phi, values)
    assert len(inst.blocks) == len(phi.blocks)
    assert inst.formula() == substitute(phi.formula(), values)


def test_assign_n():
    phi = associate(parse_diophantine("x1 + 1 = 0"))
    assigned = assign_n(phi, 2)
    assert len(assigned) == 2
    assert assigned[0].language_index == 1
    assert assign_n(phi, 1) == (make_variant(phi, 1),)


# ---------------------------------------------------------------------------
# reduction_f


def test_reduction_f_single():
    psi = parse_diophantine("x1 + 1 = 0")
    f0 = reduction_f(psi, X1, 0, 1)
    assert f0.bound_vars == (W1,)
    expected = instantiate_numeral(associate(psi), X1, 0).formula()
    assert f0.matrix == expected


def test_reduction_f_varies_only_in_the_numeral():
    from hsk.syntax import And, Application, Implies, numeral_of

    def leaf_pairs(f, g, out):
        assert type(f) is type(g)
        if isinstance(f, (And, Implies)):
            leaf_pairs(f.lhs, g.lhs, out)
            leaf_pairs(f.rhs, g.rhs, out)
        else:
            from hsk.syntax import Equality
            assert isinstance(f, Equality) and isinstance(g, Equality)
            for a, b in ((f.lhs, g.lhs), (f.rhs, g.rhs)):
                if a != b:
                    out.append((a, b))

    psi = parse_diophantine("x1 + 1 = 0")
    members = {m: reduction_f(psi, X1, m, 1) for m in (0, 2)}
    assert members[0].bound_vars == members[2].bound_vars
    diffs = []
    leaf_pairs(members[0].matrix, members[2].matrix, diffs)
    assert diffs  # the numeral slot does change
    for a, b in diffs:
        assert numeral_of(a, zero()) == 0
        assert numeral_of(b, zero()) == 2


def test_reduction_f_two_variants():
    psi = parse_diophantine("x1 + 1 = 0")
    f = reduction_f(psi, X1, 0, 2)
    assert f.bound_vars == (Variable("w1@1"), Variable("w1@2"))
    specials = {s.name for s in signature_of(f.matrix).function_symbols if s.special}
    assert specials == {"z_1", "zt_1", "z_2", "zt_2"}


# ---------------------------------------------------------------------------
# Failure classification


def _instance(system, values):
    phi = associate(parse_diophantine(system))
    return instantiate(phi, values)


def test_classify_num_failure():
    inst = _instance("x1 + 1 = 0",
                     {X1: parse_term("f(z)"), W1: zero_tilde()})
    assert classify_failures(inst) == Diagnosis(FailureCase.NUM_OR_TAB)


def test_classify_tilde_failure():
    inst = _instance("x1 + 1 = 0", {X1: zero(), W1: parse_term("s(k)")})
    assert classify_failures(inst) == Diagnosis(FailureCase.TILDE_NUM_OR_TAB)


def test_classify_similarity_failure():
    inst = _instance("x1 + 1 = 0", {X1: zero(), W1: zero_tilde()})
    assert classify_failures(inst) == Diagnosis(FailureCase.SIM_OR_SIM_TILDE)


def test_classify_additive_failure_reports_numeral():
    inst = _instance("x1 + 1 = 0",
                     {X1: numeral(2, zero()), W1: numeral(1, zero_tilde())})
    assert classify_failures(inst) == Diagnosis(FailureCase.PLUS_OR_TIM, m=2)


def test_classify_valid_instance_is_contract_error():
    inst = _instance("x1 + 1 = 2",
                     {X1: numeral(1, zero()), W1: numeral(1, zero_tilde())})
    with pytest.raises(ContractError):
        classify_failures(inst)


def test_classified_failures_are_falsified_by_their_alpha():
    cases = [
        ("x1 + 1 = 0", {X1: parse_term("pair(z, z)"), W1: zero_tilde()}),
        ("x1 + 1 = 0", {X1: zero(), W1: parse_term("s(k)")}),
        ("x1 + 1 = 0", {X1: zero(), W1: zero_tilde()}),
        ("x1 + 1 = 0", {X1: numeral(1, zero()), W1: parse_term("s(zt)")}),
        ("x1 * x1 = 1", {X1: zero(), W1: parse_term("s(k)"),
                         Variable("w2"): k_tilde()}),
    ]
    for system, values in cases:
        inst = _instance(system, values)
        assert not qcheck.is_quasitautology(inst.formula())
        diagnosis = classify_failures(inst)
        alpha = construct_alpha([(0, diagnosis)])
        assert not holds(m_alpha(alpha), inst.formula())


# ---------------------------------------------------------------------------
# Recognition of instances from plain formulas


def test_recognize_round_trip():
    phi = associate(parse_diophantine("x1 + 1 = 0\nx1 * x1 = 2"))
    v1 = make_variant(phi, 1)
    values = {
        Variable("x1@1"): numeral(1, zero(1)),
        Variable("w1@1"): numeral(1, zero_tilde(1)),
        Variable("w2@1"): mp_semitable(1, 1).instantiate(zero(1), zero(1), k_plain(1)),
        Variable("w3@1"): mp_semitable(1, 1).instantiate(zero_hat(1), zero_tilde(1),
                                                         k_tilde(1)),
    }
    inst = instantiate(v1, values)
    recognized = recognize_instance(inst.formula())
    assert recognized.language_index == 1
    assert recognized.primitives() == inst.primitives()
    # one block: the flat conjunction of the instance's primitives
    assert recognized.formula() == conj(p.formula() for p in inst.primitives())


def test_classify_failures_asks_about_the_parsed_conjuncts():
    # given the parsed conjuncts, the oracle sees them, not the builders'
    # rebuilds: here the tab~ hypotheses nest unlike tab_tilde's own
    f = parse_formula("(zh = s(zh) & (zt = s(zt) & kt = pair(pair(zh, zt), kt)) -> kt = k)"
                      " & (z = s(z) -> z = zt)")
    asked = []

    def oracle(g):
        asked.append(g)
        return qcheck.is_quasitautology(g)

    inst = recognize_instance(f)
    conjuncts = flatten_and(f)
    assert classify_failures(inst, oracle, conjuncts=conjuncts) \
        == Diagnosis(FailureCase.NUM_OR_TAB)
    assert len(asked) == 2 and all(g is c for g, c in zip(asked, conjuncts))
    assert asked[0] is not tab_tilde(k_plain())
    # the recognised instance itself is the builders' conjunction
    assert inst.formula() == conj(p.formula() for p in inst.primitives())
    assert inst.primitives()[0].formula() is tab_tilde(k_plain())


def test_recognize_rejects_foreign_conjuncts():
    with pytest.raises(ContractError):
        recognize_instance(parse_formula("p(a) -> p(a)"))
    with pytest.raises(ContractError):
        recognize_instance(parse_formula("a = b -> c = d"))


def test_recognize_allows_cross_language_argument_slots():
    inst = recognize_instance(parse_formula("z_1 = s(z_1) -> z_1 = z_2"))
    assert inst.language_index == 1
    assert inst.primitives()[0].kind.value == "num"


# Each primitive builder with its number of argument slots.
_BUILDERS = ((num, 1), (num_tilde, 1), (sim, 2), (plus, 3), (tab, 1), (tab_tilde, 1),
             (sim_tilde, 2), (tim, 5))


def _slot_term(rng, lang):
    """A random argument term over the special constants of `lang` and of
    the other languages 0-3: numerals, table rows, variables, plain terms."""
    at = lang if rng.random() < 0.6 else rng.randrange(4)
    base = const(special_constant(rng.choice(list(SpecialBase)), at))
    shape = rng.randrange(6)
    if shape == 0:
        return numeral(rng.randrange(4), base)
    if shape == 1:
        return mk_pair(mk_pair(numeral(rng.randrange(3), base), zero(at)), k_plain(at))
    if shape == 2:
        return Variable(rng.choice(("x1", "w1", "x2@1")))
    if shape == 3:
        return parse_term(rng.choice(("a", "f(a)", "pair(a, b)", "s(a)")))
    if shape == 4:
        return mk_pair(base, numeral(rng.randrange(2), zero(at)))
    return base


def _moved(t, lang):
    """t with every special constant moved to language `lang`."""
    def replace(n):
        special = n.symbol.special if isinstance(n, Application) else None
        return None if special is None else const(special_constant(special.base, lang))
    return rebuild(t, replace)


def _mutant(f, rng, lang):
    """f itself or one mutation of it."""
    hyps, concl = flatten_and(f.lhs), f.rhs
    i = rng.randrange(len(hyps))
    h = hyps[i]
    choice = rng.randrange(12)
    if choice == 0 and len(hyps) > 1:  # right-associated hypotheses
        right = hyps[-1]
        for g in reversed(hyps[:-1]):
            right = And(g, right)
        return Implies(right, concl)
    if choice == 1:  # one hypothesis with its sides swapped
        return Implies(conj(hyps[:i] + [Equality(h.rhs, h.lhs)] + hyps[i + 1:]), concl)
    if choice == 2:  # one side of one hypothesis replaced
        side = _slot_term(rng, lang)
        g = Equality(side, h.rhs) if rng.random() < 0.5 else Equality(h.lhs, side)
        return Implies(conj(hyps[:i] + [g] + hyps[i + 1:]), concl)
    if choice == 3:  # one side of one hypothesis moved to another language
        other = rng.randrange(4)
        g = Equality(_moved(h.lhs, other), h.rhs) if rng.random() < 0.5 \
            else Equality(h.lhs, _moved(h.rhs, other))
        return Implies(conj(hyps[:i] + [g] + hyps[i + 1:]), concl)
    if choice == 4:  # one hypothesis that is no equation
        g = parse_formula(rng.choice(("p(a)", "!(a = b)", "a = b | c = d")))
        return Implies(conj(hyps[:i] + [g] + hyps[i + 1:]), concl)
    if choice == 5:  # the conclusion's sides swapped
        return Implies(f.lhs, Equality(concl.rhs, concl.lhs))
    if choice == 6:  # a hypothesis dropped or repeated
        kept = hyps[:i] + hyps[i + 1:] if len(hyps) > 1 and rng.random() < 0.5 \
            else hyps + [h]
        return Implies(conj(kept), concl)
    if choice == 7:  # the conclusion moved to another language
        return Implies(f.lhs, Equality(_moved(concl.lhs, rng.randrange(4)), concl.rhs))
    if choice == 8:  # a bare conclusion, or no implication
        return rng.choice((concl, And(f.lhs, concl), Or(f.lhs, concl), Not(f)))
    return f


def test_recognizer_matches_the_reference_recognizer():
    rng = random.Random(20190811)
    pool = [[_slot_term(rng, lang) for _ in range(200)] for lang in range(4)]
    kinds = {}
    for _ in range(20000):
        lang = rng.randrange(4)
        (builder, count), (other, other_count) = rng.choice(_BUILDERS), rng.choice(_BUILDERS)
        f = builder(*rng.sample(pool[lang], count), lang=lang)
        if rng.random() < 0.1:  # the hypotheses of one shape, the conclusion of another
            f = Implies(f.lhs, other(*rng.sample(pool[lang], other_count), lang=lang).rhs)
        f = _mutant(f, rng, lang)
        got = recognize_conjunct(f)
        assert got == reference_arith.recognize_conjunct(f), print_formula(f)
        key = None if got is None else got.kind
        kinds[key] = kinds.get(key, 0) + 1
    assert len(kinds) == 9 and kinds[None] >= 2000  # every kind, and many non-matches


def test_recognition_builds_no_node(monkeypatch):
    phi = associate(parse_diophantine("x1 + 1 = 0\nx1 * x1 = 2"))
    values = {
        Variable("x1@2"): numeral(1, zero(2)),
        Variable("w1@2"): numeral(1, zero_tilde(2)),
        Variable("w2@2"): mp_semitable(1, 1).instantiate(zero(2), zero(2), k_plain(2)),
        Variable("w3@2"): mp_semitable(1, 1).instantiate(zero_hat(2), zero_tilde(2),
                                                         k_tilde(2)),
    }
    inst = instantiate(make_variant(phi, 2), values)
    formula = inst.formula()
    built = []

    def counting(new):
        def counted(cls, *fields):
            built.append(cls)
            return new(cls, *fields)
        return staticmethod(counted)

    # Application has a constructor of its own; every other node's is Node's
    monkeypatch.setattr(syntax.Node, "__new__", counting(syntax.Node.__new__))
    monkeypatch.setattr(syntax.Application, "__new__", counting(syntax.Application.__new__))
    recognized = recognize_instance(formula)
    monkeypatch.undo()
    assert recognized.primitives() == inst.primitives()
    assert {p.kind for p in recognized.primitives()} >= {PrimKind.PLUS, PrimKind.TIM}
    assert built == []


# ---------------------------------------------------------------------------
# A solution transfers to skeletons of the n-fold variant conjunction


@pytest.mark.parametrize("system,solution", [
    ("x1 + 1 = 2", {"x1": "s(z)", "w1": "s(zt)"}),
    ("2 + 0 = 2", {"w1": "zt"}),
])
def test_solution_transfers_to_variant_skeletons(system, solution):
    phi = associate(parse_diophantine(system))
    base_values = {Variable(name): parse_term(text) for name, text in solution.items()}
    assert qcheck.is_quasitautology(instantiate(phi, base_values).formula())

    n = 2
    assigned = assign_n(phi, n)
    bound = [v for variant in assigned
             for v in (*variant.numeric_vars(), *variant.table_vars())]
    psi = skeleton.ExistentialFormula(tuple(bound), conj(v.formula() for v in assigned))
    sk = skeleton.make_skeleton(psi, n)

    def variant_term(term_text, lang):
        renamed = term_text
        for name in ("z", "zt"):
            renamed = renamed.replace(f"{name})", f"{name}_{lang})")
        if renamed == term_text and term_text in ("z", "zt"):
            renamed = f"{term_text}_{lang}"
        return parse_term(renamed)

    # fill one disjunct with the renamed solutions, reusing it for the rest
    per_variable = {}
    for i, variant in enumerate(assigned, start=1):
        for v in (*variant.numeric_vars(), *variant.table_vars()):
            base = v.name.split("@")[0]
            per_variable[v] = variant_term(solution[base], i)
    ordered_terms = [per_variable[v] for v in bound]
    assignment = {}
    for tup in sk.unknown_tuples:
        for u, t in zip(tup, ordered_terms):
            assignment[u] = t
    assert skeleton.verify_solution(sk, assignment)
