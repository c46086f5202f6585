import random

import pytest

from helpers import random_ground_formula
from hsk.arith import (
    k_plain,
    k_tilde,
    mp_semitable,
    num,
    num_tilde,
    plus,
    sim,
    sim_tilde,
    tab,
    tab_tilde,
    tim,
    zero,
    zero_hat,
    zero_symbol,
    zero_tilde,
)
from hsk.models import (
    AlphaAssignment,
    ContractError,
    Diagnosis,
    FailureCase,
    Structure,
    construct_alpha,
    eval_term,
    holds,
    m_alpha,
    pairing_j,
    table_structure,
    two_point_structure,
    unpair,
)
from hsk.qcheck import is_quasitautology
from hsk.syntax import (
    Equality,
    FunctionSymbol,
    SpecialBase,
    numeral,
    special_constant,
)
from hsk.textform import parse_formula, parse_term

J = pairing_j


def test_pairing_values():
    assert J(0, 0) == 1
    assert J(1, 0) == 3
    assert J(0, 1) == 4


def test_unpair_inverse_and_zero_gap():
    assert unpair(0) is None
    for j in range(51):
        for k in range(51):
            assert unpair(J(j, k)) == (j, k)


def test_partition_of_naturals():
    # the rows {J(j, i)} for j = 0..5 and the remainder are pairwise disjoint
    seen: dict[int, int] = {}
    for j in range(6):
        i = 0
        while (value := J(j, i)) <= 10**4:
            assert value not in seen
            seen[value] = j
            i += 1
    for n in range(10**4 + 1):
        parts = unpair(n)
        if parts is None:
            assert n not in seen  # remainder: 0 and the numbers between rows
        else:
            row = parts[0] if parts[0] <= 5 else None
            assert seen.get(n) == row
    assert unpair(0) is None and 0 not in seen


# ---------------------------------------------------------------------------
# Fixed structures


def test_two_point_structure_rules():
    M = two_point_structure()
    assert eval_term(M, parse_term("s(s(z))")) == 0
    assert eval_term(M, parse_term("f(z)")) == 1
    assert holds(M, parse_formula("z = s(z)"))
    assert not holds(M, num(parse_term("f(z)")))
    assert holds(M, num(numeral(3, zero())))


def test_table_structure_rules():
    M = table_structure()
    assert eval_term(M, parse_term("pair(zh, zt)")) == 5
    assert eval_term(M, parse_term("pair(pair(zh, zt), kt)")) == 4
    assert eval_term(M, parse_term("pair(zt, zh)")) == 0
    assert eval_term(M, parse_term("z")) == 0
    assert eval_term(M, parse_term("s(zh)")) == 2


def test_reflexive_equality_holds_everywhere():
    f = parse_formula("a = a")
    for M in (two_point_structure(), table_structure(),
              m_alpha(AlphaAssignment({}))):
        assert holds(M, f)


def test_structure_rules_must_stay_in_domain():
    bad = Structure("bad", frozenset({0}), lambda s, a: 7, lambda s, a: False)
    with pytest.raises(ContractError):
        eval_term(bad, parse_term("a"))


# ---------------------------------------------------------------------------
# The lazily evaluated family


def test_m_alpha_successor_rules():
    a4 = AlphaAssignment({zero_symbol(1): J(0, 4)})
    assert eval_term(m_alpha(a4), parse_term("s(z_1)")) == J(0, 5)
    a11 = AlphaAssignment({zero_symbol(1): J(1, 1)})
    assert eval_term(m_alpha(a11), parse_term("s(z_1)")) == J(1, 1)
    a40 = AlphaAssignment({zero_symbol(1): J(4, 0)})
    assert eval_term(m_alpha(a40), parse_term("s(z_1)")) == 0


def test_m_alpha_pair_rules():
    a = AlphaAssignment({zero_symbol(1): J(1, 1)})
    assert eval_term(m_alpha(a), parse_term("pair(z_1, z_1)")) == J(5, 1)
    b = AlphaAssignment({zero_symbol(1): J(0, 2), zero_symbol(2): J(0, 3)})
    assert eval_term(m_alpha(b), parse_term("pair(z_1, z_2)")) == J(0, J(2, 3))
    mixed = AlphaAssignment({zero_symbol(1): J(1, 1), zero_symbol(2): J(1, 2)})
    assert eval_term(m_alpha(mixed), parse_term("pair(z_1, z_2)")) == 0
    assert eval_term(m_alpha(AlphaAssignment({})), parse_term("g(z_1)")) == 0


def test_alpha_assignment_validates_keys():
    with pytest.raises(ContractError):
        AlphaAssignment({FunctionSymbol("a", 0): 1})


def test_substitution_lemma_in_structures():
    # terms denoting the same element are interchangeable in any context
    rng = random.Random(99)
    structures = [two_point_structure(), table_structure(),
                  m_alpha(AlphaAssignment({zero_symbol(): J(0, 1)}))]
    pool_terms = [parse_term(t) for t in
                  ("z", "s(z)", "zt", "s(zt)", "zh", "pair(z, z)", "f(z)")]
    for M in structures:
        for a in pool_terms:
            for b in pool_terms:
                if eval_term(M, a) != eval_term(M, b):
                    continue
                for _ in range(10):
                    pool = [a, parse_term("z"), parse_term("s(zt)")]
                    phi_a = random_ground_formula(rng, pool, 3, [])

                    # rebuild the same shape around b by literal replacement
                    def swap(f, old, new):
                        from hsk.syntax import And, Implies, Not, Or
                        if isinstance(f, Equality):
                            return Equality(new if f.lhs == old else f.lhs,
                                            new if f.rhs == old else f.rhs)
                        if isinstance(f, Not):
                            return Not(swap(f.body, old, new))
                        if isinstance(f, (And, Or, Implies)):
                            return type(f)(swap(f.lhs, old, new), swap(f.rhs, old, new))
                        return f
                    phi_b = swap(phi_a, a, b)
                    assert holds(M, phi_a) == holds(M, phi_b)


# ---------------------------------------------------------------------------
# construct_alpha case tables


def test_construct_alpha_first_case():
    alpha = construct_alpha([(1, Diagnosis(FailureCase.NUM_OR_TAB))])
    assert alpha.value(special_constant(SpecialBase.ZERO, 1)) == J(1, 1)
    assert alpha.value(special_constant(SpecialBase.K, 1)) == J(4, 1)
    assert alpha.value(special_constant(SpecialBase.ZERO_HAT, 1)) == 0
    assert alpha.value(special_constant(SpecialBase.ZERO_TILDE, 1)) == 0
    assert alpha.value(special_constant(SpecialBase.K_TILDE, 1)) == 0
    # untouched languages default to 0
    assert alpha.value(special_constant(SpecialBase.ZERO, 9)) == 0


def test_construct_alpha_similarity_case():
    alpha = construct_alpha([(2, Diagnosis(FailureCase.SIM_OR_SIM_TILDE))])
    for base in SpecialBase:
        assert alpha.value(special_constant(base, 2)) == J(0, 0)


def test_construct_alpha_additive_case():
    alpha = construct_alpha([(1, Diagnosis(FailureCase.PLUS_OR_TIM, m=3))])
    assert alpha.value(special_constant(SpecialBase.ZERO, 1)) == J(0, 0)
    assert alpha.value(special_constant(SpecialBase.K, 1)) == J(0, 0)
    assert alpha.value(special_constant(SpecialBase.ZERO_HAT, 1)) == J(0, 1)
    assert alpha.value(special_constant(SpecialBase.ZERO_TILDE, 1)) == J(0, 3)
    assert alpha.value(special_constant(SpecialBase.K_TILDE, 1)) == J(0, J(J(0, 0), 0))


def test_construct_alpha_rejects_duplicates_and_bad_m():
    with pytest.raises(ContractError):
        construct_alpha([(1, Diagnosis(FailureCase.NUM_OR_TAB)),
                         (1, Diagnosis(FailureCase.SIM_OR_SIM_TILDE))])
    with pytest.raises(ContractError):
        Diagnosis(FailureCase.PLUS_OR_TIM)


# ---------------------------------------------------------------------------
# Per-conjunct equivalences: validity matches truth in the tailored model


def _num_alpha(i):
    return AlphaAssignment({zero_symbol(i): J(1, i)})


def test_num_equivalence_in_tailored_model():
    M = m_alpha(_num_alpha(1))
    candidates = [numeral(m, zero(1)) for m in range(5)]
    candidates += [parse_term("f(z_1)"), parse_term("s(f(z_1))"),
                   parse_term("pair(z_1, z_1)"), parse_term("k_1"),
                   parse_term("s(s(kt_1))")]
    for t in candidates:
        f = num(t, lang=1)
        assert is_quasitautology(f) == holds(M, f)


def test_num_tilde_equivalence_in_tailored_model():
    M = m_alpha(AlphaAssignment({zero_tilde(1).symbol: J(3, 1)}))
    candidates = [numeral(m, zero_tilde(1)) for m in range(5)]
    candidates += [parse_term("z_1"), parse_term("s(k_1)"), parse_term("pair(zt_1, zt_1)")]
    for t in candidates:
        f = num_tilde(t, lang=1)
        assert is_quasitautology(f) == holds(M, f)


def test_sim_equivalence_in_tailored_model():
    alpha = AlphaAssignment({zero_symbol(1): J(0, 0), zero_tilde(1).symbol: J(0, 0)})
    M = m_alpha(alpha)
    for m in range(5):
        for p in range(5):
            f = sim(numeral(m, zero(1)), numeral(p, zero_tilde(1)), lang=1)
            assert is_quasitautology(f) == holds(M, f) == (m == p)


def test_plus_equivalence_in_tailored_model():
    for m in range(4):
        alpha = AlphaAssignment({zero_symbol(1): J(0, 0),
                                 zero_tilde(1).symbol: J(0, m)})
        M = m_alpha(alpha)
        for p in range(4):
            for q in range(5):
                f = plus(numeral(m, zero(1)), numeral(p, zero_tilde(1)),
                         numeral(q, zero(1)), lang=1)
                assert is_quasitautology(f) == holds(M, f) == (q == m + p)


def _tab_alpha(i):
    return AlphaAssignment({zero_symbol(i): J(1, i),
                            special_constant(SpecialBase.K, i): J(4, i)})


def test_tab_equivalence_in_tailored_model():
    M = m_alpha(_tab_alpha(1))
    good = [mp_semitable(m, p).instantiate(zero(1), zero(1), k_plain(1))
            for m in range(3) for p in range(3)]
    bad = [parse_term("z_1"), parse_term("pair(z_1, k_1)"),
           parse_term("pair(pair(z_1, z_1), z_1)"),
           parse_term("pair(k_1, pair(z_1, z_1))")]
    for t in good + bad:
        f = tab(t, lang=1)
        assert is_quasitautology(f) == holds(M, f)
    for t in good:
        assert holds(M, tab(t, lang=1))


def test_tab_tilde_equivalence_in_tailored_model():
    alpha = AlphaAssignment({zero_hat(1).symbol: J(2, 1),
                             zero_tilde(1).symbol: J(3, 1),
                             k_tilde(1).symbol: J(4, 1)})
    M = m_alpha(alpha)
    good = [mp_semitable(m, p).instantiate(zero_hat(1), zero_tilde(1), k_tilde(1))
            for m in range(3) for p in range(3)]
    bad = [parse_term("kt"), parse_term("pair(pair(zh_1, zt_1), k_1)"),
           parse_term("pair(pair(zt_1, zh_1), kt_1)")]
    for t in good + bad:
        f = tab_tilde(t, lang=1)
        assert is_quasitautology(f) == holds(M, f)


def test_sim_tilde_equivalence_in_tailored_model():
    alpha = construct_alpha([(1, Diagnosis(FailureCase.SIM_OR_SIM_TILDE))])
    M = m_alpha(alpha)
    from hsk.arith import Semitable
    tables = [Semitable(rows) for rows in
              [(), ((0, 0),), ((1, 2),), ((1, 2), (0, 0)), ((2, 1), (1, 1))]]
    for ta in tables:
        for tb in tables:
            f = sim_tilde(ta.instantiate(zero(1), zero(1), k_plain(1)),
                          tb.instantiate(zero_hat(1), zero_tilde(1), k_tilde(1)),
                          lang=1)
            assert is_quasitautology(f) == holds(M, f) == (ta == tb)


def test_tim_equivalence_in_tailored_model():
    for m in range(3):
        for p in range(3):
            table = mp_semitable(m, p)
            for q in range(5):
                alpha = AlphaAssignment({
                    zero_symbol(1): J(0, 0),
                    special_constant(SpecialBase.K, 1): J(0, 0),
                    zero_hat(1).symbol: J(0, 1),
                    zero_tilde(1).symbol: J(0, m),
                    k_tilde(1).symbol: J(0, J(J(0, 0), 0)),
                })
                M = m_alpha(alpha)
                f = tim(numeral(m, zero(1)), numeral(p, zero(1)),
                        numeral(q, zero(1)),
                        table.instantiate(zero(1), zero(1), k_plain(1)),
                        table.instantiate(zero_hat(1), zero_tilde(1), k_tilde(1)),
                        lang=1)
                assert is_quasitautology(f) == holds(M, f) == (q == m * p)
