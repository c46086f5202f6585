"""Randomised end-to-end property for the simultaneous-falsification pipeline.

For random encoding variants instantiated with random ground terms, whenever
every instance fails validity, the diagnosed assignment must falsify all of
them in one structure, and their disjunction must fail validity too; and
whenever some instance is valid, the disjunction must be valid.
"""

import random

from hsk.arith import (
    Semitable,
    associate,
    classify_failures,
    instantiate,
    k_plain,
    k_tilde,
    make_variant,
    parse_diophantine,
    zero,
    zero_hat,
    zero_tilde,
)
from hsk.models import construct_alpha, holds, m_alpha
from hsk.qcheck import is_quasitautology
from hsk.syntax import (
    Application,
    FunctionSymbol,
    Or,
    VarKind,
    Variable,
    numeral,
    pair,
    succ,
)

# system text plus one satisfying numeric assignment where one exists
SYSTEMS = [
    ("x1 + 1 = 0", None),
    ("x1 + 2 = 3", {"x1": 1}),
    ("x1 + x2 = 2", {"x1": 0, "x2": 2}),
    ("x1 * x1 = 2", None),
    ("x1 * 2 = 2", {"x1": 1}),
    ("x1 + 1 = 2\nx1 * x1 = 1", {"x1": 1}),
]

JUNK = FunctionSymbol("f", 1)


def _solution_values(phi, numeric_solution, lang):
    """The known witness: mirrored numerals for additive slots, the matching
    course-of-values table pair for multiplicative slots."""
    from hsk.arith import PrimKind, mp_semitable
    from hsk.syntax import numeral_of

    def exponent(term):
        if isinstance(term, Variable):
            return numeric_solution[term.name.split("@")[0]]
        value = numeral_of(term, zero(lang))
        assert value is not None
        return value

    values = {}
    for v in phi.numeric_vars():
        values[v] = numeral(numeric_solution[v.name.split("@")[0]], zero(lang))
    for p in phi.primitives():
        if p.kind is PrimKind.SIM:  # Sim(b, w) of an additive block
            b, w = p.args
            values[w] = numeral(exponent(b), zero_tilde(lang))
        elif p.kind is PrimKind.TIM:  # Tim(a, b, c, w1, w2) of a multiplicative block
            a, b, _, w1, w2 = p.args
            table = mp_semitable(exponent(a), exponent(b))
            values[w1] = table.instantiate(zero(lang), zero(lang), k_plain(lang))
            values[w2] = table.instantiate(zero_hat(lang), zero_tilde(lang),
                                           k_tilde(lang))
    return values


def _random_ground(rng: random.Random, lang: int, depth: int):
    roll = rng.random()
    leafs = [zero(lang), zero_hat(lang), zero_tilde(lang), k_plain(lang),
             k_tilde(lang)]
    if depth <= 0 or roll < 0.4:
        return rng.choice(leafs)
    if roll < 0.6:
        return succ(_random_ground(rng, lang, depth - 1))
    if roll < 0.8:
        return pair(_random_ground(rng, lang, depth - 1),
                    _random_ground(rng, lang, depth - 1))
    return Application(JUNK, (_random_ground(rng, lang, depth - 1),))


def _random_value(rng: random.Random, lang: int, kind: VarKind):
    roll = rng.random()
    if kind is VarKind.NUMERIC:
        if roll < 0.6:
            return numeral(rng.randint(0, 3), zero(lang))
        return _random_ground(rng, lang, 2)
    # table slot: tables, mirrored numerals, or junk
    if roll < 0.35:
        rows = tuple((rng.randint(0, 2), rng.randint(0, 2))
                     for _ in range(rng.randint(0, 2)))
        if rng.random() < 0.5:
            return Semitable(rows).instantiate(zero(lang), zero(lang), k_plain(lang))
        return Semitable(rows).instantiate(zero_hat(lang), zero_tilde(lang),
                                           k_tilde(lang))
    if roll < 0.7:
        return numeral(rng.randint(0, 3), zero_tilde(lang))
    return _random_ground(rng, lang, 2)


def test_random_variant_families_falsified_or_accepted():
    rng = random.Random(777001)
    negative = positive = 0
    for _ in range(120):
        text, numeric_solution = rng.choice(SYSTEMS)
        phi = associate(parse_diophantine(text))
        n = rng.randint(1, 3)
        solved_slot = (rng.randrange(1, n + 1)
                       if numeric_solution is not None and rng.random() < 0.3
                       else None)
        instances = []
        for i in range(1, n + 1):
            variant = make_variant(phi, i)
            if i == solved_slot:
                values = _solution_values(variant, numeric_solution, i)
            else:
                values = {
                    v: _random_value(rng, i, v.kind)
                    for v in (*variant.numeric_vars(), *variant.table_vars())
                }
            instances.append(instantiate(variant, values))
        verdicts = [is_quasitautology(inst.formula()) for inst in instances]
        disjunction = instances[0].formula()
        for inst in instances[1:]:
            disjunction = Or(disjunction, inst.formula())
        if any(verdicts):
            assert is_quasitautology(disjunction)
            positive += 1
            continue
        negative += 1
        failures = [(inst.language_index, classify_failures(inst))
                    for inst in instances]
        structure = m_alpha(construct_alpha(failures))
        for inst in instances:
            assert not holds(structure, inst.formula()), inst.formula()
        assert not is_quasitautology(disjunction)
    # the generator must actually exercise both branches
    assert negative >= 60
    assert positive >= 5
