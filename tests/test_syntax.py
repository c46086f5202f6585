import dataclasses
import gc
import random
import re

import pytest

from helpers import signature_of, unknowns_of
from hsk import syntax
from hsk.syntax import (
    And,
    Application,
    ContractError,
    Equality,
    Exists,
    Forall,
    FunctionSymbol,
    Implies,
    Not,
    Or,
    PredApp,
    PredicateSymbol,
    SpecialBase,
    SpecialTag,
    Unknown,
    Variable,
    VarKind,
    canonical_key,
    conj,
    disj,
    flatten_and,
    flatten_or,
    numeral,
    numeral_of,
    special_constant,
    substitute,
    subterms,
    succ,
    term_size,
)

A = Application(FunctionSymbol("a", 0), ())
B = Application(FunctionSymbol("b", 0), ())
P = PredicateSymbol("p", 1)
Z = special_constant(SpecialBase.ZERO)
ZERO = Application(Z, ())


def p(t):
    return PredApp(P, (t,))


def test_symbol_equality_includes_special_tag():
    assert special_constant(SpecialBase.ZERO, 1) == special_constant(SpecialBase.ZERO, 1)
    assert special_constant(SpecialBase.ZERO, 1) != special_constant(SpecialBase.ZERO, 2)
    assert special_constant(SpecialBase.ZERO) != FunctionSymbol("z", 0)


def test_arity_checked():
    with pytest.raises(ContractError):
        Application(FunctionSymbol("f", 2), (A,))


def test_variable_kinds_follow_name():
    assert Variable("x3").kind is VarKind.NUMERIC
    assert Variable("w1").kind is VarKind.TABLE
    assert Variable("v").kind is VarKind.PLAIN


def test_substitute_single_slot():
    f = p(Unknown(1))
    sigma = {Unknown(1): Application(FunctionSymbol("c", 0), ())}
    assert substitute(f, sigma) == p(Application(FunctionSymbol("c", 0), ()))


def test_substitute_matrix_instance():
    f = Implies(Or(p(A), p(B)), p(Unknown(1)))
    assert substitute(f, {Unknown(1): A}) == Implies(Or(p(A), p(B)), p(A))


def test_substitution_is_simultaneous():
    f = Equality(Unknown(1), Unknown(2))
    sigma = {Unknown(1): Unknown(2), Unknown(2): A}
    once = substitute(f, sigma)
    assert once == Equality(Unknown(2), A)
    # applying again rewrites further: substitution is not idempotent
    assert substitute(once, sigma) == Equality(A, A)


def test_substitute_rejects_quantified_input():
    x, y = Variable("x1"), Variable("y")
    for quantified in (Exists(x, Equality(x, y)), Forall(x, p(Unknown(1)))):
        for bindings in ({x: A}, {y: A}, {y: x}, {Unknown(1): A}, {}):
            with pytest.raises(ContractError, match="quantifier-free"):
                substitute(quantified, bindings)
            with pytest.raises(ContractError, match="quantifier-free"):
                substitute(And(p(Unknown(1)), quantified), bindings)


class _CountingTable(dict):
    """An intern table that records the key of every lookup."""

    def __init__(self, entries):
        super().__init__(entries)
        self.lookups = []

    def get(self, key, default=None):
        self.lookups.append(key)
        return super().get(key, default)


def test_substitution_rebuilds_only_what_changes(monkeypatch):
    deep = numeral(50, ZERO)
    atom, f = p(deep), Equality(deep, Unknown(1))
    sigma = {Unknown(1): A}
    table = _CountingTable(syntax._NODES)  # the same entries
    monkeypatch.setattr(syntax, "_NODES", table)
    assert substitute(deep, sigma) is deep
    assert substitute(atom, sigma) is atom
    assert table.lookups == []
    out = substitute(f, sigma)
    assert len(table.lookups) == 1  # the equality; its left side is kept as it is
    monkeypatch.undo()
    syntax._NODES.update(table)  # the node built meanwhile is shared again
    assert out is Equality(deep, A)


def test_size_counts_function_symbols():
    assert term_size(A) == 1
    assert term_size(succ(A)) == 2
    assert term_size(Unknown(1)) == 0
    assert term_size(Variable("x1")) == 0
    # the unique additive witness has the same size as the numeral it mirrors
    zt = Application(special_constant(SpecialBase.ZERO_TILDE), ())
    assert term_size(numeral(3, zt)) == term_size(numeral(3, ZERO))


def test_size_additive_under_substitution():
    rng = random.Random(7)
    from helpers import random_ground_term

    for _ in range(100):
        replacement = random_ground_term(rng, 4)
        g2 = FunctionSymbol("g", 2)
        t = Application(g2, (Unknown(1), Application(F := FunctionSymbol("f", 1), (Unknown(1),))))
        out = substitute(t, {Unknown(1): replacement})
        assert term_size(out) == term_size(t) + 2 * term_size(replacement)


@pytest.mark.parametrize("m", [0, 1, 2, 17, 64])
@pytest.mark.parametrize("base", [
    ZERO, A, Application(special_constant(SpecialBase.K_TILDE, 2), ()),
    succ(ZERO), Variable("x1"),
])
def test_numeral_roundtrip(m, base):
    assert numeral_of(numeral(m, base), base) == m


def test_numeral_of_rejects_other_shapes():
    assert numeral_of(numeral(2, ZERO), A) is None
    zt = Application(special_constant(SpecialBase.ZERO_TILDE), ())
    assert numeral_of(zt, ZERO) is None
    f = FunctionSymbol("f", 1)
    assert numeral_of(succ(Application(f, (numeral(0, ZERO),))), ZERO) is None
    # the peeling stops at the base, so a numeral over s(z) is not one over s(s(z))
    assert numeral_of(numeral(3, ZERO), succ(ZERO)) == 2
    assert numeral_of(succ(ZERO), succ(succ(ZERO))) is None
    # the successor is matched by symbol, not by its name alone
    assert numeral_of(Application(FunctionSymbol("s", 2), (ZERO, ZERO)), ZERO) is None


def test_signature_of():
    sig = signature_of(p(A))
    assert sig.function_symbols == frozenset({FunctionSymbol("a", 0)})
    assert sig.predicate_symbols == frozenset({P})

    num_shape = Implies(Equality(numeral(0, ZERO), numeral(1, ZERO)),
                        Equality(numeral(0, ZERO), Variable("x1")))
    sig = signature_of(num_shape)
    assert sig.function_symbols == frozenset({Z, FunctionSymbol("s", 1)})
    assert sig.predicate_symbols == frozenset()

    x = Variable("x1")
    assert signature_of(Equality(x, x)).function_symbols == frozenset()


def test_subterms_outside_in_left_to_right():
    f, g = FunctionSymbol("f", 1), FunctionSymbol("g", 2)
    t = Application(g, (Application(f, (A,)), B))
    assert list(subterms(t)) == [t, Application(f, (A,)), A, B]


def test_subterms_of_a_deep_term_do_not_recurse():
    subs = list(subterms(numeral(5000, ZERO)))
    assert len(subs) == 5001 and subs[-1] is ZERO
    assert all(inner is outer.args[0] for outer, inner in zip(subs, subs[1:]))


def test_nodes_are_distinct_and_in_preorder():
    f, g = FunctionSymbol("f", 1), FunctionSymbol("g", 2)
    fa = Application(f, (A,))
    t = Application(g, (fa, fa))
    assert list(syntax.nodes(t)) == [t, fa, A]
    atom = Equality(t, Unknown(1))
    f = And(atom, Not(atom))
    assert list(syntax.nodes(f)) == [f, atom, t, fa, A, Unknown(1), Not(atom)]
    assert list(syntax.nodes(f, (And, Not))) == [f, atom, Not(atom)]


def test_walks_are_linear_on_shared_subterms():
    g = FunctionSymbol("g", 2)
    t, u = A, Unknown(1)
    for _ in range(200):  # 201 distinct nodes, 2^201 - 1 as a tree
        t, u = Application(g, (t, t)), Application(g, (u, u))
    assert len(list(syntax.nodes(t))) == 201
    assert unknowns_of(u) == [Unknown(1)]
    assert substitute(u, {Unknown(1): A}) is t
    assert syntax.rebuild(u, combine=lambda n, kids: 1 + max(kids, default=0)) == 201


def test_rebuild_returns_untouched_nodes_as_they_are():
    f = And(p(A), Implies(p(Unknown(1)), p(B)))
    assert syntax.rebuild(f) is f
    out = syntax.rebuild(f, lambda n: B if n is Unknown(1) else None)
    assert out == And(p(A), Implies(p(B), p(B)))
    assert out.lhs is f.lhs and out.rhs.rhs is f.rhs.rhs


def test_ground_flags():
    assert A.ground and succ(A).ground and p(A).ground and Not(p(A)).ground
    assert not Unknown(1).ground and not Variable("x1").ground
    assert not succ(Unknown(1)).ground and not And(p(A), p(Unknown(1))).ground
    assert not Exists(Variable("x1"), p(A)).ground


def test_unknowns_of_orders_by_first_occurrence():
    f = And(p(Unknown(2)), Equality(Unknown(1), Unknown(2)))
    assert unknowns_of(f) == [Unknown(2), Unknown(1)]


def test_canonical_order_size_then_name():
    f1 = FunctionSymbol("f", 1)
    terms = [Application(f1, (A,)), B, A, succ(A)]
    terms.sort(key=canonical_key)
    assert terms == [A, B, Application(f1, (A,)), succ(A)]


def _random_key_term(rng: random.Random, depth: int):
    """A term over a small vocabulary, so that sizes, names and arities
    often tie and the order is decided deep in the arguments."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        pick = rng.random()
        if pick < 0.5:
            return Application(FunctionSymbol(rng.choice("ab"), 0), ())
        if pick < 0.75:
            return Variable(rng.choice(["x1", "w2", "v"]))
        return Unknown(rng.choice([0, 1, 2, "u", "v"]))
    symbol = rng.choice([FunctionSymbol("f", 1), FunctionSymbol("f", 2), FunctionSymbol("g", 2),
                         FunctionSymbol("s", 1)])
    return Application(symbol, tuple(_random_key_term(rng, depth - 1)
                                     for _ in range(symbol.arity)))


def test_flat_canonical_key_orders_as_the_nested_key():
    from reference_syntax import canonical_key as nested_key

    rng = random.Random(20261018)
    for _ in range(400):
        pool = [_random_key_term(rng, rng.randrange(5)) for _ in range(30)]
        keys = [(t, canonical_key(t), nested_key(t)) for t in pool]
        for a, flat_a, nest_a in keys:
            for b, flat_b, nest_b in keys:
                assert (flat_a < flat_b) == (nest_a < nest_b)
                assert (flat_a == flat_b) == (nest_a == nest_b) == (a is b)
        assert sorted(pool, key=canonical_key) == sorted(pool, key=nested_key)


def test_canonical_key_of_a_deep_term():
    deep = numeral(5000, ZERO)
    key = canonical_key(deep)
    assert len(key) == 4 * 5001 and key[:4] == (5001, 2, "s", 1)
    assert canonical_key(succ(deep)) > key > canonical_key(numeral(4999, ZERO))


def test_solution_eligibility():
    assert succ(A).ground
    assert not Unknown(1).ground
    assert not Application(FunctionSymbol("f", 1), (Variable("x1"),)).ground


# ---------------------------------------------------------------------------
# Hash-consing


def test_equal_structures_are_one_object():
    f, x = FunctionSymbol("f", 2), Variable("x1")

    def build():
        t = Application(f, (A, Application(FunctionSymbol("g", 1), (Unknown(1),))))
        atom = Equality(t, x)
        return [
            t, x, Unknown(1), atom, p(t),
            Not(atom), And(atom, p(A)), Or(atom, p(A)), Implies(atom, p(A)),
            Exists(x, atom), Forall(x, atom),
        ]

    for first, second in zip(build(), build()):
        assert first is second
    assert And(p(A), p(B)) is not Or(p(A), p(B))
    assert Exists(x, p(x)) is not Forall(x, p(x))


def test_deep_terms_compare_and_hash_without_recursion():
    deep = numeral(5000, ZERO)
    assert deep == numeral(5000, ZERO)
    assert term_size(deep) == 5001
    assert deep in {deep}
    assert {deep: 1}[numeral(5000, ZERO)] == 1


def test_dropped_nodes_leave_the_table():
    def build_and_drop():
        f = FunctionSymbol("hash_consing_probe", 1)
        t = numeral(50, Application(FunctionSymbol("hash_consing_probe", 0), ()))
        assert Equality(Application(f, (t,)), t) is Equality(Application(f, (t,)), t)

    gc.collect()
    before = len(syntax._NODES)
    build_and_drop()
    gc.collect()
    assert len(syntax._NODES) == before


def test_a_stale_reference_never_removes_a_live_entry():
    f = FunctionSymbol("stale_probe", 0)
    key = (Application, f, ())
    t = Application(f, ())
    stale = syntax._NODES[key]
    callback = stale.__callback__  # a dead reference no longer holds it
    del t
    gc.collect()
    assert key not in syntax._NODES  # its callback dropped the entry
    syntax._NODES[key] = stale  # as if that callback had not run yet
    t = Application(f, ())  # a dead entry is built anew, under a reference of its own
    fresh = syntax._NODES[key]
    assert fresh is not stale and fresh() is t
    callback(stale)  # the old callback, run late
    assert syntax._NODES[key] is fresh
    assert Application(f, ()) is t


def test_nodes_are_immutable():
    t = succ(A)
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.args = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        Equality(A, B).lhs = B


def test_rejected_node_is_never_entered():
    g = FunctionSymbol("arity_probe", 2)
    gc.collect()
    before = len(syntax._NODES)
    for _ in range(2):
        with pytest.raises(ContractError):
            Application(g, (A,))
    with pytest.raises(ContractError):
        Variable("")
    assert len(syntax._NODES) == before


@pytest.mark.parametrize("join,flatten", [(conj, flatten_and), (disj, flatten_or)])
def test_flattening_is_iterative_and_ordered(join, flatten):
    parts = [p(Unknown(i)) for i in range(5000)]
    assert flatten(join(parts)) == parts
    assert flatten(parts[0]) == [parts[0]]


# ---------------------------------------------------------------------------
# Interned symbols


def test_equal_symbols_are_one_object():
    from hsk.textform import parse_formula, special_of_name

    assert FunctionSymbol("f", 2) is FunctionSymbol("f", 2)
    assert FunctionSymbol("a", 0) is FunctionSymbol("a", 0, None)
    assert PredicateSymbol("p", 1) is P
    assert SpecialTag(SpecialBase.ZERO, 1) is SpecialTag(SpecialBase.ZERO, 1)
    z1 = special_constant(SpecialBase.ZERO, 1)
    assert z1 is special_constant(SpecialBase.ZERO, 1) is special_of_name("z_1")
    assert z1 is FunctionSymbol("z_1", 0, SpecialTag(SpecialBase.ZERO, 1))
    assert special_of_name("z") is Z
    first, second = (parse_formula("f(a, z_1) = g(a) -> p(a)") for _ in range(2))
    assert first is second
    for one, other in [(first.lhs.lhs, second.lhs.lhs), (first.rhs, second.rhs)]:
        assert one.symbol is other.symbol
    assert first.lhs.lhs.args[1].symbol is z1
    assert first.rhs.symbol is PredicateSymbol("p", 1)


@pytest.mark.parametrize("cls", [FunctionSymbol, PredicateSymbol, SpecialTag])
def test_symbols_compare_and_hash_by_identity(cls):
    assert cls.__hash__ is object.__hash__
    assert cls.__eq__ is object.__eq__


def test_rejected_symbol_is_never_entered():
    tag = SpecialTag(SpecialBase.K, 3)
    gc.collect()
    before = len(syntax._NODES)
    for build, message in [
        (lambda: FunctionSymbol("neg_probe", -1), "negative arity for neg_probe"),
        (lambda: FunctionSymbol("k_3", 1, tag), "special constants must be nullary"),
        (lambda: PredicateSymbol("neg_probe", -2), "negative arity for neg_probe"),
        (lambda: SpecialTag(SpecialBase.K, -1), "language index must be >= 0"),
    ]:
        for _ in range(2):  # a second try finds no shared half-built symbol
            with pytest.raises(ContractError, match=re.escape(message)):
                build()
        assert len(syntax._NODES) == before


def test_dropped_symbols_leave_the_table():
    keys = [(FunctionSymbol, "drop_probe", 3, None), (PredicateSymbol, "drop_probe", 1),
            (SpecialTag, SpecialBase.ZERO_HAT, 987)]

    def build_and_drop():
        symbols = [FunctionSymbol("drop_probe", 3), PredicateSymbol("drop_probe", 1),
                   special_constant(SpecialBase.ZERO_HAT, 987)]
        assert all(key in syntax._NODES for key in keys)
        assert (FunctionSymbol, "zh_987", 0, symbols[2].special) in syntax._NODES

    gc.collect()
    before = len(syntax._NODES)
    build_and_drop()
    gc.collect()
    assert len(syntax._NODES) == before
    assert not any(key in syntax._NODES for key in keys)


# ---------------------------------------------------------------------------
# The one-pass Application constructor, against plain recursive definitions


_LEAVES = [Variable("x1"), Variable("v"), Unknown(1), Unknown("u")]


def _random_mixed_term(rng: random.Random, depth: int):
    """A term whose leaves are constants, variables and unknowns at random
    depths; a fresh constant name now and then makes the nodes above it new."""
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        pick = rng.random()
        if pick < 0.4:
            return rng.choice(_LEAVES)
        name = f"fresh{rng.randrange(10**9)}" if pick < 0.5 else rng.choice("abc")
        return Application(FunctionSymbol(name, 0), ())
    symbol = FunctionSymbol(rng.choice("fgh"), rng.randrange(1, 4))
    return Application(symbol, tuple(_random_mixed_term(rng, rng.randrange(depth))
                                     for _ in range(symbol.arity)))


def _recursive_size(t) -> int:
    if isinstance(t, Application):
        return 1 + sum(_recursive_size(a) for a in t.args)
    return 0


def test_application_size_and_ground_match_plain_definitions():
    rng = random.Random(20261020)
    seen_ground = seen_open = 0
    for _ in range(3000):
        t = _random_mixed_term(rng, rng.randrange(1, 8))
        if not isinstance(t, Application):
            continue
        assert t.size == term_size(t) == _recursive_size(t)
        open_ = any(isinstance(n, (Variable, Unknown)) for n in syntax.nodes(t))
        assert t.ground is not open_
        seen_ground += not open_
        seen_open += open_
    assert seen_ground > 200 and seen_open > 200


def test_application_arity_mismatch_enters_nothing():
    f = FunctionSymbol("mismatch_probe", 2)
    cases = [((), "got 0"), ((A,), "got 1"), ((A, Unknown(1), B), "got 3")]
    gc.collect()
    before = len(syntax._NODES)
    for args, got in cases:
        with pytest.raises(ContractError, match=f"^mismatch_probe expects 2 args, {got}$"):
            Application(f, args)
    assert len(syntax._NODES) == before
