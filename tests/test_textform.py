import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
import reference_textform

from hsk.syntax import (
    And,
    Application,
    Equality,
    Exists,
    Forall,
    Formula,
    FunctionSymbol,
    Implies,
    Not,
    Or,
    PredApp,
    PredicateSymbol,
    SpecialBase,
    Unknown,
    Variable,
    special_constant,
)
from hsk import textform
from hsk.textform import ParseError, parse_formula, parse_term, print_formula, print_term

P1 = PredicateSymbol("p", 1)
A = Application(FunctionSymbol("a", 0), ())
B = Application(FunctionSymbol("b", 0), ())


def test_parse_precedence_and_unknowns():
    f = parse_formula("p(a) | p(b) -> p(*1)")
    assert f == Implies(Or(PredApp(P1, (A,)), PredApp(P1, (B,))), PredApp(P1, (Unknown(1),)))


def test_parse_numeral_shape():
    f = parse_formula("z = s(z) -> z = ?x")
    z = Application(special_constant(SpecialBase.ZERO), ())
    s = FunctionSymbol("s", 1)
    assert f == Implies(Equality(z, Application(s, (z,))), Equality(z, Variable("x")))


def test_precedence_chain():
    f = parse_formula("!p | q & r -> t -> u")
    inner = Or(Not(PredApp(PredicateSymbol("p", 0), ())),
               And(PredApp(PredicateSymbol("q", 0), ()), PredApp(PredicateSymbol("r", 0), ())))
    expected = Implies(inner, Implies(PredApp(PredicateSymbol("t", 0), ()),
                                      PredApp(PredicateSymbol("u", 0), ())))
    assert f == expected


def test_quantifier_body_extends_right():
    f = parse_formula("exists ?x. p(?x) -> q")
    assert isinstance(f, Exists)
    assert isinstance(f.body, Implies)


def test_special_constants_and_indices():
    t = parse_term("pair(zh_2, kt_2)")
    assert isinstance(t, Application)
    assert t.args[0].symbol == special_constant(SpecialBase.ZERO_HAT, 2)
    assert t.args[1].symbol == special_constant(SpecialBase.K_TILDE, 2)


def test_reserved_arities_enforced():
    with pytest.raises(ParseError):
        parse_formula("s(a, b) = c")
    with pytest.raises(ParseError):
        parse_formula("pair(a) = c")
    with pytest.raises(ParseError):
        parse_formula("z(a) = c")
    with pytest.raises(ParseError):
        parse_formula("z_0 = z")


def test_arity_mismatch_reported_with_position():
    with pytest.raises(ParseError) as err:
        parse_formula("p(a) & p(a, b)")
    assert "arity mismatch" in str(err.value)
    assert err.value.line == 1


def test_function_predicate_namespaces_disjoint():
    with pytest.raises(ParseError):
        parse_formula("p(a) & p(a) = b")


def test_syntax_error_has_line_and_column():
    with pytest.raises(ParseError) as err:
        parse_formula("p(a) &\n& p(b)")
    assert err.value.line == 2
    assert err.value.column == 1


def test_named_unknowns_round_trip():
    f = parse_formula("*x = a")
    assert f == Equality(Unknown("x"), A)
    assert print_formula(f) == "*x = a"


def test_print_drops_redundant_parens_only():
    text = "p(a) & (p(b) | p(c)) -> p(a)"
    assert print_formula(parse_formula(text)) == text


# ---------------------------------------------------------------------------
# Round-trip property


def _random_term(rng: random.Random, depth: int):
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        pick = rng.random()
        if pick < 0.4:
            return Application(FunctionSymbol(rng.choice("abc"), 0), ())
        if pick < 0.7:
            return Variable(rng.choice(["x1", "w2", "v", "x1@2"]))
        return Unknown(rng.choice([0, 1, 2, "u"]))
    if roll < 0.6:
        return Application(FunctionSymbol("f", 1), (_random_term(rng, depth - 1),))
    return Application(FunctionSymbol("g", 2),
                       (_random_term(rng, depth - 1), _random_term(rng, depth - 1)))


def _random_formula(rng: random.Random, depth: int) -> Formula:
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        if rng.random() < 0.5:
            return Equality(_random_term(rng, 2), _random_term(rng, 2))
        return PredApp(P1, (_random_term(rng, 2),))
    if roll < 0.4:
        return Not(_random_formula(rng, depth - 1))
    if roll < 0.55:
        return And(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))
    if roll < 0.7:
        return Or(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))
    if roll < 0.9:
        return Implies(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))
    var = Variable(rng.choice(["x1", "v"]))
    ctor = Exists if rng.random() < 0.5 else Forall
    return ctor(var, _random_formula(rng, depth - 1))


def test_round_trip_on_random_formulas():
    rng = random.Random(20240811)
    for _ in range(1000):
        f = _random_formula(rng, 6)
        assert parse_formula(print_formula(f)) == f


# ---------------------------------------------------------------------------
# Error positions: (parser, input, message, line, column), one row per way a
# parse can fail, including a name met again with another arity or role.

PARSE_ERRORS = [
    ('formula', 'p(a) & $', "unexpected character '$'", 1, 8),
    ('formula', 'p(a', "expected ')', found 'end of input'", 1, 4),
    ('formula', 'p(a &\n', "expected ')', found '&'", 1, 5),
    ('formula', 'p(a) &\n& p(b)', "expected an atom, found '&'", 2, 1),
    ('formula', '?x', "expected '=', found 'end of input'", 1, 3),
    ('formula', '* = a', "expected an index or name after '*'", 1, 3),
    ('formula', 'a = ', "expected a term, found 'end of input'", 1, 5),
    ('formula', 'a = (b)', "expected a term, found '('", 1, 5),
    ('formula', 's(a, b) = c', 'reserved function s takes exactly 1 argument', 1, 1),
    ('formula', 'pair(a) = c', 'reserved function pair takes exactly 2 arguments', 1, 1),
    ('formula', 'z(a) = c', 'special constant z takes no arguments', 1, 1),
    ('formula', 'z_0 = z', 'special constant index 0 is spelled without suffix', 1, 1),
    ('formula', 'p(a) & p(a, b)', 'arity mismatch for p: first seen with 1, now 2', 1, 8),
    ('formula', 'p(a) & p(a) = b', 'p already used as a predicate', 1, 8),
    ('formula', 'f(a) = b & f', 'f already used as a function', 1, 12),
    ('formula', 'z & a = b', 'z is a reserved function name', 1, 1),
    ('formula', 'p q', "trailing input 'q'", 1, 3),
    ('formula', '(p q)', "expected ')', found 'q'", 1, 4),
    ('formula', 'exists x. p', "expected '?', found 'x'", 1, 8),
    ('formula', 'exists ?x p', "expected '.', found 'p'", 1, 11),
    ('formula', 'forall ?. p', "expected 'IDENT', found '.'", 1, 9),
    ('formula', 'f(g(a), g(a, b)) = c', 'arity mismatch for g: first seen with 1, now 2', 1, 9),
    ('formula', 'p(a) ->', "expected an atom, found 'end of input'", 1, 8),
    ('formula', '!(p & q', "expected ')', found 'end of input'", 1, 8),
    ('formula', 'a = b\n  -> c = d e', "trailing input 'e'", 2, 12),
    ('formula', '', "expected an atom, found 'end of input'", 1, 1),
    ('formula', 'p(a,)', "expected a term, found ')'", 1, 5),
    ('formula', '(p q) $', "unexpected character '$'", 1, 7),
    ('formula', 'p(a)\r\n\t& &', "expected an atom, found '&'", 2, 4),
    ('formula', 'exists ?x. p(?x) q', "trailing input 'q'", 1, 18),
    ('formula', 'p & (exists ?x. q | r', "expected ')', found 'end of input'", 1, 22),
    ('formula', 'a = b = c', "trailing input '='", 1, 7),
    ('formula', 'z = a & z(b) = c', 'special constant z takes no arguments', 1, 9),
    ('formula', 's(a) = b & s = b', 'reserved function s takes exactly 1 argument', 1, 12),
    ('formula', 'f = a & f(b) = c', 'arity mismatch for f: first seen with 0, now 1', 1, 9),
    ('formula', 'p & p(a)', 'arity mismatch for p: first seen with 0, now 1', 1, 5),
    ('formula', 'p(a) & q(p) = b', 'p already used as a predicate', 1, 10),
    ('formula', 'f(a) = b & p(f)', 'arity mismatch for f: first seen with 1, now 0', 1, 14),
    ('formula', 'pair(a, b) = c & pair(c) = a', 'reserved function pair takes exactly 2 arguments', 1, 18),
    ('formula', 'a = b % c $ d', "unexpected character '%'", 1, 7),
    ('term', 'f(a) b', "trailing input 'b'", 1, 6),
    ('term', 'f(a, g(b)', "expected ')', found 'end of input'", 1, 10),
    ('term', '?', "expected 'IDENT', found 'end of input'", 1, 2),
    ('term', '*?', "expected an index or name after '*'", 1, 2),
    ('term', 'f(s(a, a))', 'reserved function s takes exactly 1 argument', 1, 3),
    ('term', 'f(f(f(f(f(f(a, b))))))', 'arity mismatch for f: first seen with 2, now 1', 1, 9),
]


@pytest.mark.parametrize("kind,text,message,line,column", PARSE_ERRORS,
                         ids=[f"{k}:{t!r}" for k, t, *_ in PARSE_ERRORS])
def test_parse_error_message_and_position(kind, text, message, line, column):
    parse = parse_formula if kind == "formula" else parse_term
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == f"line {line} col {column}: {message}"
    assert (err.value.line, err.value.column) == (line, column)


def test_deep_terms_and_formulas_round_trip():
    deep = "f(" * 5000 + "a" + ")" * 5000
    assert print_term(parse_term(deep)) == deep
    for text in ("!" * 5000 + "p", "(" * 5000 + "p" + ")" * 5000,
                 " -> ".join(["p"] * 5000), " & ".join(["p"] * 5000),
                 "exists ?x. " * 2000 + "?x = a"):
        f = parse_formula(text)
        assert parse_formula(print_formula(f)) is f


# ---------------------------------------------------------------------------
# The parser against its reference: the parser as it was before it read
# token texts (tests/reference_textform.py).

# Names that meet every rule of the symbol table: reserved functions,
# special constants, an index 0, `#` and `@` inside names, a quantifier word.
_NAMES = ["a", "f", "g", "p", "q", "s", "pair", "z", "zh_2", "kt", "z_0", "c#1", "x@y",
          "exists", "forall"]
# Pieces that break a text: two distinct bad characters, a lone `-`, a NAT
# followed by an IDENT, names with `#` and `@`, and every punctuation mark.
_BREAKERS = ["$", "%", "-", "1a", "b#", "@c", "*", "12", "(", ")", ",", "=", "->", "?",
             ".", "!", "&", "|"]
_SPACES = ["", " ", " ", "  ", "\t", "\r\n", "\n", " \t\r\n "]


def _random_text(rng: random.Random) -> str:
    """The printed form of a random formula or term, with names
    swapped, pieces dropped, doubled or inserted, whitespace of every kind
    between pieces, and sometimes a `*` before the end of input."""
    if rng.random() < 0.7:
        text = print_formula(_random_formula(rng, 4))
    else:
        text = print_term(_random_term(rng, 4))
    pieces = [m.group() for m in reference_textform._TOKEN_RE.finditer(text)]
    for i, piece in enumerate(pieces):
        if piece[0].isalpha() and rng.random() < 0.05:
            pieces[i] = rng.choice(_NAMES)
    for _ in range(rng.choice([0, 0, 0, 1, 1, 2])):
        at = rng.randrange(len(pieces) + 1)
        roll = rng.random()
        if roll < 0.5:
            pieces.insert(at, rng.choice(_BREAKERS))
        elif pieces and roll < 0.75:
            del pieces[min(at, len(pieces) - 1)]
        elif pieces:
            pieces.insert(at, pieces[min(at, len(pieces) - 1)])
    if rng.random() < 0.1:
        pieces.append("*")
    return "".join(piece + rng.choice(_SPACES) for piece in pieces)


def _outcome(parse, text: str):
    """The node parsed from text, or its ParseError's message, line and column."""
    try:
        return parse(text)
    except ParseError as error:
        return (str(error), error.line, error.column)


def test_parser_agrees_with_its_reference():
    rng = random.Random(20261019)
    read = {"valid": 0, "broken": 0}
    for _ in range(3000):
        text = _random_text(rng)
        for kind in ("formula", "term"):
            got = _outcome(getattr(textform, f"parse_{kind}"), text)
            want = _outcome(getattr(reference_textform, f"parse_{kind}"), text)
            if isinstance(want, tuple):  # the same message, line and column
                assert got == want, (kind, text)
                read["broken"] += 1
            else:  # the same node
                assert got is want, (kind, text)
                read["valid"] += 1
    assert min(read.values()) > 1000, read


# Runs of one name, `s(s(s(...`, each read as one stack entry by the parser.
# A run is cut at a random level by one of _RUN_CUTS: a further argument
# after a comma (a clash for every name: `s` and `pair` are reserved, `f` and
# `g` are met at two arities), a run of another name, a missing or an extra
# `)`, a special constant applied (`z(`), the predicate `p` used as a
# function, or a bad character.  Every level of a `pair` run takes a leaf as
# its second argument.
_RUN_NAMES = ["s", "f", "g", "pair"]
_RUN_LEAVES = ["a", "b", "z", "kt", "?x", "*1", "*u"]
_RUN_CUTS = ["comma", "other run", "missing )", "extra )", "z(", "p(", "bad"]
_RUN_SPACES = ["", "", "", " ", "\n"]


def _closing(rng: random.Random, name: str) -> list[str]:
    return [",", rng.choice(_RUN_LEAVES), ")"] if name == "pair" else [")"]


def _run_pieces(rng: random.Random, depth: int) -> list[str]:
    """The pieces of a leaf, or of a run of 1-60 levels of one name, which
    a fifth of the time one cut breaks at a random level."""
    if depth <= 0 or rng.random() < 0.25:
        return [rng.choice(_RUN_LEAVES)]
    levels = rng.randint(1, 60)
    names = [rng.choice(_RUN_NAMES)] * levels
    cut = rng.choice(_RUN_CUTS) if rng.random() < 0.2 else None
    at = rng.randrange(levels)
    if cut in ("z(", "p("):
        names[at] = cut[0]
    other = rng.choice([n for n in _RUN_NAMES if n != names[0]])
    others = rng.randint(1, 20) if cut == "other run" else 0
    pieces = []
    for level, name in enumerate(names):
        pieces += (name, "(")
        if level == at:
            pieces += (other, "(") * others
    pieces += _run_pieces(rng, depth - 1)
    for level in reversed(range(levels)):
        if level == at:
            for _ in range(others):
                pieces += _closing(rng, other)
            if cut == "comma":
                pieces += (",", *_run_pieces(rng, depth - 1))
            elif cut == "bad":
                pieces.append(rng.choice("$%"))
            elif cut == "missing )":
                continue
            elif cut == "extra )":
                pieces.append(")")
        pieces += _closing(rng, names[level])
    return pieces


def _run_text(rng: random.Random) -> str:
    """A term, an equation, or equations beside the predicates `p` and `q`."""
    shape = rng.choice(["{}", "{} = {}", "p({}) & {} = {}", "{} = {} -> q({}, {})"])
    first, *rest = shape.split("{}")
    pieces = [first]
    for part in rest:
        pieces += (*_run_pieces(rng, 3), part)
    return "".join(piece + rng.choice(_RUN_SPACES) for piece in pieces)


def test_parser_agrees_with_its_reference_on_long_runs():
    rng = random.Random(20261020)
    read = {"valid": 0, "broken": 0, "arity clash": 0}
    for _ in range(400):
        text = _run_text(rng)
        for kind in ("formula", "term"):
            got = _outcome(getattr(textform, f"parse_{kind}"), text)
            want = _outcome(getattr(reference_textform, f"parse_{kind}"), text)
            if isinstance(want, tuple):  # the same message, line and column
                assert got == want, (kind, text)
                read["broken"] += 1
                read["arity clash"] += "arity mismatch" in want[0] or "takes" in want[0]
            else:  # the same node
                assert got is want, (kind, text)
                read["valid"] += 1
    assert min(read.values()) > 100, read


def test_first_bad_character_in_text_order_under_any_hash_seed():
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = ("from hsk.textform import ParseError, parse_formula\n"
            "try:\n    parse_formula('a = b % c $ d')\n"
            "except ParseError as e:\n    print(e)\n")
    for seed in ("0", "1", "7", "42", "1234"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                               text=True, check=True)
        assert child.stdout == "line 1 col 7: unexpected character '%'\n", seed


def test_each_function_name_is_resolved_once(monkeypatch):
    calls = []
    resolve = textform._Parser._function_symbol

    def counted(parser, name, arity, index):
        calls.append((name, arity))
        return resolve(parser, name, arity, index)

    monkeypatch.setattr(textform._Parser, "_function_symbol", counted)
    ladder = "s(" * 1000 + "z" + ")" * 1000
    parse_formula(f"{ladder} = {ladder}")
    assert sorted(calls) == [("s", 1), ("z", 0)]
