"""Inputs that follow the grammar work at any nesting depth memory allows.

Each case runs one command through `cli.run` on an input whose nesting
(or conjunction width) is far beyond Python's recursion limit, so a
walker that recursed on the input's structure would raise RecursionError.
"""

import pytest

from hsk.cli import RunConfig, run
from hsk.syntax import ContractError

DEEP = "s(" * 10000 + "z" + ")" * 10000  # s^10000(z)


@pytest.mark.parametrize("config,text,status,output", [
    (RunConfig("check"), f"{DEEP} = {DEEP}", 0, "QUASITAUTOLOGY\n"),
    (RunConfig("eval"), f"{DEEP} = {DEEP}", 0, "TRUE\n"),
    (RunConfig("solve", max_size=1), f"exists ?v. ?v = {DEEP}", 1,
     "NO SOLUTION WITHIN BOUND 1\n"),
    (RunConfig("skeleton"), f"exists ?v. ?v = {DEEP}", 0, f"*1 = {DEEP}\n"),
], ids=["check", "eval", "solve", "skeleton"])
def test_deep_numeral(config, text, status, output):
    assert run(config, text) == (status, output)


PAIRS = "pair(" * 5000 + "z" + ", z)" * 5000  # every level of the run takes two arguments
CHAINS = "s(" * 5000 + "f(" * 5000 + "a" + ")" * 10000  # s^5000(f^5000(a)): two runs


@pytest.mark.parametrize("term", [PAIRS, CHAINS], ids=["pairs", "chains"])
def test_deep_runs_that_are_not_numerals(term):
    assert run(RunConfig("check"), f"{term} = {term}") == (0, "QUASITAUTOLOGY\n")
    assert run(RunConfig("skeleton"), f"exists ?v. ?v = {term}") == (0, f"*1 = {term}\n")


def test_encode_with_a_deep_numeral():
    status, small = run(RunConfig("encode", m=3), "x1 + 1 = 2")
    assert status == 0 and small.count("s(s(s(z)))") == 2
    assert run(RunConfig("encode", m=10000), "x1 + 1 = 2") == (
        0, small.replace("s(s(s(z)))", DEEP))


def test_deeply_nested_negation():
    assert run(RunConfig("check"), "!" * 3000 + "a = a") == (0, "QUASITAUTOLOGY\n")
    assert run(RunConfig("check"), "!" * 3001 + "a = a") == (1, "NOT A QUASITAUTOLOGY\n")


def test_long_implication_chain():
    chain = " -> ".join(["a = a"] * 3001)  # 3 000 right-nested implications
    assert run(RunConfig("check"), chain) == (0, "QUASITAUTOLOGY\n")


def test_many_disjunctive_hypotheses():
    hyps = " & ".join(f"(a{i} = b{i} | c{i} = d{i})" for i in range(1200))
    assert run(RunConfig("check"), f"{hyps} -> e = f") == (1, "NOT A QUASITAUTOLOGY\n")
    assert run(RunConfig("check"), f"{hyps} -> e = e") == (0, "QUASITAUTOLOGY\n")


def test_error_message_prints_a_deep_formula():
    with pytest.raises(ContractError, match=r"does not match a primitive shape: s\(s\("):
        run(RunConfig("countermodel"), f"{DEEP} = z")
