import io
import os
import pathlib
import subprocess
import sys
import time
from contextlib import redirect_stdout

import pytest

from helpers import ROOT, bench_problems
from hsk import cli
from hsk.cli import main
from hsk.syntax import flatten_or
from hsk.textform import parse_formula, print_formula

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

GOLDEN_RUNS = [
    (["check", "implication_interference.fml"], 0, "check_implication_interference.txt"),
    (["check", "--format", "records", "implication_interference.fml"], 0,
     "check_implication_interference.rec"),
    (["skeleton", "-n", "2", "guarded_choice.fml"], 0, "skeleton_guarded_choice_n2.txt"),
    (["solve", "-n", "2", "--max-size", "1", "guarded_choice.fml"], 0,
     "solve_guarded_choice_n2.txt"),
    (["solve", "-n", "2", "--max-size", "1", "--format", "records",
      "guarded_choice.fml"], 0, "solve_guarded_choice_n2.rec"),
    (["solve", "-n", "1", "--max-size", "3", "guarded_choice.fml"], 1,
     "solve_guarded_choice_n1.txt"),
    (["sreu", "clause_pipeline.fml"], 0, "sreu_clause_pipeline.txt"),
    (["sreu", "--solve", "--max-size", "3", "clause_pipeline.fml"], 0,
     "sreu_solve_clause_pipeline.txt"),
    (["sreu", "--format", "records", "clause_pipeline.fml"], 0,
     "sreu_clause_pipeline.rec"),
    (["encode", "--dioph", "sum_query.dioph", "-m", "0", "-n", "2"], 0,
     "encode_sum_query.txt"),
    (["eval", "--structure", "table", "table_eval.fml"], 0, "eval_table.txt"),
    (["countermodel", "variant_failures.fml"], 0, "countermodel_variant_failures.txt"),
    (["countermodel", "--format", "records", "variant_failures.fml"], 0,
     "countermodel_variant_failures.rec"),
]


def run_hsk(args: list[str], hash_seed: str | None = None,
            **kwargs) -> subprocess.CompletedProcess:
    """`python -m hsk args` in a child process that imports this checkout."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return subprocess.run([sys.executable, "-m", "hsk", *args],
                          env=env, capture_output=True, **kwargs)


def run_cli(args: list[str]) -> tuple[int, str]:
    resolved = [str(FIXTURES / a) if (FIXTURES / a).is_file() else a for a in args]
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        status = main(resolved)
    return status, buffer.getvalue()


@pytest.mark.parametrize("args,status,golden", GOLDEN_RUNS,
                         ids=[g for _, _, g in GOLDEN_RUNS])
def test_golden_outputs(args, status, golden):
    got_status, got = run_cli(args)
    assert got_status == status
    assert got == (FIXTURES / "golden" / golden).read_text()


@pytest.mark.parametrize("args,status,golden", GOLDEN_RUNS,
                         ids=[g for _, _, g in GOLDEN_RUNS])
def test_byte_identical_across_runs(args, status, golden):
    outputs = {run_cli(args) for _ in range(3)}
    assert len(outputs) == 1


@pytest.mark.parametrize("golden", [
    "solve_guarded_choice_n2.txt",
    "sreu_solve_clause_pipeline.txt",
    "countermodel_variant_failures.txt",
])
def test_byte_identical_across_hash_seeds(golden):
    """Node hashes are addresses and str hashes are salted per process, so
    the output must not depend on the order of any set or dict of nodes."""
    args = next(a for a, _, g in GOLDEN_RUNS if g == golden)
    args = [str(FIXTURES / a) if (FIXTURES / a).is_file() else a for a in args]
    outputs = []
    for seed in ("0", "1"):
        done = run_hsk(args, hash_seed=seed, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1] == (FIXTURES / "golden" / golden).read_bytes()


_ONE_VARIANT = ("(z_1 = s(z_1) -> z_1 = pair(z_1, z_1)) & (z_1 = s(z_1) -> z_1 = s(z_1)) & "
                "(z_1 = s(z_1) -> z_1 = z_1) & (zt_1 = s(zt_1) -> zt_1 = zt_1) & "
                "(z_1 = zt_1 -> s(z_1) = zt_1) & (zt_1 = pair(z_1, z_1) -> z_1 = zt_1)")
_SREU_MIXED = (
    "[1.1] *1 = a -> a = c\n[1.2] *1 = b -> a = c\n[1] NO SOLUTION WITHIN BOUND 2\n"
    "[2.1] *1 = a -> a = c\n[2.2] *1 = b -> b = c\n[2] SOLVED *1:=c\n"
    "[3.1] *1 = a -> b = c\n[3.2] *1 = b -> a = c\n[3] NO SOLUTION WITHIN BOUND 2\n"
    "[4.1] *1 = a -> b = c\n[4.2] *1 = b -> b = c\n[4] NO SOLUTION WITHIN BOUND 2\n")
_SREU_MIXED_RECORDS = (
    "problem_index=1\tverdict=sreu\twitness=(*1 = a -> a = c) & (*1 = b -> a = c)\n"
    "problem_index=1\tverdict=no-solution\n"
    "problem_index=2\tverdict=sreu\twitness=(*1 = a -> a = c) & (*1 = b -> b = c)\n"
    "problem_index=2\tverdict=solved\twitness=*1:=c\n"
    "problem_index=3\tverdict=sreu\twitness=(*1 = a -> b = c) & (*1 = b -> a = c)\n"
    "problem_index=3\tverdict=no-solution\n"
    "problem_index=4\tverdict=sreu\twitness=(*1 = a -> b = c) & (*1 = b -> b = c)\n"
    "problem_index=4\tverdict=no-solution\n")
_ENCODED = ("exists ?w1. (z = s(z) -> z = z) & (z = s(z) -> z = z) & (z = s(z) -> z = z) & "
            "((zt = s(zt) -> zt = ?w1) & (z = zt -> z = ?w1) & (zt = z -> z = ?w1))")

# One row per verdict of every command: (id, arguments before the input file,
# input text, exit status, stdout with --format text, stdout with --format records)
VERDICTS = [
    ("check-quasitautology", ["check"], "a = a", 0,
     "QUASITAUTOLOGY\n", "verdict=quasitautology\n"),
    ("check-not-quasitautology", ["check"], "a = b", 1,
     "NOT A QUASITAUTOLOGY\n", "verdict=not-quasitautology\n"),
    ("skeleton", ["skeleton"], "exists ?v. p(a) -> p(?v)", 0,
     "p(a) -> p(*1)\n", "verdict=skeleton\twitness=p(a) -> p(*1)\n"),
    ("solve-solved", ["solve", "-n", "2", "--max-size", "1"],
     "exists ?v. p(a) | p(b) -> p(?v)", 0,
     "*1 := a\n*2 := b\n", "verdict=solved\twitness=*1:=a;*2:=b\n"),
    ("solve-solved-without-bindings", ["solve"], "a = a", 0,
     "SOLVED\n", "verdict=solved\twitness=\n"),
    ("solve-no-solution", ["solve", "--max-size", "3"], "exists ?v. p(a) | p(b) -> p(?v)", 1,
     "NO SOLUTION WITHIN BOUND 3\n", "verdict=no-solution\n"),
    ("sreu", ["sreu"], "p(a) & (*1 = a | *1 = b) -> p(c)", 0,
     "[1.1] *1 = a -> a = c\n[1.2] *1 = b -> a = c\n",
     "problem_index=1\tverdict=sreu\twitness=(*1 = a -> a = c) & (*1 = b -> a = c)\n"),
    ("sreu-solve", ["sreu", "--solve", "--max-size", "2"],
     "p(a) & p(b) & (*1 = a | *1 = b) -> p(c)", 0, _SREU_MIXED, _SREU_MIXED_RECORDS),
    ("sreu-solve-none-solved", ["sreu", "--solve", "--max-size", "2"],
     "p(a) & *1 = b -> p(c)", 1,
     "[1.1] *1 = b -> a = c\n[1] NO SOLUTION WITHIN BOUND 2\n",
     "problem_index=1\tverdict=sreu\twitness=(*1 = b -> a = c)\n"
     "problem_index=1\tverdict=no-solution\n"),
    ("sreu-no-problem", ["sreu"], "p", 1, "", ""),
    ("sreu-solve-no-problem", ["sreu", "--solve"], "p", 1, "", ""),
    ("encode", ["encode", "-m", "0", "--dioph"], "x1 + 0 = 0", 0,
     f"{_ENCODED}\n", f"verdict=ok\twitness={_ENCODED}\n"),
    ("eval-true", ["eval"], "a = a", 0, "TRUE\n", "verdict=true\n"),
    ("eval-false", ["eval"], "z = a", 1, "FALSE\n", "verdict=false\n"),
    ("countermodel-falsified", ["countermodel"], _ONE_VARIANT, 0,
     "alpha z_1 = J(1,1)\nalpha zh_1 = 0\nalpha zt_1 = 0\nalpha k_1 = J(4,1)\n"
     "alpha kt_1 = 0\nFALSIFIED\n",
     "verdict=falsified\talpha=z_1:=J(1,1);zh_1:=0;zt_1:=0;k_1:=J(4,1);kt_1:=0\n"),
    ("countermodel-valid-disjunct", ["countermodel"],
     "(z_1 = s(z_1) -> z_1 = z_1) | (z_2 = s(z_2) -> z_2 = s(s(z_2)))", 1,
     "VALID DISJUNCT 1\n", "verdict=valid-disjunct\tproblem_index=1\n"),
]


def run_verdict(tmp_path, args: list[str], text: str, fmt: str) -> tuple[int, str]:
    source = tmp_path / "input.txt"
    source.write_text(text + "\n")
    return run_cli([*args, str(source), "--format", fmt])


@pytest.mark.parametrize("args,text,status,text_out,records_out",
                         [row[1:] for row in VERDICTS], ids=[row[0] for row in VERDICTS])
def test_every_verdict_in_both_formats(tmp_path, args, text, status, text_out, records_out):
    assert run_verdict(tmp_path, args, text, "text") == (status, text_out)
    assert run_verdict(tmp_path, args, text, "records") == (status, records_out)


def test_text_and_record_verdicts_agree(tmp_path):
    # the table holds every command, and each of its rows gives one status in both formats
    assert {args[0] for _, args, *_ in VERDICTS} == set(cli._COMMANDS)
    for _, args, text, _, _, _ in VERDICTS:
        assert (run_verdict(tmp_path, args, text, "text")[0]
                == run_verdict(tmp_path, args, text, "records")[0])


def test_check_negative_exit_code(tmp_path):
    source = tmp_path / "neq.fml"
    source.write_text("a = b\n")
    status, out = run_cli(["check", str(source)])
    assert status == 1
    assert out == "NOT A QUASITAUTOLOGY\n"


def test_parse_error_exits_2(tmp_path, capsys):
    source = tmp_path / "broken.fml"
    source.write_text("p(a &\n")
    status, _ = run_cli(["check", str(source)])
    assert status == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text,position", [
    ("# c\n\np(a) ->\n", "line 3 col 8: expected an atom"),
    ("# c\n\na = b &\n  c(\n", "line 4 col 5: expected a term"),
    ("p(a) ->\n\n  \n", "line 1 col 8: expected an atom"),
    ("p(a) ->\n\n# trailing\n", "line 1 col 8: expected an atom"),
])
def test_parse_error_reports_the_line_of_the_file(tmp_path, capsys, text, position):
    # comment and blank lines before the error still count, and the end of
    # input is the end of the last line that holds a token
    source = tmp_path / "broken.fml"
    source.write_text(text)
    status, out = run_cli(["check", str(source)])
    assert (status, out) == (2, "")
    assert capsys.readouterr().err == f"error: {position}, found 'end of input'\n"


def test_diophantine_error_reports_the_line_of_the_file(tmp_path, capsys):
    source = tmp_path / "sys.dioph"
    source.write_text("# a comment\nx1 - 1 = 0\n")
    status, out = run_cli(["encode", "--dioph", str(source)])
    assert (status, out) == (2, "")
    assert capsys.readouterr().err == "error: line 2: expected 'a + b = c' or 'a * b = c'\n"


# Input contracts that the commands check, with the one diagnostic each prints.
CONTRACT_DIAGNOSTICS = [
    ("check", "exists ?x. a = a", "input must be quantifier-free"),
    ("check", "a = a | forall ?x. ?x = ?x", "input must be quantifier-free"),
    ("check", "?x = a", "congruence closure requires ground terms, got ?x"),
    ("sreu", "exists ?x. *1 = ?x", "clause conversion requires a quantifier-free formula"),
    ("sreu", "a = b | forall ?x. p(?x)",
     "clause conversion requires a quantifier-free formula"),
    ("sreu", "?x = a", "input must hold only unknowns and ground terms, got ?x"),
    ("solve", "exists ?v. forall ?u. ?u = ?v", "matrix must be quantifier-free"),
    ("solve", "exists ?v. ?v = *1", "matrix must not contain unknowns"),
    ("solve", "exists ?v. ?v = ?u", "matrix has variables outside the bound tuple"),
    ("solve", "exists ?v. exists ?v. ?v = a", "bound variables must be distinct"),
    ("solve", "exists ?v. *2 = a & forall ?u. ?u = ?v", "matrix must be quantifier-free"),
    ("skeleton", "exists ?v. ?v = *1 & forall ?u. ?u = ?v",
     "matrix must be quantifier-free"),
]


@pytest.mark.parametrize("command,text,message", CONTRACT_DIAGNOSTICS,
                         ids=[f"{c}:{t}" for c, t, _ in CONTRACT_DIAGNOSTICS])
def test_contract_violations_exit_2_with_one_diagnostic(tmp_path, capsys, command, text,
                                                         message):
    source = tmp_path / "input.fml"
    source.write_text(text + "\n")
    status, out = run_cli([command, str(source)])
    assert (status, out) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_internal_error_exits_3(tmp_path, capsys, monkeypatch):
    def crash(config, text):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setitem(cli._COMMANDS, "check", crash)
    source = tmp_path / "eq.fml"
    source.write_text("a = a\n")
    status, out = run_cli(["check", str(source)])
    err = capsys.readouterr().err
    assert status == 3
    assert out == ""
    assert err == "error: internal error: RecursionError: maximum recursion depth exceeded\n"


def test_memory_exhaustion_exits_3(tmp_path):
    # the term buckets up to size 10 outgrow a 150 MB address space; the
    # diagnostic must still be printed and the status must not read as a verdict
    def cap_memory():
        import resource
        limit = 150 * 2 ** 20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    source = tmp_path / "wide.fml"
    source.write_text("exists ?x. p(pair(z, s(zh))) & q(zt, k, kt) -> p(?x) | !p(?x)\n")
    done = run_hsk(["solve", "--max-size", "10", str(source)],
                   timeout=120, preexec_fn=cap_memory)
    assert done.returncode == 3, done.stderr
    assert done.stdout == b""
    # a finalizer that runs out of memory too may print a warning first
    assert done.stderr.splitlines()[-1] == b"error: internal error: MemoryError: "


def test_conversion_over_the_limit_exits_2_at_once():
    # 36 clauses of two consequent atoms: counted, not built
    started = time.perf_counter()
    done = run_hsk(["sreu", str(FIXTURES / "variant_failures.fml")], timeout=60)
    elapsed = time.perf_counter() - started
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr == (b"error: clause conversion gives 68719476736 alternatives, "
                           b"over the limit 65536\n")
    assert elapsed < 1.0


def test_clause_form_over_the_limit_exits_2_at_once(tmp_path):
    # a disjunction of 7 conjunctions of 6 equalities: 6**7 clauses, counted
    # one distribution step before they would be built
    source = tmp_path / "wide.fml"
    source.write_text(" | ".join("(" + " & ".join(f"a{i}{j} = b{i}{j}" for j in range(6)) + ")"
                                 for i in range(7)) + "\n")
    started = time.perf_counter()
    done = run_hsk(["sreu", str(source)], timeout=60)
    elapsed = time.perf_counter() - started
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr == (b"error: clause conversion gives at least 279936 clauses, "
                           b"over the limit 65536\n")
    assert elapsed < 1.0


def test_a_diagnostic_quoting_a_deep_term_is_cut(tmp_path):
    # the conjunct `s^20000(z) = z` matches no primitive shape, and the
    # message that quotes it is cut to one bounded line
    source = tmp_path / "deep.fml"
    source.write_text("s(" * 20000 + "z" + ")" * 20000 + " = z\n")
    done = run_hsk(["countermodel", str(source)], timeout=60)
    assert (done.returncode, done.stdout) == (2, b"")
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(b"error: conjunct does not match")
    assert len(lines[0]) <= len("error: ") + cli._DIAGNOSTIC_LIMIT + 40
    assert lines[0].endswith(b"... (59048 more characters)")


def test_undecodable_input_exits_2(tmp_path, capsys):
    source = tmp_path / "latin1.fml"
    source.write_bytes(b"\xff = a\n")
    status, out = run_cli(["check", str(source)])
    assert (status, out) == (2, "")
    assert capsys.readouterr().err.startswith("error: ")


def test_missing_file_exits_2(capsys):
    status, _ = run_cli(["check", "/nonexistent/path.fml"])
    assert status == 2


def test_color_toggle_styles_diagnostics(tmp_path, capsys, monkeypatch):
    source = tmp_path / "broken.fml"
    source.write_text("p(a &\n")
    monkeypatch.setenv("HSK_COLOR", "1")
    run_cli(["check", str(source)])
    assert "\x1b[31m" in capsys.readouterr().err
    monkeypatch.setenv("HSK_COLOR", "0")
    run_cli(["check", str(source)])
    assert "\x1b[" not in capsys.readouterr().err


def test_stdin_input(monkeypatch):
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO("k = k\n"))
    status, out = run_cli(["check", "-"])
    assert status == 0
    assert out == "QUASITAUTOLOGY\n"


def test_eval_m_alpha_bindings(tmp_path):
    source = tmp_path / "succ.fml"
    source.write_text("z_1 = s(z_1)\n")
    status, out = run_cli(["eval", "--structure", "m-alpha", "--alpha",
                           "z_1=J(1,1)", str(source)])
    assert (status, out) == (0, "TRUE\n")
    status, out = run_cli(["eval", "--structure", "m-alpha", "--alpha",
                           "z_1=J(0,2)", str(source)])
    assert (status, out) == (1, "FALSE\n")


@pytest.mark.parametrize("binding", ["z_1=abc", "z_1=J(1,x)"])
def test_malformed_alpha_value_exits_2(tmp_path, capsys, binding):
    source = tmp_path / "succ.fml"
    source.write_text("z_1 = s(z_1)\n")
    status, out = run_cli(["eval", "--structure", "m-alpha", "--alpha", binding,
                           str(source)])
    assert (status, out) == (2, "")
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "internal error" not in err


@pytest.mark.parametrize("second", ["z_1=J(1,1)", " z_1 =J(1,1)", "z_1=1"])
def test_a_constant_bound_twice_exits_2_naming_it(tmp_path, capsys, second):
    # the later binding would silently replace the earlier one
    source = tmp_path / "succ.fml"
    source.write_text("z_1 = s(z_1)\n")
    status, out = run_cli(["eval", "--structure", "m-alpha", "--alpha", "z_1=1",
                           "--alpha", second, str(source)])
    assert (status, out) == (2, "")
    assert capsys.readouterr().err == "error: --alpha binds z_1 twice\n"


@pytest.mark.parametrize("options,structure", [
    (["--alpha", "z=3"], "two-point"),
    (["--structure", "table", "--alpha", "z=3"], "table"),
    (["--structure", "two-point", "--alpha", "z=abc"], "two-point"),
], ids=["default", "table", "malformed"])
def test_alpha_without_m_alpha_exits_2_with_one_diagnostic(tmp_path, capsys, options,
                                                           structure):
    # only m-alpha reads the bindings, so elsewhere they would go unchecked and unused
    source = tmp_path / "zero.fml"
    source.write_text("z = z\n")
    status, out = run_cli(["eval", *options, str(source)])
    assert (status, out) == (2, "")
    assert capsys.readouterr().err == (
        f"error: --alpha needs --structure m-alpha, not {structure!r}\n")


def test_a_countermodel_alpha_falsifies_every_disjunct_in_eval(tmp_path):
    # the alpha field of a record, NAME:=VALUE;..., read back as --alpha
    # NAME=VALUE arguments: the printed values parse to the ones found.
    # Inputs: the fixture, and the falsifiable countermodel families of the
    # benchmark's validity workload (seed 7, batch 0)
    batch = bench_problems().make_batch("validity", 7, 0, ROOT)
    disjunctions = [(FIXTURES / "variant_failures.fml").read_text(),
                    *(p.text for p in batch if p.family == "countermodel-falsified")]
    assert len(disjunctions) == 11
    source = tmp_path / "input.fml"
    for text in disjunctions:
        source.write_text(text)
        status, out = run_cli(["countermodel", "--format", "records", str(source)])
        assert status == 0, text
        fields = dict(field.split("=", 1) for field in out.rstrip("\n").split("\t"))
        assert fields["verdict"] == "falsified"
        alpha = [arg for binding in fields["alpha"].split(";")
                 for arg in ("--alpha", binding.replace(":=", "="))]
        for disjunct in flatten_or(parse_formula(cli._strip_comments(text))):
            source.write_text(print_formula(disjunct) + "\n")
            assert run_cli(["eval", "--structure", "m-alpha", *alpha, str(source)]) == (
                1, "FALSE\n"), (text, disjunct)


@pytest.mark.parametrize("args", [
    ["solve", "--max-size", "-1", "guarded_choice.fml"],
    ["sreu", "--solve", "--max-size", "-1", "clause_pipeline.fml"],
])
def test_negative_size_bound_exits_2(capsys, args):
    status, out = run_cli(args)
    assert (status, out) == (2, "")
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "internal error" not in err


@pytest.mark.parametrize("text", ["(*1 = f(*1)) & (?x = a)", "(?x = a) & (*1 = f(*1))"],
                         ids=["variable-last", "variable-first"])
def test_a_free_variable_exits_2_in_either_conjunct_order(tmp_path, capsys, text):
    # the search walks every conjunct before it decides one, so a restriction
    # that fails whatever *1 is cannot hide the free variable of a later one
    source = tmp_path / "free.fml"
    source.write_text(text + "\n")
    status, out = run_cli(["sreu", "--solve", "--max-size", "2", str(source)])
    assert (status, out) == (2, "")
    assert capsys.readouterr().err == (
        "error: input must hold only unknowns and ground terms, got ?x\n")


def test_zero_size_bound_is_an_exhausted_search():
    status, out = run_cli(["solve", "--max-size", "0", "guarded_choice.fml"])
    assert (status, out) == (1, "NO SOLUTION WITHIN BOUND 0\n")


@pytest.mark.parametrize("args,text,expected", [
    (["solve"], "a = a\n", "SOLVED\n"),
    (["solve", "--format", "records"], "a = a\n", "verdict=solved\twitness=\n"),
    (["sreu", "--solve"], "p | !p\n", "[1.1] c#0 = c#0\n[1] SOLVED\n"),
], ids=["solve", "solve-records", "sreu-solve"])
def test_a_solution_without_bindings_says_solved(tmp_path, args, text, expected):
    source = tmp_path / "closed.fml"
    source.write_text(text)
    assert run_cli([*args, str(source)]) == (0, expected)


@pytest.mark.parametrize("options", [[], ["--solve"], ["--format", "records"],
                                     ["--solve", "--format", "records"]],
                         ids=["text", "text-solve", "records", "records-solve"])
@pytest.mark.parametrize("text", ["p\n", "p(*1) & q(*2) -> r\n"], ids=["bare", "unmatched"])
def test_a_conversion_with_no_problem_left_prints_nothing(tmp_path, capsys, text, options):
    # every branch is deleted: no predicate consequent has a hypothesis
    # of its predicate
    source = tmp_path / "deleted.fml"
    source.write_text(text)
    assert run_cli(["sreu", *options, str(source)]) == (1, "")
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("text,conversion", [
    ("c#1 = d#1 -> !(a = a)\n", "[1.1] c#1 = d#1 & a = a -> c#2 = d#2\n"),
    ("c#1 = d#1 -> !(*1 = a)\n", "[1.1] c#1 = d#1 & *1 = a -> c#2 = d#2\n"),
], ids=["ground", "unknown"])
def test_fresh_constants_avoid_the_input_names(tmp_path, text, conversion):
    # `hsk check` says the first is not valid, so no problem may be solved
    source = tmp_path / "named.fml"
    source.write_text(text)
    assert run_cli(["sreu", "--solve", str(source)]) == (
        1, conversion + "[1] NO SOLUTION WITHIN BOUND 6\n")


def test_encode_with_larger_numeral(tmp_path):
    source = tmp_path / "sys.dioph"
    source.write_text("x1 + 1 = 2\n")
    status, out = run_cli(["encode", "--dioph", str(source), "-m", "2"])
    assert status == 0
    assert out.startswith("exists ?w1. ")
    assert "z = s(s(z))" in out  # the substituted numeral


# `hsk encode` without -m: the associated conjunction (n = 1), or the
# conjunction of its variants 1..n, closed existentially.
ENCODE_RUNS = [
    ("x1 + 1 = 0", [], (
        "exists ?x1. exists ?w1. (z = s(z) -> z = ?x1) & (z = s(z) -> z = s(z)) & (z = "
        "s(z) -> z = z) & ((zt = s(zt) -> zt = ?w1) & (z = zt -> s(z) = ?w1) & (zt = ?x1 "
        "-> z = ?w1))"
    )),
    ("x1 + 1 = 0", ["-n", "2"], (
        "exists ?x1@1. exists ?w1@1. exists ?x1@2. exists ?w1@2. (z_1 = s(z_1) -> z_1 = "
        "?x1@1) & (z_1 = s(z_1) -> z_1 = s(z_1)) & (z_1 = s(z_1) -> z_1 = z_1) & ((zt_1 = "
        "s(zt_1) -> zt_1 = ?w1@1) & (z_1 = zt_1 -> s(z_1) = ?w1@1) & (zt_1 = ?x1@1 -> z_1 "
        "= ?w1@1)) & ((z_2 = s(z_2) -> z_2 = ?x1@2) & (z_2 = s(z_2) -> z_2 = s(z_2)) & "
        "(z_2 = s(z_2) -> z_2 = z_2) & ((zt_2 = s(zt_2) -> zt_2 = ?w1@2) & (z_2 = zt_2 -> "
        "s(z_2) = ?w1@2) & (zt_2 = ?x1@2 -> z_2 = ?w1@2)))"
    )),
    ("x1 * x1 = 1", [], (
        "exists ?x1. exists ?w1. exists ?w2. (z = s(z) -> z = ?x1) & (z = s(z) -> z = "
        "?x1) & (z = s(z) -> z = s(z)) & ((z = s(z) & k = pair(pair(z, z), k) -> k = ?w1) "
        "& (zh = s(zh) & zt = s(zt) & kt = pair(pair(zh, zt), kt) -> kt = ?w2) & (z = zh "
        "& z = zt & k = kt -> ?w1 = ?w2) & (zh = s(z) & zt = ?x1 & kt = pair(pair(z, z), "
        "k) -> ?w2 = pair(pair(?x1, s(z)), ?w1)))"
    )),
    ("x1 * x1 = 1", ["-n", "2"], (
        "exists ?x1@1. exists ?w1@1. exists ?w2@1. exists ?x1@2. exists ?w1@2. exists "
        "?w2@2. (z_1 = s(z_1) -> z_1 = ?x1@1) & (z_1 = s(z_1) -> z_1 = ?x1@1) & (z_1 = "
        "s(z_1) -> z_1 = s(z_1)) & ((z_1 = s(z_1) & k_1 = pair(pair(z_1, z_1), k_1) -> "
        "k_1 = ?w1@1) & (zh_1 = s(zh_1) & zt_1 = s(zt_1) & kt_1 = pair(pair(zh_1, zt_1), "
        "kt_1) -> kt_1 = ?w2@1) & (z_1 = zh_1 & z_1 = zt_1 & k_1 = kt_1 -> ?w1@1 = ?w2@1) "
        "& (zh_1 = s(z_1) & zt_1 = ?x1@1 & kt_1 = pair(pair(z_1, z_1), k_1) -> ?w2@1 = "
        "pair(pair(?x1@1, s(z_1)), ?w1@1))) & ((z_2 = s(z_2) -> z_2 = ?x1@2) & (z_2 = "
        "s(z_2) -> z_2 = ?x1@2) & (z_2 = s(z_2) -> z_2 = s(z_2)) & ((z_2 = s(z_2) & k_2 = "
        "pair(pair(z_2, z_2), k_2) -> k_2 = ?w1@2) & (zh_2 = s(zh_2) & zt_2 = s(zt_2) & "
        "kt_2 = pair(pair(zh_2, zt_2), kt_2) -> kt_2 = ?w2@2) & (z_2 = zh_2 & z_2 = zt_2 "
        "& k_2 = kt_2 -> ?w1@2 = ?w2@2) & (zh_2 = s(z_2) & zt_2 = ?x1@2 & kt_2 = "
        "pair(pair(z_2, z_2), k_2) -> ?w2@2 = pair(pair(?x1@2, s(z_2)), ?w1@2))))"
    )),
]


@pytest.mark.parametrize("fmt", ["text", "records"])
@pytest.mark.parametrize("system,options,expected", ENCODE_RUNS,
                         ids=[" ".join([s, *o]) for s, o, _ in ENCODE_RUNS])
def test_encode_without_numeral(tmp_path, system, options, expected, fmt):
    source = tmp_path / "sys.dioph"
    source.write_text(system + "\n")
    status, out = run_cli(["encode", "--dioph", str(source), *options, "--format", fmt])
    assert status == 0
    assert out == (expected if fmt == "text" else f"verdict=ok\twitness={expected}") + "\n"


def test_countermodel_reports_valid_disjunct(tmp_path):
    source = tmp_path / "valid.fml"
    source.write_text("(z_1 = s(z_1) -> z_1 = z_1) | (z_2 = s(z_2) -> z_2 = s(s(z_2)))\n")
    status, out = run_cli(["countermodel", str(source)])
    assert status == 1
    assert out == "VALID DISJUNCT 1\n"


def test_countermodel_rejects_a_disjunct_of_several_languages(tmp_path, capsys):
    source = tmp_path / "mixed.fml"
    source.write_text("(z_1 = s(z_1) -> z_1 = s(z_1)) & (z_2 = s(z_2) -> z_2 = f(z_2))"
                      " | (z_3 = s(z_3) -> z_3 = f(z_3))\n")
    status, out = run_cli(["countermodel", str(source)])
    assert (status, out) == (2, "")
    assert capsys.readouterr().err == "error: instance mixes conjuncts of several languages\n"


def test_solve_finds_the_mul_2_3_semitables_within_the_problem_limit(tmp_path):
    # mul(2,3,6): both witnesses have size 22, and the benchmark stops a
    # problem after 30 s
    from hsk import arith
    from hsk.skeleton import ExistentialFormula, close_existentially
    from hsk.syntax import Variable, numeral
    from hsk.textform import print_formula, print_term

    z, w1, w2 = arith.zero(), Variable("w1"), Variable("w2")
    matrix = arith.mul(numeral(2, z), numeral(3, z), numeral(6, z), w1, w2)
    path = tmp_path / "mul_2_3_6.fml"
    path.write_text(print_formula(close_existentially(ExistentialFormula((w1, w2), matrix))))
    table = arith.mp_semitable(2, 3)
    plain = table.instantiate(z, z, arith.k_plain())
    tilde = table.instantiate(arith.zero_hat(), arith.zero_tilde(), arith.k_tilde())
    result = run_hsk(["solve", "-n", "1", "--max-size", "22", str(path)], timeout=30)
    assert result.returncode == 0, result.stderr
    assert result.stdout.decode() == f"*1 := {print_term(plain)}\n*2 := {print_term(tilde)}\n"
