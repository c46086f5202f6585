import io
import os
import pathlib
import subprocess
import sys
import time
from contextlib import redirect_stdout

import pytest

from hsk import cli
from hsk.cli import main

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


def test_text_and_record_verdicts_agree():
    pairs = [
        (["check", "implication_interference.fml"],
         ["check", "--format", "records", "implication_interference.fml"]),
        (["solve", "-n", "1", "--max-size", "3", "guarded_choice.fml"],
         ["solve", "-n", "1", "--max-size", "3", "--format", "records",
          "guarded_choice.fml"]),
        (["countermodel", "variant_failures.fml"],
         ["countermodel", "--format", "records", "variant_failures.fml"]),
    ]
    for text_args, record_args in pairs:
        assert run_cli(text_args)[0] == run_cli(record_args)[0]


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


# Input contracts that the commands check, with the one diagnostic each prints.
CONTRACT_DIAGNOSTICS = [
    ("check", "exists ?x. a = a", "input must be quantifier-free"),
    ("check", "a = a | forall ?x. ?x = ?x", "input must be quantifier-free"),
    ("check", "?x = a", "congruence closure requires ground terms, got ?x"),
    ("sreu", "exists ?x. *1 = ?x", "clause conversion requires a quantifier-free formula"),
    ("sreu", "a = b | forall ?x. p(?x)",
     "clause conversion requires a quantifier-free formula"),
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


def test_zero_size_bound_is_an_exhausted_search():
    status, out = run_cli(["solve", "--max-size", "0", "guarded_choice.fml"])
    assert (status, out) == (1, "NO SOLUTION WITHIN BOUND 0\n")


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
