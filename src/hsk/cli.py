"""Batch command-line front end.

Commands: check, skeleton, solve, sreu, encode, eval, countermodel.
Input is one formula per file ('-' reads standard input); lines starting
with '#' and blank lines are ignored, and parse errors give the line and
column in the input.  Exit status: 0 for a positive result, 1 for a
negative or exhausted one, 2 for usage or parse errors, 3 for an internal
error, running out of memory included (a one-line diagnostic names the
exception).

Output is plain text, or line-oriented records (`--format records`) of
tab-separated KEY=VALUE pairs with keys among verdict, witness,
problem_index and alpha.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field

from . import arith, models, qcheck, skeleton, sreu, textform
from .models import AlphaAssignment, pairing_j, unpair
from .syntax import (ContractError, Formula, FunctionSymbol, Term, Unknown, canonical_key,
                     flatten_and, flatten_or)
from .textform import ParseError, parse_formula, print_formula, print_term


@dataclass
class RunConfig:
    command: str
    n: int = 1
    max_size: int = 6
    structure: str = "two-point"
    alpha: list[str] = field(default_factory=list)
    fmt: str = "text"
    solve: bool = False
    m: int | None = None


class _UsageError(ValueError):
    pass


def _strip_comments(text: str) -> str:
    """Comment lines blanked and the blank lines after the last token
    dropped, so that a parse error gives the line of the file and the end
    of input is the end of the last line that holds a token."""
    lines = ["" if line.lstrip().startswith("#") else line for line in text.splitlines()]
    while lines and not lines[-1].strip():
        lines.pop()
    return "\n".join(lines)


def _record(**fields: str) -> str:
    return "\t".join(f"{key}={value}" for key, value in fields.items())


def _bindings(solution: dict[Unknown, Term]) -> list[tuple[Unknown, Term]]:
    """The solution's bindings, unknowns in canonical order."""
    return sorted(solution.items(), key=lambda kv: canonical_key(kv[0]))


def _witness_text(solution: dict[Unknown, Term]) -> str:
    return ";".join(f"*{u.index}:={print_term(t)}" for u, t in _bindings(solution))


def _alpha_value_text(value: int) -> str:
    parts = unpair(value)
    if parts is None:
        return str(value)
    return f"J({parts[0]},{parts[1]})"


def _alpha_number(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise _UsageError(f"alpha value must be a number: {text!r}") from None


def _parse_alpha_bindings(pairs: list[str]) -> AlphaAssignment:
    values: dict[FunctionSymbol, int] = {}
    for pair_text in pairs:
        if "=" not in pair_text:
            raise _UsageError(f"alpha binding must be name=value: {pair_text!r}")
        name, _, value_text = pair_text.partition("=")
        symbol = textform.special_of_name(name.strip())
        if symbol is None:
            raise _UsageError(f"{name!r} is not a special constant")
        value_text = value_text.strip()
        if value_text.startswith("J(") and value_text.endswith(")"):
            inner = value_text[2:-1].split(",")
            if len(inner) != 2:
                raise _UsageError(f"malformed pairing value: {value_text!r}")
            values[symbol] = pairing_j(_alpha_number(inner[0]), _alpha_number(inner[1]))
        else:
            values[symbol] = _alpha_number(value_text)
    return AlphaAssignment(values)


# ---------------------------------------------------------------------------
# Command implementations; each returns (status, list of output lines)


def _cmd_check(config: RunConfig, text: str) -> tuple[int, list[str]]:
    formula = parse_formula(text)
    verdict = qcheck.is_quasitautology(formula)
    if config.fmt == "records":
        return (0 if verdict else 1,
                [_record(verdict="quasitautology" if verdict else "not-quasitautology")])
    return (0 if verdict else 1,
            ["QUASITAUTOLOGY" if verdict else "NOT A QUASITAUTOLOGY"])


def _cmd_skeleton(config: RunConfig, text: str) -> tuple[int, list[str]]:
    psi = skeleton.existential_of(parse_formula(text))
    sk = skeleton.make_skeleton(psi, config.n)
    rendered = print_formula(sk.formula)
    if config.fmt == "records":
        return 0, [_record(verdict="skeleton", witness=rendered)]
    return 0, [rendered]


def _cmd_solve(config: RunConfig, text: str) -> tuple[int, list[str]]:
    psi = skeleton.existential_of(parse_formula(text))
    sk = skeleton.make_skeleton(psi, config.n)
    solution = skeleton.solve_bounded(sk, max_size=config.max_size)
    if solution is None:
        if config.fmt == "records":
            return 1, [_record(verdict="no-solution")]
        return 1, [f"NO SOLUTION WITHIN BOUND {config.max_size}"]
    if config.fmt == "records":
        return 0, [_record(verdict="solved", witness=_witness_text(solution))]
    return 0, [f"*{u.index} := {print_term(t)}" for u, t in _bindings(solution)] or ["SOLVED"]


def _cmd_sreu(config: RunConfig, text: str) -> tuple[int, list[str]]:
    formula = parse_formula(text)
    problems = sreu.convert_to_sreu(formula)
    lines: list[str] = []
    any_solved = False
    # the problems share few distinct constraints: each is printed once,
    # and the searches share one memo of conjunct walks and check verdicts
    rendered: dict[Formula, str] = {}
    memo = skeleton.SearchMemo()
    for i, problem in enumerate(problems, start=1):
        for f in problem.conjuncts:
            if f not in rendered:
                rendered[f] = print_formula(f)
        texts = [rendered[f] for f in problem.conjuncts]
        if config.fmt == "records":
            witness = " & ".join(f"({text})" for text in texts)
            lines.append(_record(problem_index=str(i), verdict="sreu", witness=witness))
        else:
            lines += [f"[{i}.{j}] {text}" for j, text in enumerate(texts, start=1)]
        if config.solve:
            solution = sreu.solve_sreu_bounded(problem, max_size=config.max_size, memo=memo)
            if solution is not None:
                any_solved = True
            if config.fmt == "records":
                if solution is None:
                    lines.append(_record(problem_index=str(i), verdict="no-solution"))
                else:
                    lines.append(_record(problem_index=str(i), verdict="solved",
                                         witness=_witness_text(solution)))
            else:
                if solution is None:
                    lines.append(f"[{i}] NO SOLUTION WITHIN BOUND {config.max_size}")
                else:
                    witness = _witness_text(solution)
                    lines.append(f"[{i}] SOLVED {witness}" if witness else f"[{i}] SOLVED")
    if config.solve:
        return (0 if any_solved else 1), lines
    return (0 if problems else 1), lines


def _cmd_encode(config: RunConfig, text: str) -> tuple[int, list[str]]:
    system = arith.parse_diophantine(text)
    if config.m is not None:
        variables = system.variables()
        if not variables:
            raise _UsageError("-m needs a free variable to instantiate")
        psi = arith.reduction_f(system, variables[0], config.m, config.n)
    else:
        psi = arith.encoding(system, config.n)
    rendered = print_formula(skeleton.close_existentially(psi))
    if config.fmt == "records":
        return 0, [_record(verdict="ok", witness=rendered)]
    return 0, [rendered]


def _cmd_eval(config: RunConfig, text: str) -> tuple[int, list[str]]:
    formula = parse_formula(text)
    if config.structure == "two-point":
        structure = models.two_point_structure()
    elif config.structure == "table":
        structure = models.table_structure()
    elif config.structure == "m-alpha":
        structure = models.m_alpha(_parse_alpha_bindings(config.alpha))
    else:
        raise _UsageError(f"unknown structure {config.structure!r}")
    verdict = models.holds(structure, formula)
    if config.fmt == "records":
        return (0 if verdict else 1, [_record(verdict="true" if verdict else "false")])
    return (0 if verdict else 1, ["TRUE" if verdict else "FALSE"])


def _cmd_countermodel(config: RunConfig, text: str) -> tuple[int, list[str]]:
    formula = parse_formula(text)
    disjuncts = flatten_or(formula)
    failures: list[tuple[int, models.Diagnosis]] = []
    for i, disjunct in enumerate(disjuncts, start=1):
        instance = arith.recognize_instance(disjunct)
        if qcheck.is_quasitautology(disjunct):
            if config.fmt == "records":
                return 1, [_record(verdict="valid-disjunct", problem_index=str(i))]
            return 1, [f"VALID DISJUNCT {i}"]
        failures.append((instance.language_index,
                         arith.classify_failures(instance, conjuncts=flatten_and(disjunct))))
    alpha = models.construct_alpha(failures)
    structure = models.m_alpha(alpha)
    for disjunct in disjuncts:
        if models.holds(structure, disjunct):
            raise ContractError("assignment failed to falsify a disjunct")
    alpha_text = ";".join(f"{sym.name}:={_alpha_value_text(v)}" for sym, v in alpha.items())
    if config.fmt == "records":
        return 0, [_record(verdict="falsified", alpha=alpha_text)]
    lines = [f"alpha {sym.name} = {_alpha_value_text(v)}" for sym, v in alpha.items()]
    lines.append("FALSIFIED")
    return 0, lines


_COMMANDS = {
    "check": _cmd_check,
    "skeleton": _cmd_skeleton,
    "solve": _cmd_solve,
    "sreu": _cmd_sreu,
    "encode": _cmd_encode,
    "eval": _cmd_eval,
    "countermodel": _cmd_countermodel,
}


def run(config: RunConfig, text: str) -> tuple[int, str]:
    """Dispatch one command on the given input text, its comment lines
    blanked; returns exit status and the full output (one line per result,
    trailing newline when nonempty)."""
    handler = _COMMANDS.get(config.command)
    if handler is None:
        raise _UsageError(f"unknown command {config.command!r}")
    status, lines = handler(config, _strip_comments(text))
    return status, "".join(f"{line}\n" for line in lines)


def _build_argparser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsk",
        description="Herbrand skeleton toolkit: validity checking, bounded "
                    "skeleton solving, rigid constraint conversion, arithmetic "
                    "encodings and countermodels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str) -> argparse.ArgumentParser:
        # omitted options stay unset, so that RunConfig alone holds the defaults
        return sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)

    def common(p: argparse.ArgumentParser, with_input: bool = True) -> None:
        p.add_argument("--format", dest="fmt", choices=("text", "records"))
        if with_input:
            p.add_argument("input", help="input file, or - for standard input")

    p = command("check", "decide validity of a ground formula")
    common(p)
    p = command("skeleton", "emit the size-n skeleton")
    p.add_argument("-n", type=int)
    common(p)
    p = command("solve", "search the size-n skeleton within a size bound")
    p.add_argument("-n", type=int)
    p.add_argument("--max-size", type=int)
    common(p)
    p = command("sreu", "convert to rigid constraint problems")
    p.add_argument("--solve", action="store_true")
    p.add_argument("--max-size", type=int)
    common(p)
    p = command("encode", "encode a diophantine system")
    p.add_argument("--dioph", required=True, metavar="FILE",
                   help="diophantine system file, or - for standard input")
    p.add_argument("-n", type=int)
    p.add_argument("-m", type=int)
    common(p, with_input=False)
    p = command("eval", "evaluate in an explicit structure")
    p.add_argument("--structure", choices=("two-point", "table", "m-alpha"))
    p.add_argument("--alpha", action="append",
                   metavar="NAME=VAL", help="special constant value, NAT or J(j,k)")
    common(p)
    p = command("countermodel", "falsify a disjunction of variant instances")
    common(p)
    return parser


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


_DIAGNOSTIC_LIMIT = 1000  # characters; a diagnostic may quote a whole deep term


def _diagnose(message: str) -> None:
    if len(message) > _DIAGNOSTIC_LIMIT:
        cut = len(message) - _DIAGNOSTIC_LIMIT
        message = f"{message[:_DIAGNOSTIC_LIMIT]}... ({cut} more characters)"
    prefix = "error:"
    if os.environ.get("HSK_COLOR") == "1":
        prefix = "\x1b[31merror:\x1b[0m"
    print(f"{prefix} {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = _build_argparser()
    try:
        args = vars(parser.parse_args(argv))
    except SystemExit as stop:
        return 2 if stop.code not in (0, None) else 0
    path = args.pop("dioph" if args["command"] == "encode" else "input")
    config = RunConfig(**args)
    try:
        text = _read_input(path)
    except (OSError, UnicodeDecodeError) as err:
        _diagnose(str(err))
        return 2
    crash = None
    try:
        status, output = run(config, text)
    except ParseError as err:
        _diagnose(str(err))
        return 2
    except (_UsageError, ContractError) as err:
        _diagnose(str(err))
        return 2
    except Exception as err:  # a crash must not read as a verdict
        crash = f"internal error: {type(err).__name__}: {err}"
    if crash is not None:
        # reported only once the traceback, and the memory its frames hold, is gone
        _diagnose(crash)
        return 3
    print(output, end="")
    return status


if __name__ == "__main__":
    sys.exit(main())
