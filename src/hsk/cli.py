"""Batch command-line front end.

Commands: check, skeleton, solve, sreu, encode, eval, countermodel.
Input is one formula per file ('-' reads standard input); lines starting
with '#' and blank lines are ignored, and parse errors give the line and
column in the input.  Exit status: 0 for a positive result, 1 for a
negative or exhausted one, 2 for usage or parse errors, 3 for an internal
error, running out of memory included (a one-line diagnostic names the
exception).

A command returns its results, each a dict of a verdict's fields in the order
a record prints them, and one of two renderers prints them: as plain text, or
as records (`--format records`) of tab-separated KEY=VALUE pairs.
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


def _bindings(solution: dict[Unknown, Term]) -> list[tuple[str, str]]:
    """The solution's (unknown, term) texts, unknowns in canonical order."""
    return [(f"*{u.index}", print_term(t))
            for u, t in sorted(solution.items(), key=lambda kv: canonical_key(kv[0]))]


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
        if symbol in values:
            raise _UsageError(f"--alpha binds {symbol.name} twice")
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
# Command implementations; each returns (status, list of results)


def _cmd_check(config: RunConfig, text: str) -> tuple[int, list[dict]]:
    if qcheck.is_quasitautology(parse_formula(text)):
        return 0, [{"verdict": "quasitautology"}]
    return 1, [{"verdict": "not-quasitautology"}]


def _cmd_skeleton(config: RunConfig, text: str) -> tuple[int, list[dict]]:
    psi = skeleton.existential_of(parse_formula(text))
    sk = skeleton.make_skeleton(psi, config.n)
    return 0, [{"verdict": "skeleton", "witness": print_formula(sk.formula)}]


def _cmd_solve(config: RunConfig, text: str) -> tuple[int, list[dict]]:
    psi = skeleton.existential_of(parse_formula(text))
    sk = skeleton.make_skeleton(psi, config.n)
    solution = skeleton.solve_bounded(sk, max_size=config.max_size)
    if solution is None:
        return 1, [{"verdict": "no-solution"}]
    return 0, [{"verdict": "solved", "witness": _bindings(solution)}]


def _cmd_sreu(config: RunConfig, text: str) -> tuple[int, list[dict]]:
    formula = parse_formula(text)
    problems = sreu.convert_to_sreu(formula)
    results: list[dict] = []
    positive = bool(problems) and not config.solve
    # the problems share few distinct constraints: each is printed once,
    # and the searches share one memo of conjunct walks and check verdicts
    rendered: dict[Formula, str] = {}
    memo = skeleton.SearchMemo()
    for i, problem in enumerate(problems, start=1):
        for f in problem.constraints:
            if f not in rendered:
                rendered[f] = print_formula(f)
        results.append({"problem_index": i, "verdict": "sreu",
                        "witness": [rendered[f] for f in problem.constraints]})
        if config.solve:
            solution = sreu.solve_sreu_bounded(problem, max_size=config.max_size, memo=memo)
            if solution is None:
                results.append({"problem_index": i, "verdict": "no-solution"})
            else:
                positive = True
                results.append({"problem_index": i, "verdict": "solved",
                                "witness": _bindings(solution)})
    return (0 if positive else 1), results


def _cmd_encode(config: RunConfig, text: str) -> tuple[int, list[dict]]:
    system = arith.parse_diophantine(text)
    if config.m is not None:
        variables = system.variables()
        if not variables:
            raise _UsageError("-m needs a free variable to instantiate")
        psi = arith.reduction_f(system, variables[0], config.m, config.n)
    else:
        psi = arith.encoding(system, config.n)
    return 0, [{"verdict": "ok", "witness": print_formula(skeleton.close_existentially(psi))}]


def _cmd_eval(config: RunConfig, text: str) -> tuple[int, list[dict]]:
    if config.alpha and config.structure != "m-alpha":
        raise _UsageError(f"--alpha needs --structure m-alpha, not {config.structure!r}")
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
    return (0 if verdict else 1), [{"verdict": "true" if verdict else "false"}]


def _cmd_countermodel(config: RunConfig, text: str) -> tuple[int, list[dict]]:
    formula = parse_formula(text)
    disjuncts = flatten_or(formula)
    failures: list[tuple[int, models.Diagnosis]] = []
    for i, disjunct in enumerate(disjuncts, start=1):
        instance = arith.recognize_instance(disjunct)
        if qcheck.is_quasitautology(disjunct):
            return 1, [{"verdict": "valid-disjunct", "problem_index": i}]
        failures.append((instance.language_index,
                         arith.classify_failures(instance, conjuncts=flatten_and(disjunct))))
    alpha = models.construct_alpha(failures)
    structure = models.m_alpha(alpha)
    for disjunct in disjuncts:
        if models.holds(structure, disjunct):
            raise ContractError("assignment failed to falsify a disjunct")
    return 0, [{"verdict": "falsified",
                "alpha": [(sym.name, _alpha_value_text(v)) for sym, v in alpha.items()]}]


_COMMANDS = {
    "check": _cmd_check,
    "skeleton": _cmd_skeleton,
    "solve": _cmd_solve,
    "sreu": _cmd_sreu,
    "encode": _cmd_encode,
    "eval": _cmd_eval,
    "countermodel": _cmd_countermodel,
}


def _field(value: int | str | list) -> str:
    """A record field; constraint texts read `(c1) & (c2)`, (name, value) pairs `n1:=v1;n2:=v2`."""
    if isinstance(value, (int, str)):
        return str(value)
    if value and isinstance(value[0], str):
        return " & ".join(f"({text})" for text in value)
    return ";".join(f"{name}:={text}" for name, text in value)


def _records(results: list[dict]) -> list[str]:
    return ["\t".join(f"{key}={_field(value)}" for key, value in result.items())
            for result in results]


_VERDICT_LINES = {"quasitautology": "QUASITAUTOLOGY", "not-quasitautology": "NOT A QUASITAUTOLOGY",
                  "true": "TRUE", "false": "FALSE",
                  "valid-disjunct": "VALID DISJUNCT {problem_index}"}


def _text(results: list[dict], bound: int) -> list[str]:
    """The results' text lines; an exhausted search names the size `bound`."""
    lines: list[str] = []
    for result in results:
        verdict, index = result["verdict"], result.get("problem_index")
        if verdict == "sreu":
            lines += [f"[{index}.{j}] {text}" for j, text in enumerate(result["witness"], start=1)]
        elif verdict == "no-solution":
            lines.append(f"NO SOLUTION WITHIN BOUND {bound}" if index is None
                         else f"[{index}] NO SOLUTION WITHIN BOUND {bound}")
        elif verdict == "solved" and index is None:
            lines += [f"{name} := {text}" for name, text in result["witness"]] or ["SOLVED"]
        elif verdict == "solved":  # one line, its bindings as in a record
            witness = _field(result["witness"])
            lines.append(f"[{index}] SOLVED {witness}" if witness else f"[{index}] SOLVED")
        elif verdict == "falsified":
            lines += [f"alpha {name} = {text}" for name, text in result["alpha"]]
            lines.append("FALSIFIED")
        else:  # one line: a skeleton's or an encoding's formula, or the verdict's
            lines.append(result["witness"] if "witness" in result
                         else _VERDICT_LINES[verdict].format(**result))
    return lines


def run(config: RunConfig, text: str) -> tuple[int, str]:
    """Dispatch one command on the given input text, its comment lines blanked;
    returns exit status and the output: the results as text or records lines."""
    handler = _COMMANDS.get(config.command)
    if handler is None:
        raise _UsageError(f"unknown command {config.command!r}")
    status, results = handler(config, _strip_comments(text))
    lines = _records(results) if config.fmt == "records" else _text(results, config.max_size)
    return status, "\n".join([*lines, ""])  # each line ends in a newline


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
    except (ParseError, _UsageError, ContractError) as err:
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
