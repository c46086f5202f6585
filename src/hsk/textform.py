"""Concrete text format for terms and formulas.

Grammar (``->`` is right-associative; precedence ``!`` > ``&`` > ``|`` > ``->``)::

    term    := VAR | UNKNOWN | IDENT | IDENT "(" term ("," term)* ")"
    VAR     := "?" IDENT
    UNKNOWN := "*" (IDENT | NAT)
    atom    := term "=" term | IDENT | IDENT "(" term ("," term)* ")"
    formula := "!" formula | formula "&" formula | formula "|" formula
             | formula "->" formula | "exists" VAR "." formula
             | "forall" VAR "." formula | "(" formula ")"

Reserved names: ``z``, ``zh``, ``zt``, ``k``, ``kt`` (and ``z_1``, ``zh_1``, ...
for the indexed languages) are the special constants; ``s`` is the unary
successor and ``pair`` the binary pairing function.

Nothing here recurses, so input of any nesting depth is read and printed.
The tokenizer is one ``re.findall`` over the token alternatives, which
gives the token texts and no offsets; each distinct text is classified
once.  Only a ``ParseError`` scans the text again, up to its token, for a
line and column.  Each distinct function name and arity is resolved
against the symbol table once per input, and later occurrences are one
dict lookup.  Formulas are parsed by operator precedence on explicit
stacks (Pratt, "Top down operator precedence", POPL 1973), and terms with
a stack of open runs.  A run is a chain of nested applications of one name,
``s(s(s(...``, and its entry is [index of its outermost name, levels still
open, arguments of its innermost open level]: the opening loop steps over
the run by comparing token texts, and a ``)`` closes the innermost level.
Each level just outside it that holds only the term so built and closes
at once is built in a tight loop with one symbol lookup; after a comma or
any other token the next level collects its arguments on the same entry.
Symbols are resolved in the order the levels close, innermost first, so
every error is reported at the level where it arises.  The printers emit
pieces from an explicit stack.
"""

from __future__ import annotations

import re
from itertools import islice

from .syntax import (
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
    PAIR,
    PredApp,
    PredicateSymbol,
    SUCC,
    SpecialBase,
    Term,
    Unknown,
    Variable,
    special_constant,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line} col {column}: {message}")
        self.line = line
        self.column = column


# The token alternatives, tried in this order; whitespace matches none, so
# the scans step over it.
_ALTERNATIVES = (
    ("ARROW", r"->"),
    ("NAT", r"[0-9]+"),
    ("IDENT", r"[A-Za-z][A-Za-z0-9_\#@]*"),
    ("PUNCT", r"[()=,.&|!*?]"),
    ("BAD", r"\S"),
)
_TEXT_RE = re.compile("|".join(pattern for _, pattern in _ALTERNATIVES))  # token texts
_TOKEN_RE = re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in _ALTERNATIVES))

_SPECIAL_RE = re.compile(r"^(zh|zt|kt|z|k)(?:_([0-9]+))?$")
_SPECIAL_ZERO_RE = re.compile(r"^(zh|zt|kt|z|k)_0$")
_SPECIAL_BY_TOKEN = {b.value: b for b in SpecialBase}
_QUANTIFIERS = {"exists": Exists, "forall": Forall}
_RESERVED = {SUCC.name: SUCC, PAIR.name: PAIR}


def _kind(text: str) -> str:
    """The kind of a token text: ARROW, NAT, IDENT, BAD or the punctuation
    character itself.  A text matched alone takes the alternative it took
    in place, since every alternative that failed there fails on it too."""
    kind = _TOKEN_RE.match(text).lastgroup
    return text if kind == "PUNCT" else kind


def special_of_name(name: str) -> FunctionSymbol | None:
    """The special constant a reserved name denotes, or None."""
    m = _SPECIAL_RE.match(name)
    if m is None:
        return None
    base = _SPECIAL_BY_TOKEN[m.group(1)]
    index = int(m.group(2)) if m.group(2) is not None else 0
    if m.group(2) is not None and index == 0:
        return None  # `z_0` is rejected later; the plain form spells index 0
    return special_constant(base, index)


# Binding strength of the operators on the formula parser's stack; open
# parentheses and quantifiers bind less than any binary connective.
_STRENGTH = {"!": 3, "&": 2, "|": 1, "ARROW": 0}
_BINARY = {"&": And, "|": Or, "ARROW": Implies}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.texts: list[str] = _TEXT_RE.findall(text)  # the token texts, in order
        self.kinds = {t: _kind(t) for t in set(self.texts)}  # each distinct text, once
        if "BAD" in self.kinds.values():
            first = next(i for i, t in enumerate(self.texts) if self.kinds[t] == "BAD")
            raise self.error(f"unexpected character {self.texts[first]!r}", first)
        self.texts.append("")
        self.kinds[""] = "EOF"
        self.symbols: dict[str, FunctionSymbol | PredicateSymbol] = {}  # each name read so far
        # each (name, arity) read so far as a function symbol
        self.functions: dict[tuple[str, int], FunctionSymbol] = {}

    # -- token plumbing

    def peek(self) -> str:
        """The kind of the next token."""
        return self.kinds[self.texts[self.pos]]

    def expect(self, kind: str) -> str:
        text = self.texts[self.pos]
        if self.kinds[text] != kind:
            raise self.error(f"expected {kind!r}, found {text or 'end of input'!r}")
        self.pos += 1
        return text

    def error(self, message: str, index: int | None = None) -> ParseError:
        """A ParseError at the line and column of the token at `index`, by
        default the next one; only here is the text scanned for offsets."""
        match = next(islice(_TEXT_RE.finditer(self.text), self.pos if index is None else index,
                            None), None)
        offset = len(self.text) if match is None else match.start()
        line = self.text.count("\n", 0, offset) + 1
        return ParseError(message, line, offset - self.text.rfind("\n", 0, offset))

    # -- symbol table

    def _function(self, name: str, arity: int, index: int) -> FunctionSymbol:
        """The function symbol read at `index`; each distinct (name, arity)
        is resolved once."""
        sym = self.functions.get((name, arity))
        if sym is None:
            sym = self.functions[name, arity] = self._function_symbol(name, arity, index)
        return sym

    def _function_symbol(self, name: str, arity: int, index: int) -> FunctionSymbol:
        if _SPECIAL_ZERO_RE.match(name):
            raise self.error("special constant index 0 is spelled without suffix", index)
        sym = self.symbols.get(name)
        special = special_of_name(name)
        if special is not None:
            if arity != 0:
                raise self.error(f"special constant {name} takes no arguments", index)
            sym = special
        elif name in _RESERVED:
            sym = _RESERVED[name]
            if arity != sym.arity:
                raise self.error(f"reserved function {name} takes exactly {sym.arity} "
                                 f"argument{'s' if sym.arity > 1 else ''}", index)
        elif isinstance(sym, PredicateSymbol):
            raise self.error(f"{name} already used as a predicate", index)
        elif sym is not None:  # a function of another arity
            raise self._mismatch(name, sym.arity, arity, index)
        else:
            sym = FunctionSymbol(name, arity)
        self.symbols[name] = sym
        return sym

    def _predicate_symbol(self, name: str, arity: int, index: int) -> PredicateSymbol:
        sym = self.symbols.get(name)
        if type(sym) is PredicateSymbol and sym.arity == arity:
            return sym
        if special_of_name(name) is not None or name in _RESERVED:
            raise self.error(f"{name} is a reserved function name", index)
        if isinstance(sym, FunctionSymbol):
            raise self.error(f"{name} already used as a function", index)
        if sym is not None:
            raise self._mismatch(name, sym.arity, arity, index)
        sym = self.symbols[name] = PredicateSymbol(name, arity)
        return sym

    def _mismatch(self, name: str, seen: int, arity: int, index: int) -> ParseError:
        return self.error(f"arity mismatch for {name}: first seen with {seen}, now {arity}", index)

    # -- terms

    def parse_variable(self) -> Variable:
        self.expect("?")
        return Variable(self.expect("IDENT"))

    def parse_unknown(self) -> Unknown:
        self.expect("*")
        text = self.texts[self.pos]
        kind = self.kinds[text]
        if kind not in ("NAT", "IDENT"):
            raise self.error("expected an index or name after '*'")
        self.pos += 1
        return Unknown(int(text) if kind == "NAT" else text)

    def parse_term(self) -> Term:
        """One term, read from the next token; leaves the position after it."""
        open_runs: list[list] = []
        texts, kinds, functions = self.texts, self.kinds, self.functions
        pos = self.pos
        while True:
            text = texts[pos]
            kind = kinds[text]
            if kind == "IDENT":
                if texts[pos + 1] == "(":
                    head = pos
                    pos += 2
                    while texts[pos] == text and texts[pos + 1] == "(":
                        pos += 2
                    open_runs.append([head, (pos - head) // 2, []])
                    continue
                symbol = functions.get((text, 0)) or self._function(text, 0, pos)
                term: Term = Application(symbol, ())
                pos += 1
            elif kind == "?" or kind == "*":
                self.pos = pos
                term = self.parse_variable() if kind == "?" else self.parse_unknown()
                pos = self.pos
            else:
                self.pos = pos
                raise self.error(f"expected a term, found {text or 'end of input'!r}")
            while open_runs:
                run = open_runs[-1]
                head, levels, args = run
                args.append(term)
                text = texts[pos]
                if text == ",":
                    pos += 1
                    break
                if text != ")":
                    self.pos = pos
                    self.expect(")")  # raises
                pos += 1
                levels -= 1  # the innermost open level closes; its name is at head + 2 * levels
                name = texts[head]
                symbol = (functions.get((name, len(args)))
                          or self._function(name, len(args), head + 2 * levels))
                term = Application(symbol, tuple(args))
                if levels and texts[pos] == ")":  # levels that hold only the term just built
                    symbol = (functions.get((name, 1))
                              or self._function(name, 1, head + 2 * levels - 2))
                    while levels and texts[pos] == ")":
                        term = Application(symbol, (term,))
                        pos += 1
                        levels -= 1
                if levels:
                    run[1], run[2] = levels, []
                else:
                    open_runs.pop()
            else:
                self.pos = pos
                return term

    def _parse_optional_args(self) -> list[Term]:
        if self.peek() != "(":
            return []
        self.pos += 1
        args = [self.parse_term()]
        while self.peek() == ",":
            self.pos += 1
            args.append(self.parse_term())
        self.expect(")")
        return args

    # -- formulas

    def parse_formula(self) -> Formula:
        """One formula.  Finished operands wait on `out`; prefix operators
        (`!` and quantifiers with their variable), binary connectives and
        open parentheses wait on `ops` until an operator that binds less,
        a closing parenthesis or the end reduces them."""
        out: list[Formula] = []
        ops: list = []
        while True:
            text = self.texts[self.pos]
            kind = self.kinds[text]
            if kind in ("!", "("):
                self.pos += 1
                ops.append(kind)
                continue
            if kind == "IDENT" and text in _QUANTIFIERS:
                self.pos += 1
                var = self.parse_variable()
                self.expect(".")
                ops.append((_QUANTIFIERS[text], var))
                continue
            out.append(self.parse_atom())
            while True:  # after an operand
                kind = self.peek()
                if kind in _BINARY:
                    # `->` is right-associative, `&` and `|` left-associative
                    while ops and (_STRENGTH.get(ops[-1], -1) > _STRENGTH[kind]
                                   or ops[-1] == kind != "ARROW"):
                        _reduce(out, ops.pop())
                    self.pos += 1
                    ops.append(kind)
                    break
                while ops and ops[-1] != "(":
                    _reduce(out, ops.pop())
                if not ops:
                    return out.pop()
                self.expect(")")
                ops.pop()

    def parse_atom(self) -> Formula:
        index = self.pos
        text = self.texts[index]
        kind = self.kinds[text]
        if kind in ("?", "*"):
            lhs = self.parse_term()
            self.expect("=")
            return Equality(lhs, self.parse_term())
        if kind != "IDENT":
            raise self.error(f"expected an atom, found {text or 'end of input'!r}")
        self.pos += 1
        args = self._parse_optional_args()
        if self.peek() == "=":
            self.pos += 1
            symbol = self._function(text, len(args), index)
            return Equality(Application(symbol, tuple(args)), self.parse_term())
        return PredApp(self._predicate_symbol(text, len(args), index), tuple(args))


def _reduce(out: list[Formula], op) -> None:
    """Apply the operator `op` from the parser's stack to operands on `out`."""
    if op == "!":
        out.append(Not(out.pop()))
    elif isinstance(op, tuple):
        quantifier, var = op
        out.append(quantifier(var, out.pop()))
    else:
        rhs = out.pop()
        out.append(_BINARY[op](out.pop(), rhs))


def _parse_all(text: str, parse) -> Term | Formula:
    parser = _Parser(text)
    result = parse(parser)
    if parser.peek() != "EOF":
        raise parser.error(f"trailing input {parser.texts[parser.pos]!r}")
    return result


def parse_formula(text: str) -> Formula:
    """Parse one formula; reports syntax errors with line/column."""
    return _parse_all(text, _Parser.parse_formula)


def parse_term(text: str) -> Term:
    return _parse_all(text, _Parser.parse_term)


# ---------------------------------------------------------------------------
# Printing

_LEVEL_IMPLIES, _LEVEL_OR, _LEVEL_AND, _LEVEL_NOT = 0, 1, 2, 3

# connective: (its own level, infix text, the levels its sides require)
_INFIX = {
    And: (_LEVEL_AND, " & ", _LEVEL_AND, _LEVEL_AND + 1),
    Or: (_LEVEL_OR, " | ", _LEVEL_OR, _LEVEL_OR + 1),
    Implies: (_LEVEL_IMPLIES, " -> ", _LEVEL_IMPLIES + 1, _LEVEL_IMPLIES),
}


def _render(stack: list) -> str:
    """Write out what the stack holds, the next piece on top: text, a
    term, or a (formula, level its context requires) pair."""
    parts: list[str] = []
    while stack:
        item = stack.pop()
        cls = type(item)
        if cls is str:
            parts.append(item)
        elif cls is Application or cls is PredApp:
            args = item.args
            if not args:
                parts.append(item.symbol.name)
                continue
            parts.append(f"{item.symbol.name}(")
            stack.append(")")
            for a in args[:0:-1]:  # the later arguments, last first
                stack += (a, ", ")
            stack.append(args[0])
        elif cls is tuple:
            f, level = item
            cls = type(f)
            if cls is Equality or cls is PredApp:
                stack.append(f)  # an atom is written like a term
                continue
            if cls in _INFIX:
                own, infix, left, right = _INFIX[cls]
                pieces = [(f.lhs, left), infix, (f.rhs, right)]
            elif cls is Not:
                own, pieces = _LEVEL_NOT, ["!", (f.body, _LEVEL_NOT)]
            elif cls is Exists or cls is Forall:
                word = "exists" if cls is Exists else "forall"
                own, pieces = _LEVEL_IMPLIES, [f"{word} ?{f.var.name}. ", (f.body, _LEVEL_IMPLIES)]
            else:
                raise ValueError(f"not a formula: {f!r}")
            if own < level:
                pieces = ["(", *pieces, ")"]
            stack += pieces[::-1]
        elif cls is Equality:
            stack += (item.rhs, " = ", item.lhs)
        elif cls is Variable:
            parts.append(f"?{item.name}")
        elif cls is Unknown:
            parts.append(f"*{item.index}")
        else:
            raise ValueError(f"not a term: {item!r}")
    return "".join(parts)


def print_term(t: Term) -> str:
    return _render([t])


def print_formula(f: Formula) -> str:
    """Render f with minimal parentheses; parse(print_formula(f)) == f."""
    return _render([(f, _LEVEL_IMPLIES)])
