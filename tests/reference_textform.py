"""The parser of `hsk.textform` as it was before it read token texts: a
`finditer` tokenizer that yields (kind, text, offset) tuples, and a
symbol table consulted at every occurrence of a name.  Kept unchanged as
the reference that tests compare the parser's results and errors against.
"""

from __future__ import annotations

import re

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
    PAIR,
    PredApp,
    PredicateSymbol,
    SUCC,
    Term,
    Unknown,
    Variable,
)
from hsk.textform import ParseError, special_of_name

_TOKEN_RE = re.compile(
    r"""
    (?P<ARROW>->)
  | (?P<NAT>[0-9]+)
  | (?P<IDENT>[A-Za-z][A-Za-z0-9_\#@]*)
  | (?P<PUNCT>[()=,.&|!*?])
  | (?P<BAD>\S)
    """,
    re.VERBOSE,
)  # whitespace matches no alternative, so finditer steps over it

_SPECIAL_ZERO_RE = re.compile(r"^(zh|zt|kt|z|k)_0$")
_QUANTIFIERS = {"exists": Exists, "forall": Forall}
_RESERVED = {SUCC.name: SUCC, PAIR.name: PAIR}

# Token = (kind, text, offset); kind is ARROW, NAT, IDENT, EOF or the
# punctuation character itself.
Token = tuple[str, str, int]


# Binding strength of the operators on the formula parser's stack; open
# parentheses and quantifiers bind less than any binary connective.
_STRENGTH = {"!": 3, "&": 2, "|": 1, "ARROW": 0}
_BINARY = {"&": And, "|": Or, "ARROW": Implies}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[Token] = []  # one finditer pass
        for m in _TOKEN_RE.finditer(text):
            kind, chunk = m.lastgroup, m.group()
            if kind == "BAD":
                raise self.error(f"unexpected character {chunk!r}", (kind, chunk, m.start()))
            self.tokens.append((chunk if kind == "PUNCT" else kind, chunk, m.start()))
        self.tokens.append(("EOF", "", len(text)))
        self.symbols: dict[str, FunctionSymbol | PredicateSymbol] = {}  # each name read so far

    # -- token plumbing

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok[0] != kind:
            raise self.error(f"expected {kind!r}, found {tok[1] or 'end of input'!r}")
        self.pos += 1
        return tok

    def error(self, message: str, tok: Token | None = None) -> ParseError:
        """A ParseError at the line and column of tok, by default the next
        token; both are computed from its offset only here."""
        offset = (tok or self.peek())[2]
        line = self.text.count("\n", 0, offset) + 1
        return ParseError(message, line, offset - self.text.rfind("\n", 0, offset))

    # -- symbol table

    def _function_symbol(self, name: str, arity: int, tok: Token) -> FunctionSymbol:
        sym = self.symbols.get(name)
        if type(sym) is FunctionSymbol and sym.arity == arity:
            return sym
        if _SPECIAL_ZERO_RE.match(name):
            raise self.error("special constant index 0 is spelled without suffix", tok)
        special = special_of_name(name)
        if special is not None:
            if arity != 0:
                raise self.error(f"special constant {name} takes no arguments", tok)
            sym = special
        elif name in _RESERVED:
            sym = _RESERVED[name]
            if arity != sym.arity:
                raise self.error(f"reserved function {name} takes exactly {sym.arity} "
                                 f"argument{'s' if sym.arity > 1 else ''}", tok)
        elif isinstance(sym, PredicateSymbol):
            raise self.error(f"{name} already used as a predicate", tok)
        elif sym is not None:
            raise self._mismatch(name, sym.arity, arity, tok)
        else:
            sym = FunctionSymbol(name, arity)
        self.symbols[name] = sym
        return sym

    def _predicate_symbol(self, name: str, arity: int, tok: Token) -> PredicateSymbol:
        sym = self.symbols.get(name)
        if type(sym) is PredicateSymbol and sym.arity == arity:
            return sym
        if special_of_name(name) is not None or name in _RESERVED:
            raise self.error(f"{name} is a reserved function name", tok)
        if isinstance(sym, FunctionSymbol):
            raise self.error(f"{name} already used as a function", tok)
        if sym is not None:
            raise self._mismatch(name, sym.arity, arity, tok)
        sym = self.symbols[name] = PredicateSymbol(name, arity)
        return sym

    def _mismatch(self, name: str, seen: int, arity: int, tok: Token) -> ParseError:
        return self.error(f"arity mismatch for {name}: first seen with {seen}, now {arity}", tok)

    # -- terms

    def parse_variable(self) -> Variable:
        self.expect("?")
        return Variable(self.expect("IDENT")[1])

    def parse_unknown(self) -> Unknown:
        self.expect("*")
        kind, text, _ = self.peek()
        if kind not in ("NAT", "IDENT"):
            raise self.error("expected an index or name after '*'")
        self.pos += 1
        return Unknown(int(text) if kind == "NAT" else text)

    def parse_term(self) -> Term:
        """One term; the applications whose arguments are being read wait
        on a stack with the arguments read so far."""
        open_apps: list[tuple[Token, list[Term]]] = []
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            if tok[0] == "?":
                term: Term = self.parse_variable()
            elif tok[0] == "*":
                term = self.parse_unknown()
            elif tok[0] != "IDENT":
                raise self.error(f"expected a term, found {tok[1] or 'end of input'!r}")
            elif tokens[self.pos + 1][0] == "(":
                self.pos += 2
                open_apps.append((tok, []))
                continue
            else:
                self.pos += 1
                term = Application(self._function_symbol(tok[1], 0, tok), ())
            while open_apps:
                head, args = open_apps[-1]
                args.append(term)
                if tokens[self.pos][0] == ",":
                    self.pos += 1
                    break
                self.expect(")")
                open_apps.pop()
                symbol = self._function_symbol(head[1], len(args), head)
                term = Application(symbol, tuple(args))
            else:
                return term

    def _parse_optional_args(self) -> list[Term]:
        if self.peek()[0] != "(":
            return []
        self.pos += 1
        args = [self.parse_term()]
        while self.peek()[0] == ",":
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
            kind, text, _ = self.peek()
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
                kind = self.peek()[0]
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
        tok = self.peek()
        if tok[0] in ("?", "*"):
            lhs = self.parse_term()
            self.expect("=")
            return Equality(lhs, self.parse_term())
        if tok[0] != "IDENT":
            raise self.error(f"expected an atom, found {tok[1] or 'end of input'!r}")
        self.pos += 1
        args = self._parse_optional_args()
        if self.peek()[0] == "=":
            self.pos += 1
            symbol = self._function_symbol(tok[1], len(args), tok)
            return Equality(Application(symbol, tuple(args)), self.parse_term())
        return PredApp(self._predicate_symbol(tok[1], len(args), tok), tuple(args))


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
    tok = parser.peek()
    if tok[0] != "EOF":
        raise parser.error(f"trailing input {tok[1]!r}")
    return result


def parse_formula(text: str) -> Formula:
    return _parse_all(text, _Parser.parse_formula)


def parse_term(text: str) -> Term:
    return _parse_all(text, _Parser.parse_term)
