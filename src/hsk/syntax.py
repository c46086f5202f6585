"""Abstract syntax for first-order logic with identity.

Terms may contain named variables and *unknowns* (indexed solution slots
written ``*1``, ``*2``, ...).  Unknowns are a separate constructor rather
than nullary applications so that solution terms can be recognised
structurally.

Terms and formulas are hash-consed (Filliâtre & Conchon, "Type-safe
modular hash-consing", ML Workshop 2006): building a node returns the live
node with the same class and fields when there is one, so structurally
equal nodes are one object.  Equality is identity and the hash is the
object's address; neither recurses.  Nodes are immutable.  The table of
live nodes holds them weakly, so it shrinks when they are dropped.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Mapping, Union


class ContractError(ValueError):
    """An operation was called outside its stated contract."""


class CaptureError(ContractError):
    """A substitution would capture or clash with a bound variable."""


# ---------------------------------------------------------------------------
# Symbols


class SpecialBase(Enum):
    """The five reserved constants of the arithmetic-simulation languages."""

    ZERO = "z"
    ZERO_HAT = "zh"
    ZERO_TILDE = "zt"
    K = "k"
    K_TILDE = "kt"


@dataclass(frozen=True)
class SpecialTag:
    base: SpecialBase
    language_index: int  # 0 = the unindexed language

    def __post_init__(self) -> None:
        if self.language_index < 0:
            raise ContractError("language index must be >= 0")


@dataclass(frozen=True)
class FunctionSymbol:
    name: str
    arity: int
    special: SpecialTag | None = None

    def __post_init__(self) -> None:
        if self.arity < 0:
            raise ContractError(f"negative arity for {self.name}")
        if self.special is not None and self.arity != 0:
            raise ContractError("special constants must be nullary")

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"


@dataclass(frozen=True)
class PredicateSymbol:
    name: str
    arity: int

    def __post_init__(self) -> None:
        if self.arity < 0:
            raise ContractError(f"negative arity for {self.name}")

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"


def special_constant(base: SpecialBase, language_index: int = 0) -> FunctionSymbol:
    """The reserved constant for `base` in language `language_index`."""
    name = base.value if language_index == 0 else f"{base.value}_{language_index}"
    return FunctionSymbol(name, 0, SpecialTag(base, language_index))


SUCC = FunctionSymbol("s", 1)
PAIR = FunctionSymbol("pair", 2)


# ---------------------------------------------------------------------------
# Terms


class VarKind(Enum):
    NUMERIC = "numeric"
    TABLE = "table"
    PLAIN = "plain"


def _kind_of(name: str) -> VarKind:
    if name.startswith("x"):
        return VarKind.NUMERIC
    if name.startswith("w"):
        return VarKind.TABLE
    return VarKind.PLAIN


# Every live term and formula, keyed by its class and its fields.
_NODES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class Node:
    """A hash-consed term or formula.

    `Node.__new__` is the only constructor: it returns the live node with
    the same class and fields, or builds one, checks it in `__post_init__`
    and only then enters it in `_NODES`, so a node that fails its checks
    is never shared.  Subclasses are frozen dataclasses with `eq=False`
    and `init=False`, and their fields are given positionally.
    """

    def __new__(cls, *fields):
        key = (cls, *fields)
        node = _NODES.get(key)
        if node is None:
            names = cls.__match_args__
            if len(fields) != len(names):
                raise TypeError(f"{cls.__name__} takes {len(names)} fields, got {len(fields)}")
            node = object.__new__(cls)
            for name, value in zip(names, fields):
                object.__setattr__(node, name, value)
            node.__post_init__()
            _NODES[key] = node
        return node

    def __post_init__(self) -> None:
        pass


class Term(Node):
    pass


@dataclass(frozen=True, eq=False, init=False)
class Variable(Term):
    """A named variable; its kind is derived from the leading letter."""

    name: str
    kind: VarKind = field(init=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ContractError("empty variable name")
        object.__setattr__(self, "kind", _kind_of(self.name))

    def __str__(self) -> str:
        return f"?{self.name}"


@dataclass(frozen=True, eq=False, init=False)
class Unknown(Term):
    """A solution slot: a designated constant written ``*i``."""

    index: Union[int, str]

    def __str__(self) -> str:
        return f"*{self.index}"


@dataclass(frozen=True, eq=False, init=False)
class Application(Term):
    symbol: FunctionSymbol
    args: tuple[Term, ...]
    size: int = field(init=False, repr=False)  # term_size, from the children

    def __post_init__(self) -> None:
        if len(self.args) != self.symbol.arity:
            raise ContractError(
                f"{self.symbol.name} expects {self.symbol.arity} args, got {len(self.args)}"
            )
        size = 1 + sum([a.size for a in self.args if isinstance(a, Application)])
        object.__setattr__(self, "size", size)

    def __str__(self) -> str:
        if not self.args:
            return self.symbol.name
        return f"{self.symbol.name}({', '.join(str(a) for a in self.args)})"


def const(symbol: FunctionSymbol) -> Term:
    return Application(symbol, ())


def app(symbol: FunctionSymbol, *args: Term) -> Term:
    return Application(symbol, tuple(args))


def succ(t: Term) -> Term:
    return Application(SUCC, (t,))


def pair(a: Term, b: Term) -> Term:
    return Application(PAIR, (a, b))


def numeral(m: int, base: Term) -> Term:
    """The term s^m(base)."""
    if m < 0:
        raise ContractError("numeral exponent must be >= 0")
    t = base
    for _ in range(m):
        t = succ(t)
    return t


def numeral_of(t: Term, base: Term) -> int | None:
    """Return m when t = s^m(base), peeling outer s(...) until base is
    reached; None for any other shape."""
    m = 0
    while t != base:
        if not (isinstance(t, Application) and t.symbol == SUCC):
            return None
        t = t.args[0]
        m += 1
    return m


# ---------------------------------------------------------------------------
# Formulas


class Formula(Node):
    pass


@dataclass(frozen=True, eq=False, init=False)
class Equality(Formula):
    lhs: Term
    rhs: Term


@dataclass(frozen=True, eq=False, init=False)
class PredApp(Formula):
    symbol: PredicateSymbol
    args: tuple[Term, ...]

    def __post_init__(self) -> None:
        if len(self.args) != self.symbol.arity:
            raise ContractError(
                f"{self.symbol.name} expects {self.symbol.arity} args, got {len(self.args)}"
            )


@dataclass(frozen=True, eq=False, init=False)
class Not(Formula):
    body: Formula


@dataclass(frozen=True, eq=False, init=False)
class And(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True, eq=False, init=False)
class Or(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True, eq=False, init=False)
class Implies(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True, eq=False, init=False)
class Exists(Formula):
    var: Variable
    body: Formula


@dataclass(frozen=True, eq=False, init=False)
class Forall(Formula):
    var: Variable
    body: Formula


Atom = Union[Equality, PredApp]


def conj(parts: Iterable[Formula]) -> Formula:
    """Left-associated conjunction; raises on an empty sequence."""
    items = list(parts)
    if not items:
        raise ContractError("empty conjunction")
    out = items[0]
    for f in items[1:]:
        out = And(out, f)
    return out


def disj(parts: Iterable[Formula]) -> Formula:
    items = list(parts)
    if not items:
        raise ContractError("empty disjunction")
    out = items[0]
    for f in items[1:]:
        out = Or(out, f)
    return out


def flatten_and(f: Formula) -> list[Formula]:
    """Conjuncts of the maximal And-tree rooted at f, left to right."""
    return _flatten(f, And)


def flatten_or(f: Formula) -> list[Formula]:
    """Disjuncts of the maximal Or-tree rooted at f, left to right."""
    return _flatten(f, Or)


def _flatten(f: Formula, connective: type) -> list[Formula]:
    parts: list[Formula] = []
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, connective):
            stack += (g.rhs, g.lhs)  # the left part pops first
        else:
            parts.append(g)
    return parts


# ---------------------------------------------------------------------------
# Traversals and metrics


def subterms(t: Term) -> Iterator[Term]:
    """All subterms of t including t itself, outside in and left to right."""
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, Application):
            stack.extend(reversed(t.args))  # the leftmost argument pops first


def term_size(t: Term) -> int:
    """Number of application nodes (= function symbol occurrences) in t.

    Variables and unknowns contribute nothing; constants count one.
    """
    return t.size if isinstance(t, Application) else 0


def is_solution_eligible(t: Term) -> bool:
    """True when t contains neither variables nor unknowns."""
    if isinstance(t, (Variable, Unknown)):
        return False
    if isinstance(t, Application):
        return all(is_solution_eligible(a) for a in t.args)
    return True


def _term_leaves(f: Formula) -> Iterator[Term]:
    if isinstance(f, Equality):
        yield f.lhs
        yield f.rhs
    elif isinstance(f, PredApp):
        yield from f.args
    elif isinstance(f, Not):
        yield from _term_leaves(f.body)
    elif isinstance(f, (And, Or, Implies)):
        yield from _term_leaves(f.lhs)
        yield from _term_leaves(f.rhs)
    elif isinstance(f, (Exists, Forall)):
        yield from _term_leaves(f.body)
    else:
        raise ContractError(f"not a formula: {f!r}")


def atoms_of(f: Formula) -> list[Atom]:
    """Distinct atoms of a quantifier-free formula, in first occurrence order."""
    out: list[Atom] = []
    seen: set[Atom] = set()

    def walk(g: Formula) -> None:
        if isinstance(g, (Equality, PredApp)):
            if g not in seen:
                seen.add(g)
                out.append(g)
        elif isinstance(g, Not):
            walk(g.body)
        elif isinstance(g, (And, Or, Implies)):
            walk(g.lhs)
            walk(g.rhs)
        else:
            raise ContractError("atoms_of requires a quantifier-free formula")

    walk(f)
    return out


def unknowns_of(x: Term | Formula) -> list[Unknown]:
    """Unknowns occurring in x, in first occurrence order."""
    out: list[Unknown] = []
    seen: set[Unknown] = set()

    def scan(t: Term) -> None:
        if isinstance(t, Unknown):
            if t not in seen:
                seen.add(t)
                out.append(t)
        elif isinstance(t, Application):
            for a in t.args:
                scan(a)

    if isinstance(x, Term):
        scan(x)
    else:
        for leaf in _term_leaves(x):
            scan(leaf)
    return out


def variables_of_term(t: Term) -> list[Variable]:
    out: list[Variable] = []
    seen: set[Variable] = set()

    def scan(u: Term) -> None:
        if isinstance(u, Variable):
            if u not in seen:
                seen.add(u)
                out.append(u)
        elif isinstance(u, Application):
            for a in u.args:
                scan(a)

    scan(t)
    return out


def free_variables(f: Formula) -> list[Variable]:
    """Free variables of f in first occurrence order."""
    out: list[Variable] = []
    seen: set[Variable] = set()

    def walk(g: Formula, bound: frozenset[Variable]) -> None:
        if isinstance(g, (Equality, PredApp)):
            for leaf in _term_leaves(g):
                for v in variables_of_term(leaf):
                    if v not in bound and v not in seen:
                        seen.add(v)
                        out.append(v)
        elif isinstance(g, Not):
            walk(g.body, bound)
        elif isinstance(g, (And, Or, Implies)):
            walk(g.lhs, bound)
            walk(g.rhs, bound)
        elif isinstance(g, (Exists, Forall)):
            walk(g.body, bound | {g.var})
        else:
            raise ContractError(f"not a formula: {g!r}")

    walk(f, frozenset())
    return out


def is_quantifier_free(f: Formula) -> bool:
    if isinstance(f, (Equality, PredApp)):
        return True
    if isinstance(f, Not):
        return is_quantifier_free(f.body)
    if isinstance(f, (And, Or, Implies)):
        return is_quantifier_free(f.lhs) and is_quantifier_free(f.rhs)
    return False


# ---------------------------------------------------------------------------
# Signatures


@dataclass(frozen=True)
class Signature:
    function_symbols: frozenset[FunctionSymbol]
    predicate_symbols: frozenset[PredicateSymbol]


def signature_of(f: Formula) -> Signature:
    """Exactly the function and predicate symbols occurring in f."""
    fns = {u.symbol for t in _term_leaves(f) for u in subterms(t) if isinstance(u, Application)}
    preds: set[PredicateSymbol] = set()

    def walk(g: Formula) -> None:
        if isinstance(g, PredApp):
            preds.add(g.symbol)
        elif isinstance(g, Not):
            walk(g.body)
        elif isinstance(g, (And, Or, Implies)):
            walk(g.lhs)
            walk(g.rhs)
        elif isinstance(g, (Exists, Forall)):
            walk(g.body)

    walk(f)
    return Signature(frozenset(fns), frozenset(preds))


# ---------------------------------------------------------------------------
# Substitution


class Substitution:
    """A simultaneous finite map from unknowns/variables to terms.

    Application never rewrites inside already substituted results, so e.g.
    {*1 -> *2, *2 -> a} sends ``*1 = *2`` to ``*2 = a``.
    """

    def __init__(self, bindings: Mapping[Union[Unknown, Variable], Term]):
        for key in bindings:
            if not isinstance(key, (Unknown, Variable)):
                raise ContractError(f"substitution key must be unknown/variable: {key!r}")
        self._bindings = dict(bindings)

    @property
    def bindings(self) -> dict[Union[Unknown, Variable], Term]:
        return dict(self._bindings)

    def domain(self) -> set[Union[Unknown, Variable]]:
        return set(self._bindings)

    def get(self, key: Union[Unknown, Variable]) -> Term | None:
        return self._bindings.get(key)

    def __len__(self) -> int:
        return len(self._bindings)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Substitution) and self._bindings == other._bindings

    def __hash__(self) -> int:
        return hash(frozenset(self._bindings.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k} -> {v}" for k, v in self._bindings.items())
        return f"Substitution({{{inner}}})"

    def is_solution(self) -> bool:
        """All keys unknowns, all replacement terms solution eligible."""
        return all(isinstance(k, Unknown) for k in self._bindings) and all(
            is_solution_eligible(v) for v in self._bindings.values()
        )


def substitute_term(t: Term, sigma: Substitution) -> Term:
    """t with every mapped unknown/variable replaced; a subterm that no
    replacement reaches is returned as it is, not rebuilt."""
    if isinstance(t, Application):
        if not t.args:
            return t
        args = tuple([substitute_term(a, sigma) for a in t.args])
        return t if args == t.args else Application(t.symbol, args)
    repl = sigma.get(t)
    return t if repl is None else repl


def substitute(f: Formula, sigma: Substitution) -> Formula:
    """Simultaneously replace every mapped unknown/variable in f.

    Raises CaptureError when the substitution touches a bound variable or a
    replacement term would be captured by a quantifier of f.  A subformula
    that no replacement reaches is returned as it is, not rebuilt.
    """
    if isinstance(f, Equality):
        lhs, rhs = substitute_term(f.lhs, sigma), substitute_term(f.rhs, sigma)
        return f if lhs is f.lhs and rhs is f.rhs else Equality(lhs, rhs)
    if isinstance(f, PredApp):
        args = tuple([substitute_term(a, sigma) for a in f.args])
        return f if args == f.args else PredApp(f.symbol, args)
    if isinstance(f, Not):
        body = substitute(f.body, sigma)
        return f if body is f.body else Not(body)
    if isinstance(f, (And, Or, Implies)):
        lhs, rhs = substitute(f.lhs, sigma), substitute(f.rhs, sigma)
        return f if lhs is f.lhs and rhs is f.rhs else type(f)(lhs, rhs)
    if isinstance(f, (Exists, Forall)):
        if f.var in sigma.domain():
            raise CaptureError(f"substitution domain contains bound variable {f.var}")
        for key, value in sigma.bindings.items():
            if f.var in variables_of_term(value) and _occurs(key, f.body):
                raise CaptureError(
                    f"replacing {key} with {value} would capture bound {f.var}"
                )
        body = substitute(f.body, sigma)
        return f if body is f.body else type(f)(f.var, body)
    raise ContractError(f"not a formula: {f!r}")


def _occurs(key: Union[Unknown, Variable], f: Formula) -> bool:
    if isinstance(key, Unknown):
        return key in unknowns_of(f)
    return key in free_variables(f)


# ---------------------------------------------------------------------------
# Canonical term order

_UNKNOWN_RANK, _VARIABLE_RANK, _APPLICATION_RANK = 0, 1, 2


def canonical_key(t: Term) -> tuple:
    """Sort key realising the deterministic term order: by size, then by
    symbol name, then argument-wise."""
    if isinstance(t, Application):
        return (
            term_size(t),
            _APPLICATION_RANK,
            t.symbol.name,
            t.symbol.arity,
            tuple(canonical_key(a) for a in t.args),
        )
    if isinstance(t, Variable):
        return (0, _VARIABLE_RANK, t.name)
    if isinstance(t, Unknown):
        idx = t.index
        tag = (0, idx) if isinstance(idx, int) else (1, idx)
        return (0, _UNKNOWN_RANK, tag)
    raise ContractError(f"not a term: {t!r}")
