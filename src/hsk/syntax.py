"""Abstract syntax for first-order logic with identity.

Terms may contain named variables and *unknowns* (indexed solution slots
written ``*1``, ``*2``, ...).  Unknowns are a separate constructor rather
than nullary applications so that solution terms can be recognised
structurally.

Terms, formulas and the symbols in them are hash-consed (Filliâtre &
Conchon, "Type-safe modular hash-consing", ML Workshop 2006): building one
returns the live one with the same class and fields when there is one, so
structurally equal values are one object.  Equality is identity and the
hash is the object's address, both computed in C; neither recurses.  Nodes
and symbols are immutable.  One table, `_NODES`, holds them all: a plain
dict from a value's class and fields to a weak reference to the value, so
building one is one dict lookup and one call of the reference found.  A
symbol in a key is hashed by its address, so looking a node up calls no
Python code.  The reference's callback removes the entry when the value
dies, so the table keeps nothing alive and shrinks when values are
dropped.

No function here recurses on the structure of its input, so terms and
formulas of any depth are handled.  Every walker is built on two
iterative primitives over the distinct nodes of a term or formula:
`nodes`, a preorder walk, and `rebuild`, a bottom-up rebuild (or fold)
that returns untouched nodes as they are.  A shared subterm is one node,
so both are linear in the number of distinct nodes even on DAG-shaped
input.  Each node records at construction whether it is `ground` (free of
variables and unknowns), so substitution skips ground subtrees.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping, Union


class ContractError(ValueError):
    """An operation was called outside its stated contract."""


# ---------------------------------------------------------------------------
# The intern table


class _Entry(weakref.ref):
    """A weak reference to an interned value that knows the value's key in
    `_NODES`."""

    __slots__ = ("key",)


def _forget(entry: _Entry) -> None:
    """The callback of a dying value's entry: drop the entry if `_NODES`
    still holds it.  A value built anew after the old one died holds the
    key under an entry of its own, which stays."""
    if _NODES.get(entry.key) is entry:
        del _NODES[entry.key]


def _absent() -> None:
    """Stands for a missing entry: called, it gives None, as an entry whose
    value died does."""
    return None


# Every live symbol, term and formula, keyed by its class and its fields, as
# a weak reference that its callback drops when the value dies.
_NODES: dict[tuple, _Entry] = {}

_set = object.__setattr__  # sets a field of a frozen dataclass


def _enter(key: tuple, value: object) -> None:
    """Enter a weak reference to the checked `value` under `key`."""
    entry = _NODES[key] = _Entry(value, _forget)
    entry.key = key


class _Interned:
    """A value interned in `_NODES`: a symbol, a term or a formula.

    `__new__` is the only constructor.  It looks its class and fields up in
    `_NODES` and calls the weak reference found there, which gives the live
    value.  Where there is none, it builds one, checks it in
    `__post_init__` and only then enters it, so a value that fails its
    checks is never shared and none is kept alive by the table.  Subclasses
    are frozen dataclasses with `eq=False` and `init=False`, so equality
    and the hash are `object`'s, and their fields are given positionally.
    """

    def __new__(cls, *fields):
        key = (cls, *fields)
        value = _NODES.get(key, _absent)()
        if value is None:
            names = cls.__match_args__
            if len(fields) != len(names):
                raise TypeError(f"{cls.__name__} takes {len(names)} fields, got {len(fields)}")
            value = object.__new__(cls)
            for name, field_value in zip(names, fields):
                _set(value, name, field_value)
            value.__post_init__()
            _enter(key, value)
        return value

    def __post_init__(self) -> None:
        pass


# ---------------------------------------------------------------------------
# Symbols


class SpecialBase(Enum):
    """The five reserved constants of the arithmetic-simulation languages."""

    ZERO = "z"
    ZERO_HAT = "zh"
    ZERO_TILDE = "zt"
    K = "k"
    K_TILDE = "kt"


@dataclass(frozen=True, eq=False, init=False)
class SpecialTag(_Interned):
    """The base and language of a special constant."""

    base: SpecialBase
    language_index: int  # 0 = the unindexed language

    def __post_init__(self) -> None:
        if self.language_index < 0:
            raise ContractError("language index must be >= 0")


@dataclass(frozen=True, eq=False, init=False)
class FunctionSymbol(_Interned):
    """A function symbol; a special constant carries its tag."""

    name: str
    arity: int
    special: SpecialTag | None = None

    def __new__(cls, name: str, arity: int, special: SpecialTag | None = None):
        return super().__new__(cls, name, arity, special)  # `f, 0` and `f, 0, None`: one key

    def __post_init__(self) -> None:
        if self.arity < 0:
            raise ContractError(f"negative arity for {self.name}")
        if self.special is not None and self.arity != 0:
            raise ContractError("special constants must be nullary")

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"


@dataclass(frozen=True, eq=False, init=False)
class PredicateSymbol(_Interned):
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


_GROUND = attrgetter("ground")


class Node(_Interned):
    """A hash-consed term or formula.  `ground` is true when no variable
    or unknown lies at or below the node; `__post_init__` computes it from
    the children, so a subclass that checks more calls it at the end."""

    ground = True

    def __post_init__(self) -> None:
        if not all(map(_GROUND, _CHILDREN[type(self)](self))):
            _set(self, "ground", False)

    def __str__(self) -> str:
        from .textform import print_formula, print_term  # textform imports this module

        return (print_term if isinstance(self, Term) else print_formula)(self)


class Term(Node):
    pass


@dataclass(frozen=True, eq=False, init=False)
class Variable(Term):
    """A named variable; its kind is derived from the leading letter."""

    name: str
    kind: VarKind = field(init=False)
    ground = False
    size = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ContractError("empty variable name")
        _set(self, "kind", _kind_of(self.name))


@dataclass(frozen=True, eq=False, init=False)
class Unknown(Term):
    """A solution slot: a designated constant written ``*i``."""

    index: Union[int, str]
    ground = False
    size = 0


@dataclass(frozen=True, eq=False, init=False)
class Application(Term):
    """A function symbol applied to its arguments.

    The most often built node, so it has a constructor of its own: a hit
    is one lookup, and a miss checks the arity and computes `size` and
    `ground` in one pass over the arguments.
    """

    symbol: FunctionSymbol
    args: tuple[Term, ...]
    size: int = field(init=False, repr=False)  # term_size: variables and unknowns count 0

    def __new__(cls, symbol: FunctionSymbol, args: tuple[Term, ...]):
        key = (cls, symbol, args)
        node = _NODES.get(key, _absent)()
        if node is None:
            if len(args) != symbol.arity:
                raise ContractError(f"{symbol.name} expects {symbol.arity} args, got {len(args)}")
            size, ground = 1, True
            for arg in args:
                size += arg.size
                if not arg.ground:
                    ground = False
            node = object.__new__(cls)
            _set(node, "symbol", symbol)
            _set(node, "args", args)
            _set(node, "size", size)
            if not ground:
                _set(node, "ground", False)
            _enter(key, node)
        return node


def const(symbol: FunctionSymbol) -> Term:
    return Application(symbol, ())


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
        super().__post_init__()


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
    return _join(parts, And, "conjunction")


def disj(parts: Iterable[Formula]) -> Formula:
    return _join(parts, Or, "disjunction")


def _join(parts: Iterable[Formula], connective: type, name: str) -> Formula:
    items = list(parts)
    if not items:
        raise ContractError(f"empty {name}")
    return functools.reduce(connective, items)


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


# The direct subnodes of a node by its class, left to right; a quantifier's
# variable comes before its body.
_CHILDREN: dict[type, Callable[[Node], tuple[Node, ...]]] = {
    **dict.fromkeys((Variable, Unknown), lambda n: ()),
    **dict.fromkeys((Application, PredApp), attrgetter("args")),
    **dict.fromkeys((Equality, And, Or, Implies), attrgetter("lhs", "rhs")),
    Not: lambda n: (n.body,),
    **dict.fromkeys((Exists, Forall), attrgetter("var", "body")),
}


def nodes(root: Node, into: type | tuple[type, ...] = Node) -> Iterator[Node]:
    """The distinct nodes of root in preorder, left to right, each once.

    A node met again is skipped with everything below it, so each node
    comes at its first occurrence.  Only the children of nodes of the
    classes `into` are visited.
    """
    seen: set[Node] = set()
    stack = [root]
    while stack:
        n = stack.pop()
        if n not in seen:
            seen.add(n)
            yield n
            if isinstance(n, into):
                stack += _CHILDREN[type(n)](n)[::-1]  # the leftmost child pops first


def rebuild(root: Node, replace: Callable[[Node], object] = lambda n: None,
            combine: Callable[[Node, tuple], object] | None = None) -> object:
    """The image of root, computed bottom-up over its distinct nodes.

    Nodes are met in preorder, left to right.  A node for which `replace`
    returns something other than None has that as its image, and nothing
    below it is visited.  Any other node has the image
    `combine(node, images of its children)`.  Without `combine`, that is
    the node rebuilt from the images, or the node itself when they are its
    children.
    """
    image: dict[Node, object] = {}
    stack: list = [root]  # a node to enter, or (node, its children) to leave
    while stack:
        n = stack.pop()
        if type(n) is tuple:
            n, kids = n
            images = tuple(map(image.__getitem__, kids))
            if combine is not None:
                image[n] = combine(n, images)
            elif images == kids:
                image[n] = n
            elif isinstance(n, (Application, PredApp)):
                image[n] = type(n)(n.symbol, images)
            else:
                image[n] = type(n)(*images)
        elif n not in image:
            found = replace(n)
            if found is None:
                kids = _CHILDREN[type(n)](n)
                stack.append((n, kids))
                stack += kids[::-1]  # the leftmost child is entered first
            else:
                image[n] = found
    return image[root]


def subterms(t: Term) -> Iterator[Term]:
    """All subterms of t including t itself, outside in and left to right;
    a repeated subterm comes once per occurrence."""
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
    return t.size


_CONNECTIVES = (Not, And, Or, Implies)


def atoms_of(f: Formula) -> list[Atom]:
    """Distinct atoms of a quantifier-free formula, in first occurrence order."""
    out: list[Atom] = []
    for g in nodes(f, _CONNECTIVES):
        if isinstance(g, (Equality, PredApp)):
            out.append(g)
        elif not isinstance(g, _CONNECTIVES):
            raise ContractError("input must be quantifier-free")
    return out


# ---------------------------------------------------------------------------
# Signatures


@dataclass(frozen=True)
class Signature:
    function_symbols: frozenset[FunctionSymbol]
    predicate_symbols: frozenset[PredicateSymbol]


# ---------------------------------------------------------------------------
# Substitution


def substitute(x: Node, bindings: Mapping[Term, Term]) -> Node:
    """x with every unknown or variable that `bindings` maps replaced by
    its image, all at once: {*1 -> *2, *2 -> a} sends ``*1 = *2`` to
    ``*2 = a``.  x must be quantifier-free; a quantifier raises
    ContractError.  A subtree that no replacement reaches, every ground
    one among them, is returned as it is, not rebuilt."""

    def replace(n: Node) -> Node | None:
        if n.ground:
            return n
        if isinstance(n, (Exists, Forall)):
            raise ContractError("substitution needs quantifier-free input")
        return bindings.get(n)

    return rebuild(x, replace)


# ---------------------------------------------------------------------------
# Canonical term order

_UNKNOWN_RANK, _VARIABLE_RANK, _APPLICATION_RANK = 0, 1, 2


def canonical_key(t: Term) -> tuple:
    """Sort key realising the deterministic term order: by size, then by
    symbol name and arity, then argument-wise.

    The key is flat: (size, rank, name, arity) for each subterm in
    preorder.  An unknown puts 0 (integer index) or 1 (named) in the name
    slot and its index in the arity slot.  Each subterm's entries tell how
    many arguments follow, so no key is a proper prefix of another, and
    comparing flat keys gives the argument-wise order.
    """
    key: list = []
    for u in subterms(t):
        if isinstance(u, Application):
            key += (u.size, _APPLICATION_RANK, u.symbol.name, u.symbol.arity)
        elif isinstance(u, Variable):
            key += (0, _VARIABLE_RANK, u.name, 0)
        elif isinstance(u, Unknown):
            key += (0, _UNKNOWN_RANK, 0 if isinstance(u.index, int) else 1, u.index)
        else:
            raise ContractError(f"not a term: {u!r}")
    return tuple(key)
