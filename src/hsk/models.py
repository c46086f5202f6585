"""Explicit structures and evaluation of ground formulas.

Domains are sets of naturals; the lazily evaluated structures over all of N
are represented by their rule tables, so evaluation of any ground term
touches only finitely many elements.  Also provides the countermodel
assignment builder used to falsify several formula variants at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Mapping

from .syntax import (
    And,
    Application,
    ContractError,
    Equality,
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
    rebuild,
    special_constant,
)


# ---------------------------------------------------------------------------
# Pairing


def pairing_j(j: int, k: int) -> int:
    """J(j, k) = (j+k)(j+k+1) + k + 1; injective, never 0."""
    if j < 0 or k < 0:
        raise ContractError("pairing arguments must be naturals")
    return (j + k) * (j + k + 1) + k + 1


def unpair(n: int) -> tuple[int, int] | None:
    """The unique (j, k) with J(j, k) = n, or None (only for n = 0)."""
    if n <= 0:
        return None
    # t(t+1) + 1 <= n <= t(t+1) + t + 1 determines t = j + k
    t = (math.isqrt(4 * n - 3) - 1) // 2
    while t * (t + 1) + t + 1 < n:
        t += 1
    while t * (t + 1) + 1 > n:
        t -= 1
    k = n - t * (t + 1) - 1
    j = t - k
    if j < 0 or k < 0 or pairing_j(j, k) != n:
        return None
    return (j, k)


# ---------------------------------------------------------------------------
# Structures


@dataclass(frozen=True, eq=False)
class Structure:
    """An interpretation: total function rules plus predicate rules.

    `domain` is an explicit finite set, or None for "all naturals, lazily
    evaluated".  The rule callables must be total over the domain (they
    encode the mandatory default cases).
    """

    name: str
    domain: frozenset[int] | None
    fn_rule: Callable[[FunctionSymbol, tuple[int, ...]], int]
    pred_rule: Callable[[PredicateSymbol, tuple[int, ...]], bool]


def eval_term(structure: Structure, t: Term) -> int:
    """Denotation of a ground, unknown-free term."""

    def value(u: Term, args: tuple[int, ...]) -> int:
        if not isinstance(u, Application):
            raise ContractError(f"evaluation needs a closed term, got {u}")
        out = structure.fn_rule(u.symbol, args)
        if structure.domain is not None and out not in structure.domain:
            raise ContractError(f"{structure.name}: rule for {u.symbol.name} left the domain")
        return out

    return rebuild(t, combine=value)


def holds(structure: Structure, f: Formula) -> bool:
    """Classical evaluation of a ground quantifier-free formula.

    A connective's right side is evaluated only when its left side does
    not decide it; connectives wait on a stack while their left side is.
    """
    pending: list[Formula] = []
    while True:
        while isinstance(f, (Not, And, Or, Implies)):
            pending.append(f)
            f = f.body if isinstance(f, Not) else f.lhs
        if isinstance(f, Equality):
            value = eval_term(structure, f.lhs) == eval_term(structure, f.rhs)
        elif isinstance(f, PredApp):
            value = structure.pred_rule(f.symbol, tuple(eval_term(structure, a) for a in f.args))
        else:
            raise ContractError("holds requires a quantifier-free formula")
        while pending:
            g = pending.pop()
            if isinstance(g, Not):
                value = not value
            elif value == isinstance(g, Or):  # the left side decides g
                value = not isinstance(g, And)
            else:  # g has the truth value of its right side
                f = g.rhs
                break
        else:
            return value


def _no_predicates(_symbol: PredicateSymbol, _args: tuple[int, ...]) -> bool:
    return False


_ZERO_PLAIN = special_constant(SpecialBase.ZERO, 0)
_ZERO_HAT_PLAIN = special_constant(SpecialBase.ZERO_HAT, 0)
_ZERO_TILDE_PLAIN = special_constant(SpecialBase.ZERO_TILDE, 0)
_K_TILDE_PLAIN = special_constant(SpecialBase.K_TILDE, 0)


def two_point_structure() -> Structure:
    """Domain {0, 1}: the base constant is 0, successor is the identity and
    every other symbol yields 1."""

    def fn(symbol: FunctionSymbol, args: tuple[int, ...]) -> int:
        if symbol == _ZERO_PLAIN:
            return 0
        if symbol == SUCC:
            return args[0]
        return 1

    return Structure("two-point", frozenset({0, 1}), fn, _no_predicates)


def table_structure() -> Structure:
    """Domain {0, 2, 3, 4, 5} with the hatted/tilded constants at 2, 3, 4,
    successor fixing 2 and 3, and pairing sending (2,3) to 5 and (5,4) to 4."""

    def fn(symbol: FunctionSymbol, args: tuple[int, ...]) -> int:
        if symbol == _ZERO_HAT_PLAIN:
            return 2
        if symbol == _ZERO_TILDE_PLAIN:
            return 3
        if symbol == _K_TILDE_PLAIN:
            return 4
        if symbol == SUCC:
            return args[0] if args[0] in (2, 3) else 0
        if symbol == PAIR:
            if args == (2, 3):
                return 5
            if args == (5, 4):
                return 4
            return 0
        return 0

    return Structure("table", frozenset({0, 2, 3, 4, 5}), fn, _no_predicates)


# ---------------------------------------------------------------------------
# Alpha assignments and the lazily evaluated countermodel family


class AlphaAssignment:
    """Interpretation of the special constants; everything defaults to 0."""

    def __init__(self, values: Mapping[FunctionSymbol, int] | None = None):
        self._values: dict[FunctionSymbol, int] = {}
        for symbol, value in (values or {}).items():
            if symbol.special is None:
                raise ContractError(f"{symbol.name} is not a special constant")
            if value < 0:
                raise ContractError("alpha values must be naturals")
            self._values[symbol] = value

    def value(self, symbol: FunctionSymbol) -> int:
        return self._values.get(symbol, 0)

    def items(self) -> list[tuple[FunctionSymbol, int]]:
        order = {base: rank for rank, base in enumerate(SpecialBase)}
        return sorted(
            self._values.items(),
            key=lambda kv: (kv[0].special.language_index, order[kv[0].special.base]),
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AlphaAssignment) and self._values == other._values

    def __repr__(self) -> str:
        inner = ", ".join(f"{s.name}={v}" for s, v in self.items())
        return f"AlphaAssignment({inner})"


def m_alpha(alpha: AlphaAssignment) -> Structure:
    """The structure over all naturals whose successor and pairing rules
    follow the J-partition and whose special constants are read from alpha.

    All predicates are false and every other function symbol yields 0.
    """

    def fn(symbol: FunctionSymbol, args: tuple[int, ...]) -> int:
        if symbol.special is not None:
            return alpha.value(symbol)
        if symbol == SUCC:
            parts = unpair(args[0])
            if parts is None:
                return 0
            j, i = parts
            if j == 0:
                return pairing_j(0, i + 1)
            if j in (1, 2, 3):
                return args[0]
            return 0
        if symbol == PAIR:
            left, right = unpair(args[0]), unpair(args[1])
            if left is None or right is None:
                return 0
            (j1, i1), (j2, i2) = left, right
            if j1 == 0 and j2 == 0:
                return pairing_j(0, pairing_j(i1, i2))
            if j1 == 1 and j2 == 1 and i1 == i2:
                return pairing_j(5, i1)
            if j1 == 2 and j2 == 3 and i1 == i2:
                return pairing_j(5, i1)
            if j1 == 5 and j2 == 4 and i1 == i2:
                return pairing_j(4, i1)
            return 0
        return 0

    return Structure("m-alpha", None, fn, _no_predicates)


# ---------------------------------------------------------------------------
# Stage-wise countermodel construction


class FailureCase(Enum):
    """Which kind of conjunct of a variant instance failed validity."""

    NUM_OR_TAB = "num/tab"
    TILDE_NUM_OR_TAB = "num~/tab~"
    SIM_OR_SIM_TILDE = "sim/sim~"
    PLUS_OR_TIM = "plus/tim"


@dataclass(frozen=True)
class Diagnosis:
    case: FailureCase
    m: int | None = None

    def __post_init__(self) -> None:
        if self.case is FailureCase.PLUS_OR_TIM and self.m is None:
            raise ContractError("plus/tim diagnosis needs its numeral parameter")


def construct_alpha(failing: Iterable[tuple[int, Diagnosis]]) -> AlphaAssignment:
    """Build an assignment falsifying one diagnosed conjunct per language.

    Constants of languages without a diagnosis keep the default value 0.
    """
    values: dict[FunctionSymbol, int] = {}
    seen: set[int] = set()
    for index, diagnosis in failing:
        if index in seen:
            raise ContractError(f"two diagnoses for language {index}")
        seen.add(index)
        if not isinstance(diagnosis, Diagnosis):
            raise ContractError(f"not a diagnosis: {diagnosis!r}")
        z = special_constant(SpecialBase.ZERO, index)
        zh = special_constant(SpecialBase.ZERO_HAT, index)
        zt = special_constant(SpecialBase.ZERO_TILDE, index)
        kk = special_constant(SpecialBase.K, index)
        kt = special_constant(SpecialBase.K_TILDE, index)
        if diagnosis.case is FailureCase.NUM_OR_TAB:
            values.update({z: pairing_j(1, index), kk: pairing_j(4, index),
                           zh: 0, zt: 0, kt: 0})
        elif diagnosis.case is FailureCase.TILDE_NUM_OR_TAB:
            values.update({zh: pairing_j(2, index), zt: pairing_j(3, index),
                           kt: pairing_j(4, index), z: 0, kk: 0})
        elif diagnosis.case is FailureCase.SIM_OR_SIM_TILDE:
            origin = pairing_j(0, 0)
            values.update({z: origin, zh: origin, zt: origin, kk: origin, kt: origin})
        elif diagnosis.case is FailureCase.PLUS_OR_TIM:
            assert diagnosis.m is not None
            values.update({
                z: pairing_j(0, 0),
                kk: pairing_j(0, 0),
                zh: pairing_j(0, 1),
                zt: pairing_j(0, diagnosis.m),
                kt: pairing_j(0, pairing_j(pairing_j(0, 0), 0)),
            })
        else:  # pragma: no cover - enum is exhaustive
            raise ContractError(f"unknown failure case {diagnosis.case}")
    return AlphaAssignment(values)
