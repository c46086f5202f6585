"""Quantifier-free simulation of arithmetic over the pairing language.

Diophantine systems (conjunctions of ``a + b = c`` and ``a * b = c`` atoms)
are associated with conjunctions of eight primitive implication shapes over
the special constants, one table variable per additive atom and two per
multiplicative atom.  Each shape is defined once, by its builder: a block is a
tuple of primitives and its formula conjoins theirs, and the recognizer
feeding the countermodel construction matches conjuncts against the
builders' formulas.  One container, `PCArithFormula`, holds an associated
conjunction, its renamed variants over the indexed languages, their ground
instances and recognised instances alike; the n-fold variant conjunction and
the numeral-parameterised reduction share one existential closure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping, Sequence

from . import qcheck
from .models import Diagnosis, FailureCase
from .skeleton import ExistentialFormula
from .syntax import (
    And,
    Application,
    ContractError,
    Equality,
    Formula,
    FunctionSymbol,
    Implies,
    SpecialBase,
    Term,
    VarKind,
    Variable,
    conj,
    const,
    flatten_and,
    numeral,
    numeral_of,
    pair,
    rebuild,
    special_constant,
    substitute,
    succ,
)


def zero(lang: int = 0) -> Term:
    return const(special_constant(SpecialBase.ZERO, lang))


def zero_hat(lang: int = 0) -> Term:
    return const(special_constant(SpecialBase.ZERO_HAT, lang))


def zero_tilde(lang: int = 0) -> Term:
    return const(special_constant(SpecialBase.ZERO_TILDE, lang))


def k_plain(lang: int = 0) -> Term:
    return const(special_constant(SpecialBase.K, lang))


def k_tilde(lang: int = 0) -> Term:
    return const(special_constant(SpecialBase.K_TILDE, lang))


def zero_symbol(lang: int = 0) -> FunctionSymbol:
    """The symbol of `zero(lang)`, the paper's special constant 0 of the
    language with this index; hsk builds its terms through `zero`, and tests
    read the symbol to build signatures and alpha assignments."""
    return special_constant(SpecialBase.ZERO, lang)


# ---------------------------------------------------------------------------
# Primitive builders


def num(t: Term, lang: int = 0) -> Formula:
    """z = s(z) -> z = t"""
    z = zero(lang)
    return Implies(Equality(z, succ(z)), Equality(z, t))


def num_tilde(t: Term, lang: int = 0) -> Formula:
    """zt = s(zt) -> zt = t"""
    zt = zero_tilde(lang)
    return Implies(Equality(zt, succ(zt)), Equality(zt, t))


def sim(a: Term, b: Term, lang: int = 0) -> Formula:
    """z = zt -> a = b"""
    return Implies(Equality(zero(lang), zero_tilde(lang)), Equality(a, b))


def plus(a: Term, b: Term, c: Term, lang: int = 0) -> Formula:
    """zt = a -> c = b"""
    return Implies(Equality(zero_tilde(lang), a), Equality(c, b))


def add(a: Term, b: Term, c: Term, w: Variable, lang: int = 0) -> Formula:
    """Num~(w) & Sim(b, w) & Plus(a, w, c)"""
    return _conjoin(add_block(a, b, c, w, lang))


def tab(t: Term, lang: int = 0) -> Formula:
    """z = s(z) & k = pair(pair(z, z), k) -> k = t"""
    z, kk = zero(lang), k_plain(lang)
    hyp = And(Equality(z, succ(z)), Equality(kk, pair(pair(z, z), kk)))
    return Implies(hyp, Equality(kk, t))


def tab_tilde(t: Term, lang: int = 0) -> Formula:
    """zh = s(zh) & zt = s(zt) & kt = pair(pair(zh, zt), kt) -> kt = t"""
    zh, zt, kt = zero_hat(lang), zero_tilde(lang), k_tilde(lang)
    hyp = conj([
        Equality(zh, succ(zh)),
        Equality(zt, succ(zt)),
        Equality(kt, pair(pair(zh, zt), kt)),
    ])
    return Implies(hyp, Equality(kt, t))


def sim_tilde(a: Term, b: Term, lang: int = 0) -> Formula:
    """z = zh & z = zt & k = kt -> a = b"""
    z = zero(lang)
    hyp = conj([
        Equality(z, zero_hat(lang)),
        Equality(z, zero_tilde(lang)),
        Equality(k_plain(lang), k_tilde(lang)),
    ])
    return Implies(hyp, Equality(a, b))


def tim(x: Term, y: Term, z_arg: Term, w: Term, wt: Term, lang: int = 0) -> Formula:
    """zh = s(z) & zt = x & kt = pair(pair(z, z), k) -> wt = pair(pair(y, z'), w)"""
    z, kk = zero(lang), k_plain(lang)
    hyp = conj([
        Equality(zero_hat(lang), succ(z)),
        Equality(zero_tilde(lang), x),
        Equality(k_tilde(lang), pair(pair(z, z), kk)),
    ])
    return Implies(hyp, Equality(wt, pair(pair(y, z_arg), w)))


def mul(x: Term, y: Term, z_arg: Term, w: Variable, wt: Variable, lang: int = 0) -> Formula:
    """Tab(w) & Tab~(wt) & Sim~(w, wt) & Tim(x, y, z, w, wt)

    The paper's Mul(x, y, z, w, w~): at numerals m, p and m * p, the two
    instances of the (m, p)-semitable make it valid.  The encoding builds
    it through `mul_block`; this conjunction is the definition that tests
    state it with."""
    return _conjoin(mul_block(x, y, z_arg, w, wt, lang))


# ---------------------------------------------------------------------------
# Semitables


@dataclass(frozen=True)
class Semitable:
    """An exponent-pair list; row (p, q) instantiates to pair(s^p(x), s^q(y))
    and the rows chain right-associatively onto the z slot."""

    rows: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        for p, q in self.rows:
            if p < 0 or q < 0:
                raise ContractError("semitable exponents must be naturals")

    def instantiate(self, x: Term, y: Term, z_slot: Term) -> Term:
        out = z_slot
        for p, q in reversed(self.rows):
            row = pair(numeral(p, x), numeral(q, y))
            out = pair(row, out)
        return out

    def is_mp(self, m: int, p: int) -> bool:
        """Does this semitable record the course of values of m * j for
        j = p-1 down to 0?"""
        return self.rows == tuple((j, m * j) for j in range(p - 1, -1, -1))


def mp_semitable(m: int, p: int) -> Semitable:
    """The unique (m, p)-semitable: the paper's course of values of m * j
    for j = p-1 down to 0, whose instances witness Mul(m, p, m * p).  hsk
    finds those witnesses by search; tests build them from this
    definition."""
    if m < 0 or p < 0:
        raise ContractError("table parameters must be naturals")
    return Semitable(tuple((j, m * j) for j in range(p - 1, -1, -1)))


# ---------------------------------------------------------------------------
# Diophantine formulas


class DiophKind(Enum):
    ADD = "+"
    MUL = "*"


@dataclass(frozen=True)
class DiophAtom:
    kind: DiophKind
    a: Term
    b: Term
    c: Term

    def __post_init__(self) -> None:
        for t in (self.a, self.b, self.c):
            _check_dioph_argument(t)

    def terms(self) -> tuple[Term, Term, Term]:
        return (self.a, self.b, self.c)


def _check_dioph_argument(t: Term) -> None:
    if isinstance(t, Variable):
        if t.kind is not VarKind.NUMERIC:
            raise ContractError(f"diophantine variables must be numeric (x...): {t}")
        return
    if numeral_of(t, zero(0)) is None:
        raise ContractError(f"diophantine arguments are variables or numerals: {t}")


@dataclass(frozen=True)
class DiophantineFormula:
    atoms: tuple[DiophAtom, ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ContractError("a diophantine formula needs at least one atom")

    def variables(self) -> tuple[Variable, ...]:
        out: list[Variable] = []
        for atom in self.atoms:
            for t in atom.terms():
                if isinstance(t, Variable) and t not in out:
                    out.append(t)
        return tuple(out)


_DIOPH_LINE = re.compile(
    r"^\s*(?P<a>\S+)\s*(?P<op>[+*])\s*(?P<b>\S+?)\s*=\s*(?P<c>\S+)\s*$"
)
_DIOPH_NUMERAL = re.compile(r"^(?:s\^(?P<exp>[0-9]+)\((?P<base>z)\)|(?P<nat>[0-9]+))$")


def parse_diophantine(text: str) -> DiophantineFormula:
    """Parse a system of lines ``a + b = c`` / ``a * b = c``.

    Numerals are written ``s^k(z)`` or as decimals; anything else names a
    numeric variable (its name must start with ``x``).  Blank lines and
    lines starting with ``#`` are skipped.
    """
    atoms: list[DiophAtom] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _DIOPH_LINE.match(line)
        if m is None:
            raise ContractError(f"line {lineno}: expected 'a + b = c' or 'a * b = c'")
        kind = DiophKind.ADD if m.group("op") == "+" else DiophKind.MUL
        parts = [_parse_dioph_term(m.group(g), lineno) for g in ("a", "b", "c")]
        atoms.append(DiophAtom(kind, *parts))
    if not atoms:
        raise ContractError("empty diophantine system")
    return DiophantineFormula(tuple(atoms))


def _parse_dioph_term(text: str, lineno: int) -> Term:
    m = _DIOPH_NUMERAL.match(text)
    if m is not None:
        exponent = int(m.group("exp") if m.group("exp") is not None else m.group("nat"))
        return numeral(exponent, zero(0))
    if re.match(r"^x[A-Za-z0-9_]*$", text):
        return Variable(text)
    raise ContractError(
        f"line {lineno}: {text!r} is neither a numeral nor a variable (x...)"
    )


# ---------------------------------------------------------------------------
# The associated conjunctions


class PrimKind(Enum):
    NUM = "num"
    NUM_TILDE = "num~"
    SIM = "sim"
    PLUS = "plus"
    TAB = "tab"
    TAB_TILDE = "tab~"
    SIM_TILDE = "sim~"
    TIM = "tim"


# Each kind's builder, its number of argument slots and its failure case,
# in PrimKind order.
_KINDS: dict[PrimKind, tuple[Callable[..., Formula], int, FailureCase]] = {
    PrimKind.NUM: (num, 1, FailureCase.NUM_OR_TAB),
    PrimKind.NUM_TILDE: (num_tilde, 1, FailureCase.TILDE_NUM_OR_TAB),
    PrimKind.SIM: (sim, 2, FailureCase.SIM_OR_SIM_TILDE),
    PrimKind.PLUS: (plus, 3, FailureCase.PLUS_OR_TIM),
    PrimKind.TAB: (tab, 1, FailureCase.NUM_OR_TAB),
    PrimKind.TAB_TILDE: (tab_tilde, 1, FailureCase.TILDE_NUM_OR_TAB),
    PrimKind.SIM_TILDE: (sim_tilde, 2, FailureCase.SIM_OR_SIM_TILDE),
    PrimKind.TIM: (tim, 5, FailureCase.PLUS_OR_TIM),
}


@dataclass(frozen=True)
class Primitive:
    """One implication-shaped conjunct together with its role and arguments."""

    kind: PrimKind
    args: tuple[Term, ...]
    lang: int

    def formula(self) -> Formula:
        builder, _, _ = _KINDS[self.kind]
        return builder(*self.args, lang=self.lang)


def _conjoin(block: tuple[Primitive, ...]) -> Formula:
    return conj(p.formula() for p in block)


def num_block(t: Term, lang: int = 0) -> tuple[Primitive, ...]:
    return (Primitive(PrimKind.NUM, (t,), lang),)


def add_block(a: Term, b: Term, c: Term, w: Term, lang: int = 0) -> tuple[Primitive, ...]:
    return (
        Primitive(PrimKind.NUM_TILDE, (w,), lang),
        Primitive(PrimKind.SIM, (b, w), lang),
        Primitive(PrimKind.PLUS, (a, w, c), lang),
    )


def mul_block(x: Term, y: Term, z_arg: Term, w: Term, wt: Term,
              lang: int = 0) -> tuple[Primitive, ...]:
    return (
        Primitive(PrimKind.TAB, (w,), lang),
        Primitive(PrimKind.TAB_TILDE, (wt,), lang),
        Primitive(PrimKind.SIM_TILDE, (w, wt), lang),
        Primitive(PrimKind.TIM, (x, y, z_arg, w, wt), lang),
    )


@dataclass(frozen=True)
class PCArithFormula:
    """A conjunction of blocks of primitives over one language: an
    associated conjunction, a variant of one, or an instance of either.

    One walk over the primitives' arguments gives the language and the
    variables in first occurrence order, and checks that every numeric
    variable has a Num conjunct and that no table variable is shared by
    two blocks.
    """

    blocks: tuple[tuple[Primitive, ...], ...]
    language_index: int = field(init=False, compare=False)
    _variables: tuple[Variable, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.blocks or not all(self.blocks):
            raise ContractError("empty block conjunction")
        langs: set[int] = set()
        block_of: dict[Variable, int] = {}  # each variable's first block
        covered: set[Term] = set()
        for i, block in enumerate(self.blocks):
            for p in block:
                langs.add(p.lang)
                if p.kind is PrimKind.NUM:
                    covered.add(p.args[0])
                for t in p.args:
                    if isinstance(t, Variable) and block_of.setdefault(t, i) != i \
                            and t.kind is VarKind.TABLE:
                        raise ContractError("table variables must be disjoint across blocks")
        if len(langs) != 1:
            raise ContractError("instance mixes conjuncts of several languages")
        for v in block_of:
            if v.kind is VarKind.NUMERIC and v not in covered:
                raise ContractError(f"numeric variable {v} lacks its Num conjunct")
        object.__setattr__(self, "language_index", langs.pop())
        object.__setattr__(self, "_variables", tuple(block_of))

    def numeric_vars(self) -> tuple[Variable, ...]:
        return tuple(v for v in self._variables if v.kind is VarKind.NUMERIC)

    def table_vars(self) -> tuple[Variable, ...]:
        return tuple(v for v in self._variables if v.kind is VarKind.TABLE)

    def primitives(self) -> tuple[Primitive, ...]:
        return tuple(p for block in self.blocks for p in block)

    def formula(self) -> Formula:
        return conj(map(_conjoin, self.blocks))


def associate(psi: DiophantineFormula, lang: int = 0) -> PCArithFormula:
    """The associated conjunction: three Num conjuncts per atom plus an Add
    or Mul block with fresh table variables, left to right."""
    blocks: list[tuple[Primitive, ...]] = []
    counter = 0
    for atom in psi.atoms:
        a, b, c = (_retarget_language(t, lang) for t in atom.terms())
        blocks += (num_block(a, lang), num_block(b, lang), num_block(c, lang))
        if atom.kind is DiophKind.ADD:
            counter += 1
            blocks.append(add_block(a, b, c, Variable(f"w{counter}"), lang))
        else:
            w1, w2 = Variable(f"w{counter + 1}"), Variable(f"w{counter + 2}")
            counter += 2
            blocks.append(mul_block(a, b, c, w1, w2, lang))
    return PCArithFormula(tuple(blocks))


def _retarget_language(t: Term, lang: int) -> Term:
    if lang == 0 or isinstance(t, Variable):
        return t
    m = numeral_of(t, zero(0))
    if m is None:
        raise ContractError(f"cannot move {t} to language {lang}")
    return numeral(m, zero(lang))


def _mapped(phi: PCArithFormula, fn: Callable[[Term], Term], lang: int) -> PCArithFormula:
    """phi with fn applied to every primitive argument, over language lang."""
    return PCArithFormula(tuple(
        tuple(Primitive(p.kind, tuple(map(fn, p.args)), lang) for p in block)
        for block in phi.blocks
    ))


def instantiate_numeral(phi: PCArithFormula, x: Variable, m: int) -> PCArithFormula:
    """Substitute s^m(0) of the formula's language for the numeric variable x."""
    if x.kind is not VarKind.NUMERIC:
        raise ContractError(f"{x} is not a numeric variable")
    if x not in phi.numeric_vars():
        raise ContractError(f"{x} does not occur in the formula")
    value = numeral(m, zero(phi.language_index))
    return _mapped(phi, lambda t: value if t == x else t, phi.language_index)


def instantiate(phi: PCArithFormula, values: Mapping[Variable, Term]) -> PCArithFormula:
    """Close the formula by substituting ground terms for all variables."""
    missing = [v for v in (*phi.numeric_vars(), *phi.table_vars()) if v not in values]
    if missing:
        raise ContractError(f"instantiation must cover all variables, missing {missing}")
    for value in values.values():
        if not value.ground:
            raise ContractError(f"instantiation values must be closed terms: {value}")
    return _mapped(phi, lambda t: substitute(t, values), phi.language_index)


def make_variant(phi: PCArithFormula, i: int) -> PCArithFormula:
    """Rename constants to language i and suffix every variable with @i."""
    if phi.language_index != 0:
        raise ContractError("variants are formed from the unindexed language")
    if i < 1:
        raise ContractError("variant index must be >= 1")

    def renamed(t: Term) -> Term | None:
        if isinstance(t, Variable):
            return Variable(f"{t.name}@{i}")
        special = t.symbol.special if isinstance(t, Application) else None
        if special is not None and special.language_index == 0:
            return Application(special_constant(special.base, i), ())
        return None

    return _mapped(phi, lambda t: rebuild(t, renamed), i)


def assign_n(phi: PCArithFormula, n: int) -> tuple[PCArithFormula, ...]:
    """Variants 1..n of the formula."""
    if n < 1:
        raise ContractError("variant count must be >= 1")
    return tuple(make_variant(phi, i) for i in range(1, n + 1))


def _variants(psi: DiophantineFormula, n: int) -> tuple[PCArithFormula, ...]:
    """The associated conjunction when n = 1, else its variants 1..n."""
    phi = associate(psi)
    return (phi,) if n == 1 else assign_n(phi, n)


def _closed(variants: tuple[PCArithFormula, ...]) -> ExistentialFormula:
    """The conjunction of the variants, closed over each variant's numeric
    variables and then its table variables."""
    bound = [v for phi in variants for v in (*phi.numeric_vars(), *phi.table_vars())]
    return ExistentialFormula(tuple(bound), conj(phi.formula() for phi in variants))


def encoding(psi: DiophantineFormula, n: int = 1) -> ExistentialFormula:
    """The closed associated conjunction when n = 1, else the closed
    conjunction of its variants 1..n."""
    return _closed(_variants(psi, n))


def reduction_f(
    psi: DiophantineFormula, x: Variable, m: int, n: int = 1
) -> ExistentialFormula:
    """The numeral-indexed family member: substitute s^m(0_i) for x in every
    variant and close the remaining variables existentially."""
    if x not in psi.variables():
        raise ContractError(f"{x} is not free in the system")
    at = psi.variables().index(x)  # every variant keeps the system's variable order
    return _closed(tuple(instantiate_numeral(phi, phi.numeric_vars()[at], m)
                         for phi in _variants(psi, n)))


# ---------------------------------------------------------------------------
# Failure classification


def classify_failures(
    instance: PCArithFormula,
    oracle: Callable[[Formula], bool] = qcheck.is_quasitautology,
    *,
    conjuncts: Sequence[Formula] | None = None,
) -> Diagnosis:
    """First applicable failure case of a non-valid ground variant instance.

    The oracle is asked about `conjuncts`, the instance's conjuncts as they
    were parsed, one per primitive in `primitives()` order; without them,
    about each primitive's builder formula.  Conjunct classes are tried in
    FailureCase order; the additive or multiplicative case reports the
    numeral exponent of the failing conjunct's first argument.
    """
    primitives = instance.primitives()
    if conjuncts is None:
        conjuncts = [p.formula() for p in primitives]
    failing = [p for p, f in zip(primitives, conjuncts, strict=True) if not oracle(f)]
    if not failing:
        raise ContractError("instance is valid; nothing to diagnose")
    for case in FailureCase:
        for p in failing:
            if _KINDS[p.kind][2] is not case:
                continue
            if case is not FailureCase.PLUS_OR_TIM:
                return Diagnosis(case)
            m = numeral_of(p.args[0], zero(p.lang))
            if m is None:
                raise ContractError(
                    f"{p.kind.value} conjunct fails on a non-numeral first argument"
                )
            return Diagnosis(case, m)
    raise ContractError("unreachable: some failing conjunct must classify")


# ---------------------------------------------------------------------------
# Recognising instances from plain formulas


# The argument slots of the templates; no parsed variable has such a name.
_SLOTS = tuple(Variable(f"#{i}") for i in range(5))

# Each kind's builder output in language 0 over the slots, in PrimKind
# order: its hypotheses, flattened, followed by its conclusion.
_TEMPLATES: tuple[tuple[Formula, ...], ...] = tuple(
    (*flatten_and(f.lhs), f.rhs)
    for f in (builder(*_SLOTS[:count]) for builder, count, _ in _KINDS.values())
)


def _match(template: tuple[Formula, ...],
           parts: tuple[Formula, ...]) -> tuple[dict[Variable, Term], int] | None:
    """The slot bindings and the language under which parts is template.

    A slot binds whatever it meets.  Any other template node must meet a
    node of its class with the same symbol, except that a special constant
    meets any special constant with the same base; all of those must share
    one language index, which is the language returned.
    """
    if len(template) != len(parts):
        return None
    bound: dict[Variable, Term] = {}
    lang = None
    stack = list(zip(reversed(template), reversed(parts)))  # the first hypothesis pops first
    while stack:
        t, g = stack.pop()
        if type(t) is Variable:
            bound[t] = g
        elif type(g) is not type(t):
            return None
        elif type(t) is Equality:
            stack += ((t.rhs, g.rhs), (t.lhs, g.lhs))
        elif t.symbol.special is None:
            if g.symbol != t.symbol:
                return None
            stack += zip(reversed(t.args), reversed(g.args))
        else:
            tag = g.symbol.special
            if tag is None or tag.base is not t.symbol.special.base \
                    or lang not in (None, tag.language_index):
                return None
            lang = tag.language_index
    return bound, lang


def recognize_conjunct(f: Formula) -> Primitive | None:
    """The first primitive, in PrimKind order, whose builder gives f.

    f is matched against each builder's own formula with its argument slots
    left open (`_TEMPLATES`); its hypotheses are compared as one flattened
    conjunction.  The language is that of the template's fixed constants;
    argument slots may mention constants of other languages.
    """
    if not isinstance(f, Implies):
        return None
    parts = (*flatten_and(f.lhs), f.rhs)
    for (kind, (_, count, _)), template in zip(_KINDS.items(), _TEMPLATES):
        found = _match(template, parts)
        if found is not None:
            bound, lang = found
            return Primitive(kind, tuple(bound[v] for v in _SLOTS[:count]), lang)
    return None


def recognize_instance(f: Formula) -> PCArithFormula:
    """A conjunction as one block of recognised primitive conjuncts.

    All conjuncts must match a primitive shape over one common language.
    """
    primitives: list[Primitive] = []
    for g in flatten_and(f):
        p = recognize_conjunct(g)
        if p is None:
            raise ContractError(f"conjunct does not match a primitive shape: {g}")
        primitives.append(p)
    return PCArithFormula((tuple(primitives),))
