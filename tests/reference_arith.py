"""The recognizer of `hsk.arith` as it was before recognition read the
builders' own formulas: `recognize_conjunct` tries each language of the
special constants in the conjunct, and `_recognize_in_language` inverts the
eight primitive shapes by hand.  Kept unchanged, apart from its imports,
as the reference that tests compare the template matcher against."""

from __future__ import annotations

from hsk.arith import (
    Primitive,
    PrimKind,
    k_plain,
    k_tilde,
    zero,
    zero_hat,
    zero_tilde,
)
from hsk.syntax import (
    Application,
    Equality,
    Formula,
    Implies,
    flatten_and,
    nodes,
    pair,
    succ,
)


def _candidate_languages(f: Formula) -> list[int]:
    """Language indices of the special constants occurring in f."""
    indices: list[int] = []
    for t in nodes(f):
        if isinstance(t, Application) and t.symbol.special is not None:
            index = t.symbol.special.language_index
            if index not in indices:
                indices.append(index)
    return indices


def recognize_conjunct(f: Formula) -> Primitive | None:
    """Match one implication against the eight primitive shapes.

    The language is determined by the hypothesis pattern's fixed constants;
    argument slots may mention constants of other languages.
    """
    for lang in _candidate_languages(f):
        p = _recognize_in_language(f, lang)
        if p is not None:
            return p
    return None


def _recognize_in_language(f: Formula, lang: int) -> Primitive | None:
    if not isinstance(f, Implies) or not isinstance(f.rhs, Equality):
        return None
    hyp = flatten_and(f.lhs)
    if not all(isinstance(h, Equality) for h in hyp):
        return None
    concl: Equality = f.rhs
    z, zh, zt = zero(lang), zero_hat(lang), zero_tilde(lang)
    kk, kt = k_plain(lang), k_tilde(lang)
    if len(hyp) == 1:
        h = hyp[0]
        if h == Equality(z, succ(z)) and concl.lhs == z:
            return Primitive(PrimKind.NUM, (concl.rhs,), lang)
        if h == Equality(zt, succ(zt)) and concl.lhs == zt:
            return Primitive(PrimKind.NUM_TILDE, (concl.rhs,), lang)
        if h == Equality(z, zt):
            return Primitive(PrimKind.SIM, (concl.lhs, concl.rhs), lang)
        if h.lhs == zt:
            return Primitive(PrimKind.PLUS, (h.rhs, concl.rhs, concl.lhs), lang)
        return None
    if len(hyp) == 2:
        if hyp[0] == Equality(z, succ(z)) and hyp[1] == Equality(
            kk, pair(pair(z, z), kk)
        ) and concl.lhs == kk:
            return Primitive(PrimKind.TAB, (concl.rhs,), lang)
        return None
    if len(hyp) == 3:
        if (hyp[0] == Equality(zh, succ(zh)) and hyp[1] == Equality(zt, succ(zt))
                and hyp[2] == Equality(kt, pair(pair(zh, zt), kt)) and concl.lhs == kt):
            return Primitive(PrimKind.TAB_TILDE, (concl.rhs,), lang)
        if (hyp[0] == Equality(z, zh) and hyp[1] == Equality(z, zt)
                and hyp[2] == Equality(kk, kt)):
            return Primitive(PrimKind.SIM_TILDE, (concl.lhs, concl.rhs), lang)
        if (hyp[0].lhs == zh and hyp[0].rhs == succ(z) and hyp[1].lhs == zt
                and hyp[2] == Equality(kt, pair(pair(z, z), kk))
                and isinstance(concl.rhs, Application)
                and concl.rhs.symbol.name == "pair"):
            outer = concl.rhs
            row = outer.args[0]
            if isinstance(row, Application) and row.symbol.name == "pair":
                x = hyp[1].rhs
                y, z_arg = row.args
                return Primitive(
                    PrimKind.TIM, (x, y, z_arg, outer.args[1], concl.lhs), lang
                )
        return None
    return None
