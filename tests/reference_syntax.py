"""`hsk.syntax.canonical_key` as it was before the key became flat: a
nested tuple per term, built by recursion on the arguments.  Kept unchanged
as the reference that tests compare the flat key's order against."""

from __future__ import annotations

from hsk.syntax import Application, ContractError, Term, Unknown, Variable, term_size

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
