"""Round trip through the paper's reduction: encode a diophantine system,
solve the encoding's skeleton of size 1 within a term-size bound, and decode
the witness.  Brute-force arithmetic is the oracle: a witness exists within
the bound exactly when the system has a solution whose witness terms fit in
it, and the witness decodes to such a solution.
"""

import itertools
import random

from hsk.arith import encoding, mp_semitable, parse_diophantine
from hsk.skeleton import iter_formula_solutions, make_skeleton
from hsk.syntax import Variable, flatten_and, numeral, numeral_of
from hsk.textform import parse_term

Z, ZH, ZT, K, KT = (parse_term(name) for name in ("z", "zh", "zt", "k", "kt"))

# Largest semitable the search is asked for: larger ones take seconds each.
TABLE_LIMIT = 16


def _table_size(m, p):
    """Term size of the (m, p)-semitable: rows (j, m*j), j < p, on one slot."""
    return 1 + sum(4 + j + m * j for j in range(p))


def _random_system(rng):
    """One or two atoms over at most two variables and the numerals 0..3.
    Most results agree with a planted assignment, so that about half of the
    systems have a solution."""
    planted = {name: rng.randint(0, 3) for name in ("x1", "x2")[:rng.randint(0, 2)]}
    term = lambda: (rng.choice(list(planted)) if planted and rng.random() < 0.5
                    else str(rng.randint(0, 3)))
    atoms = []
    for _ in range(rng.randint(1, 2)):
        op, a, b = rng.choice("+*"), term(), term()
        x, y = (planted[t] if t in planted else int(t) for t in (a, b))
        result = x + y if op == "+" else x * y
        matching = [t for t, v in planted.items() if v == result]
        if rng.random() < 0.3 or result > 3:
            c = term()
        else:
            c = rng.choice(matching) if matching and rng.random() < 0.5 else str(result)
        atoms.append((op, a, b, c))
    return atoms


def _values(atom, assignment):
    return [assignment[t] if t.startswith("x") else int(t) for t in atom[1:]]


def _witness_size(atoms, assignment):
    """The largest term of the witness for a solution: numerals s^v(z), one
    s^b(zt) per sum, one pair of (a, b)-semitables per product."""
    sizes = [v + 1 for v in assignment.values()] or [1]
    for atom in atoms:
        a, b, _ = _values(atom, assignment)
        sizes.append(b + 1 if atom[0] == "+" else _table_size(a, b))
    return max(sizes)


def _solutions(atoms, names, top):
    """Every assignment of 0..top to the names that solves the system."""
    for values in itertools.product(range(top + 1), repeat=len(names)):
        assignment = dict(zip(names, values))
        if all((a + b if op == "+" else a * b) == c
               for op, (a, b, c) in ((atom[0], _values(atom, assignment)) for atom in atoms)):
            yield assignment


def _decode(atoms, names, witness):
    """The assignment the witness encodes, after checking that its table
    terms are the ones that assignment determines."""
    assignment = {name: numeral_of(witness[Variable(name)], Z) for name in names}
    assert None not in assignment.values(), witness
    tables = iter(v for v in witness if v.name.startswith("w"))  # left to right
    for atom in atoms:
        a, b, _ = _values(atom, assignment)
        if atom[0] == "+":
            assert witness[next(tables)] == numeral(b, ZT)
        else:
            table = mp_semitable(a, b)
            assert witness[next(tables)] == table.instantiate(Z, Z, K)
            assert witness[next(tables)] == table.instantiate(ZH, ZT, KT)
    return assignment


def _round_trip(atoms, names, bound):
    """Solve the system's encoding within the bound; check the outcome
    against arithmetic and say whether a witness was found."""
    text = "\n".join(f"{a} {op} {b} = {c}" for op, a, b, c in atoms)
    psi = encoding(parse_diophantine(text))
    sk = make_skeleton(psi, 1)
    unknowns = sk.unknown_tuples[0]
    found = next(iter_formula_solutions(flatten_and(sk.formula), unknowns, max_size=bound), None)
    # a numeral of size <= bound has a value below it
    within = [s for s in _solutions(atoms, names, bound - 1)
              if _witness_size(atoms, s) <= bound]
    assert (found is not None) == bool(within), (text, bound)
    if found is not None:
        witness = {v: found[u] for v, u in zip(psi.bound_vars, unknowns)}
        assert _decode(atoms, names, witness) in within, (text, bound)
    return found is not None


def test_encode_solve_decode_agrees_with_arithmetic():
    rng = random.Random(19091351)
    outcomes = []
    while len(outcomes) < 60:
        atoms = _random_system(rng)
        names = sorted({t for atom in atoms for t in atom[1:] if t.startswith("x")})
        # the smallest witness among solutions in 0..3, else a bound of 5
        bound = min((_witness_size(atoms, s) for s in _solutions(atoms, names, 3)),
                    default=5)
        if bound > TABLE_LIMIT:
            continue
        outcomes.append(_round_trip(atoms, names, bound))
        if bound > 1:  # just below: found exactly when a smaller witness exists
            _round_trip(atoms, names, bound - 1)
    assert outcomes.count(True) >= 20 and outcomes.count(False) >= 15
