"""Herbrand skeleton toolkit.

Ground equality-logic validity, skeleton generation and bounded solving,
conversion of quantifier-free formulas to rigid constraint problems,
quantifier-free arithmetic encodings of diophantine systems, and the
countermodel structures that falsify non-valid encoding instances.
"""

__version__ = "0.1.0"

from .qcheck import is_quasitautology
from .skeleton import ExistentialFormula, Skeleton, make_skeleton, solve_bounded, verify_solution
from .sreu import SREUProblem, convert_to_sreu, solve_sreu_bounded
from .syntax import Formula, Signature, Term
from .textform import parse_formula, parse_term, print_formula, print_term

__all__ = [
    "ExistentialFormula",
    "Formula",
    "SREUProblem",
    "Signature",
    "Skeleton",
    "Term",
    "convert_to_sreu",
    "is_quasitautology",
    "make_skeleton",
    "parse_formula",
    "parse_term",
    "print_formula",
    "print_term",
    "solve_bounded",
    "solve_sreu_bounded",
    "verify_solution",
]
