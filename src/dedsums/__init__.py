"""Generalized Dedekind sums for pairs of primitive Dirichlet characters.

Exact arithmetic throughout (rationals and cyclotomic numbers), with a
floating-point Eisenstein-series oracle cross-checking every exact value.
"""

from .characters import DirichletCharacter, characters_mod, gauss_sum, named_character
from .dedekind import SumContext, classical_s, h_eval, h_interpolate, shat, sum_S, sum_S_tilde
from .exactnum import CyclotomicElement, rational_gcd_set
from .modgroup import Cusp, Mat2, Poly

__all__ = [
    "CyclotomicElement",
    "Cusp",
    "DirichletCharacter",
    "Mat2",
    "Poly",
    "SumContext",
    "characters_mod",
    "classical_s",
    "gauss_sum",
    "h_eval",
    "h_interpolate",
    "named_character",
    "rational_gcd_set",
    "shat",
    "sum_S",
    "sum_S_tilde",
]
