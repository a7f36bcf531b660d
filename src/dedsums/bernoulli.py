"""Bernoulli numbers and polynomials, exact, with the 0-at-integers periodic variant.

The periodic polynomials here vanish at every integer argument for all k >= 1
(not just k = 1).  That branch choice propagates into every character sum in
this package; the floating-point oracle is the arbiter that it is consistent
with the finite-sum formula.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .characters import DirichletCharacter
from .exactnum import CyclotomicElement, _numerators


@lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    """B_n with the B_1 = -1/2 convention."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return Fraction(1)
    if n > 1 and n % 2 == 1:
        return Fraction(0)
    acc = Fraction(0)
    for j in range(n):
        acc += comb(n + 1, j) * bernoulli_number(j)
    return -acc / (n + 1)


def bernoulli_poly(k: int, x) -> Fraction:
    """B_k(x) by Horner on the integer numerators of L*B_k, divided by L once."""
    nums, L = _int_numerators(k)
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(nums):
        acc = acc * x + c
    return acc / L


def periodic_bernoulli(k: int, x) -> Fraction:
    """B_k({x}) away from the integers, 0 at every integer."""
    if k < 1:
        raise ValueError("k must be >= 1")
    x = Fraction(x)
    if x.denominator == 1:
        return Fraction(0)
    return bernoulli_poly(k, x - (x.numerator // x.denominator))


@lru_cache(maxsize=None)
def _int_numerators(k: int) -> tuple[tuple[int, ...], int]:
    """Ascending integer coefficients of L*B_k(x), L the lcm of the
    denominators of B_k(x) = sum C(k,j) B_j x^(k-j)."""
    nums, L = _numerators([comb(k, j) * bernoulli_number(j) for j in range(k, -1, -1)])
    return tuple(nums), L


@lru_cache(maxsize=None)
def scaled_int_poly(k: int, denom: int) -> tuple[tuple[int, ...], int]:
    """Integer polynomial P and scale s with B_k(t/denom) = P(t)/s for integer t.

    P(t) = L denom^k B_k(t/denom): the numerators of L*B_k, taken once per k,
    times powers of denom, so a new denom costs integer products only.  Lets
    the character double sums run entirely over Python ints.
    """
    nums, L = _int_numerators(k)
    return tuple(x * denom ** (k - i) for i, x in enumerate(nums)), L * denom**k


def char_bernoulli(k: int, chi: DirichletCharacter, x) -> CyclotomicElement:
    """Berndt's character Bernoulli polynomial as the finite sum
    m^(k-1) * sum over n mod m of conj(chi)(n) B_k((x + n)/m)."""
    m = chi.modulus
    x = Fraction(x)
    exps = ((n, chi.value_exponent(n)) for n in range(m))
    terms = [(-r, periodic_bernoulli(k, (x + n) / m)) for n, r in exps if r is not None]
    return CyclotomicElement.from_terms(chi.order, terms) * Fraction(m) ** (k - 1)
