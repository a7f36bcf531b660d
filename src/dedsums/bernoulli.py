"""Bernoulli numbers and polynomials, exact, with the 0-at-integers periodic variant.

The periodic polynomials here vanish at every integer argument for all k >= 1
(not just k = 1).  That branch choice propagates into every character sum in
this package; the floating-point oracle is the arbiter that it is consistent
with the finite-sum formula.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, pi

from .characters import DirichletCharacter, gauss_sum
from .exactnum import CyclotomicElement, lcm


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


@lru_cache(maxsize=None)
def bernoulli_poly_coeffs(k: int) -> tuple[Fraction, ...]:
    """Ascending coefficients of B_k(x) = sum C(k,j) B_j x^(k-j)."""
    return tuple(comb(k, k - i) * bernoulli_number(k - i) for i in range(k + 1))


def bernoulli_poly(k: int, x) -> Fraction:
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(bernoulli_poly_coeffs(k)):
        acc = acc * x + c
    return acc


def periodic_bernoulli(k: int, x) -> Fraction:
    """B_k({x}) away from the integers, 0 at every integer."""
    if k < 1:
        raise ValueError("k must be >= 1")
    x = Fraction(x)
    if x.denominator == 1:
        return Fraction(0)
    return bernoulli_poly(k, x - (x.numerator // x.denominator))


def worpitzky_eval(k: int, x) -> Fraction:
    """Independent double-sum evaluation of the periodic polynomial (x not integer)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    x = Fraction(x)
    if x.denominator == 1:
        raise ValueError("integer argument lies on the 0 branch; use periodic_bernoulli")
    frac = x - (x.numerator // x.denominator)
    total = Fraction(0)
    for m in range(k + 1):
        inner = Fraction(0)
        for n in range(m + 1):
            inner += (-1) ** n * comb(m, n) * (frac + n) ** k
        total += inner / (m + 1)
    return total


def lehmer_bound(k: int) -> float:
    """Uniform bound (pi^2/3) k!/(2 pi)^k on |B_k(x)|, k >= 1."""
    return (pi**2 / 3) * factorial(k) / (2 * pi) ** k


@lru_cache(maxsize=None)
def scaled_int_poly(k: int, denom: int) -> tuple[tuple[int, ...], int]:
    """Integer polynomial P and scale s with B_k(t/denom) = P(t)/s for integer t.

    Lets the character double sums run entirely over Python ints.
    """
    coeffs = bernoulli_poly_coeffs(k)
    L = lcm(*(c.denominator for c in coeffs))
    scale = L * denom**k
    ints = tuple(
        int(coeffs[i] * L) * denom ** (k - i) for i in range(k + 1)
    )
    return ints, scale


def char_bernoulli(k: int, chi: DirichletCharacter, x) -> CyclotomicElement:
    """Berndt's character Bernoulli polynomial as the finite sum
    m^(k-1) * sum over n mod m of conj(chi)(n) B_k((x + n)/m)."""
    m = chi.modulus
    x = Fraction(x)
    exps = ((n, chi.value_exponent(n)) for n in range(m))
    terms = [(-r, periodic_bernoulli(k, (x + n) / m)) for n, r in exps if r is not None]
    return CyclotomicElement.from_terms(chi.order, terms) * Fraction(m) ** (k - 1)


def char_bernoulli_fourier(k: int, chi: DirichletCharacter, x, terms: int = 20000) -> complex:
    """Truncated Fourier-series evaluation of the character Bernoulli polynomial.

    Converges like terms^(1-k); useful as an oracle for k >= 2 only.
    """
    if k < 2:
        raise ValueError("series oracle needs k >= 2")
    m = chi.modulus
    x = float(x)
    s = 0j
    for n in range(1, terms + 1):
        vpos = chi(n).to_complex()
        vneg = chi(-n).to_complex()
        if vpos:
            s += vpos * cmath.exp(2j * pi * n * x / m) / n**k
        if vneg:
            s += vneg * cmath.exp(-2j * pi * n * x / m) / (-n) ** k
    tau_bar = gauss_sum(chi.conjugate()).to_complex()
    front = ((-1j) ** (k + 1) * tau_bar * factorial(k)) / (1j * m * (2 * pi / m) ** k)
    return front * s
