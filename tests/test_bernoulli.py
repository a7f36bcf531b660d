import cmath
import random
from fractions import Fraction
from math import comb, factorial, pi

import pytest

from dedsums.bernoulli import (
    bernoulli_number,
    bernoulli_poly,
    char_bernoulli,
    periodic_bernoulli,
    scaled_int_poly,
)
from dedsums.characters import gauss_sum, named_character


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


def char_bernoulli_fourier(k: int, chi, x, terms: int = 20000) -> complex:
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


def test_bernoulli_numbers():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(3) == 0
    assert bernoulli_number(12) == Fraction(-691, 2730)


def test_bernoulli_poly_values():
    assert bernoulli_poly(2, Fraction(1, 2)) == Fraction(-1, 12)
    assert bernoulli_poly(1, Fraction(1, 2)) == 0
    assert bernoulli_poly(0, Fraction(9, 7)) == 1
    # B_k(0) is the Bernoulli number
    for k in range(9):
        assert bernoulli_poly(k, 0) == bernoulli_number(k)


def test_periodic_values():
    assert periodic_bernoulli(1, Fraction(1, 3)) == Fraction(-1, 6)
    assert periodic_bernoulli(2, 7) == 0  # 0 at every integer, all k >= 1
    assert periodic_bernoulli(4, 0) == 0
    assert periodic_bernoulli(1, Fraction(-2, 3)) == Fraction(-1, 6)


def test_periodicity_and_reflection():
    rng = random.Random(31)
    for _ in range(100):
        k = rng.randint(1, 8)
        x = Fraction(rng.randint(-40, 40), rng.randint(1, 23))
        assert periodic_bernoulli(k, x + 1) == periodic_bernoulli(k, x)
        if x.denominator > 1:
            assert periodic_bernoulli(k, -x) == (-1) ** k * periodic_bernoulli(k, x)


def test_worpitzky_examples():
    assert worpitzky_eval(1, Fraction(1, 3)) == Fraction(-1, 6)
    assert worpitzky_eval(2, Fraction(1, 2)) == Fraction(-1, 12)
    with pytest.raises(ValueError):
        worpitzky_eval(2, 5)


def test_worpitzky_matches_periodic_500_samples():
    rng = random.Random(77)
    checked = 0
    while checked < 500:
        k = rng.randint(1, 8)
        x = Fraction(rng.randint(-60, 60), rng.randint(1, 37))
        if x.denominator == 1:
            continue
        checked += 1
        assert worpitzky_eval(k, x) == periodic_bernoulli(k, x)


def test_lehmer_unified_bound():
    rng = random.Random(13)
    for k in range(1, 10):
        bound = lehmer_bound(k) * (1 + 1e-12)
        for _ in range(60):
            x = Fraction(rng.randint(0, 500), rng.randint(1, 500))
            assert abs(float(periodic_bernoulli(k, x))) <= bound


def test_scaled_int_poly_agrees():
    rng = random.Random(5)
    for _ in range(40):
        k = rng.randint(1, 8)
        d = rng.randint(2, 60)
        ints, scale = scaled_int_poly(k, d)
        t = rng.randint(1, d - 1)
        direct = bernoulli_poly(k, Fraction(t, d))
        horner = 0
        for c in reversed(ints):
            horner = horner * t + c
        assert Fraction(horner, scale) == direct


def test_char_bernoulli_chi3_at_zero():
    chi3 = named_character("chi3")
    v = char_bernoulli(1, chi3, 0)
    assert v.is_rational() and v.rational_value() == Fraction(-1, 3)


def test_char_bernoulli_even_character_vanishes_at_zero():
    for tag in ("chi5", "chi8a"):
        chi = named_character(tag)
        assert char_bernoulli(1, chi, 0).is_zero()


def test_char_bernoulli_matches_fourier_series():
    # B_{2, chi4}(0): both routes give 0 (the vanishing case), and a
    # fast-converging nonzero case at index 4
    chi4 = named_character("chi4")
    exact = char_bernoulli(2, chi4, 0).to_complex()
    series = char_bernoulli_fourier(2, chi4, 0, terms=4000)
    assert abs(exact) < 1e-12 and abs(series) < 1e-8
    chi3 = named_character("chi3")
    for x in (0, Fraction(1, 2), Fraction(2, 7)):
        exact = char_bernoulli(4, chi3, x).to_complex()
        series = char_bernoulli_fourier(4, chi3, x, terms=4000)
        assert abs(exact - series) < 1e-8, x
