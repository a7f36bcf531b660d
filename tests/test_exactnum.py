import ast
import cmath
import random
from fractions import Fraction
from math import gcd, isqrt, prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import dedsums
from dedsums.exactnum import (
    CyclotomicElement,
    common_order,
    cyclotomic_polynomial,
    euler_phi,
    factorize,
    rational_gcd_set,
    rational_to_str,
)

Z = CyclotomicElement.root_of_unity


def test_cyclotomic_polynomials_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_euler_phi():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 3000))
def test_factorize_and_euler_phi(n):
    factors = factorize(n)
    primes = [p for p, _ in factors]
    assert primes == sorted(set(primes))
    assert all(p > 1 and all(p % d for d in range(2, isqrt(p) + 1)) for p in primes)
    assert all(e >= 1 for _, e in factors)
    assert prod(p**e for p, e in factors) == n
    assert euler_phi(n) == sum(1 for u in range(n) if gcd(u, n) == 1)


def test_no_assert_statements_in_the_package():
    # certificates must survive python -O, which strips assert statements
    for path in sorted(Path(dedsums.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name} has assert statements at lines {lines}"


def test_i_squared_is_minus_one():
    assert Z(4, 1) * Z(4, 1) == CyclotomicElement.from_rational(-1, 4)


def test_conj_of_zeta3():
    # zeta_3^-1 = zeta_3^2 = -1 - zeta_3 after reduction mod Phi_3
    assert Z(3, 1).conj() == CyclotomicElement(3, [Fraction(-1), Fraction(-1)])


def test_cube_roots_sum_to_zero():
    total = CyclotomicElement.one(3) + Z(3, 1) + Z(3, 2)
    assert total.is_zero()


def test_ring_operations():
    x, y = Z(4, 1), Z(4, 3)  # i and -i
    assert x * y == 1
    assert (x + y).is_zero()
    assert -x == y
    assert x.conj() == y


def test_mixed_orders_require_lifting():
    with pytest.raises(ValueError):
        Z(3, 1) + Z(4, 1)
    a, b = common_order(Z(3, 1), Z(4, 1))
    assert a.order == b.order == 12


def test_embed_zeta3_into_order_12():
    assert Z(3, 1).embed(12) == Z(12, 4)


def test_embed_rational_any_order():
    x = CyclotomicElement.from_rational(Fraction(5, 3))
    for m in (2, 8, 15):
        e = x.embed(m)
        assert e.is_rational() and e.rational_value() == Fraction(5, 3)


def test_embed_requires_multiple():
    with pytest.raises(ValueError):
        Z(4, 1).embed(6)


def test_embed_then_add_matches_complex():
    # direct sum in Q(zeta_12) against the two complex exponentials
    total = Z(3, 1).embed(12) + Z(4, 1).embed(12)
    expect = cmath.exp(2j * cmath.pi / 3) + 1j
    assert abs(total.to_complex() - expect) < 1e-12


def test_to_complex_examples():
    assert abs(Z(4, 1).to_complex() - 1j) < 1e-15
    assert abs(CyclotomicElement.from_rational(Fraction(3, 2)).to_complex() - 1.5) < 1e-15
    assert abs((Z(3, 1) - Z(3, 2)).to_complex() - 1j * cmath.sqrt(3)) < 1e-12


def test_random_mul_matches_complex():
    rng = random.Random(101)
    for _ in range(60):
        m = rng.choice([3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 24])
        deg = euler_phi(m)
        x = CyclotomicElement(m, [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(deg)])
        y = CyclotomicElement(m, [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(deg)])
        assert abs((x * y).to_complex() - x.to_complex() * y.to_complex()) < 1e-10


def test_conj_is_involutive_ring_automorphism():
    rng = random.Random(55)
    for _ in range(40):
        m = rng.choice([5, 8, 12, 15, 24])
        deg = euler_phi(m)
        x = CyclotomicElement(m, [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(deg)])
        y = CyclotomicElement(m, [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(deg)])
        assert x.conj().conj() == x
        assert (x + y).conj() == x.conj() + y.conj()
        assert (x * y).conj() == x.conj() * y.conj()


def test_power_and_division():
    assert Z(8, 1) ** 8 == 1
    assert (Z(4, 1) * 6) / 3 == Z(4, 1) * 2


def test_serialization_round_trip():
    x = Z(12, 7) * Fraction(3, 5) + Fraction(1, 2)
    assert CyclotomicElement.from_json(x.to_json()) == x
    assert Fraction(rational_to_str(Fraction(-22, 7))) == Fraction(-22, 7)
    assert rational_to_str(Fraction(4)) == "4"


# -- rational gcd ------------------------------------------------------------


def brute_force_gcd(values, span=40):
    """Smallest positive Z-linear combination, by direct search."""
    values = [Fraction(v) for v in values]
    best = None
    coeffs = range(-span, span + 1)

    def rec(i, acc):
        nonlocal best
        if i == len(values):
            if acc > 0 and (best is None or acc < best):
                best = acc
            return
        for c in coeffs:
            rec(i + 1, acc + c * values[i])

    if len(values) <= 2:
        rec(0, Fraction(0))
        return best
    raise NotImplementedError


def test_rational_gcd_pair_matches_brute_force():
    vals = [Fraction(2, 3), Fraction(4, 5)]
    assert brute_force_gcd(vals) == Fraction(2, 15)
    assert rational_gcd_set(vals) == Fraction(2, 15)


def test_rational_gcd_all_zero():
    assert rational_gcd_set([0, Fraction(0)]) == 0


def test_rational_gcd_mixed():
    # common denominator 3: numerators 6, 6, 10, 42 with gcd 2
    assert rational_gcd_set([2, 2, Fraction(10, 3), 14]) == Fraction(2, 3)


def test_rational_gcd_empty_set_errors():
    with pytest.raises(ValueError):
        rational_gcd_set([])


def test_rational_gcd_divides_and_is_maximal():
    rng = random.Random(7)
    for _ in range(50):
        vals = [
            Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(rng.randint(1, 6))
        ]
        r = rational_gcd_set(vals)
        if r == 0:
            assert all(v == 0 for v in vals)
            continue
        assert all((v / r).denominator == 1 for v in vals)
        # nothing strictly larger in the divisibility order works
        for mult in (2, 3, 5):
            bigger = r * mult
            assert not all((v / bigger).denominator == 1 for v in vals if v)
