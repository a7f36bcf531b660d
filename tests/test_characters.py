import random
from math import gcd

import pytest

from dedsums.characters import (
    DirichletCharacter,
    central_character,
    character_by_index,
    characters_mod,
    conductor,
    gauss_sum,
    is_primitive,
    is_quadratic,
    named_character,
    parity,
    parse_character,
    unit_group,
)
from dedsums.exactnum import CyclotomicElement, euler_phi, lcm
from dedsums.modgroup import Mat2, random_gamma0

Z = CyclotomicElement.root_of_unity


def sign_table(chi):
    """Values of a quadratic character as ints, indexed mod q."""
    return [chi(n).rational_value() for n in range(chi.modulus)]


def brute_force_multiplicative_check(chi):
    q = chi.modulus
    for m in range(q):
        for n in range(q):
            if gcd(m, q) == 1 and gcd(n, q) == 1:
                lhs = chi(m * n)
                rhs = chi(m) * chi(n)
                if lhs != rhs:
                    return False
            elif gcd(m * n, q) > 1:
                if not chi(m * n).is_zero() and gcd(m * n % q if q > 1 else 0, q) > 1:
                    return False
    return True


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 8, 9, 12, 16, 21, 24])
def test_enumeration_count_and_multiplicativity(q):
    chars = characters_mod(q)
    assert len(chars) == euler_phi(q)
    assert len({c.exponents for c in chars}) == len(chars)
    for chi in chars:
        assert brute_force_multiplicative_check(chi)


def test_q5_has_one_primitive_quadratic():
    quad = [c for c in characters_mod(5) if is_quadratic(c) and is_primitive(c)]
    assert len(quad) == 1
    # and it is the Legendre symbol: residues 1, 4 -> +1; 2, 3 -> -1
    assert sign_table(quad[0]) == [0, 1, -1, -1, 1]


def test_q8_has_two_primitive_quadratics():
    quad = [c for c in characters_mod(8) if is_quadratic(c) and is_primitive(c)]
    assert len(quad) == 2


def test_q1_trivial():
    chars = characters_mod(1)
    assert len(chars) == 1
    assert chars[0].is_trivial()


def test_char_values():
    chi4 = named_character("chi4")
    assert chi4(3) == -1
    chi7 = named_character("chi7")
    assert chi7(3) == -1
    for chi in (chi4, chi7):
        assert chi(chi.modulus).is_zero()


def test_conductor_parity_quadratic():
    chi3 = named_character("chi3")
    assert conductor(chi3) == 3 and is_primitive(chi3)
    assert parity(chi3) == -1 and is_quadratic(chi3)
    trivial6 = DirichletCharacter(6, (0,))
    assert conductor(trivial6) == 1 and not is_primitive(trivial6)
    chi8a = named_character("chi8a")
    assert chi8a(7) == 1 and parity(chi8a) == 1


def test_imprimitive_character_conductor():
    # the lift of chi3 to modulus 9 has conductor 3
    lifts = [c for c in characters_mod(9) if c.order == 2]
    assert len(lifts) == 1
    assert conductor(lifts[0]) == 3


def test_gauss_sum_chi4():
    assert gauss_sum(named_character("chi4")) == Z(4, 1) * 2


def test_gauss_sum_chi3():
    assert gauss_sum(named_character("chi3")) == Z(3, 1) - Z(3, 2)


def test_gauss_sum_times_conjugate_all_primitive():
    for q in range(3, 33):
        for chi in characters_mod(q):
            if not is_primitive(chi) or chi.is_trivial():
                continue
            tau = gauss_sum(chi)
            tau_bar = gauss_sum(chi.conjugate())
            m = lcm(tau.order, tau_bar.order)
            prod = tau.embed(m) * tau_bar.embed(m)
            assert prod == parity(chi) * q, (q, chi.exponents)


def test_gauss_sum_magnitude_is_sqrt_conductor():
    for q in range(3, 33):
        for chi in characters_mod(q):
            if not is_primitive(chi) or chi.is_trivial():
                continue
            assert abs(abs(gauss_sum(chi).to_complex()) ** 2 - q) < 1e-10


def test_orthogonality_exact():
    for q in range(1, 33):
        chars = characters_mod(q)
        big = 1
        for chi in chars:
            big = lcm(big, chi.order)
        for n in (1, 2, q - 1, q + 1, 5):
            total = CyclotomicElement.zero(big)
            for chi in chars:
                total = total + chi(n).embed(big)
            if n % q == 1 % q:
                assert total == euler_phi(q)
            else:
                assert total.is_zero(), (q, n)


def test_central_character_values():
    chi3, chi4 = named_character("chi3"), named_character("chi4")
    assert central_character(chi3, chi4, Mat2(1, 0, 12, 1)) == 1
    # d = 5 mod 12: chi3(5) chi4(5) = (-1)(1) = -1
    gamma = Mat2(-7, -3, 12, 5)
    assert gamma.a * gamma.d - gamma.b * gamma.c == 1
    assert central_character(chi3, chi4, gamma) == -1
    with pytest.raises(ValueError):
        central_character(chi3, chi4, Mat2(1, 0, 1, 1))


def test_central_character_same_pair_is_one_on_gamma0():
    rng = random.Random(4)
    chi5 = named_character("chi5")
    for _ in range(10):
        gamma = random_gamma0(rng, 25)
        assert central_character(chi5, chi5, gamma) == 1


def test_psi_multiplicative():
    rng = random.Random(9)
    chi3, chi7 = named_character("chi3"), named_character("chi7")
    for _ in range(25):
        g1, g2 = random_gamma0(rng, 21), random_gamma0(rng, 21)
        lhs = central_character(chi3, chi7, g1 * g2)
        rhs = central_character(chi3, chi7, g1) * central_character(chi3, chi7, g2)
        assert lhs == rhs


def test_named_characters():
    chi5 = named_character("chi5")
    assert sign_table(chi5) == [0, 1, -1, -1, 1]
    assert named_character("chi8b")(7) == -1
    prod = named_character("chi3") * named_character("chi3")
    assert prod.is_trivial()


def test_gamma1_central_character_trivial():
    rng = random.Random(2)
    chi3, chi4 = named_character("chi3"), named_character("chi4")
    from dedsums.modgroup import random_gamma1

    for _ in range(10):
        gamma = random_gamma1(rng, 12)
        assert central_character(chi3, chi4, gamma) == 1


def test_parse_character():
    assert parse_character("chi7") == named_character("chi7")
    chi = parse_character("5:2")
    assert chi == character_by_index(5, 2)
    with pytest.raises(ValueError):
        parse_character("chi6")
    with pytest.raises(ValueError):
        parse_character("5:9")


def test_unit_group_structure_pow2():
    g = unit_group(16)
    assert sorted(g.orders) == [2, 4]
    assert len(g.dlog) == 8


def test_serialization():
    chi = named_character("chi8a")
    data = chi.to_json()
    assert data["modulus"] == 8 and len(data["exponents"]) == len(data["generators"])
