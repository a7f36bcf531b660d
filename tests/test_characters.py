import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from dedsums.characters import (
    DirichletCharacter,
    UnknownCharacterError,
    character_by_index,
    characters_mod,
    conductor,
    gauss_sum,
    is_primitive,
    named_character,
    parity,
    parse_character,
    unit_group,
)
from dedsums.dedekind import SumContext
from dedsums.exactnum import CyclotomicElement, euler_phi, lcm
from dedsums.modgroup import Mat2, random_gamma0

Z = CyclotomicElement.root_of_unity


def psi(chi1, chi2, gamma):
    """psi(gamma) of :meth:`SumContext.psi`, at the least weight of the pair's parity."""
    return SumContext(chi1, chi2, 2 if parity(chi1) == parity(chi2) else 3).psi(gamma)


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


@pytest.mark.parametrize("q", [1, 2, 4, 5, 8, 9, 12, 16, 24, 25, 27, 32, 35])
def test_enumeration_order_and_dlog(q):
    # the q:index character specs name characters by this order
    group = unit_group(q)
    exps = [chi.exponents for chi in characters_mod(q)]
    assert exps == sorted(exps)
    assert len(set(exps)) == euler_phi(q)
    assert all(0 <= e < d for t in exps for e, d in zip(t, group.orders))
    assert sorted(group.dlog) == [n for n in range(q) if gcd(n, q) == 1]
    for n, t in group.dlog.items():
        value = 1 % q
        for g, e in zip(group.generators, t):
            value = value * pow(g, e, q) % q
        assert value == n


def test_q5_has_one_primitive_quadratic():
    quad = [c for c in characters_mod(5) if c.order == 2 and is_primitive(c)]
    assert len(quad) == 1
    # and it is the Legendre symbol: residues 1, 4 -> +1; 2, 3 -> -1
    assert sign_table(quad[0]) == [0, 1, -1, -1, 1]


def test_q8_has_two_primitive_quadratics():
    quad = [c for c in characters_mod(8) if c.order == 2 and is_primitive(c)]
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
    assert parity(chi3) == -1 and chi3.order == 2
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
    assert psi(chi3, chi4, Mat2(1, 0, 12, 1)) == 1
    # d = 5 mod 12: chi3(5) chi4(5) = (-1)(1) = -1
    gamma = Mat2(-7, -3, 12, 5)
    assert gamma.a * gamma.d - gamma.b * gamma.c == 1
    assert psi(chi3, chi4, gamma) == -1
    with pytest.raises(ValueError):
        psi(chi3, chi4, Mat2(1, 0, 1, 1))


def test_central_character_same_pair_is_one_on_gamma0():
    rng = random.Random(4)
    chi5 = named_character("chi5")
    for _ in range(10):
        gamma = random_gamma0(rng, 25)
        assert psi(chi5, chi5, gamma) == 1


NON_QUADRATIC = [chi for q in (5, 7, 9, 13) for chi in characters_mod(q) if chi.order > 2]


@settings(max_examples=150, deadline=None)
@given(
    chi1=st.sampled_from(NON_QUADRATIC),
    chi2=st.sampled_from(NON_QUADRATIC),
    seed=st.integers(0, 2**32),
)
def test_central_character_is_the_product_of_values(chi1, chi2, seed):
    gamma = random_gamma0(random.Random(seed), chi1.modulus * chi2.modulus)
    m = lcm(chi1.order, chi2.order)
    product = chi1(gamma.d).embed(m) * chi2(gamma.d).conj().embed(m)
    assert psi(chi1, chi2, gamma) == product


def test_psi_multiplicative():
    rng = random.Random(9)
    chi3, chi7 = named_character("chi3"), named_character("chi7")
    for _ in range(25):
        g1, g2 = random_gamma0(rng, 21), random_gamma0(rng, 21)
        lhs = psi(chi3, chi7, g1 * g2)
        rhs = psi(chi3, chi7, g1) * psi(chi3, chi7, g2)
        assert lhs == rhs


def test_named_characters():
    chi5 = named_character("chi5")
    assert sign_table(chi5) == [0, 1, -1, -1, 1]
    assert named_character("chi8b")(7) == -1
    assert named_character("chi3").order == 2


def test_named_character_is_one_object_per_tag():
    assert named_character(" chi3") is named_character("chi3")
    assert named_character("χ8b") is named_character("chi8b")


def test_index_spec_is_one_object_per_q_and_index():
    chi = parse_character("25:1")
    assert parse_character(" 25:1") is chi is character_by_index(25, 1)
    assert chi == characters_mod(25)[1]
    assert characters_mod(25) is not characters_mod(25)
    for spec in ("25:20", "25:-1", "0:0", "-5:1"):
        with pytest.raises(UnknownCharacterError):
            parse_character(spec)


@pytest.mark.parametrize("q", range(1, 41))
def test_character_by_index_follows_characters_mod(q):
    assert [character_by_index(q, i) for i in range(euler_phi(q))] == characters_mod(q)


def test_cached_values_leave_equality_and_hash_alone():
    # equality and hash read modulus and exponents only, whichever of two
    # equal characters has filled its cached tables
    filled, fresh = DirichletCharacter(35, (1, 2)), DirichletCharacter(35, (1, 2))
    assert filled.value_exponents and filled.order
    assert "value_exponents" in vars(filled) and "value_exponents" not in vars(fresh)
    assert filled == fresh and hash(filled) == hash(fresh)
    assert len({filled, fresh}) == 1


def per_call_value_exponent(chi, n):
    """r with chi(n) = zeta_order^r by the per-call dlog arithmetic that the
    cached exponent tuple replaced, with its order."""
    group = unit_group(chi.modulus)
    order = lcm(*(d // gcd(e, d) for e, d in zip(chi.exponents, group.orders)))
    exps = group.dlog.get(n % chi.modulus)
    if exps is None:
        return None, order
    L = lcm(*group.orders)
    big = sum(e * t * (L // d) for e, t, d in zip(chi.exponents, exps, group.orders)) % L
    assert big * order % L == 0
    return big * order // L % order, order


@pytest.mark.parametrize("q", range(1, 41))
def test_value_exponents_match_the_per_call_dlog(q):
    # every character mod q, every n in [-2q, 2q], the non-units included
    for chi in characters_mod(q):
        for n in range(-2 * q, 2 * q + 1):
            r, order = per_call_value_exponent(chi, n)
            assert chi.value_exponent(n) == r, (chi, n)
        assert chi.order == order
        assert len(chi.value_exponents) == q


def test_gamma1_central_character_trivial():
    rng = random.Random(2)
    chi3, chi4 = named_character("chi3"), named_character("chi4")
    from dedsums.modgroup import random_gamma1

    for _ in range(10):
        gamma = random_gamma1(rng, 12)
        assert psi(chi3, chi4, gamma) == 1


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
