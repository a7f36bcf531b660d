import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest

import dedsums
from dedsums import modgroup
from dedsums.modgroup import (
    CUSP_INF,
    Cusp,
    MAT_S,
    MAT_T,
    Mat2,
    Poly,
    cocycle_j,
    cusp_apply,
    express_in_gamma1_generators,
    g_witness,
    gamma1_coset_table,
    gamma1_generators,
    gamma1_index,
    gamma1_relations,
    in_gamma0,
    in_gamma1,
    iter_G_pairs,
    partial_quotient_max,
    partial_quotients,
    random_gamma0,
    random_gamma1,
    translation,
    word_in_ST,
)


def test_det_enforced():
    with pytest.raises(ValueError):
        Mat2(1, 2, 3, 4)
    m = Mat2(2, 3, 1, 2)
    assert m * m.inverse() == Mat2.identity()


def test_membership_predicates():
    for n in (5, 9, 25):
        assert in_gamma1(MAT_T, n)
    assert in_gamma1(Mat2(26, 1, 25, 1), 25)
    assert in_gamma0(MAT_S, 1) and not in_gamma0(MAT_S, 2)


def test_serialization():
    m = Mat2(26, 1, 25, 1)
    assert Mat2.from_str(str(m)) == m
    assert str(Cusp(3, -6)) == "-1/2"


def test_cusp_canonicalization():
    assert Cusp(2, 0) == CUSP_INF
    assert Cusp(-4, -6) == Cusp(2, 3)
    assert Cusp(0, 5) == Cusp(0, 1)


def test_G1_of_9_is_empty():
    assert list(iter_G_pairs(9, 1)) == []


def brute_force_G(n, j):
    out = []
    for a in range(1, j * n):
        for c in range(n, j * n):
            if a % n == 1 and c % n == 0 and gcd(a, c) == 1:
                out.append((a, c))
    return out


@pytest.mark.parametrize("n,j", [(9, 2), (9, 5), (12, 3), (25, 2), (15, 4)])
def test_G_pairs_match_brute_force(n, j):
    assert sorted(iter_G_pairs(n, j)) == sorted(brute_force_G(n, j))


def test_G_witnesses_in_gamma1():
    for m in (g_witness(a, c, 9) for a, c in iter_G_pairs(9, 5)):
        assert in_gamma1(m, 9)
        assert 1 <= m.d <= m.c  # canonical least witness


def test_cusp_apply():
    g = Mat2(2, 1, 9, 5)
    assert cusp_apply(g, CUSP_INF) == Cusp(2, 9)
    assert cusp_apply(translation(3), Cusp(2, 7)) == Cusp(23, 7)
    inv = Mat2(26, 1, 25, 1).inverse()
    assert inv == Mat2(1, -1, -25, 26)
    assert cusp_apply(inv, CUSP_INF) == Cusp(-1, 25)


def test_cusp_action_is_associative():
    rng = random.Random(12)
    for _ in range(50):
        g1, g2 = random_gamma0(rng, 6), random_gamma0(rng, 6)
        cusp = Cusp(rng.randint(-9, 9), rng.randint(0, 9))
        assert cusp_apply(g1, cusp_apply(g2, cusp)) == cusp_apply(g1 * g2, cusp)


def test_cocycle_j():
    assert cocycle_j(MAT_T, Cusp(5, 7)) == 1
    assert cocycle_j(Mat2(26, 1, 25, 1), Cusp(0, 1)) == 1
    with pytest.raises(ValueError):
        cocycle_j(MAT_S, Cusp(0, 1))  # 0 is S^-1(inf)
    rng = random.Random(3)
    for _ in range(40):
        g1, g2 = random_gamma0(rng, 4), random_gamma0(rng, 4)
        cusp = Cusp(rng.randint(-9, 9), rng.randint(1, 9))
        try:
            lhs = cocycle_j(g1 * g2, cusp)
            rhs = cocycle_j(g1, cusp_apply(g2, cusp)) * cocycle_j(g2, cusp)
        except ValueError:
            continue
        assert lhs == rhs


def test_coset_counts_match_index_formula():
    for n in (9, 12, 15, 21, 24, 25):
        assert len(gamma1_coset_table(n)) == gamma1_index(n)
    assert gamma1_index(25) == 600


def test_gamma1_index_counts_bottom_rows():
    for n in range(3, 61):
        rows = sum(1 for c in range(n) for d in range(n) if gcd(gcd(c, d), n) == 1)
        assert gamma1_index(n) == rows, n


def test_coset_certificate_survives_optimize_flag():
    script = (
        "import sys\n"
        "from dedsums import modgroup\n"
        "from dedsums.exactnum import CertificateError\n"
        "if __debug__:\n"
        "    sys.exit('not running under -O')\n"
        "modgroup.gamma1_index = lambda n: 601\n"
        "try:\n"
        "    modgroup.gamma1_coset_table(25)\n"
        "except CertificateError:\n"
        "    sys.exit(0)\n"
        "sys.exit('gamma1_coset_table accepted a wrong coset count')\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(dedsums.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PYTHONOPTIMIZE", None)
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr


def test_gamma1_generators_live_in_gamma1():
    for n in (9, 12):
        gens = gamma1_generators(n)
        assert gens
        for g in gens:
            assert in_gamma1(g, n)


def test_coset_bfs_runs_once_per_level():
    modgroup._gamma1_cosets.cache_clear()
    gens = gamma1_generators(25)
    express_in_gamma1_generators(Mat2(26, 1, 25, 1), 25)
    express_in_gamma1_generators(Mat2(51, 104, 25, 51), 25)
    info = modgroup._gamma1_cosets.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    # each call hands out a new list; changing one leaves the next intact
    expected = list(gens)
    gens.reverse()
    gens.append(Mat2.identity())
    assert gamma1_generators(25) == expected
    assert modgroup._gamma1_cosets.cache_info().misses == 1


def test_gamma1_relations_multiply_to_the_identity():
    for n in (9, 12, 25):
        gens = gamma1_generators(n)
        relations = gamma1_relations(n)
        # every generator takes part, each word once up to rotation
        assert {u for word in relations for u in word} == set(range(len(gens)))
        assert all(word == min(word[i:] + word[:i] for i in range(len(word))) for word in relations)
        assert len(set(relations)) == len(relations)
        for word in relations:
            prod = Mat2.identity()
            for u in word:
                prod = prod * gens[u]
            assert prod == Mat2.identity(), (n, word)
    assert len(gamma1_relations(25)) == 256


def test_gamma1_generators_need_n_at_least_5():
    with pytest.raises(ValueError):
        gamma1_generators(4)


def test_word_in_ST_random():
    rng = random.Random(8)
    mats = [Mat2(26, 1, 25, 1), Mat2(0, -1, 1, 0), Mat2(-1, 0, 0, -1)]
    mats += [random_gamma0(rng, 3) for _ in range(20)]
    for m in mats:
        prod = Mat2.identity()
        for w in word_in_ST(m):
            prod = prod * w
        assert prod == m


def test_membership_certificate_reference_matrix():
    # the Schreier set generates: rewrite (26 1; 25 1) through the coset table
    m = Mat2(26, 1, 25, 1)
    gens = set(gamma1_generators(25))
    word = express_in_gamma1_generators(m, 25)
    prod = Mat2.identity()
    for u in word:
        assert u in gens or u.inverse() in gens
        prod = prod * u
    assert prod == m


def test_membership_certificate_random():
    rng = random.Random(21)
    gens = set(gamma1_generators(9))
    for _ in range(10):
        m = random_gamma1(rng, 9, 4)
        word = express_in_gamma1_generators(m, 9)
        prod = Mat2.identity()
        for u in word:
            assert u in gens or u.inverse() in gens
            prod = prod * u
        assert prod == m


# -- polynomials -------------------------------------------------------------


def test_poly_slash_identity():
    p = Poly(4, [Fraction(2), Fraction(-1, 3), Fraction(5)])
    assert p.slash(Mat2.identity()) == p


def test_poly_slash_quadratic_expansion():
    # (-24/5 x^2) slashed by (51 104; 25 51) is -24/5 (51x + 104)^2
    p = Poly(4, [Fraction(-24, 5), 0, 0])
    out = p.slash(Mat2(51, 104, 25, 51))
    expect = Poly(
        4,
        [
            Fraction(-24, 5) * 51 * 51,
            Fraction(-24, 5) * 2 * 51 * 104,
            Fraction(-24, 5) * 104 * 104,
        ],
    )
    assert out == expect


def test_poly_slash_right_action():
    rng = random.Random(17)
    for _ in range(25):
        k = rng.choice([2, 3, 4, 6])
        p = Poly(k, [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(k - 1)])
        g1, g2 = random_gamma0(rng, 2), random_gamma0(rng, 2)
        assert p.slash(g1).slash(g2) == p.slash(g1 * g2)


def test_poly_eval_and_str():
    p = Poly.from_ascending(4, [Fraction(-96, 5), Fraction(-96, 5), Fraction(-24, 5)])
    assert p.eval(1) == Fraction(-216, 5)
    assert str(p) == "-24/5*x^2 - 96/5*x - 96/5"
    assert str(Poly.zero(5)) == "0"


# -- continued fractions -------------------------------------------------------


def test_partial_quotients_examples():
    assert partial_quotients(Fraction(7, 5)) == [1, 2, 2]
    assert partial_quotient_max(Fraction(7, 5)) == 2
    assert partial_quotient_max(Fraction(1, 2)) == 2
    assert partial_quotient_max(7) == 1
    assert partial_quotient_max(Fraction(-3)) == 1


def test_partial_quotients_canonical_last_geq_2():
    rng = random.Random(40)
    for _ in range(200):
        x = Fraction(rng.randint(-400, 400), rng.randint(1, 300))
        quots = partial_quotients(x)
        assert sum(Fraction(1) for _ in quots) > 0
        # rebuild the value
        val = Fraction(quots[-1])
        for a in reversed(quots[:-1]):
            val = a + 1 / val
        assert val == x
        if len(quots) > 1:
            assert quots[-1] >= 2


def test_partial_quotient_difference_bound():
    # M(a/c') and M(d/c') differ by at most 1 for Gamma_0 matrices
    rng = random.Random(91)
    q2 = 3
    for _ in range(100):
        g = random_gamma0(rng, 21)
        if g.c == 0:
            continue
        c = abs(g.c)
        a, d = (g.a, g.d) if g.c > 0 else (-g.a, -g.d)
        c_prime = c // q2
        if c_prime <= 1:
            continue
        m_a = partial_quotient_max(Fraction(a % c_prime, c_prime)) if a % c_prime else 1
        m_d = partial_quotient_max(Fraction(d % c_prime, c_prime)) if d % c_prime else 1
        assert abs(m_a - m_d) <= 1


def test_witness_completion():
    for a, c in iter_G_pairs(12, 4):
        m = g_witness(a, c, 12)
        assert in_gamma1(m, 12) and m.a == a and m.c == c
