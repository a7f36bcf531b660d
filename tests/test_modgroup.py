import os
import random
import subprocess
import sys
from collections import deque
from fractions import Fraction
from math import gcd

import pytest

import dedsums
from dedsums.analysis import TABLE1_PAIRS, TABLE2_PAIRS, TABLE3_PAIRS
from dedsums.characters import named_character
from dedsums.exactnum import CyclotomicElement
from dedsums.modgroup import (
    Cusp,
    MAT_S,
    MAT_T,
    Mat2,
    Poly,
    RELATORS,
    cocycle_j,
    coset_walk,
    cusp_apply,
    g_witness,
    gamma1_generators,
    gamma1_index,
    in_gamma0,
    in_gamma1,
    iter_G_pairs,
    partial_quotient_max,
    partial_quotients,
    random_gamma0,
    read_word,
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
    assert str(Cusp(3, -6)) == "-1/2"


def test_cusp_canonicalization():
    assert Cusp(2, 0) == Cusp.infinity()
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
    assert cusp_apply(g, Cusp.infinity()) == Cusp(2, 9)
    assert cusp_apply(Mat2(1, 3, 0, 1), Cusp(2, 7)) == Cusp(23, 7)
    inv = Mat2(26, 1, 25, 1).inverse()
    assert inv == Mat2(1, -1, -25, 26)
    assert cusp_apply(inv, Cusp.infinity()) == Cusp(-1, 25)


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
    # the BFS certifies its coset count times |K| against the index at every level
    for n in (9, 12, 15, 21, 24, 25):
        gamma1_generators(n)
    for n, kernel in PSI_KERNELS:
        assert len(coset_walk(n, kernel).tree) * len(kernel) == gamma1_index(n)
    assert gamma1_index(25) == 600
    assert len(coset_walk(25, tuple(u for u in range(1, 25) if u % 5)).tree) == 30


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
        "    modgroup.gamma1_generators(25)\n"
        "except CertificateError:\n"
        "    sys.exit(0)\n"
        "sys.exit('gamma1_generators accepted a wrong coset count')\n"
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
    # one walk per (level, kernel); the generator lists are read from it
    coset_walk.cache_clear()
    gens = gamma1_generators(25)
    gamma1_generators(25)
    coset_walk(25)
    info = coset_walk.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    gamma1_generators(9)
    coset_walk(25, dict(PSI_KERNELS)[25])
    info = coset_walk.cache_info()
    assert (info.misses, info.hits) == (3, 2)
    # each call hands out a new list; changing one leaves the next intact
    expected = list(gens)
    gens.reverse()
    gens.append(Mat2.identity())
    assert gamma1_generators(25) == expected
    assert coset_walk.cache_info().misses == 3


def psi_kernel(pair):
    """The units u mod q1 q2 with psi(u) = chi1(u) chi2(u) = 1, for a quadratic pair."""
    chi1, chi2 = (named_character(tag) for tag in pair)
    n = chi1.modulus * chi2.modulus
    return n, tuple(
        u for u in range(1, n) if gcd(u, n) == 1 and chi1.value_exponent(u) == chi2.value_exponent(u)
    )


# (level, kernel of psi) over the table pairs, each once, and the first pair with it
PSI_PAIRS = {}
for pair in TABLE1_PAIRS + TABLE2_PAIRS + TABLE3_PAIRS:
    PSI_PAIRS.setdefault(psi_kernel(pair), ",".join(pair))
PSI_KERNELS = list(PSI_PAIRS)


def mat2_walk(n, kernel=(1,)):
    """The coset walk at kernel K on Mat2 objects: the BFS, its tree, the
    Schreier edges and the back pointers of the library's integer-tuple walk,
    with every product a det-checked Mat2."""

    def key(g):
        return min((u * g.c % n, u * g.d % n) for u in kernel)

    reps = {key(Mat2.identity()): Mat2.identity()}
    tree = [(-1, -1)]
    queue = deque([Mat2.identity()])
    parent = 0
    while queue:
        r = queue.popleft()
        for x, letter in enumerate((MAT_S, MAT_T, MAT_T.inverse())):
            g = r * letter
            if key(g) not in reps:
                reps[key(g)] = g
                queue.append(g)
                tree.append((parent, x))
        parent += 1
    assert len(reps) * len(kernel) == gamma1_index(n)
    position = {k: i for i, k in enumerate(reps)}
    gens, edges = {}, []
    for r in reps.values():
        for x in (MAT_S, MAT_T):
            g = r * x
            u = g * reps[key(g)].inverse()
            label = -1 if u == Mat2.identity() else gens.setdefault(u, len(gens))
            edges.append((position[key(g)], label))
    back = [None] * len(reps)
    for i in range(len(reps)):
        back[edges[2 * i + 1][0]] = i
    return tuple(gens), tuple(edges), tuple(back), tuple(tree)


def walk_fields(walk):
    return walk.generators, walk.edges, walk.back, walk.tree


@pytest.mark.parametrize("n", [5, 7, 9, 12, 16, 21, 25, 28, 32])
def test_tuple_walk_matches_the_mat2_walk(n):
    walk = coset_walk(n)
    assert all(type(g) is Mat2 for g in walk.generators)
    assert walk_fields(walk) == mat2_walk(n)


@pytest.mark.parametrize("n,kernel", PSI_KERNELS, ids=PSI_PAIRS.values())
def test_psi_walk_matches_the_mat2_walk(n, kernel):
    walk = coset_walk(n, kernel)
    assert walk_fields(walk) == mat2_walk(n, kernel)
    for g in walk.generators:
        assert in_gamma0(g, n) and g.d % n in kernel


def rep(walk, coset):
    """The coset rep, rebuilt as the product of the letters along the BFS tree."""
    letters = []
    while coset:
        coset, x = walk.tree[coset]
        letters.append((MAT_S, MAT_T, MAT_T.inverse())[x])
    out = Mat2.identity()
    for letter in reversed(letters):
        out = out * letter
    return out


def product(walk, read):
    out = Mat2.identity()
    for label, inverse in read:
        g = walk.generators[label]
        out = out * (g.inverse() if inverse else g)
    return out


# the relators and their inverses, S^-1 written S^3 and T^-1 as the letter 2
WORDS = RELATORS + ((0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0),)


@pytest.mark.parametrize(
    "n,kernel",
    [(9, (1,)), (12, (1,)), (25, (1,))] + PSI_KERNELS,
    ids=["gamma1-9", "gamma1-12", "gamma1-25", *PSI_PAIRS.values()],
)
def test_relator_walks_multiply_to_the_identity(n, kernel):
    walk = coset_walk(n, kernel)
    for start in range(len(walk.tree)):
        for word in WORDS:
            end, read = read_word(walk, word, start)
            assert end == start, (n, start, word)
            assert product(walk, read) == Mat2.identity(), (n, start, word)
    # any word: rep(start) w = (the labels read) rep(end)
    rng = random.Random(n)
    for _ in range(20):
        start = rng.randrange(len(walk.tree))
        word = [rng.randrange(3) for _ in range(rng.randint(1, 12))]
        end, read = read_word(walk, word, start)
        w = rep(walk, start)
        for x in word:
            w = w * (MAT_S, MAT_T, MAT_T.inverse())[x]
        assert w == product(walk, read) * rep(walk, end)


def test_gamma1_generators_need_n_at_least_5():
    with pytest.raises(ValueError):
        gamma1_generators(4)


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


def test_poly_keeps_exact_coefficients_and_converts_ints():
    cs = [Fraction(-24, 5), CyclotomicElement.root_of_unity(3), 7]
    p = Poly(4, cs)
    assert p.coeffs[0] is cs[0] and p.coeffs[1] is cs[1]
    assert type(p.coeffs[2]) is Fraction and p.coeffs[2] == 7


def test_poly_eval_and_str():
    p = Poly(4, [Fraction(-24, 5), Fraction(-96, 5), Fraction(-96, 5)])
    assert p.eval(1) == Fraction(-216, 5)
    assert str(p) == "-24/5*x^2 - 96/5*x - 96/5"
    assert str(Poly(5, [0] * 4)) == "0"


# -- continued fractions -------------------------------------------------------


def test_partial_quotients_examples():
    assert partial_quotients(7, 5) == [1, 2, 2]
    assert partial_quotient_max(7, 5) == 2
    assert partial_quotient_max(1, 2) == 2
    assert partial_quotient_max(7, 1) == 1
    assert partial_quotient_max(-3, 1) == 1
    with pytest.raises(ZeroDivisionError):
        partial_quotients(7, 0)


def test_partial_quotients_canonical_last_geq_2():
    rng = random.Random(40)
    for _ in range(200):
        p, q = rng.randint(-400, 400), rng.randint(1, 300)
        quots = partial_quotients(p, q)
        assert sum(Fraction(1) for _ in quots) > 0
        # rebuild the value
        val = Fraction(quots[-1])
        for a in reversed(quots[:-1]):
            val = a + 1 / val
        assert val == Fraction(p, q)
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
        m_a = partial_quotient_max(a % c_prime, c_prime) if a % c_prime else 1
        m_d = partial_quotient_max(d % c_prime, c_prime) if d % c_prime else 1
        assert abs(m_a - m_d) <= 1


def test_witness_completion():
    for a, c in iter_G_pairs(12, 4):
        m = g_witness(a, c, 12)
        assert in_gamma1(m, 12) and m.a == a and m.c == c
