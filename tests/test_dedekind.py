import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from dedsums import analysis, dedekind as dk
from dedsums.bernoulli import periodic_bernoulli
from dedsums.characters import characters_mod, named_character
from dedsums.dedekind import ParityError, SumContext
from dedsums.exactnum import CyclotomicElement
from dedsums.modgroup import (
    CUSP_INF,
    Cusp,
    Mat2,
    Poly,
    cusp_apply,
    iter_G_pairs,
    random_gamma0,
    random_gamma1,
    translation,
)


def slow_sum_S(ctx: SumContext, a: int, c: int) -> CyclotomicElement:
    """Direct double loop with cyclotomic multiplies, independent of the
    integer-table fast path (no exponent classes, no halving)."""
    m = ctx.value_order
    total = CyclotomicElement.zero(m)
    for j in range(c):
        v2 = ctx.chi2(j).conj().embed(m)
        if v2.is_zero():
            continue
        b1 = periodic_bernoulli(1, Fraction(j, c))
        if b1 == 0:
            continue
        for n in range(ctx.q1):
            v1 = ctx.chi1(n).conj().embed(m)
            if v1.is_zero():
                continue
            bk = periodic_bernoulli(ctx.k - 1, Fraction(a * j, c) + Fraction(n, ctx.q1))
            if bk == 0:
                continue
            total = total + v1 * v2 * (b1 * bk)
    return total


def ctx_for(tag1, tag2, k):
    return SumContext(named_character(tag1), named_character(tag2), k)


def test_classical_s():
    assert dk.classical_s(1, 3) == Fraction(1, 18)
    assert dk.classical_s(1, 1) == 0
    assert dk.classical_s(5, 7) == dk.classical_s(5 + 7, 7)
    with pytest.raises(ValueError):
        dk.classical_s(2, 4)


def test_classical_s_odd_in_h():
    rng = random.Random(6)
    for _ in range(20):
        k = rng.randint(2, 30)
        h = rng.choice([x for x in range(1, k) if Fraction(x, k).denominator == k])
        assert dk.classical_s(h, k) + dk.classical_s(-h, k) == 0


def test_context_validation():
    with pytest.raises(ParityError):
        ctx_for("chi3", "chi3", 3)
    with pytest.raises(ValueError):
        # lift of chi3 to modulus 9 is not primitive
        imprimitive = [c for c in characters_mod(9) if c.order == 2][0]
        SumContext(imprimitive, named_character("chi3"), 2)
    with pytest.raises(ValueError):
        SumContext(characters_mod(5)[0], named_character("chi5"), 2)  # trivial


def test_sum_validation():
    ctx = ctx_for("chi3", "chi3", 2)
    with pytest.raises(ValueError):
        dk.sum_S(ctx, 1, 10)  # 9 does not divide 10
    with pytest.raises(ValueError):
        dk.sum_S(ctx, 3, 9)  # not coprime
    with pytest.raises(ValueError):
        dk.sum_S(ctx, 1, -9)


@pytest.mark.parametrize(
    "tag1,tag2,k",
    [
        ("chi3", "chi3", 2),
        ("chi3", "chi3", 4),
        ("chi3", "chi4", 2),
        ("chi4", "chi3", 6),
        ("chi3", "chi5", 3),
        ("chi5", "chi4", 5),
    ],
)
def test_fast_path_matches_slow_double_loop(tag1, tag2, k):
    ctx = ctx_for(tag1, tag2, k)
    rng = random.Random(k * 7 + ctx.n)
    for _ in range(3):
        c = ctx.n * rng.randint(1, 3)
        a = rng.choice([x for x in range(1, c) if Fraction(x, c).denominator == c])
        fast = dk.sum_S(ctx, a, c)
        slow = slow_sum_S(ctx, a, c)
        assert (fast - slow.embed(fast.order)).is_zero()


def test_general_character_pair_matches_slow_loop():
    chi5_4 = [c for c in characters_mod(5) if c.order == 4][0]
    chi3 = named_character("chi3")
    ctx = SumContext(chi5_4, chi3, 2)
    for a, c in [(2, 15), (7, 30), (11, 15)]:
        fast = dk.sum_S(ctx, a, c)
        slow = slow_sum_S(ctx, a, c)
        assert (fast - slow.embed(fast.order)).is_zero()


def test_quadratic_pair_values_are_rational():
    rng = random.Random(44)
    ctx = ctx_for("chi4", "chi4", 4)
    for _ in range(10):
        c = 16 * rng.randint(1, 5)
        a = rng.choice([x for x in range(1, c) if Fraction(x, c).denominator == c])
        v = dk.sum_S(ctx, a, c)
        assert v.is_rational()
        assert v.rational_value() == slow_sum_S(ctx, a, c).rational_value()


def test_a_mod_c_invariance():
    ctx = ctx_for("chi5", "chi5", 4)
    for a, c in [(1, 25), (7, 50), (-1, 25)]:
        assert (dk.sum_S(ctx, a + c, c) - dk.sum_S(ctx, a, c)).is_zero()


def test_gamma_infinity_invariance():
    # S(T^m gamma) = S(gamma), exactly
    ctx = ctx_for("chi3", "chi7", 2)
    rng = random.Random(15)
    for _ in range(10):
        g = random_gamma0(rng, 21)
        shifted = translation(rng.randint(-4, 4)) * g
        assert (dk.sum_S_matrix(ctx, shifted) - dk.sum_S_matrix(ctx, g)).is_zero()


def test_s_tilde_reference_anchor():
    # S-tilde at the inverse of (26 1; 25 1), normalized to (a, c) = (-1, 25)
    ctx = ctx_for("chi5", "chi5", 4)
    assert dk.sum_S_tilde(ctx, -1, 25).rational_value() == Fraction(-24, 5)
    g_inv = Mat2(26, 1, 25, 1).inverse()
    v = dk.sum_S_matrix(ctx, g_inv)
    assert v.rational_value() * 25 ** 2 == Fraction(-24, 5)


def test_image_divisibility_chi3_chi3_k2_full_sweep():
    # every S-tilde value over G_50(9) lies in 2Z
    ctx = ctx_for("chi3", "chi3", 2)
    values = dk.sweep_S_tilde_rational(ctx, list(iter_G_pairs(9, 50)))
    assert values, "sweep must be nonempty"
    assert all((v / 2).denominator == 1 for v in values)


def test_image_divisibility_chi4_chi4_k4_full_sweep():
    # every value over G_50(16) for (chi4, chi4), k = 4 lies in 6Z
    ctx = ctx_for("chi4", "chi4", 4)
    values = dk.sweep_S_tilde_rational(ctx, list(iter_G_pairs(16, 50)))
    assert all((v / 6).denominator == 1 for v in values)


TABLE_CELLS = [
    (pair, k)
    for pairs, weights in (
        (analysis.TABLE1_PAIRS + analysis.TABLE2_PAIRS, analysis.EVEN_WEIGHTS),
        (analysis.TABLE3_PAIRS, analysis.ODD_WEIGHTS),
    )
    for pair in pairs
    for k in weights
]


@settings(max_examples=60, deadline=None)
@given(cell=st.sampled_from(TABLE_CELLS), t=st.integers(1, 30), data=st.data())
def test_sweep_matches_single_calls(cell, t, data):
    # the P-table lookup of the sweep against the Horner evaluation of sum_S,
    # several a sharing one c (and so one table)
    ctx = analysis.context_for(*cell)
    c = ctx.n * t
    unit = st.integers(-2 * c, 2 * c).filter(lambda a: gcd(a, c) == 1)
    pairs = [(a, c) for a in data.draw(st.lists(unit, min_size=1, max_size=4))]
    values = dk.sweep_S_tilde_rational(ctx, pairs)
    for (a, _), v in zip(pairs, values):
        assert v == dk.sum_S(ctx, a, c).rational_value() * c ** (ctx.k - 2)


def test_weight2_crossed_homomorphism():
    rng = random.Random(71)
    for n, (t1, t2) in ((9, ("chi3", "chi3")), (12, ("chi3", "chi4")), (21, ("chi3", "chi7"))):
        ctx = ctx_for(t1, t2, 2)
        for _ in range(15):
            g1, g2 = random_gamma0(rng, n, 4), random_gamma0(rng, n, 4)
            lhs = dk.sum_S_matrix(ctx, g1 * g2)
            rhs = dk.sum_S_matrix(ctx, g1) + ctx.psi(g1) * dk.sum_S_matrix(ctx, g2)
            assert (lhs - rhs).is_zero()


# -- S-hat and h -------------------------------------------------------------


def test_shat_at_infinity_is_zero():
    ctx = ctx_for("chi5", "chi5", 4)
    assert dk.shat(ctx, CUSP_INF).is_zero()


def test_shat_periodicity():
    ctx = ctx_for("chi5", "chi5", 4)
    rng = random.Random(50)
    count = 0
    for a, c in iter_G_pairs(25, 8):
        if count >= 30:
            break
        count += 1
        n = rng.randint(-3, 3)
        assert (dk.shat(ctx, Cusp(a + n * c, c)) - dk.shat(ctx, Cusp(a, c))).is_zero()


def test_shat_equals_sum_on_matrices():
    ctx = ctx_for("chi3", "chi4", 2)
    rng = random.Random(33)
    for _ in range(10):
        g = random_gamma1(rng, 12)
        cusp = cusp_apply(g, CUSP_INF)
        assert (dk.shat(ctx, cusp) - dk.sum_S_matrix(ctx, g)).is_zero()


def test_shat_rejects_omega_orbit():
    ctx = ctx_for("chi3", "chi3", 2)
    with pytest.raises(ValueError):
        dk.shat(ctx, Cusp(1, 2))


def test_h_of_translation_vanishes():
    ctx = ctx_for("chi5", "chi5", 4)
    for a, c in [(1, 25), (26, 25), (1, 50)]:
        assert dk.h_eval(ctx, translation(1), Cusp(a, c)).is_zero()
    assert dk.h_interpolate(ctx, translation(1)).is_zero()


def test_h_eval_matches_reference_polynomial():
    ctx = ctx_for("chi5", "chi5", 4)
    g1 = Mat2(26, 1, 25, 1)
    for a, c in [(1, 25), (26, 25), (1, 50), (-24, 25)]:
        v = dk.h_eval(ctx, g1, Cusp(a, c)).rational_value()
        assert v == Fraction(-24, 5) * Fraction(a, c) ** 2


def test_h_eval_at_pole_is_polynomial_value():
    # at a = gamma^-1(inf) the slash term drops; the value is the polynomial's
    ctx = ctx_for("chi5", "chi5", 4)
    g1 = Mat2(26, 1, 25, 1)
    pole = cusp_apply(g1.inverse(), CUSP_INF)
    v = dk.h_eval(ctx, g1, pole).rational_value()
    assert v == Fraction(-24, 5) * pole.to_fraction() ** 2


def ring_order_nodes(ctx: SumContext, gamma: Mat2, count: int) -> list[Cusp]:
    """Reference node choice: the first admissible cusps of the G_j(N) rings in
    ring order, skipping the pole gamma^-1(inf)."""
    pole = cusp_apply(gamma.inverse(), CUSP_INF)
    seen: set = set()
    nodes: list[Cusp] = []
    j = 1
    while True:
        j += 1
        for pair in iter_G_pairs(ctx.n, j):
            if pair in seen:
                continue
            seen.add(pair)
            node = Cusp(*pair)
            if node == pole:
                continue
            nodes.append(node)
            if len(nodes) == count:
                return nodes


def ring_order_fit(ctx: SumContext, gamma: Mat2) -> Poly:
    """Lagrange fit of h_gamma through the k-1 reference nodes."""
    nodes = ring_order_nodes(ctx, gamma, ctx.k - 1)
    xs = [node.to_fraction() for node in nodes]
    ys = [dk.h_eval(ctx, gamma, node).rational_value() for node in nodes]
    return Poly.from_ascending(ctx.k, dk._lagrange(xs, ys))


@pytest.mark.parametrize(
    "tag1,tag2,k", [("chi5", "chi5", 4), ("chi3", "chi5", 3), ("chi3", "chi4", 2)]
)
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 4))
def test_h_eval_at_pole_matches_interpolant(tag1, tag2, k, seed, size):
    # the pole is a cheap node only because the slash term drops there and the
    # value is still the polynomial's; the reference fit never uses the pole
    ctx = ctx_for(tag1, tag2, k)
    gamma = random_gamma1(random.Random(seed), ctx.n, size)
    pole = cusp_apply(gamma.inverse(), CUSP_INF)
    poly = ring_order_fit(ctx, gamma)
    assert dk.h_eval(ctx, gamma, pole).rational_value() == poly.eval(pole.to_fraction())
    assert dk.h_interpolate(ctx, gamma) == poly


@pytest.mark.parametrize(
    "tag1,tag2,k",
    [
        ("chi3", "chi3", 2),
        ("chi3", "chi5", 3),
        ("chi3", "chi4", 4),
        ("chi4", "chi5", 5),
        ("chi3", "chi3", 6),
    ],
)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_h_interpolate_matches_ring_order_fit(tag1, tag2, k, seed):
    ctx = ctx_for(tag1, tag2, k)
    rng = random.Random(seed)
    gamma = random_gamma0(rng, ctx.n, 4)
    while not ctx.psi_is_one(gamma):
        gamma = random_gamma0(rng, ctx.n, 4)
    assert dk.h_interpolate(ctx, gamma) == ring_order_fit(ctx, gamma)


@pytest.mark.parametrize(
    "gamma", [Mat2(51, -4, 625, -49), Mat2(-74, 7, -275, 26), Mat2(-24, 1, -25, 1)]
)
def test_interpolation_nodes_are_cheapest(gamma):
    # brute force over a box that holds every node of cost <= the k-th best
    ctx = ctx_for("chi5", "chi5", 4)
    nodes = dk.interpolation_nodes(ctx, gamma, 4)
    pole = cusp_apply(gamma.inverse(), CUSP_INF)

    def cost(x):
        return x.q + abs(gamma.c * x.p + gamma.d * x.q)

    assert nodes[-1] != pole and pole in nodes
    worst = max(cost(x) for x in nodes)
    box = [
        Cusp(p, q)
        for q in range(25, worst + 1, 25)
        for p in range(1 - 25 * (worst // 25 + 2), 25 * (worst // 25 + 2), 25)
        if gcd(p, q) == 1
    ]
    cheapest = sorted({pole, *box}, key=lambda x: (cost(x), x.q, x.p))[:4]
    assert sorted(nodes, key=lambda x: (cost(x), x.q, x.p)) == cheapest
    assert [x.q for x in dk.interpolation_nodes(ctx, translation(3), 3)] == [25, 25, 25]


def test_h_interpolate_check_failure_raises_certificate_error(monkeypatch):
    ctx = ctx_for("chi5", "chi5", 4)
    gamma = Mat2(51, 104, 25, 51)
    real_h_eval = dk.h_eval
    check_node = dk.interpolation_nodes(ctx, gamma, ctx.k)[-1]

    def corrupted(ctx_, gamma_, cusp):
        value = real_h_eval(ctx_, gamma_, cusp)
        return value + 1 if cusp == check_node else value

    monkeypatch.setattr(dk, "h_eval", corrupted)
    with pytest.raises(dk.CertificateError):
        dk.h_interpolate(ctx, gamma)


def test_h_weight2_is_constant_minus_S():
    # for k = 2 and gamma in Gamma_1, h is the constant -S(gamma) (the
    # crossed-homomorphism identity); in particular degree <= 0
    ctx = ctx_for("chi3", "chi3", 2)
    rng = random.Random(28)
    for _ in range(5):
        g = random_gamma1(rng, 9, 3)
        expected = -dk.sum_S_matrix(ctx, g)
        for a, c in [(1, 9), (10, 9), (1, 18)]:
            v = dk.h_eval(ctx, g, Cusp(a, c))
            assert (v - expected).is_zero()
        poly = dk.h_interpolate(ctx, g)
        assert len(poly.coeffs) == 1 and poly.coeffs[0] == expected.rational_value()


def test_h_interpolate_requires_trivial_psi():
    ctx = ctx_for("chi3", "chi7", 2)
    rng = random.Random(90)
    g = random_gamma0(rng, 21)
    while ctx.psi_is_one(g):
        g = random_gamma0(rng, 21)
    with pytest.raises(ValueError):
        dk.h_interpolate(ctx, g)


REFERENCE_H_TABLE = [
    (Mat2(1, 1, 0, 1), [0, 0, 0]),
    (Mat2(-24, 1, -25, 1), [Fraction(24, 5), 0, 0]),
    (Mat2(51, -4, 625, -49), [-5340, Fraction(4176, 5), Fraction(-816, 25)]),
    (Mat2(26, 1, 25, 1), [Fraction(-24, 5), 0, 0]),
    (Mat2(51, 104, 25, 51), [Fraction(-24, 5), Fraction(-96, 5), Fraction(-96, 5)]),
    (Mat2(-74, 7, -275, 26), [Fraction(50244, 5), Fraction(-9576, 5), Fraction(456, 5)]),
    (Mat2(-149, 16, -475, 51), [Fraction(250206, 5), -10752, Fraction(14442, 25)]),
    (Mat2(76, -9, 625, -74), [-39240, Fraction(46464, 5), Fraction(-13752, 25)]),
    (Mat2(51, -7, 175, -24), [Fraction(17262, 5), Fraction(-4692, 5), Fraction(1596, 25)]),
    (Mat2(126, -11, 275, -24), [Fraction(-33444, 5), 1164, Fraction(-1266, 25)]),
    (Mat2(251, -136, 275, -149), [Fraction(6, 5), Fraction(-24, 5), Fraction(54, 25)]),
    (Mat2(101, -80, 125, -99), [15606, Fraction(-122952, 5), Fraction(48438, 5)]),
    (Mat2(426, -313, 475, -349), [Fraction(245724, 5), Fraction(-361332, 5), Fraction(132834, 5)]),
]


@pytest.mark.parametrize("gamma,coeffs", REFERENCE_H_TABLE)
def test_h_interpolate_published_values(gamma, coeffs):
    ctx = ctx_for("chi5", "chi5", 4)
    assert dk.h_interpolate(ctx, gamma) == Poly(4, coeffs)


def test_h_crossed_homomorphism_polynomials():
    ctx = ctx_for("chi5", "chi5", 4)
    rng = random.Random(61)
    pairs = [(Mat2(26, 1, 25, 1), Mat2(51, 104, 25, 51))]
    pairs += [(random_gamma1(rng, 25, 2), random_gamma1(rng, 25, 2)) for _ in range(6)]
    for g1, g2 in pairs:
        h12 = dk.h_interpolate(ctx, g1 * g2)
        assert h12 == dk.h_interpolate(ctx, g1).slash(g2) + dk.h_interpolate(ctx, g2)
