import random
from fractions import Fraction
from math import gcd

import pytest

from dedsums import dedekind as dk, fricke as fr, oracle as oc, verify
from dedsums.characters import named_character
from dedsums.modgroup import (
    Cusp,
    Mat2,
    cusp_apply,
    fricke_apply,
    random_gamma0,
    random_gamma1,
)


def ctx_for(t1, t2, k):
    return dk.SumContext(named_character(t1), named_character(t2), k)


def test_fricke_apply_basics():
    assert fricke_apply(21, Cusp.infinity()) == Cusp(0, 1)
    assert fricke_apply(21, Cusp(0, 1)) == Cusp.infinity()
    assert fricke_apply(12, Cusp(1, 2)) == Cusp(-2, 12)


def test_fricke_is_involution():
    rng = random.Random(66)
    for _ in range(60):
        cusp = Cusp(rng.randint(-30, 30), rng.randint(0, 30))
        assert fricke_apply(21, fricke_apply(21, cusp)) == cusp


def test_fricke_swaps_orbits():
    # infinity-orbit cusps land on denominators coprime to N
    rng = random.Random(14)
    n = 12
    for _ in range(40):
        c = n * rng.randint(1, 8)
        a = rng.randint(1, c)
        if gcd(a, c) != 1:
            continue
        image = fricke_apply(n, Cusp(a, c))
        assert gcd(image.q, n) == 1


def test_conjugate_pair_shape():
    g = Mat2(5, 2, 12, 5)
    gp = fr.conjugate_pair(g, 12)
    assert gp == Mat2(5, -1, -24, 5)
    with pytest.raises(ValueError):
        fr.conjugate_pair(Mat2(1, 0, 1, 1), 12)


def test_shat_at_zero_even_chi2_vanishes():
    assert fr.shat_at_zero(ctx_for("chi5", "chi5", 4)).is_zero()
    assert fr.shat_at_zero(ctx_for("chi3", "chi8a", 3)).is_zero()


def test_shat_at_zero_published_magnitudes():
    v = fr.shat_at_zero(ctx_for("chi3", "chi3", 2))
    assert abs(v.rational_value()) == Fraction(1, 9)
    w = fr.shat_at_zero(ctx_for("chi3", "chi7", 2))
    assert w.rational_value() == Fraction(1, 3)


def test_shat_at_zero_matches_oracle_sample():
    # the protocol: the exact identification is trusted only because it
    # reproduces the numeric limit
    for tags, k in [(("chi3", "chi3"), 2), (("chi3", "chi7"), 2), (("chi4", "chi3"), 4), (("chi5", "chi4"), 3)]:
        ctx = ctx_for(tags[0], tags[1], k)
        exact = fr.shat_at_zero(ctx).to_complex()
        numeric = oc.shat_numeric(oc.numeric_context(ctx), Cusp(0, 1))
        assert abs(exact - numeric) < 1e-8


def test_reciprocity_k2_gamma1_case():
    # psi = 1 kills the constant: S(gamma) = chi1(-1) S'(gamma')
    ctx = ctx_for("chi3", "chi7", 2)
    rng = random.Random(1)
    for _ in range(10):
        g = random_gamma1(rng, 21, 4)
        assert verify.reciprocity_k2(ctx, g)
        swap = ctx.swap()
        direct = dk.sum_S_matrix(swap, fr.conjugate_pair(g, 21)) * (-1)
        assert (dk.sum_S_matrix(ctx, g) - direct).is_zero()


def test_reciprocity_k2_nontrivial_constant():
    ctx = ctx_for("chi3", "chi7", 2)
    rng = random.Random(2)
    seen_nontrivial = 0
    for _ in range(12):
        g = random_gamma0(rng, 21, 5)
        assert verify.reciprocity_k2(ctx, g)
        if not ctx.psi_is_one(g):
            seen_nontrivial += 1
    assert seen_nontrivial > 0


def test_reciprocity_k2_chi3_chi4():
    # chi4 is odd, so the constant (1 - psi) S-hat(0) is live here too
    ctx = ctx_for("chi3", "chi4", 2)
    assert not fr.shat_at_zero(ctx).is_zero()
    rng = random.Random(3)
    for _ in range(10):
        g = random_gamma0(rng, 12, 5)
        assert verify.reciprocity_k2(ctx, g)


def test_reciprocity_k2_even_chi2_constant_free():
    # with chi2 even the constant vanishes and S(gamma) = chi1(-1) S'(gamma')
    ctx = ctx_for("chi5", "chi5", 2)
    assert fr.shat_at_zero(ctx).is_zero()
    rng = random.Random(35)
    for _ in range(8):
        g = random_gamma0(rng, 25, 4)
        assert verify.reciprocity_k2(ctx, g)
        direct = dk.sum_S_matrix(ctx.swap(), fr.conjugate_pair(g, 25))  # chi1(-1) = +1
        assert (dk.sum_S_matrix(ctx, g) - direct).is_zero()


def test_reciprocity_k2_wrong_weight():
    with pytest.raises(ValueError):
        verify.reciprocity_k2(ctx_for("chi5", "chi5", 4), Mat2(1, 0, 25, 1))


def test_reciprocity_general_matches_k2_corollary():
    nctx = oc.numeric_context(ctx_for("chi3", "chi4", 2))
    rng = random.Random(5)
    for _ in range(3):
        g = random_gamma0(rng, 12, 3)
        while g.c == 0:
            g = random_gamma0(rng, 12, 3)
        residual, magnitude = verify.reciprocity_general(nctx, g, Cusp(1, 12))
        assert residual < 1e-8 * magnitude


def test_reciprocity_general_weight4():
    nctx = oc.numeric_context(ctx_for("chi5", "chi5", 4))
    rng = random.Random(8)
    for cusp in (Cusp(1, 25), Cusp(2, 3)):
        g = random_gamma0(rng, 25, 3)
        while g.c == 0:
            g = random_gamma0(rng, 25, 3)
        residual, magnitude = verify.reciprocity_general(nctx, g, cusp)
        assert residual < 1e-6 * magnitude, (g, cusp, residual)


def test_reciprocity_general_rejects_limit_cusps():
    nctx = oc.numeric_context(ctx_for("chi5", "chi5", 4))
    with pytest.raises(ValueError):
        verify.reciprocity_general(nctx, Mat2(1, 0, 25, 1), Cusp(0, 1))


@pytest.mark.parametrize("seed", [21, 64])
def test_reciprocity_suite_redraws_a_cusp_that_gamma_prime_sends_to_infinity(seed):
    # seed 21 draws gamma = [[1,1],[-24,-23]] and cusp 1/12 at level 12, seed 64
    # [[1,2],[-25,-49]] and 1/50 at level 25: gamma' maps each cusp to infinity
    ok, detail = verify.suite_reciprocity_numeric(seed, 1e-6)
    assert ok, detail


def three_term_residual(
    nctx: oc.NumericContext, gamma: Mat2, cusp: Cusp, policy: oc.TruncationPolicy = oc.DEFAULT_POLICY
) -> float:
    """Residual of 0 = h_gamma|omega - h_gamma' + (h_omega - h_omega|gamma'),
    with every h evaluated through the numeric S-hat on both orbits.  Each
    h is a difference of two values within its policy's tol, and the slashed
    ones are cut for their factor, so the residual is below 8 policy.tol plus
    rounding."""
    n, k = nctx.n_level, nctx.k
    gamma_p = fr.conjugate_pair(gamma, n)

    def h_gamma_at(g: Mat2, c: Cusp, policy: oc.TruncationPolicy) -> complex:
        return oc.shat_numeric(nctx, c, policy) - fr.slashed_shat(nctx, g, c, policy)

    def h_omega_at(c: Cusp, policy: oc.TruncationPolicy) -> complex:
        return oc.shat_numeric(nctx, c, policy) - fr.fricke_slashed_shat(nctx, c, policy)

    a_val = cusp.p / cusp.q
    f_omega = ((n**0.5) * a_val) ** (k - 2)
    term1 = f_omega * h_gamma_at(gamma, fricke_apply(n, cusp), policy.for_factor(f_omega))
    term2 = h_gamma_at(gamma_p, cusp, policy)
    f_gp = (gamma_p.c * a_val + gamma_p.d) ** (k - 2)
    term3 = h_omega_at(cusp, policy)
    term4 = f_gp * h_omega_at(cusp_apply(gamma_p, cusp), policy.for_factor(f_gp))
    return abs(term1 - term2 + (term3 - term4))


def test_three_term_identity_residual():
    nctx = oc.numeric_context(ctx_for("chi5", "chi5", 4))
    rng = random.Random(13)
    for cusp in (Cusp(1, 25), Cusp(1, 3)):
        g = random_gamma0(rng, 25, 2)
        while g.c == 0:
            g = random_gamma0(rng, 25, 2)
        assert three_term_residual(nctx, g, cusp) < 1e-6

