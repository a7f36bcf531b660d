import cmath
import math
import random

import pytest

from dedsums import dedekind as dk, fricke as fr, oracle as oc
from dedsums.characters import characters_mod, named_character
from dedsums.modgroup import CUSP_INF, Cusp, Mat2, cusp_apply, g_witness, random_gamma0


def ctx_for(t1, t2, k):
    return dk.SumContext(named_character(t1), named_character(t2), k)


def test_eisenstein_leading_term():
    ctx = ctx_for("chi3", "chi4", 4)
    n = oc.numeric_context(ctx)
    z = 10j
    val = oc.eisenstein_eval(n, z)
    lead = 2 * cmath.exp(2j * cmath.pi * z)
    assert abs(val - lead) / abs(lead) < 1e-10


def test_eisenstein_modularity():
    # E(gz) j(g, z)^-k / E(z) = psi(g)
    for tags, k, n_level in [(("chi3", "chi4"), 4, 12), (("chi5", "chi5"), 4, 25)]:
        ctx = ctx_for(tags[0], tags[1], k)
        nctx = oc.numeric_context(ctx)
        rng = random.Random(5)
        z = 1 / 3 + 0.5j
        for _ in range(4):
            g = random_gamma0(rng, n_level, 1)
            j = g.c * z + g.d
            if abs(j) > 2.5 or g.c == 0:
                continue
            gz = (g.a * z + g.b) / j
            lhs = oc.eisenstein_eval(nctx, gz) / j**k
            rhs = nctx.psi(g) * oc.eisenstein_eval(nctx, z)
            assert abs(lhs - rhs) < 1e-6 * max(1.0, abs(rhs))


def test_truncation_refinement_stays_within_tolerance():
    ctx = ctx_for("chi3", "chi3", 4)
    n = oc.numeric_context(ctx)
    z = 0.25 + 0.04j
    loose = oc.eisenstein_eval(n, z, oc.TruncationPolicy(tol=1e-6))
    tight = oc.eisenstein_eval(n, z, oc.TruncationPolicy(tol=1e-12))
    assert abs(loose - tight) < 1e-6


def test_truncation_error_raised():
    ctx = ctx_for("chi3", "chi3", 4)
    n = oc.numeric_context(ctx)
    with pytest.raises(oc.TruncationError):
        oc.eisenstein_eval(n, 0.1 + 1e-5j, oc.TruncationPolicy(tol=1e-10, n_cap=500))


def test_antiderivative_empty_segment():
    ctx = ctx_for("chi3", "chi4", 4)
    n = oc.numeric_context(ctx)
    assert oc.antiderivative_segment(n, 1j, 1j, 1.0, 0.5) == 0


def test_antiderivative_path_additivity():
    ctx = ctx_for("chi3", "chi4", 4)
    n = oc.numeric_context(ctx)
    s, mid, t = 0.3 + 0.2j, 0.1 + 1.5j, -0.4 + 0.6j
    ab = oc.antiderivative_segment(n, s, mid, 1.0, -0.25)
    bc = oc.antiderivative_segment(n, mid, t, 1.0, -0.25)
    ac = oc.antiderivative_segment(n, s, t, 1.0, -0.25)
    assert abs(ab + bc - ac) < 2e-8


def _simpson(f, a, b, n=2000):
    h = (b - a) / n
    total = f(a) + f(b)
    for i in range(1, n):
        total += f(a + i * h) * (4 if i % 2 else 2)
    return total * h / 3


def test_antiderivative_matches_quadrature():
    # vertical segment, k = 2, constant polynomial: direct Simpson on E
    ctx = ctx_for("chi3", "chi3", 2)
    n = oc.numeric_context(ctx)
    a, b = 0.5j, 2.0j
    quad = _simpson(lambda t: oc.eisenstein_eval(n, a + (b - a) * t) * (b - a), 0.0, 1.0)
    closed = oc.antiderivative_segment(n, a, b, 0.0, 1.0)
    assert abs(quad - closed) < 1e-7


def test_phi_depends_only_on_cusp():
    ctx = ctx_for("chi3", "chi4", 4)
    n = oc.numeric_context(ctx)
    g1 = Mat2(1, 0, 12, 1)
    g2 = Mat2(1, 1, 12, 13)  # different witness, same cusp 1/12
    assert cusp_apply(g1, CUSP_INF) == cusp_apply(g2, CUSP_INF)
    v1 = oc.phi_numeric(n, g1, 1.0, -1 / 12)
    v2 = oc.phi_numeric(n, g2, 1.0, -1 / 12)
    assert abs(v1 - v2) < 1e-8


def test_phi_z1_independence():
    ctx = ctx_for("chi5", "chi5", 4)
    n = oc.numeric_context(ctx)
    g = Mat2(26, 1, 25, 1)
    base = oc.phi_numeric(n, g, 1.0, -26 / 25)
    moved = oc.phi_numeric(n, g, 1.0, -26 / 25, z1=(2j - 1) / 25)
    assert abs(base - moved) < 1e-8


def test_phi_weight2_xy_independent():
    ctx = ctx_for("chi3", "chi7", 2)
    n = oc.numeric_context(ctx)
    rng = random.Random(31)
    g = Mat2(1, 0, 21, 1)
    base = oc.phi_numeric(n, g, 1.0, -1 / 21)
    for _ in range(4):
        x = rng.uniform(-2, 2) + rng.uniform(-1, 1) * 1j
        y = rng.uniform(-2, 2)
        assert abs(oc.phi_numeric(n, g, x, y) - base) < 1e-8


def test_phi_crossed_homomorphism_general_xy():
    ctx = ctx_for("chi3", "chi4", 4)
    n = oc.numeric_context(ctx)
    rng = random.Random(77)
    for _ in range(5):
        g1 = random_gamma0(rng, 12, 2)
        g2 = random_gamma0(rng, 12, 2)
        x, y = rng.uniform(-1, 1), rng.uniform(-1, 1)
        lhs = oc.phi_numeric(n, g1 * g2, x, y)
        rhs = oc.phi_numeric(n, g1, x, y) + n.psi(g1) * oc.phi_numeric(
            n, g2, g1.a * x + g1.c * y, g1.b * x + g1.d * y
        )
        assert abs(lhs - rhs) < 1e-6


def test_central_cross_validation_sample():
    rng = random.Random(2024)
    pool = [("chi3", "chi3", 2), ("chi3", "chi4", 4), ("chi4", "chi3", 6), ("chi3", "chi5", 3), ("chi5", "chi5", 4)]
    for tags in pool:
        ctx = ctx_for(*tags)
        n = oc.numeric_context(ctx)
        for _ in range(3):
            g = random_gamma0(rng, ctx.n, 3)
            while g.c == 0:
                g = random_gamma0(rng, ctx.n, 3)
            a, c = (g.a, g.c) if g.c > 0 else (-g.a, -g.c)
            exact = dk.sum_S(ctx, a, c).to_complex()
            numeric = n.s_scale() * oc.phi_numeric(n, g, 1.0, -a / c)
            assert abs(exact - numeric) < 1e-8


def test_nonquadratic_pair_cross_validation():
    chi5_4 = [c for c in characters_mod(5) if c.order == 4][0]
    chi3 = named_character("chi3")
    ctx = dk.SumContext(chi5_4, chi3, 2)
    n = oc.numeric_context(ctx)
    for a, c in [(2, 15), (7, 30)]:
        from dedsums.modgroup import g_witness

        g = g_witness(a, c, 1)
        exact = dk.sum_S(ctx, a, c).to_complex()
        numeric = n.s_scale() * oc.phi_numeric(n, g, 1.0, -a / c)
        assert abs(exact - numeric) < 1e-8


def test_shat_numeric_infinity():
    ctx = ctx_for("chi5", "chi5", 4)
    assert oc.shat_numeric(oc.numeric_context(ctx), CUSP_INF) == 0


def test_shat_numeric_zero_cusp():
    ctx = ctx_for("chi3", "chi7", 2)
    exact = fr.shat_at_zero(ctx).to_complex()
    numeric = oc.shat_numeric(oc.numeric_context(ctx), Cusp(0, 1))
    assert abs(exact - numeric) < 1e-8


def test_shat_numeric_matches_exact_on_infinity_orbit():
    ctx = ctx_for("chi4", "chi3", 4)
    n = oc.numeric_context(ctx)
    for cusp in (Cusp(1, 12), Cusp(5, 24), Cusp(-7, 36)):
        exact = dk.shat(ctx, cusp).to_complex()
        assert abs(exact - oc.shat_numeric(n, cusp)) < 1e-8


def test_shat_numeric_rejects_mixed_cusp():
    ctx = ctx_for("chi3", "chi4", 2)
    with pytest.raises(ValueError):
        oc.shat_numeric(oc.numeric_context(ctx), Cusp(1, 2))  # gcd(2,12) = 2


def test_omega_twisted_cocycle_identity():
    # h_{omega gamma}(a) against its phi expression, on both orbits
    ctx = ctx_for("chi5", "chi5", 4)
    n_level = ctx.n
    nctx = oc.numeric_context(ctx)
    swap = nctx.swap()
    k = ctx.k
    rng = random.Random(40)
    tau1 = oc.gauss_sum(ctx.chi1.conjugate()).to_complex()
    tau2 = oc.gauss_sum(ctx.chi2.conjugate()).to_complex()
    for cusp in (Cusp(1, 25), Cusp(1, 3)):
        gamma = random_gamma0(rng, n_level, 2)
        while gamma.c <= 0:
            gamma = random_gamma0(rng, n_level, 2)
        a_val = cusp.p / cusp.q
        # lhs: h_{omega gamma}(a) = S-hat(a) - j(omega gamma, a)^(k-2) S-hat(omega gamma a)
        og_cusp = fr.fricke_apply(n_level, cusp_apply(gamma, cusp))
        j_g = gamma.c * a_val + gamma.d
        g_cusp_val = cusp_apply(gamma, cusp)
        j_og = (n_level**0.5) * (g_cusp_val.p / g_cusp_val.q) * j_g
        lhs = oc.shat_numeric(nctx, cusp) - j_og ** (k - 2) * oc.shat_numeric(nctx, og_cusp)
        # rhs of the omega-twisted cocycle formula
        psi_bar = nctx.psi(gamma).conjugate()
        r_gamma = psi_bar * nctx.fricke_R()
        # phi_{chi2,chi1}((omega gamma)^-1, 1, -a): integral to gamma^-1(0)
        target = cusp_apply(gamma.inverse(), Cusp(0, 1))
        phi_val = _integral_to_cusp(swap, target, -a_val)
        rhs = (
            (-1) ** k * tau1 * (k - 1) * r_gamma * phi_val
            - r_gamma * (tau1 / tau2) * oc.shat_numeric(swap, cusp)
            + oc.shat_numeric(nctx, cusp)
        )
        assert abs(lhs - rhs) < 1e-6, (gamma, cusp, abs(lhs - rhs))


def _integral_to_cusp(nctx, cusp, y_val):
    """Integral of E (z + y)^(k-2) from infinity to an omega-orbit cusp."""
    n_level = nctx.n_level
    if cusp.p == 0:
        return oc.integral_to_zero(nctx, y_val)
    # split at the Fricke fixed point and pull the cusp leg through omega
    import math as _m

    z_star = 1j / _m.sqrt(n_level)
    upper = oc.antiderivative_at(nctx, z_star, 1.0, y_val)
    swap = nctx.swap()
    b_cusp = fr.fricke_apply(n_level, cusp)
    x2 = y_val * _m.sqrt(n_level)
    y2 = -1 / _m.sqrt(n_level)
    witness = g_witness(b_cusp.p, b_cusp.q, n_level)
    inner = oc.phi_numeric(swap, witness, x2, y2) - oc.antiderivative_at(swap, z_star, x2, y2)
    return upper + nctx.fricke_R() * inner
