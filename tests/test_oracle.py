import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dedsums import dedekind as dk, fricke as fr, oracle as oc
from dedsums.characters import characters_mod, is_primitive, named_character, parity
from dedsums.modgroup import CUSP_INF, Cusp, Mat2, cusp_apply, fricke_apply, g_witness, random_gamma0


def ctx_for(t1, t2, k):
    return dk.SumContext(named_character(t1), named_character(t2), k)


def eisenstein_eval(nctx, z, policy=oc.DEFAULT_POLICY):
    """Truncated Fourier series 2 sum sigma(N) e(Nz), tail below policy.tol / 2.

    Its terms are N times those of the antiderivative series, so its tail
    needs its own bound: 2 |sigma(N)| is at most 2 zeta(2) N^(k-1) for k >= 3
    and 4 N^(3/2) for k = 2, both under (3 pi^2/8) N^k for N >= 9, which is
    the bound oracle._tail_terms uses when given k + 2 and weight 1.
    """
    terms, _ = oc._tail_terms(z.imag, nctx.k + 2, policy.tol * 0.5, 1.0, policy.n_cap)
    return 2 * sum(oc._series_terms(nctx, z, terms))


def antiderivative_segment(nctx, s, s2, x, y, policy=oc.DEFAULT_POLICY):
    """Integral of E * P(.; X, Y) from s to s2 through the upper half plane."""
    return oc.antiderivative_at(nctx, s2, x, y, policy) - oc.antiderivative_at(nctx, s, x, y, policy)


def test_eisenstein_leading_term():
    ctx = ctx_for("chi3", "chi4", 4)
    n = oc.numeric_context(ctx)
    z = 10j
    val = eisenstein_eval(n, z)
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
            lhs = eisenstein_eval(nctx, gz) / j**k
            rhs = nctx.psi(g) * eisenstein_eval(nctx, z)
            assert abs(lhs - rhs) < 1e-6 * max(1.0, abs(rhs))


def test_truncation_refinement_stays_within_tolerance():
    ctx = ctx_for("chi3", "chi3", 4)
    n = oc.numeric_context(ctx)
    z = 0.25 + 0.04j
    loose = eisenstein_eval(n, z, oc.TruncationPolicy(tol=1e-6))
    tight = eisenstein_eval(n, z, oc.TruncationPolicy(tol=1e-12))
    assert abs(loose - tight) < 1e-6


def test_truncation_error_raised():
    ctx = ctx_for("chi3", "chi3", 4)
    n = oc.numeric_context(ctx)
    with pytest.raises(oc.TruncationError):
        eisenstein_eval(n, 0.1 + 1e-5j, oc.TruncationPolicy(tol=1e-10, n_cap=500))


def test_antiderivative_empty_segment():
    ctx = ctx_for("chi3", "chi4", 4)
    n = oc.numeric_context(ctx)
    assert antiderivative_segment(n, 1j, 1j, 1.0, 0.5) == 0


def test_antiderivative_path_additivity():
    ctx = ctx_for("chi3", "chi4", 4)
    n = oc.numeric_context(ctx)
    s, mid, t = 0.3 + 0.2j, 0.1 + 1.5j, -0.4 + 0.6j
    ab = antiderivative_segment(n, s, mid, 1.0, -0.25)
    bc = antiderivative_segment(n, mid, t, 1.0, -0.25)
    ac = antiderivative_segment(n, s, t, 1.0, -0.25)
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
    quad = _simpson(lambda t: eisenstein_eval(n, a + (b - a) * t) * (b - a), 0.0, 1.0)
    closed = antiderivative_segment(n, a, b, 0.0, 1.0)
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


def test_pullback_is_exactly_zero_at_the_cusp(monkeypatch):
    # X = a x + c y of the pulled-back leg at x = 1, y = -a/c: in floating
    # point it is a residue of about 1e-16 for some (a, c) of this grid, from
    # a rational y it is exactly 0, so that leg always takes one pass
    pulled = []
    monkeypatch.setattr(oc, "antiderivative_at", lambda nctx, z, x, y, policy: pulled.append(x) or 0j)

    class Flat:
        def psi(self, gamma):
            return 1

    residues = 0
    for c in range(1, 400):
        for a in range(-c, 2 * c):
            residues += a + c * (-a / c) != 0
            if math.gcd(a, c) == 1:
                oc.phi_numeric(Flat(), g_witness(a, c, 1), 1, Fraction(-a, c))
    assert residues > 0
    assert len(pulled) > 10**5 and not any(pulled[1::2])
    # shat_numeric passes the rational cusp on both orbits: (7, 25) and
    # (-7, 25) = omega(1/7) leave float residues
    nctx = oc.numeric_context(ctx_for("chi5", "chi5", 4))
    for cusp in (Cusp(7, 25), Cusp(1, 7)):
        pulled.clear()
        oc.shat_numeric(nctx, cusp)
        assert pulled[1] == 0


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
    # h_{omega gamma}(a) against its phi expression, on both orbits; each of
    # the five oracle values is cut for the factor it is multiplied by here
    policy = oc.TruncationPolicy(tol=1e-8)
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
        og_cusp = fricke_apply(n_level, cusp_apply(gamma, cusp))
        j_g = gamma.c * a_val + gamma.d
        g_cusp_val = cusp_apply(gamma, cusp)
        j_og = (n_level**0.5) * (g_cusp_val.p / g_cusp_val.q) * j_g
        f_og = j_og ** (k - 2)
        lhs = oc.shat_numeric(nctx, cusp, policy) - f_og * oc.shat_numeric(
            nctx, og_cusp, policy.for_factor(f_og)
        )
        # rhs of the omega-twisted cocycle formula
        psi_bar = nctx.psi(gamma).conjugate()
        r_gamma = psi_bar * nctx.fricke_R()
        # phi_{chi2,chi1}((omega gamma)^-1, 1, -a): integral to gamma^-1(0)
        target = cusp_apply(gamma.inverse(), Cusp(0, 1))
        f_phi = (-1) ** k * tau1 * (k - 1) * r_gamma
        phi_val = _integral_to_cusp(swap, target, -a_val, policy.for_factor(f_phi))
        f_swap = r_gamma * (tau1 / tau2)
        rhs = (
            f_phi * phi_val
            - f_swap * oc.shat_numeric(swap, cusp, policy.for_factor(f_swap))
            + oc.shat_numeric(nctx, cusp, policy)
        )
        assert abs(lhs - rhs) < 1e-6, (gamma, cusp, abs(lhs - rhs))


def _integral_to_cusp(nctx, cusp, y_val, policy):
    """Integral of E (z + y)^(k-2) from infinity to an omega-orbit cusp,
    within policy.tol."""
    n_level = nctx.n_level
    if cusp.p == 0:
        return oc.integral_to_zero(nctx, y_val, policy)
    # split at the Fricke fixed point and pull the cusp leg through omega
    z_star = 1j / math.sqrt(n_level)
    upper = oc.antiderivative_at(nctx, z_star, 1.0, y_val, policy)
    swap = nctx.swap()
    b_cusp = fricke_apply(n_level, cusp)
    x2 = y_val * math.sqrt(n_level)
    y2 = -1 / math.sqrt(n_level)
    witness = g_witness(b_cusp.p, b_cusp.q, n_level)
    r_const = nctx.fricke_R()
    inner_policy = policy.for_factor(r_const)
    inner = oc.phi_numeric(swap, witness, x2, y2, inner_policy) - oc.antiderivative_at(
        swap, z_star, x2, y2, inner_policy
    )
    return upper + r_const * inner


# -- the series against copies of the earlier loops ---------------------------


def old_sigma(nctx, upto):
    """sigma(1..upto) by the divisor double loop the Hecke recurrence replaced."""
    sig = [0j] * (upto + 1)
    k1 = nctx.k - 1
    for a in range(1, upto + 1):
        va = nctx.chi1[a % nctx.q1]
        if va is None or va == 0:
            continue
        for b in range(1, upto // a + 1):
            vb = nctx.chi2_bar[b % nctx.q2]
            if vb is None:
                continue
            sig[a * b] += va * vb * float(b) ** k1
    return sig


def old_antiderivative_at(nctx, z, x, y, policy=oc.DEFAULT_POLICY):
    """F(z; X, Y) by the per-term loop the builtin passes replaced, same M.

    Also returns 2 sum_N |term N|, the scale of the rounding error of any
    order of summation.
    """
    k = nctx.k
    x, y = complex(x), complex(y)
    weight = oc._poly_weight(k, z, x, y)
    terms, _ = oc._tail_terms(z.imag, k, policy.tol * 0.25, weight, policy.n_cap)
    derivs = []
    fac = 1.0
    for n in range(k - 1):
        derivs.append(fac * x**n * (x * z + y) ** (k - 2 - n))
        fac *= k - 2 - n
    total, scale = 0j, 0.0
    e_step = cmath.exp(2j * math.pi * z)
    e_cur = 1.0 + 0j
    for n_idx in range(1, terms + 1):
        e_cur *= e_step
        s = nctx.sigma(n_idx)
        if s == 0:
            continue
        denom = -2j * math.pi * n_idx
        inner = 0j
        power = denom
        for d in derivs:
            inner += d / power
            power *= denom
        total += s * e_cur * inner
        scale += abs(s * e_cur * inner)
    return -2 * total, 2 * scale


def tail_bound(y, k, weight, m):
    """The tail bound of oracle._tail_terms at M = m, written out again:
    3 pi^2/8 weight N^(k-2) for k >= 3 and 9/2 weight N^(1/2) for k = 2,
    times x^N, summed over N > m as a geometric series in its first ratio."""
    x = math.exp(-2 * math.pi * y)
    power, const = (k - 2, 3 * math.pi**2 / 8) if k >= 3 else (0.5, 4.5)
    ratio = x * ((m + 2) / (m + 1)) ** power
    if ratio >= 0.9999:
        return math.inf
    return const * weight * (m + 1) ** power * x ** (m + 1) / (1 - ratio)


PRIME_POWER_CHARACTERS = [
    chi for q in (4, 8, 9, 25, 27) for chi in characters_mod(q) if is_primitive(chi) and chi.order <= 12
]


@st.composite
def numeric_contexts(draw, pool=PRIME_POWER_CHARACTERS, ks=range(2, 10)):
    chi1 = draw(st.sampled_from(pool))
    chi2 = draw(st.sampled_from(pool))
    sign = parity(chi1) * parity(chi2)
    k = draw(st.sampled_from([k for k in ks if (-1) ** k == sign]))
    return oc.NumericContext(dk.SumContext(chi1, chi2, k))


def test_prime_power_pool_covers_the_moduli():
    assert {chi.modulus for chi in PRIME_POWER_CHARACTERS} == {4, 8, 9, 25, 27}
    assert max(chi.order for chi in PRIME_POWER_CHARACTERS) > 2


@settings(max_examples=60, deadline=None)
@given(nctx=numeric_contexts(), upto=st.integers(1, 3000), first=st.integers(1, 3000))
def test_hecke_sigma_matches_divisor_loop(nctx, upto, first):
    reference = old_sigma(nctx, upto)
    for n in range(1, upto + 1):
        assert abs(nctx.sigma(n) - reference[n]) <= 1e-13 * max(1.0, float(n) ** (nctx.k - 1)), n
    # growing in two steps gives the same values as one build
    stepped = oc.NumericContext(nctx.ctx)
    stepped._grow_sigma(min(first, upto))
    stepped._grow_sigma(upto)
    once = oc.NumericContext(nctx.ctx)
    once._grow_sigma(upto)
    assert stepped._sigma[: upto + 1] == once._sigma[: upto + 1]


QUADRATIC_AND_MIXED = [named_character(t) for t in ("chi3", "chi4", "chi5", "chi7", "chi8a")] + [
    chi for chi in characters_mod(5) + characters_mod(7) if chi.order > 2
]


@settings(max_examples=40, deadline=None)
@given(
    nctx=numeric_contexts(QUADRATIC_AND_MIXED, range(2, 8)),
    re_z=st.floats(-1, 1),
    height=st.floats(0.01, 1.5),
    xy=st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2)),
)
def test_antiderivative_matches_per_term_loop(nctx, re_z, height, xy):
    z = complex(re_z, height)
    x, y = complex(xy[0], xy[1]), xy[2]
    new = oc.antiderivative_at(nctx, z, x, y)
    old, scale = old_antiderivative_at(nctx, z, x, y)
    assert abs(new - old) <= 1e-12 * max(abs(old), scale)


@settings(max_examples=60, deadline=None)
@given(
    nctx=numeric_contexts(QUADRATIC_AND_MIXED, range(2, 8)),
    re_z=st.floats(-1, 1),
    height=st.floats(0.02, 1.5),
    xy=st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
    tol=st.sampled_from([1e-4, 1e-8, 1e-11]),
)
def test_tail_terms_is_least_and_bounds_the_tail(nctx, re_z, height, xy, tol):
    k = nctx.k
    z = complex(re_z, height)
    x, y = complex(xy[0]), complex(xy[1])
    weight = oc._poly_weight(k, z, x, y)
    m, tail = oc._tail_terms(height, k, tol, weight, 400_000)
    assert tail == tail_bound(height, k, weight, m) <= tol
    assert m == 8 or tail_bound(height, k, weight, m - 1) > tol
    # the series terms past M, summed in absolute value far beyond it
    derivs, fac = [], 1.0
    for n in range(k - 1):
        derivs.append(fac * x**n * (x * z + y) ** (k - 2 - n))
        fac *= k - 2 - n
    past = 0.0
    for big in range(m + 1, 4 * m + 50):
        denom = -2j * math.pi * big
        inner = sum(d / denom ** (n + 1) for n, d in enumerate(derivs))
        past += abs(2 * nctx.sigma(big) * cmath.exp(2j * math.pi * big * z) * inner)
    assert past <= tail


def old_integral_to_zero(nctx, y_spec, policy=oc.DEFAULT_POLICY):
    """integral_to_zero with its two pullbacks, the y = 0 one and the general one,
    each pulled-back leg cut for the factor it is multiplied by."""
    k = nctx.k
    n_level = nctx.n_level
    z_star = 1j / math.sqrt(n_level)
    y_c = complex(y_spec)
    upper = oc.antiderivative_at(nctx, z_star, 1.0, y_c, policy)
    swap = nctx.swap()
    r_const = nctx.fricke_R()
    if y_c == 0:
        factor = -((-1) ** k) * n_level ** ((2 - k) / 2) * r_const
        f_swap = oc.antiderivative_at(swap, z_star, 0.0, 1.0, policy.for_factor(factor))
    else:
        c_frak = -y_c
        d_frak = -1 / (n_level * c_frak)
        j_pow = (math.sqrt(n_level) * d_frak) ** (2 - k)
        factor = -r_const * j_pow
        f_swap = oc.antiderivative_at(swap, z_star, 1.0, -d_frak, policy.for_factor(factor))
    lower = factor * f_swap
    return upper + lower


@settings(max_examples=60, deadline=None)
@given(
    nctx=numeric_contexts(QUADRATIC_AND_MIXED, range(2, 7)),
    num=st.integers(-60, 60),
    den=st.integers(1, 60),
)
def test_integral_to_zero_matches_two_branch_pullback(nctx, num, den):
    # the two pullbacks weigh the tail differently, so they stop at different
    # M; a tight tolerance keeps that truncation gap under the comparison
    y = num / den
    policy = oc.TruncationPolicy(tol=1e-15)
    new = oc.integral_to_zero(nctx, y, policy)
    old = old_integral_to_zero(nctx, y, policy)
    if y == 0:
        assert new == old
    assert abs(new - old) <= 1e-12 * max(1.0, abs(old))


@settings(max_examples=40, deadline=None)
@given(
    nctx=numeric_contexts(QUADRATIC_AND_MIXED, range(2, 7)),
    num=st.integers(-60, 60),
    mult=st.integers(1, 4),
    tol=st.sampled_from([1e-6, 1e-9, 1e-11]),
)
def test_shat_numeric_keeps_the_policy_tolerance(nctx, num, mult, tol):
    # every factor shat_numeric applies is budgeted, so the value keeps tol
    ctx = nctx.ctx
    policy = oc.TruncationPolicy(tol=tol)
    c = ctx.n * mult
    a = num if math.gcd(num, c) == 1 else 1
    exact = dk.shat(ctx, Cusp(a, c)).to_complex()
    assert abs(oc.shat_numeric(nctx, Cusp(a, c), policy) - exact) <= tol
    exact_zero = fr.shat_at_zero(ctx).to_complex()
    assert abs(oc.shat_numeric(nctx, Cusp(0, 1), policy) - exact_zero) <= tol
