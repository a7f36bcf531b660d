"""The verification suites and the reciprocity checks they run.

Each suite takes ``(seed, tol)``, checks one identity on a seeded sample and
returns ``(passed, detail)``.  A failed check returns ``False`` instead of
asserting, so the suites fail loudly under ``python -O`` too.  Fricke
reciprocity is checked exactly at weight 2 and numerically in general, every
term of the identity evaluated through the truncated-series S-hat.  Only
checks that a suite runs live here; the numeric three-term identity is
checked by the tests.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from itertools import islice

from . import analysis, dedekind as dk, oracle as oc
from .analysis import TABLE1_PAIRS, TABLE2_PAIRS, TABLE3_PAIRS, context_for
from .characters import named_character, parity
from .dedekind import SumContext
from .fricke import conjugate_pair, fricke_slashed_shat, shat_at_zero, slashed_shat
from .modgroup import (
    Cusp,
    Mat2,
    Poly,
    cusp_apply,
    fricke_apply,
    iter_G_pairs,
    random_gamma0,
    random_gamma1,
)


def series_tol(tol: float) -> float:
    """The oracle's series target for a pass threshold ``tol``: a tenth of it,
    and never looser than 1e-9, so a loose --tol cannot pass by truncation."""
    return min(tol, 1e-8) / 10


def oracle_residual(nctx: oc.NumericContext, a: int, c: int, tol: float) -> tuple[float, complex]:
    """|S(a, c) - S-hat_numeric(a mod c / c)|, the exact sum against the
    oracle's series cut at ``series_tol(tol)``, and the series value."""
    exact = dk.sum_S(nctx.ctx, a, c).to_complex()
    numeric = oc.shat_numeric(nctx, Cusp(a % c, c), oc.TruncationPolicy(tol=series_tol(tol)))
    return abs(exact - numeric), numeric


# -- reciprocity checks ------------------------------------------------------


def reciprocity_k2(ctx: SumContext, gamma: Mat2) -> bool:
    """Exact check of S(gamma) = chi1(-1) S'(gamma') + (1 - psi(gamma)) S-hat(0)."""
    if ctx.k != 2:
        raise ValueError("the exact reciprocity identity is the weight 2 case")
    # every operand lives in Q(zeta_M), M = lcm of the two character orders
    lhs = dk.sum_S_matrix(ctx, gamma)
    s_swapped = dk.sum_S_matrix(ctx.swap(), conjugate_pair(gamma, ctx.n))
    rhs = s_swapped * parity(ctx.chi1) + (1 - ctx.psi(gamma)) * shat_at_zero(ctx)
    return (lhs - rhs).is_zero()


def reciprocity_general(
    nctx: oc.NumericContext, gamma: Mat2, cusp: Cusp, policy: oc.TruncationPolicy = oc.DEFAULT_POLICY
) -> tuple[float, float]:
    """Residual of the Fricke reciprocity identity, every term evaluated
    numerically, and the magnitude max(1, |lhs|, |rhs|) it is compared against.

    The slash in the phi terms acts in the cusp variable (the reduction used
    to prove the identity).  Each of the nine terms is cut for its own
    factor and keeps policy.tol, so the residual is below 9 policy.tol plus
    rounding.
    """
    n, k = nctx.n_level, nctx.k
    if cusp.is_infinity() or cusp.p == 0:
        raise ValueError("pick a finite nonzero cusp (0 and infinity are the limit cases)")
    gamma_p = conjugate_pair(gamma, n)
    swap = nctx.swap()
    a_val = cusp.p / cusp.q
    scale = nctx.s_scale()
    psi_g = nctx.psi(gamma)
    psi_gp = nctx.psi(gamma_p)
    r_const = nctx.fricke_R()

    omega_cusp = fricke_apply(n, cusp)
    j_omega = (n**0.5) * a_val
    f_omega = scale * j_omega ** (k - 2)

    lhs = (
        slashed_shat(nctx, gamma_p, cusp, policy)
        - psi_gp * oc.shat_numeric(nctx, cusp, policy)
        + scale
        * psi_gp
        * oc.phi_numeric(nctx, gamma_p.inverse(), 1.0, -a_val, policy.for_factor(scale))
        - f_omega
        * psi_g
        * oc.phi_numeric(
            nctx, gamma.inverse(), 1.0, -(omega_cusp.p / omega_cusp.q), policy.for_factor(f_omega)
        )
    )
    # phi_{chi2,chi1}(omega^-1, 1, -a) is the integral from infinity to 0
    f_zero = scale * r_const
    phi_omega_at = oc.integral_to_zero(swap, -a_val, policy.for_factor(f_zero))
    gp_image = cusp_apply(gamma_p, cusp)
    f_zero_slashed = f_zero * (gamma_p.c * a_val + gamma_p.d) ** (k - 2)
    phi_omega_slashed = oc.integral_to_zero(
        swap, -(gp_image.p / gp_image.q), policy.for_factor(f_zero_slashed)
    )
    # the two scales differ only in tau(conj chi1) against tau(conj chi2)
    f_swap = r_const * (scale / swap.s_scale())
    swap_policy = policy.for_factor(f_swap)
    rhs = (
        f_swap
        * (slashed_shat(swap, gamma_p, cusp, swap_policy) - oc.shat_numeric(swap, cusp, swap_policy))
        + f_zero * phi_omega_at
        - f_zero_slashed * phi_omega_slashed
        + (1 - psi_g) * fricke_slashed_shat(nctx, cusp, policy.for_factor(1 - psi_g))
    )
    return abs(lhs - rhs), max(1.0, abs(lhs), abs(rhs))


# -- verification suites -----------------------------------------------------


def suite_crossed_hom(seed: int, tol: float) -> tuple[bool, str]:
    """Weight-2 crossed homomorphism on Gamma_0 and the h polynomial cocycle."""
    rng = random.Random(seed)
    for pair in (("chi3", "chi3"), ("chi3", "chi4"), ("chi3", "chi7")):
        ctx = context_for(pair, 2)
        for _ in range(67):
            g1, g2 = random_gamma0(rng, ctx.n, 4), random_gamma0(rng, ctx.n, 4)
            lhs = dk.sum_S_matrix(ctx, g1 * g2)
            rhs = dk.sum_S_matrix(ctx, g1) + ctx.psi(g1) * dk.sum_S_matrix(ctx, g2)
            if not (lhs - rhs).is_zero():
                return False, f"weight-2 cocycle failed at N={ctx.n}, {g1}, {g2}"
    ctx = context_for(("chi5", "chi5"), 4)
    worked = [
        (Mat2(26, 1, 25, 1), Mat2(51, 104, 25, 51)),
        (Mat2(51, 104, 25, 51), Mat2(26, 1, 25, 1)),
    ]
    pairs = worked + [
        (random_gamma1(rng, 25, 3), random_gamma1(rng, 25, 3)) for _ in range(48)
    ]
    for g1, g2 in pairs:
        h12 = dk.h_interpolate(ctx, g1 * g2)
        combo = dk.h_interpolate(ctx, g1).slash(g2) + dk.h_interpolate(ctx, g2)
        if h12 != combo:
            return False, f"h cocycle failed at {g1}, {g2}"
    return True, f"{3 * 67} weight-2 pairs and {len(pairs)} h-polynomial pairs, all exact"


def suite_periodicity(seed: int, tol: float) -> tuple[bool, str]:
    """1-periodicity of S-hat (Gamma_infinity invariance) and a mod c
    invariance: the value the suite's context keeps for a + shift*c against a
    cold kernel run at a on a fresh context."""
    rng = random.Random(seed)
    ctx = context_for(("chi5", "chi5"), 4)
    pairs = list(islice(iter_G_pairs(25, 13), 100))  # of G_13(25)'s 105, c <= 300
    for a, c in pairs:
        cusp = Cusp(a, c)
        shift = rng.randint(-3, 3)
        cold = dk.sum_S(context_for(("chi5", "chi5"), 4), a, c)
        if not (dk.shat(ctx, Cusp(a + shift * c, c)) - cold).is_zero():
            return False, f"S-hat not 1-periodic at {cusp}"
        if not (dk.sum_S(ctx, a + shift * c, c) - cold).is_zero():
            return False, f"a mod c invariance failed at ({a},{c})"
    return True, f"{len(pairs)} cusps, shifts exact"


def suite_oracle(seed: int, tol: float) -> tuple[bool, str]:
    """Exact finite sum vs the truncated period integral, 100 seeded draws,
    each check passed below min(tol, 1e-8)."""
    rng = random.Random(seed)
    gate = min(tol, 1e-8)
    pool = [
        ("chi3", "chi3"), ("chi3", "chi4"), ("chi4", "chi3"), ("chi4", "chi4"),
        ("chi3", "chi7"), ("chi7", "chi3"), ("chi5", "chi5"),
        ("chi3", "chi5"), ("chi5", "chi3"), ("chi4", "chi5"), ("chi5", "chi4"),
    ]
    policy = oc.TruncationPolicy(tol=series_tol(tol))
    contexts: dict[tuple, oc.NumericContext] = {}
    worst = 0.0
    for i in range(100):
        pair = pool[rng.randrange(len(pool))]
        pair_parity = parity(named_character(pair[0])) * parity(named_character(pair[1]))
        ks = (2, 4, 6) if pair_parity == 1 else (3, 5)
        k = ks[rng.randrange(len(ks))]
        nctx = contexts.get((pair, k))
        if nctx is None:
            nctx = contexts[pair, k] = oc.numeric_context(context_for(pair, k))
        ctx = nctx.ctx
        gamma = random_gamma0(rng, ctx.n, 3)
        while gamma.c == 0:
            gamma = random_gamma0(rng, ctx.n, 3)
        a, c = (gamma.a, gamma.c) if gamma.c > 0 else (-gamma.a, -gamma.c)
        residual, numeric = oracle_residual(nctx, a, c, tol)
        worst = max(worst, residual)
        if residual >= gate:
            return False, f"oracle disagreement {residual:.2e} at {pair} k={k} {gamma}"
        if i % 25 == 0:
            # independence of the interior split point
            scale = nctx.s_scale()
            shifted = scale * oc.phi_numeric(
                nctx, gamma, 1.0, -a / c, policy.for_factor(scale),
                z1=(2j - gamma.d) / gamma.c if gamma.c > 0 else (2j + gamma.d) / -gamma.c,
            )
            if abs(numeric - shifted) >= gate:
                return False, f"z1 dependence {abs(numeric - shifted):.2e} at {gamma}"
    return True, f"100 draws, worst residual {worst:.2e}"


def suite_fricke_k2(seed: int, tol: float) -> tuple[bool, str]:
    """Exact weight-2 Fricke reciprocity on 30+30 random Gamma_0 matrices."""
    rng = random.Random(seed)
    for pair in (("chi3", "chi7"), ("chi3", "chi4")):
        ctx = context_for(pair, 2)
        nontrivial = 0
        for _ in range(30):
            gamma = random_gamma0(rng, ctx.n, 5)
            if not reciprocity_k2(ctx, gamma):
                return False, f"k=2 reciprocity failed at {pair}, {gamma}"
            if not ctx.psi_is_one(gamma):
                nontrivial += 1
        if pair == ("chi3", "chi7") and nontrivial == 0:
            return False, "no psi = -1 matrices drawn; constant term never exercised"
    return True, "60 matrices, both pairs, exactly zero residual"


def suite_reciprocity_numeric(seed: int, tol: float) -> tuple[bool, str]:
    """General-weight reciprocity identity and S-hat(0) cross-checks."""
    rng = random.Random(seed)
    policy = oc.TruncationPolicy(tol=series_tol(tol))
    checks = 0
    for pair, k in ((("chi3", "chi4"), 2), (("chi5", "chi5"), 4)):
        nctx = oc.numeric_context(context_for(pair, k))
        n = nctx.n_level
        for _ in range(10):
            cusp = None  # redrawn while gamma' sends it to infinity, a limit case of the identity
            while cusp is None or cusp_apply(conjugate_pair(gamma, n), cusp).is_infinity():
                gamma = random_gamma0(rng, n, 3)
                while gamma.c == 0:
                    gamma = random_gamma0(rng, n, 3)
                cusp = Cusp(1, n * rng.randint(1, 3)) if rng.random() < 0.5 else Cusp(
                    rng.choice([1, 2, -1]), [x for x in (3, 5, 7, 11) if math.gcd(x, n) == 1][rng.randrange(2)]
                )
            residual, magnitude = reciprocity_general(nctx, gamma, cusp, policy)
            checks += 1
            if not residual < tol * magnitude:
                return False, f"numeric reciprocity residual {residual:.2e} at {pair} k={k} {gamma} {cusp}"
    worst = 0.0
    for pairs, ks in ((TABLE1_PAIRS + TABLE2_PAIRS, (2, 4, 6)), (TABLE3_PAIRS, (3, 5))):
        for pair in pairs:
            for k in ks:
                ctx = context_for(pair, k)
                exact = shat_at_zero(ctx).to_complex()
                numeric = oc.shat_numeric(oc.numeric_context(ctx), Cusp(0, 1), policy)
                worst = max(worst, abs(exact - numeric))
                if abs(exact - numeric) >= min(tol, 1e-8):
                    return False, f"S-hat(0) mismatch at {pair} k={k}"
    return True, f"{checks} reciprocity samples; S-hat(0) worst residual {worst:.2e}"


def suite_poly_space(seed: int, tol: float) -> tuple[bool, str]:
    """Slash stability of the coefficient space and the evaluation-scaling bound."""
    rng = random.Random(seed)
    ctx = context_for(("chi5", "chi5"), 4)
    k, q1, n = ctx.k, ctx.q1, ctx.n
    m = Fraction(6)
    for _ in range(50):
        coeffs = [
            Fraction(m * rng.randint(-8, 8), q1 ** (i + 1)) for i in range(k - 1)
        ]
        p = Poly(k, coeffs)
        if not analysis.poly_space_member(p, m, q1):
            return False, f"{p} built in the space at m = {m} is not a member"
        g0 = random_gamma0(rng, n, 4)
        if not analysis.poly_space_member(p.slash(g0), m, q1):
            return False, f"slash stability failed at {g0}"
        g1 = random_gamma1(rng, n, 4)
        value = Fraction(g1.c) ** (k - 2) * p.eval(Fraction(g1.a, g1.c))
        if (value * q1 / m).denominator != 1:
            return False, f"evaluation scaling failed at {g1}"
    return True, "50 random polynomials, slash-stable and evaluation-bounded"


def suite_bounds(seed: int, tol: float) -> tuple[bool, str]:
    """Trivial magnitude bound and partial-quotient statistics."""
    for k in (2, 4, 6):
        ctx = context_for(("chi3", "chi3"), k)
        for a, c in iter_G_pairs(9, 10):
            s_val = abs(dk.sum_S(ctx, a, c).rational_value())
            if float(s_val) > analysis.trivial_bound(ctx, c):
                return False, f"trivial bound violated at k={k} ({a},{c})"
    ctx = context_for(("chi3", "chi3"), 2)
    report = analysis.bound_statistics(ctx, 180, (Fraction(1, 10), 1, 10))
    if not report.trivial_bound_ok:
        return False, "trivial bound violated inside bound_statistics"
    if not report.delta_ok:
        return False, "partial-quotient difference bound violated"
    counts = report.exceptional
    if not (counts[0] >= counts[1] >= counts[2]):
        return False, f"L(alpha, C) not monotone: {counts}"
    return True, f"G_10(9) sweeps k<=6 and C=180 statistics, max ratio {report.max_ratio:.3f}"


SUITES = {
    "crossed-hom": suite_crossed_hom,
    "periodicity": suite_periodicity,
    "oracle": suite_oracle,
    "fricke-k2": suite_fricke_k2,
    "reciprocity-numeric": suite_reciprocity_numeric,
    "poly-space": suite_poly_space,
    "bounds": suite_bounds,
}


def run_suites(suite: str, seed: int, tol: float):
    """Yield (name, passed, detail, seconds) for the named suite, or for every
    suite in order when ``suite`` is "all"."""
    for name in list(SUITES) if suite == "all" else [suite]:
        t0 = time.perf_counter()
        ok, detail = SUITES[name](seed, tol)
        yield name, ok, detail, time.perf_counter() - t0
