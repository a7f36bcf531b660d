"""The exact value of S-hat at 0, the conjugate pair gamma' of the Fricke
reciprocity, and the slash actions of Gamma_0(N) and of the Fricke flip
(``modgroup.fricke_apply``) on the numeric S-hat.

The exact S-hat(0) used here is the product of two character Bernoulli sums,

    S-hat(0) = (sum over n mod q1 of conj(chi1)(n) B_{k-1}(n/q1))
             * (sum over m mod q2 of conj(chi2)(m) B_1(m/q2)),

obtained by eliminating the L-values of the zero-cusp limit against the
Fourier-series definition of the character Bernoulli polynomials.  Both
factors vanish on the wrong parity side, so no case split is needed; the
identification is validated against the numeric oracle in the test suite
before anything downstream trusts it.
"""

from __future__ import annotations

from fractions import Fraction

from . import oracle as oc
from .bernoulli import char_bernoulli
from .dedekind import SumContext
from .exactnum import CyclotomicElement, lcm
from .modgroup import Cusp, Mat2, cusp_apply, fricke_apply


def shat_at_zero(ctx: SumContext) -> CyclotomicElement:
    """Exact algebraic value of S-hat at the cusp 0."""
    upper = char_bernoulli(ctx.k - 1, ctx.chi1, 0) * Fraction(1, ctx.q1 ** (ctx.k - 2))
    lower = char_bernoulli(1, ctx.chi2, 0)
    m = lcm(upper.order, lower.order)
    return upper.embed(m) * lower.embed(m)


def conjugate_pair(gamma: Mat2, n: int) -> Mat2:
    """gamma' = (d, -c; -b N, a) for gamma = (a, b; c N, d) in Gamma_0(N)."""
    if gamma.c % n != 0:
        raise ValueError(f"matrix not in Gamma_0({n})")
    c_small = gamma.c // n
    return Mat2(gamma.d, -c_small, -gamma.b * n, gamma.a)


def _slashed(nctx: oc.NumericContext, image: Cusp, j: float, policy) -> complex:
    """j^(k-2) S-hat(image) within policy.tol, 0 when image is infinity."""
    if image.is_infinity():
        return 0j
    factor = j ** (nctx.k - 2)
    return factor * oc.shat_numeric(nctx, image, policy.for_factor(factor))


def slashed_shat(nctx: oc.NumericContext, gamma: Mat2, cusp: Cusp, policy) -> complex:
    """(S-hat |_{2-k} gamma)(a) = j(gamma, a)^(k-2) S-hat(gamma a), within
    policy.tol."""
    image = cusp_apply(gamma, cusp)
    return _slashed(nctx, image, gamma.c * (cusp.p / cusp.q) + gamma.d, policy)


def fricke_slashed_shat(nctx: oc.NumericContext, cusp: Cusp, policy) -> complex:
    """(S-hat |_{2-k} omega)(a) = (sqrt(N) a)^(k-2) S-hat(omega a), within
    policy.tol."""
    image = fricke_apply(nctx.n_level, cusp)
    return _slashed(nctx, image, (nctx.n_level**0.5) * (cusp.p / cusp.q), policy)
