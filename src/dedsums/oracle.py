"""Floating-point cross-validation of the exact sums.

Everything here rests on one closed form: the antiderivative of the
Eisenstein series times the polynomial (Xz+Y)^(k-2) is

    F(z; X, Y) = -2 sum_N sigma(N) e(Nz) sum_n P^(n)(z) / (-2 pi i N)^(n+1),

with sigma(N) the twisted divisor sum of the Fourier coefficients.  Period
integrals to cusps are assembled from F values at interior points, with legs
adjacent to a cusp pulled through a scaling matrix (for the infinity orbit)
or the Fricke flip (for the zero orbit) so every truncated series is
evaluated where e(Nz) decays geometrically.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from .characters import gauss_sum
from .dedekind import SumContext
from .exactnum import CertificateError
from .modgroup import Cusp, Mat2, g_witness

TWO_PI_I = 2j * math.pi


class TruncationError(RuntimeError):
    """The tail bound could not be pushed under the target tolerance."""


@dataclass(frozen=True)
class TruncationPolicy:
    tol: float = 1e-8
    n_cap: int = 400_000

    def require(self, tail: float, n_used: int):
        if tail > self.tol:
            raise TruncationError(
                f"tail estimate {tail:.3g} above tolerance {self.tol:.3g} "
                f"after {n_used} terms; raise n_cap or the tolerance"
            )


DEFAULT_POLICY = TruncationPolicy()


class NumericContext:
    """Complex-embedded character data and cached divisor-sum coefficients."""

    def __init__(self, ctx: SumContext):
        self.ctx = ctx
        self.k = ctx.k
        self.n_level = ctx.n
        q1, q2 = ctx.q1, ctx.q2
        self.chi1 = [_unit(e, ctx.o1) for e in ctx.chi1_exps]
        self.chi2_bar = [None if e is None else _unit(-e, ctx.o2) for e in ctx.chi2_exps]
        self.q1, self.q2 = q1, q2
        self._sigma: list[complex] = [0j]  # sigma[0] unused
        self._swap: "NumericContext | None" = None

    def swap(self) -> "NumericContext":
        if self._swap is None:
            self._swap = NumericContext(self.ctx.swap())
            self._swap._swap = self
        return self._swap

    def psi(self, gamma: Mat2) -> complex:
        d = gamma.d
        v1 = self.chi1[d % self.q1]
        v2 = self.chi2_bar[d % self.q2]
        if v1 is None or v2 is None:
            raise ValueError("psi undefined: d shares a factor with the level")
        return v1 * v2

    def s_scale(self) -> complex:
        """(-1)^k tau(conj(chi1)) (k-1), the factor from integral to sum."""
        tau_bar = gauss_sum(self.ctx.chi1.conjugate()).to_complex()
        return (-1) ** self.k * tau_bar * (self.k - 1)

    def fricke_R(self) -> complex:
        """chi1(-1) (tau(chi1)/tau(chi2)) (q2/q1)^(k/2)."""
        t1 = gauss_sum(self.ctx.chi1).to_complex()
        t2 = gauss_sum(self.ctx.chi2).to_complex()
        sign = self.chi1[(-1) % self.q1]
        return sign * (t1 / t2) * (self.q2 / self.q1) ** (self.k / 2)

    def sigma(self, n: int) -> complex:
        """sum over A | n of chi1(A) conj(chi2)(n/A) (n/A)^(k-1)."""
        self._grow_sigma(n)
        return self._sigma[n]

    def _grow_sigma(self, upto: int):
        old = len(self._sigma) - 1
        if upto <= old:
            return
        new_upto = max(upto, 2 * old, 64)
        sig = self._sigma + [0j] * (new_upto - old)
        k1 = self.k - 1
        for a in range(1, new_upto + 1):
            va = self.chi1[a % self.q1]
            if va is None or va == 0:
                continue
            start = old // a + 1
            for b in range(start, new_upto // a + 1):
                vb = self.chi2_bar[b % self.q2]
                if vb is None:
                    continue
                sig[a * b] += va * vb * float(b) ** k1
        self._sigma = sig


def _unit(e, order: int):
    if e is None:
        return None
    if order == 1:
        return 1.0 + 0j
    if order == 2:
        return complex((-1) ** (e % 2))
    return cmath.exp(TWO_PI_I * (e % order) / order)


def numeric_context(ctx: SumContext) -> NumericContext:
    return NumericContext(ctx)


def _poly_weight(k: int, z: complex, x: complex, y: complex) -> float:
    """Crude sup over n of |P^(n)(z)| / (2 pi)^(n+1) for the tail estimate."""
    base = max(1.0, abs(x * z + y))
    fac = 1.0  # falling factorial (k-2)(k-3)...(k-1-n)
    best = 0.0
    for n in range(k - 1):
        term = fac * abs(x) ** n * base ** (k - n - 2) / (2 * math.pi) ** (n + 1)
        best = max(best, term)
        fac *= k - 2 - n if k - 2 - n > 0 else 1
    return best


def _tail_terms(y: float, k: int, tol: float, weight: float, cap: int) -> tuple[int, float]:
    """Smallest M with 4 weight sum_{N>M} N^(k+1/2) e^(-2 pi N y) below tol."""
    if y <= 0:
        raise ValueError("evaluation point must be in the upper half plane")
    x = math.exp(-2 * math.pi * y)
    power = k + 0.5

    def tail_at(m: int) -> float:
        t = 4 * weight * (m + 1) ** power * x ** (m + 1)
        ratio = x * ((m + 2) / (m + 1)) ** power
        if ratio >= 0.9999:
            return math.inf
        return t / (1 - ratio)

    m = max(8, int(power / (2 * math.pi * y)))
    while tail_at(m) > tol:
        m = int(m * 1.5) + 8
        if m > cap:
            # keep growing off the books to suggest a workable cutoff
            needed = m
            while tail_at(needed) > tol and needed < 200 * cap:
                needed = int(needed * 1.5) + 8
            raise TruncationError(
                f"tail estimate {tail_at(cap):.3g} above tolerance {tol:.3g} at the "
                f"{cap}-term cap; roughly {needed} terms would be needed"
            )
    return m, tail_at(m)


def antiderivative_at(
    nctx: NumericContext, z: complex, x, y, policy: TruncationPolicy = DEFAULT_POLICY
) -> complex:
    """F(z; X, Y): the termwise antiderivative of E * (Xz+Y)^(k-2) at z.

    Normalized so F -> 0 towards i*infinity; integrals over vertical paths are
    plain differences of F values.
    """
    k = nctx.k
    x, y = complex(x), complex(y)
    weight = _poly_weight(k, z, x, y)
    terms, tail = _tail_terms(z.imag, k, policy.tol * 0.25, weight, policy.n_cap)
    policy.require(tail, terms)
    nctx._grow_sigma(terms)
    sigma = nctx._sigma
    # derivative values P^(n)(z), n = 0..k-2
    derivs = []
    fac = 1.0
    for n in range(k - 1):
        derivs.append(fac * x**n * (x * z + y) ** (k - 2 - n))
        fac *= k - 2 - n
    total = 0j
    e_step = cmath.exp(TWO_PI_I * z)
    e_cur = 1.0 + 0j
    for n_idx in range(1, terms + 1):
        e_cur *= e_step
        s = sigma[n_idx]
        if s == 0:
            continue
        denom = -TWO_PI_I * n_idx
        inner = 0j
        power = denom
        for d in derivs:
            inner += d / power
            power *= denom
        total += s * e_cur * inner
    return -2 * total


def antiderivative_segment(
    nctx: NumericContext, s: complex, s2: complex, x, y, policy: TruncationPolicy = DEFAULT_POLICY
) -> complex:
    """Integral of E * P(.; X, Y) from s to s2 through the upper half plane."""
    return antiderivative_at(nctx, s2, x, y, policy) - antiderivative_at(nctx, s, x, y, policy)


def eisenstein_eval(nctx: NumericContext, z: complex, policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Truncated Fourier series 2 sum sigma(N) e(Nz)."""
    terms, tail = _tail_terms(z.imag, nctx.k, policy.tol * 0.5, 1.0, policy.n_cap)
    policy.require(tail, terms)
    nctx._grow_sigma(terms)
    total = 0j
    e_step = cmath.exp(TWO_PI_I * z)
    e_cur = 1.0 + 0j
    for n_idx in range(1, terms + 1):
        e_cur *= e_step
        total += nctx._sigma[n_idx] * e_cur
    return 2 * total


def phi_numeric(
    nctx: NumericContext,
    gamma: Mat2,
    x,
    y,
    policy: TruncationPolicy = DEFAULT_POLICY,
    z1: complex | None = None,
) -> complex:
    """The period integral from infinity to gamma(infinity) against (Xz+Y)^(k-2).

    Splits the path at gamma(z1) and pulls the cusp leg back through gamma,
    which turns both legs into antiderivative differences evaluated at height
    >= Im(z1).  Depends only on the cusp gamma(infinity) and on (X, Y).
    """
    if gamma.c == 0:
        return 0j
    if gamma.c < 0:
        gamma = -gamma
    a, b, c, d = gamma.a, gamma.b, gamma.c, gamma.d
    if z1 is None:
        z1 = (1j - d) / c
    gz1 = (a * complex(z1) + b) / (c * complex(z1) + d)
    x, y = complex(x), complex(y)
    first = antiderivative_at(nctx, gz1, x, y, policy)
    second = antiderivative_at(nctx, complex(z1), a * x + c * y, b * x + d * y, policy)
    return first - nctx.psi(gamma) * second


def integral_to_zero(
    nctx: NumericContext, y_spec, policy: TruncationPolicy = DEFAULT_POLICY
) -> complex:
    """Integral of E * (z + Y)^(k-2) dz from infinity down to the cusp 0.

    The leg near 0 is pulled through the Fricke flip, which swaps the
    character pair and lands at the balanced interior point i/sqrt(N).
    """
    k = nctx.k
    n_level = nctx.n_level
    z_star = 1j / math.sqrt(n_level)
    y_c = complex(y_spec)
    upper = antiderivative_at(nctx, z_star, 1.0, y_c, policy)
    swap = nctx.swap()
    r_const = nctx.fricke_R()
    if y_c == 0:
        # (Xz+Y) = z; pulled back, z^(k-2) = (-1)^k N^((2-k)/2) j(omega, w)^(k-2)
        f_swap = antiderivative_at(swap, z_star, 0.0, 1.0, policy)
        lower = -((-1) ** k) * n_level ** ((2 - k) / 2) * r_const * f_swap
    else:
        c_frak = -y_c  # the polynomial is (z - c_frak)^(k-2)
        d_frak = -1 / (n_level * c_frak)
        j_pow = (math.sqrt(n_level) * d_frak) ** (2 - k)
        f_swap = antiderivative_at(swap, z_star, 1.0, -d_frak, policy)
        lower = -r_const * j_pow * f_swap
    return upper + lower


def shat_numeric(
    nctx: NumericContext, cusp: Cusp, policy: TruncationPolicy = DEFAULT_POLICY
) -> complex:
    """S-hat on both cusp orbits, by truncated series.

    Infinity orbit: the scaled period integral via phi_numeric.  Zero orbit:
    one Fricke pullback reduces to swapped-context values at omega(cusp).
    """
    if cusp.is_infinity():
        return 0j
    n_level = nctx.n_level
    scale = nctx.s_scale()
    if cusp.q % n_level == 0:
        gamma = g_witness(cusp.p, cusp.q, n_level)
        return scale * phi_numeric(nctx, gamma, 1.0, -cusp.p / cusp.q, policy)
    if math.gcd(cusp.q % n_level, n_level) != 1:
        raise ValueError(f"cusp {cusp} lies in neither the infinity nor the zero orbit")
    if cusp.p == 0:
        return scale * integral_to_zero(nctx, 0.0, policy)
    # cusp = omega(b_cusp) with b_cusp on the infinity orbit
    b_cusp = Cusp(-cusp.q, n_level * cusp.p)
    if b_cusp.q % n_level:
        raise CertificateError(f"omega({cusp}) = {b_cusp} is off the infinity orbit")
    b_val = b_cusp.p / b_cusp.q
    j_pow = (math.sqrt(n_level) * b_val) ** (2 - nctx.k)
    swap = nctx.swap()
    gamma = g_witness(b_cusp.p, b_cusp.q, n_level)
    inner = phi_numeric(swap, gamma, 1.0, -b_val, policy) - integral_to_zero(
        swap, -b_val, policy
    )
    return scale * j_pow * nctx.fricke_R() * inner
