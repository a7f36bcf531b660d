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
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate, islice, repeat
from operator import mul, truediv

from .characters import gauss_sum
from .dedekind import SumContext
from .exactnum import CertificateError
from .modgroup import Cusp, Mat2, fricke_apply, g_witness

TWO_PI_I = 2j * math.pi


class TruncationError(RuntimeError):
    """The tail bound could not be pushed under the target tolerance."""


@dataclass(frozen=True)
class TruncationPolicy:
    """An error budget for one oracle value, and the series length cap."""

    tol: float = 1e-8
    n_cap: int = 400_000

    def for_factor(self, factor: complex) -> "TruncationPolicy":
        """The budget of a value that is about to be multiplied by ``factor``:
        tol / |factor| when |factor| > 1, so the product keeps ``tol``."""
        return replace(self, tol=self.tol / max(1.0, abs(factor)))


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
        self._sigma: list[complex] = [0j, 1 + 0j]  # sigma[0] unused, sigma(1) = 1
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
        """Extend sigma to at least ``upto`` terms by the Hecke recurrence.

        sigma = chi1 * (conj(chi2) n^(k-1)) is a Dirichlet convolution of two
        completely multiplicative functions, so with alpha_p = chi1(p) and
        beta_p = conj(chi2)(p) p^(k-1) (each 0 when p divides its modulus):
        sigma(p) = alpha_p + beta_p, sigma(pm) = sigma(p) sigma(m) when p does
        not divide m, and sigma(pm) = sigma(p) sigma(m) - alpha_p beta_p
        sigma(m/p) when it does.  Each N takes its smallest prime factor p from
        one sieve, so a build is O(M) products.
        """
        old = len(self._sigma) - 1
        if upto <= old:
            return
        new_upto = max(upto, 2 * old, 64)
        spf = _smallest_prime_factors(new_upto)
        k1 = self.k - 1
        q1, q2 = self.q1, self.q2
        alpha = [v or 0j for v in self.chi1]
        beta = [v or 0j for v in self.chi2_bar]
        sig = self._sigma
        for n in range(old + 1, new_upto + 1):
            p = spf[n]
            if not p:
                sig.append(alpha[n % q1] + beta[n % q2] * float(n) ** k1)
                continue
            m = n // p
            if m % p:
                sig.append(sig[p] * sig[m])
            else:
                hecke = alpha[p % q1] * beta[p % q2] * float(p) ** k1
                sig.append(sig[p] * sig[m] - hecke * sig[m // p])


def _smallest_prime_factors(n: int) -> list[int]:
    """spf[m] for composite m <= n, and 0 at 0, 1 and the primes."""
    spf = [0] * (n + 1)
    # largest p first: a composite p marks only multiples of its smallest
    # prime factor, which marks them again after it
    for p in range(math.isqrt(n), 1, -1):
        spf[p * p :: p] = [p] * ((n - p * p) // p + 1)
    return spf


def _unit(e, order: int):
    if e is None:
        return None
    if order == 2:
        return complex((-1) ** (e % 2))
    return cmath.exp(TWO_PI_I * (e % order) / order)


def numeric_context(ctx: SumContext) -> NumericContext:
    return NumericContext(ctx)


def _poly_weight(k: int, z: complex, x: complex, y: complex) -> float:
    """sup over n of |P^(n)(z)| / (2 pi)^(n+1), P(z) = (xz+y)^(k-2)."""
    base = abs(x * z + y)
    fac = 1.0  # falling factorial (k-2)(k-3)...(k-1-n)
    best = 0.0
    for n in range(k - 1):
        term = fac * abs(x) ** n * base ** (k - n - 2) / (2 * math.pi) ** (n + 1)
        best = max(best, term)
        fac *= k - 2 - n if k - 2 - n > 0 else 1
    return best


def _tail_terms(y: float, k: int, tol: float, weight: float, cap: int) -> tuple[int, float]:
    """Least M >= 8 with C weight sum_{N>M} N^p e^(-2 pi N y) below tol.

    With x = e^(-2 pi y), term N of the antiderivative series is
    2 sigma(N) e(Nz) sum_n P^(n)(z) / (-2 pi i N)^(n+1), and
    sum_{n>=0} N^-(n+1) = 1/(N-1), so it is at most
    2 weight |sigma(N)| x^N / (N-1) <= (9/4) weight |sigma(N)| x^N / N,
    since N/(N-1) <= 9/8 for N >= 9.  The character values have modulus at
    most 1, so |sigma(N)| <= sigma_{k-1}(N).  For k >= 3,
    sigma_{k-1}(N) = N^(k-1) sum_{A|N} A^(1-k) <= zeta(2) N^(k-1): p = k-2
    and C = (9/4) zeta(2) = 3 pi^2/8.  For k = 2, sigma_1(N) <= d(N) N <=
    2 N^(3/2), since the divisors pair off across sqrt(N): p = 1/2 and
    C = 9/2.  tail_at(M) sums C weight N^p x^N over N > M as a geometric
    series in its first ratio x ((M+2)/(M+1))^p, which majorizes every later
    ratio.  It is non-increasing in M (the ratio falls with M, and tail_at is
    infinite while the ratio is near 1), so after growing M by half at a time
    until the bound holds, a bisection finds the least such M.  No M above
    ``cap`` is tried: if tail_at(cap) misses tol, it raises.
    """
    if y <= 0:
        raise ValueError("evaluation point must be in the upper half plane")
    x = math.exp(-2 * math.pi * y)
    if k >= 3:
        power, const = k - 2, 3 * math.pi**2 / 8
    else:
        power, const = 0.5, 4.5

    def tail_at(m: int) -> float:
        t = const * weight * (m + 1) ** power * x ** (m + 1)
        ratio = x * ((m + 2) / (m + 1)) ** power
        if ratio >= 0.9999:
            return math.inf
        return t / (1 - ratio)

    lo, m = 7, min(max(8, int(power / (2 * math.pi * y))), cap)
    while tail_at(m) > tol:
        if m >= cap:
            # keep growing off the books to suggest a workable cutoff
            needed = m
            while tail_at(needed) > tol and needed < 200 * cap:
                needed = int(needed * 1.5) + 8
            raise TruncationError(
                f"tail estimate {tail_at(cap):.3g} above tolerance {tol:.3g} at the "
                f"{cap}-term cap; roughly {needed} terms would be needed"
            )
        lo, m = m, min(int(m * 1.5) + 8, cap)
    # tail_at(lo) > tol >= tail_at(m)
    while m - lo > 1:
        mid = (lo + m) // 2
        if tail_at(mid) > tol:
            lo = mid
        else:
            m = mid
    return m, tail_at(m)


def _series_terms(nctx: NumericContext, z: complex, terms: int) -> list[complex]:
    """sigma(N) e(Nz) for N = 1..terms."""
    nctx._grow_sigma(terms)
    powers = accumulate(repeat(cmath.exp(TWO_PI_I * z), terms), mul)
    return list(map(mul, islice(nctx._sigma, 1, terms + 1), powers))


def antiderivative_at(
    nctx: NumericContext, z: complex, x, y, policy: TruncationPolicy = DEFAULT_POLICY
) -> complex:
    """F(z; X, Y): the termwise antiderivative of E * (Xz+Y)^(k-2) at z.

    Normalized so F -> 0 towards i*infinity; integrals over vertical paths are
    plain differences of F values.  The sum over n comes out of the sum over
    N: pass n divides sigma(N) e(Nz) by N once more and sums it, so F is
    -2 sum_n P^(n)(z) / (-2 pi i)^(n+1) sum_N sigma(N) e(Nz) / N^(n+1).
    When X = 0 every P^(n) with n >= 1 vanishes, so one pass is exact.  The
    series is cut where its tail is below policy.tol / 4.
    """
    k = nctx.k
    x, y = complex(x), complex(y)
    weight = _poly_weight(k, z, x, y)
    terms, _ = _tail_terms(z.imag, k, policy.tol * 0.25, weight, policy.n_cap)
    series = _series_terms(nctx, z, terms)
    total = 0j
    fac = 1.0  # P^(n)(z) = (k-2)...(k-1-n) x^n (xz+y)^(k-2-n)
    for n in range(k - 1 if x else 1):
        series = list(map(truediv, series, range(1, terms + 1)))
        total += fac * x**n * (x * z + y) ** (k - 2 - n) / (-TWO_PI_I) ** (n + 1) * sum(series)
        fac *= k - 2 - n
    return -2 * total


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
    >= Im(z1).  Depends only on the cusp gamma(infinity) and on (X, Y).  Each
    leg keeps policy.tol / 4 and |psi| = 1, so the value keeps policy.tol / 2.
    The pulled-back (a x + c y, b x + d y) is computed before any conversion
    to complex, so for rational x and y it is exact: at y = -a/c its first
    entry is exactly 0 and that leg takes one pass.
    """
    if gamma.c == 0:
        return 0j
    if gamma.c < 0:
        gamma = -gamma
    a, b, c, d = gamma.a, gamma.b, gamma.c, gamma.d
    if z1 is None:
        z1 = (1j - d) / c
    gz1 = (a * complex(z1) + b) / (c * complex(z1) + d)
    first = antiderivative_at(nctx, gz1, x, y, policy)
    second = antiderivative_at(nctx, complex(z1), a * x + c * y, b * x + d * y, policy)
    return first - nctx.psi(gamma) * second


def integral_to_zero(
    nctx: NumericContext, y_spec, policy: TruncationPolicy = DEFAULT_POLICY
) -> complex:
    """Integral of E * (z + Y)^(k-2) dz from infinity down to the cusp 0.

    The leg near 0 is pulled through the Fricke flip, which swaps the
    character pair and lands at the balanced interior point i/sqrt(N).  The
    pulled-back leg is cut for its factor, so the value keeps policy.tol / 2.
    """
    k = nctx.k
    n_level = nctx.n_level
    z_star = 1j / math.sqrt(n_level)
    upper = antiderivative_at(nctx, z_star, 1.0, y_spec, policy)
    # z = omega(w) = -1/(N w) turns (z + Y)^(k-2) dz into
    # N^((2-k)/2) (N Y w - 1)^(k-2) j(omega, w)^(-k) dw
    factor = -nctx.fricke_R() * n_level ** ((2 - k) / 2)
    f_swap = antiderivative_at(
        nctx.swap(), z_star, n_level * complex(y_spec), -1.0, policy.for_factor(factor)
    )
    return upper + factor * f_swap


def shat_numeric(
    nctx: NumericContext, cusp: Cusp, policy: TruncationPolicy = DEFAULT_POLICY
) -> complex:
    """S-hat on both cusp orbits, by truncated series.

    Infinity orbit: the scaled period integral via phi_numeric.  Zero orbit:
    one Fricke pullback reduces to swapped-context values at omega(cusp).
    Every series is cut for the factor its value is multiplied by, so the
    result is within policy.tol of the exact S-hat, up to rounding.
    """
    if cusp.is_infinity():
        return 0j
    n_level = nctx.n_level
    scale = nctx.s_scale()
    if cusp.q % n_level == 0:
        gamma = g_witness(cusp.p, cusp.q, n_level)
        y = Fraction(-cusp.p, cusp.q)
        return scale * phi_numeric(nctx, gamma, 1, y, policy.for_factor(scale))
    if math.gcd(cusp.q % n_level, n_level) != 1:
        raise ValueError(f"cusp {cusp} lies in neither the infinity nor the zero orbit")
    if cusp.p == 0:
        return scale * integral_to_zero(nctx, 0.0, policy.for_factor(scale))
    # cusp = omega(b_cusp) with b_cusp on the infinity orbit
    b_cusp = fricke_apply(n_level, cusp)
    if b_cusp.q % n_level:
        raise CertificateError(f"omega({cusp}) = {b_cusp} is off the infinity orbit")
    b_val = b_cusp.p / b_cusp.q
    j_pow = (math.sqrt(n_level) * b_val) ** (2 - nctx.k)
    factor = scale * j_pow * nctx.fricke_R()
    inner_policy = policy.for_factor(factor)
    swap = nctx.swap()
    gamma = g_witness(b_cusp.p, b_cusp.q, n_level)
    inner = phi_numeric(
        swap, gamma, 1, Fraction(-b_cusp.p, b_cusp.q), inner_policy
    ) - integral_to_zero(swap, -b_val, inner_policy)
    return factor * inner
