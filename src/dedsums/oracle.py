"""Floating-point cross-validation of the exact sums.

Everything here rests on one closed form: the antiderivative of the
Eisenstein series times the polynomial (Xz+Y)^(k-2) is

    F(z; X, Y) = -2 sum_N sigma(N) e(Nz) sum_n P^(n)(z) / (-2 pi i N)^(n+1),

with sigma(N) the twisted divisor sum of the Fourier coefficients, kept as
tau(N) = sigma(N)/N: that is the coefficient the antiderivative's first pass
sums, and it is multiplicative with a Hecke recurrence of its own.  Period
integrals to cusps are assembled from F values at interior points, with legs
adjacent to a cusp pulled through a scaling matrix (for the infinity orbit)
or the Fricke flip (for the zero orbit) so every truncated series is
evaluated where e(Nz) decays geometrically.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import accumulate, compress, cycle, islice, repeat
from operator import mul, truediv

from .dedekind import SumContext
from .exactnum import CertificateError, Record
from .modgroup import Cusp, Mat2, fricke_apply, g_witness

TWO_PI_I = 2j * math.pi


class TruncationError(RuntimeError):
    """The tail bound could not be pushed under the target tolerance."""


class TruncationPolicy(Record):
    """An error budget for one oracle value; every series stops by ``n_cap`` terms."""

    _fields = ("tol",)
    n_cap = 400_000

    def for_factor(self, factor: complex) -> "TruncationPolicy":
        """The budget of a value that is about to be multiplied by ``factor``:
        tol / |factor| when |factor| > 1, so the product keeps ``tol``."""
        return TruncationPolicy(self.tol / max(1.0, abs(factor)))


DEFAULT_POLICY = TruncationPolicy(1e-8)


class NumericContext:
    """Complex-embedded character data and cached divisor-sum coefficients."""

    def __init__(self, ctx: SumContext):
        self.ctx = ctx
        self.k = ctx.k
        self.n_level = ctx.n
        q1, q2 = ctx.q1, ctx.q2
        self.chi1 = [_unit(e, ctx.o1) for e in ctx.chi1.value_exponents]
        self.chi2_bar = [
            None if e is None else _unit(-e, ctx.o2) for e in ctx.chi2.value_exponents
        ]
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
        tau_bar = _gauss_sum([None if v is None else v.conjugate() for v in self.chi1])
        return (-1) ** self.k * tau_bar * (self.k - 1)

    def fricke_R(self) -> complex:
        """chi1(-1) (tau(chi1)/tau(chi2)) (q2/q1)^(k/2)."""
        t1 = _gauss_sum(self.chi1)
        t2 = _gauss_sum([None if v is None else v.conjugate() for v in self.chi2_bar])
        sign = self.chi1[(-1) % self.q1]
        return sign * (t1 / t2) * (self.q2 / self.q1) ** (self.k / 2)

    def _grow_sigma(self, upto: int):
        """Extend tau(N) = sigma(N)/N to at least ``upto`` terms, in place.

        tau = (chi1(n)/n) * (conj(chi2)(n) n^(k-2)) is a Dirichlet convolution
        of two completely multiplicative functions, so with alpha_p =
        chi1(p)/p and beta_p = conj(chi2)(p) p^(k-2) (each 0 when p divides
        its modulus): tau(p) = alpha_p + beta_p, tau(pm) = tau(p) tau(m) when
        p does not divide m, and tau(pm) = tau(p) tau(m) - alpha_p beta_p
        tau(m/p) when it does.  The Python loop runs this recurrence only at
        N prime to 6, each N taking its smallest prime factor from one sieve.
        The rest is a wheel over 2 and 3: every N = 3^e m with m = +-1 mod 6,
        and after those every N = 2^e m with m odd, is tau(p^e) tau(m), one
        slice product per exponent and residue, with tau(p^e) from the
        prime-power form of the recurrence.  A build grows the table to
        max(upto, 2 old, 64) terms, so growing costs O(M) products in all.
        """
        old = len(self._sigma) - 1
        if upto <= old:
            return
        new = max(upto, 2 * old, 64)
        k2 = self.k - 2
        q1, q2 = self.q1, self.q2
        alpha = [v or 0j for v in self.chi1]
        beta = [v or 0j for v in self.chi2_bar]
        sig = self._sigma
        sig.extend(repeat(0j, new - old))
        spf = _smallest_prime_factors(new)
        wheel = islice(cycle(_WHEEL), (old + 1) % 6, None)
        for n in compress(range(old + 1, new + 1), wheel):
            p = spf[n]
            if not p:
                sig[n] = alpha[n % q1] / n + beta[n % q2] * float(n) ** k2
                continue
            m = n // p
            if m % p:
                sig[n] = sig[p] * sig[m]
            else:
                hecke = alpha[p % q1] * beta[p % q2] * float(p) ** (k2 - 1)
                sig[n] = sig[p] * sig[m] - hecke * sig[m // p]
        for p, step, residues in ((3, 6, (1, 5)), (2, 2, (1,))):
            a_p, b_p = alpha[p % q1] / p, beta[p % q2] * float(p) ** k2
            prev, cur = 1 + 0j, a_p + b_p  # tau(p^(e-1)), tau(p^e)
            pe = p
            while pe <= new:
                for r in residues:
                    # m = r mod step with old < m p^e <= new
                    m0 = old // pe + 1
                    m0 += (r - m0) % step
                    sources = sig[m0 : new // pe + 1 : step]
                    sig[m0 * pe :: step * pe] = map(mul, repeat(cur), sources)
                prev, cur = cur, (a_p + b_p) * cur - a_p * b_p * prev
                pe *= p


# n mod 6 prime to 6
_WHEEL = (False, True, False, False, False, True)


def _smallest_prime_factors(n: int) -> list[int]:
    """spf[m] for composite m <= n prime to 6, and 0 at the primes past 3;
    entries at multiples of 2 or 3 mean nothing."""
    spf = [0] * (n + 1)
    # largest p first: a composite p marks only multiples of its smallest
    # prime factor, which marks them again after it; p odd, so p^2 + 2jp
    # are the odd multiples
    for p in range(math.isqrt(n), 4, -1):
        if p % 2 and p % 3:
            spf[p * p :: 2 * p] = [p] * ((n - p * p) // (2 * p) + 1)
    return spf


def _unit(e, order: int):
    if e is None:
        return None
    if order == 2:
        return complex((-1) ** (e % 2))
    return cmath.exp(TWO_PI_I * (e % order) / order)


def _gauss_sum(values: list) -> complex:
    """tau = sum over n mod q of values[n] e(n/q), q = len(values), from the
    complex character values (None off the units)."""
    q = len(values)
    return sum(v * cmath.exp(TWO_PI_I * n / q) for n, v in enumerate(values) if v is not None)


def numeric_context(ctx: SumContext) -> NumericContext:
    return NumericContext(ctx)


def _poly_weight(k: int, z: complex, x: complex, y: complex) -> tuple[float, ...]:
    """|P^(n)(z)| / (2 pi)^(n+1) for n = 0..k-2, P(z) = (xz+y)^(k-2)."""
    base = abs(x * z + y)
    fac = 1.0  # falling factorial (k-2)(k-3)...(k-1-n)
    weights = []
    for n in range(k - 1):
        weights.append(fac * abs(x) ** n * base ** (k - n - 2) / (2 * math.pi) ** (n + 1))
        fac *= k - 2 - n
    return tuple(weights)


def _tail_terms(
    y: float, k: int, tol: float, weights: tuple[float, ...], cap: int
) -> tuple[int, float]:
    """Least M >= 8 with the proven bound on the series tail past M below tol.

    With x = e^(-2 pi y) and w_n = weights[n], term N of the antiderivative
    series, 2 sigma(N) e(Nz) sum_n P^(n)(z) / (-2 pi i N)^(n+1), is at most
    2 |sigma(N)| x^N sum_n w_n N^-(n+1).  The character values have modulus
    at most 1, so |sigma(N)| <= sigma_{k-1}(N).  For k >= 3,
    sigma_{k-1}(N) = N^(k-1) sum_{A|N} A^(1-k) <= zeta(2) N^(k-1), so pass n
    contributes at most C w_n h_n(N) x^N with C = 2 zeta(2) = pi^2/3 and
    h_n(N) = N^(k-2-n).  For k = 2 (only n = 0), sigma_1(N) <= N H_N <=
    N (1 + ln N): C = 2 and h_0(N) = 1 + ln N.  Each h_n(N+1)/h_n(N) falls
    with N, so the tail of pass n past M is majorized by a geometric series
    in its first ratio x h_n(M+2)/h_n(M+1), and tail_at(M) sums those.  Each
    such majorant is non-increasing in M (its ratio falls with M, and it is
    infinite while the ratio is near 1), so after growing M by half at a
    time until the bound holds, a bisection finds the least such M.  No M
    above ``cap`` is tried: if tail_at(cap) misses tol, it raises.  It also
    raises where the bound overflows the floats (N^(k-2-n) past the float
    range, as at k around 100), since no float M is proven there.
    """
    if y <= 0:
        raise ValueError("evaluation point must be in the upper half plane")
    x = math.exp(-2 * math.pi * y)
    if k >= 3:
        const = math.pi**2 / 3
        passes = [(k - 2 - n, w) for n, w in enumerate(weights) if w]
    else:
        const = 2.0
        passes = [(None, weights[0])] if weights[0] else []  # h_0(N) = 1 + ln N
    top = max((p for p, _ in passes if p is not None), default=0)

    def overflow(m: int) -> TruncationError:
        return TruncationError(f"the tail bound at {m} terms overflows the float range at weight {k}")

    def tail_at(m: int) -> float:
        total = 0.0
        lead = x ** (m + 1)
        for power, w in passes:
            if power is None:
                h1, h2 = 1 + math.log(m + 1), 1 + math.log(m + 2)
            else:
                try:
                    h1, h2 = float(m + 1) ** power, float(m + 2) ** power
                except OverflowError:
                    raise overflow(m) from None
            ratio = x * h2 / h1
            if ratio >= 0.9999:
                return math.inf
            total += w * h1 * lead / (1 - ratio)
        if math.isnan(total):  # w_n h_n(M+1) overflowed to inf where x^(M+1) fell to 0
            raise overflow(m)
        return const * total

    lo, m = 7, min(max(8, int(top / (2 * math.pi * y))), cap)
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


def _series_terms(nctx: NumericContext, z: complex, terms: int):
    """tau(N) e(Nz) for N = 1..terms, as an iterator."""
    nctx._grow_sigma(terms)
    powers = accumulate(repeat(cmath.exp(TWO_PI_I * z), terms), mul)
    return map(mul, islice(nctx._sigma, 1, terms + 1), powers)


def _ldexp(c: complex, e: int) -> complex:
    """c * 2^e: exact unless a part lands below the normal range."""
    return complex(math.ldexp(c.real, e), math.ldexp(c.imag, e))


def antiderivative_at(
    nctx: NumericContext, z: complex, x, y, policy: TruncationPolicy = DEFAULT_POLICY
) -> complex:
    """F(z; X, Y): the termwise antiderivative of E * (Xz+Y)^(k-2) at z.

    Normalized so F -> 0 towards i*infinity; integrals over vertical paths are
    plain differences of F values.  The sum over n comes out of the sum over
    N: F is -2 sum_n P^(n)(z) / (-2 pi i)^(n+1) sum_N tau(N) e(Nz) / N^n with
    tau(N) = sigma(N)/N, so pass 0 sums tau(N) e(Nz) as it is and each later
    pass divides the previous one by N once more.  Only a pass that a later
    one reads is kept as a list.  When X = 0 every P^(n) with n >= 1
    vanishes, so one pass, with no list, is exact.  The
    series is cut where its tail is below policy.tol / 4.  F is homogeneous
    of degree k-2 in (X, Y), so the passes run on (X, Y) / 2^e with
    max(|X|, |Y|) in [1/2, 1).  Scaling by a power of two is exact, so only
    the final value can round, where it falls below the normal range; the
    terms P^(n) no longer underflow on the way there.
    """
    k = nctx.k
    x, y = complex(x), complex(y)
    weights = _poly_weight(k, z, x, y)
    terms, _ = _tail_terms(z.imag, k, policy.tol * 0.25, weights, policy.n_cap)
    series = _series_terms(nctx, z, terms)
    shift = math.frexp(max(abs(x), abs(y)))[1]
    x, y = _ldexp(x, -shift), _ldexp(y, -shift)
    total = 0j
    fac = 1.0  # P^(n)(z) = (k-2)...(k-1-n) x^n (xz+y)^(k-2-n)
    last = k - 2 if x else 0
    for n in range(last + 1):
        if n:
            series = map(truediv, series, range(1, terms + 1))
        if n < last:
            series = list(series)  # the next pass reads it again
        total += fac * x**n * (x * z + y) ** (k - 2 - n) / (-TWO_PI_I) ** (n + 1) * sum(series)
        fac *= k - 2 - n
    return -2 * _ldexp(total, shift * (k - 2))


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
