"""The generalized Dedekind sums: finite double-sum evaluation, the cusp
function, and the quantum-modular polynomials h_gamma.

The double sum over (j mod c, n mod q1) is pushed entirely into integer
arithmetic: every Bernoulli argument has denominator D = c*q1, so one scaled
integer polynomial table P(t) = s * B_{k-1}(t/D) serves the whole matrix, and
character values enter as root-of-unity exponent classes that are only
expanded into a cyclotomic number at the very end.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Sequence

from . import characters as chars
from .bernoulli import periodic_bernoulli, scaled_int_poly
from .characters import DirichletCharacter
from .exactnum import CertificateError, CyclotomicElement, lcm
from .modgroup import (
    CUSP_INF,
    Cusp,
    Mat2,
    Poly,
    cocycle_j,
    cusp_apply,
    in_gamma0,
)


class ParityError(ValueError):
    """chi1 chi2(-1) != (-1)^k, so the sums are not defined."""


def classical_s(h: int, k: int) -> Fraction:
    """Classical Dedekind sum s(h, k) over the sawtooth products."""
    if k <= 0:
        raise ValueError("k must be positive")
    if gcd(h, k) != 1:
        raise ValueError("h and k must be coprime")
    total = Fraction(0)
    for n in range(1, k + 1):
        total += periodic_bernoulli(1, Fraction(n, k)) * periodic_bernoulli(1, Fraction(h * n, k))
    return total


@dataclass(frozen=True)
class SumContext:
    """A pair of primitive nontrivial characters and a weight k >= 2."""

    chi1: DirichletCharacter
    chi2: DirichletCharacter
    k: int
    label: str = field(default="", compare=False)

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("weight k must be >= 2")
        for chi in (self.chi1, self.chi2):
            if chi.is_trivial():
                raise ValueError("characters must be nontrivial")
            if not chars.is_primitive(chi):
                raise ValueError(f"character mod {chi.modulus} is not primitive")
        if chars.parity(self.chi1) * chars.parity(self.chi2) != (-1) ** self.k:
            raise ParityError(
                f"chi1 chi2(-1) = {chars.parity(self.chi1) * chars.parity(self.chi2)} "
                f"but (-1)^k = {(-1) ** self.k}"
            )

    @property
    def q1(self) -> int:
        return self.chi1.modulus

    @property
    def q2(self) -> int:
        return self.chi2.modulus

    @property
    def n(self) -> int:
        return self.q1 * self.q2

    @cached_property
    def o1(self) -> int:
        return self.chi1.order

    @cached_property
    def o2(self) -> int:
        return self.chi2.order

    @cached_property
    def value_order(self) -> int:
        return lcm(self.o1, self.o2)

    @property
    def quadratic(self) -> bool:
        return self.o1 == 2 and self.o2 == 2

    @cached_property
    def chi1_exps(self) -> tuple:
        return tuple(self.chi1.value_exponent(n) for n in range(self.q1))

    @cached_property
    def chi2_exps(self) -> tuple:
        return tuple(self.chi2.value_exponent(n) for n in range(self.q2))

    def swap(self) -> "SumContext":
        return SumContext(self.chi2, self.chi1, self.k)

    def psi(self, gamma: Mat2) -> CyclotomicElement:
        return chars.central_character(self.chi1, self.chi2, gamma)

    def psi_is_one(self, gamma: Mat2) -> bool:
        return self.psi(gamma) == 1


def _validate_pair(ctx: SumContext, a: int, c: int) -> int:
    if c <= 0:
        raise ValueError("c must be positive")
    if c % ctx.n != 0:
        raise ValueError(f"c = {c} is not divisible by q1*q2 = {ctx.n}")
    if gcd(a, c) != 1:
        raise ValueError(f"a = {a} and c = {c} are not coprime")
    return a % c


def _accumulate(ctx: SumContext, a: int, c: int, p_table=None):
    """Exponent-class accumulation of the double sum.

    Returns an o1 x o2 integer matrix acc with
    S = sum(acc[u][v] zeta_o1^u zeta_o2^v) / (2 c s), s the scale of
    :func:`bernoulli.scaled_int_poly` at denominator c*q1.

    Only j up to c/2 is swept; the pairing j -> c-j contributes the same
    total (the three sign flips cancel against the parity constraint), so the
    result is doubled.  With ``p_table`` the inner polynomial is a lookup
    (worth it when many a share one c); otherwise each value is a Horner
    evaluation at exactly the arguments that occur.
    """
    q1, q2 = ctx.q1, ctx.q2
    o1, o2 = ctx.o1, ctx.o2
    d_mod = c * q1
    chi2_exps = ctx.chi2_exps
    # offsets n*c and conjugated chi1 exponents, n over units mod q1
    inner = [
        (n * c, (-e) % o1)
        for n, e in enumerate(ctx.chi1_exps)
        if e is not None
    ]
    if p_table is None:
        coeffs = list(reversed(scaled_int_poly(ctx.k - 1, d_mod)[0]))
    acc = [[0] * o2 for _ in range(o1)]
    step = (a * q1) % d_mod
    t0 = 0
    half = (c - 1) // 2
    for j in range(1, half + 1):
        t0 += step
        if t0 >= d_mod:
            t0 -= d_mod
        e2 = chi2_exps[j % q2]
        if e2 is None:
            continue
        w = 2 * j - c
        sums = [0] * o1
        for off, u in inner:
            t = t0 + off
            if t >= d_mod:
                t -= d_mod
            if p_table is not None:
                v = p_table[t]
            elif t:
                v = 0
                for cf in coeffs:
                    v = v * t + cf
            else:
                v = 0
            if v:
                sums[u] += v
        row_v = (-e2) % o2
        for u in range(o1):
            if sums[u]:
                acc[u][row_v] += w * sums[u]
    for row in acc:
        for v in range(o2):
            row[v] *= 2
    return acc


def _p_table(k: int, c: int, q1: int) -> tuple[list[int], int]:
    """Table of s*B_{k-1}(t/(c q1)) for t in [0, c q1), plus the scale s."""
    d_mod = c * q1
    ints, scale = scaled_int_poly(k - 1, d_mod)
    coeffs = list(reversed(ints))
    table = [0] * d_mod
    for t in range(1, d_mod):
        acc = 0
        for cf in coeffs:
            acc = acc * t + cf
        table[t] = acc
    return table, scale


def _combine(ctx: SumContext, acc, denom: int) -> CyclotomicElement:
    m = ctx.value_order
    s1, s2 = m // ctx.o1, m // ctx.o2
    raw = [Fraction(0)] * m
    for u, row in enumerate(acc):
        for v, val in enumerate(row):
            if val:
                raw[(u * s1 + v * s2) % m] += Fraction(val, denom)
    return CyclotomicElement._from_raw(m, raw)


def sum_S(ctx: SumContext, a: int, c: int) -> CyclotomicElement:
    """The finite double sum at the cusp data (a, c), c > 0 divisible by q1 q2.

    For a quadratic pair the value is rational; ``rational_value()`` gives it
    as a Fraction.
    """
    a = _validate_pair(ctx, a, c)
    scale = scaled_int_poly(ctx.k - 1, c * ctx.q1)[1]
    acc = _accumulate(ctx, a, c)
    return _combine(ctx, acc, 2 * c * scale)


def sum_S_tilde(ctx: SumContext, a: int, c: int) -> CyclotomicElement:
    """c^(k-2) * S, the normalization that exposes the arithmetic image."""
    return sum_S(ctx, a, c) * Fraction(c) ** (ctx.k - 2)


def sweep_S_tilde_rational(ctx: SumContext, pairs: Sequence[tuple[int, int]]) -> list[Fraction]:
    """S-tilde over many (a, c) pairs of a quadratic pair, one P table per distinct c.

    The batched form of ``sum_S_tilde(...).rational_value()``: with both
    characters of order 2, the exponent-class matrix projects onto Q as
    acc[0][0] - acc[0][1] - acc[1][0] + acc[1][1].
    """
    if not ctx.quadratic:
        raise ValueError("sweeps are defined for quadratic pairs only")
    by_c: dict[int, list[int]] = {}
    for idx, (a, c) in enumerate(pairs):
        by_c.setdefault(c, []).append(idx)
    out: list[Fraction] = [Fraction(0)] * len(pairs)
    for c, indices in by_c.items():
        table, scale = _p_table(ctx.k, c, ctx.q1)
        ck = c ** (ctx.k - 2)
        denom = 2 * c * scale
        for idx in indices:
            a = _validate_pair(ctx, pairs[idx][0], c)
            acc = _accumulate(ctx, a, c, table)
            total = acc[0][0] - acc[0][1] - acc[1][0] + acc[1][1]
            out[idx] = Fraction(total * ck, denom)
    return out


def sum_S_matrix(ctx: SumContext, gamma: Mat2) -> CyclotomicElement:
    """S on a Gamma_0(N) matrix; depends only on the cusp gamma(inf)."""
    if not in_gamma0(gamma, ctx.n):
        raise ValueError(f"matrix is not in Gamma_0({ctx.n})")
    a, c = gamma.a, gamma.c
    if c == 0:
        return CyclotomicElement.zero(ctx.value_order)
    if c < 0:
        a, c = -a, -c
    return sum_S(ctx, a, c)


def shat(ctx: SumContext, cusp: Cusp) -> CyclotomicElement:
    """S-hat on the infinity orbit: 0 at infinity, else the sum at (p, q)."""
    if cusp.is_infinity():
        return CyclotomicElement.zero(ctx.value_order)
    if cusp.q % ctx.n != 0:
        raise ValueError(
            f"cusp {cusp} is not Gamma_0({ctx.n})-equivalent to infinity; "
            "the omega-orbit is reached through the numeric oracle only"
        )
    return sum_S(ctx, cusp.p, cusp.q)


def h_eval(ctx: SumContext, gamma: Mat2, cusp: Cusp) -> CyclotomicElement:
    """h_gamma(a) = S-hat(a) - j(gamma, a)^(k-2) S-hat(gamma a), exactly."""
    if not in_gamma0(gamma, ctx.n):
        raise ValueError(f"matrix is not in Gamma_0({ctx.n})")
    if cusp.is_infinity():
        raise ValueError("h_gamma is defined away from infinity")
    base = shat(ctx, cusp)
    image = cusp_apply(gamma, cusp)
    if image.is_infinity():
        # j(gamma, a) vanishes there and S-hat(inf) = 0; the slash term drops out
        return base
    jpow = cocycle_j(gamma, cusp) ** (ctx.k - 2)
    return base - shat(ctx, image) * jpow


def interpolation_nodes(ctx: SumContext, gamma: Mat2, count: int) -> list[Cusp]:
    """The ``count`` cheapest nodes for h_gamma, the held-out check node last.

    A node x = p/q costs q + |c p + d q| for gamma = (a b; c d): den x plus
    den gamma x, to which the kernel work of the two sums in :func:`h_eval`
    is proportional.  The candidates are the cusps p/q with N | q,
    gcd(p, q) = 1 and p = 1 mod N, plus the pole gamma^-1(inf) = -d/c at cost
    |c| (only S-hat at the node is summed there).  Ties go by (cost, q, p).
    The check node is the dearest chosen node other than the pole, so the
    check still runs through the slash term.
    """
    n = ctx.n
    c, d = gamma.c, gamma.d
    if c == 0:
        # a translation: every node p/N costs 2N
        return [Cusp(1 + i * n, n) for i in range(count)]
    pole = cusp_apply(gamma.inverse(), CUSP_INF)
    best = [(abs(c), pole.q, pole.p)] if c % n == 0 else []
    q = n
    while len(best) < count or q <= best[-1][0]:
        # p = 1 + n t on either side of the zero -d q / c of c p + d q; the
        # cost grows along each walk, so it stops at the k-th best key
        t_lo = (-d * q - c) // (c * n)
        for t, step in ((t_lo, -1), (t_lo + 1, 1)):
            while True:
                p = 1 + n * t
                t += step
                slash = abs(c * p + d * q)
                key = (q + slash, q, p)
                if len(best) == count and key >= best[-1]:
                    break
                if slash and gcd(p, q) == 1:
                    insort(best, key)
                    del best[count:]
        q += n
    nodes = [Cusp(p, q) for _, q, p in best]
    check = max(i for i, node in enumerate(nodes) if node != pole)
    nodes.append(nodes.pop(check))
    return nodes


def _lagrange(xs: list[Fraction], ys: list) -> list:
    """Ascending coefficients of the interpolating polynomial through (xs, ys)."""
    n = len(xs)
    coeffs: list = [Fraction(0)] * n
    for i in range(n):
        # basis numerator prod_{j != i} (x - x_j), ascending
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j in range(n):
            if j == i:
                continue
            basis = [Fraction(0)] + basis
            for t in range(len(basis) - 1):
                basis[t] -= xs[j] * basis[t + 1]
            denom *= xs[i] - xs[j]
        scale = ys[i] / denom
        for t in range(n):
            coeffs[t] = coeffs[t] + scale * basis[t]
    return coeffs


def h_interpolate(ctx: SumContext, gamma: Mat2) -> Poly:
    """Recover the degree <= k-2 polynomial h_gamma from k-1 pointwise values.

    Requires psi(gamma) = 1 (otherwise h is not a polynomial).  A k-th
    held-out node double-checks the interpolation, exactly.
    """
    if not ctx.psi_is_one(gamma):
        raise ValueError("psi(gamma) != 1: h_gamma is not polynomial")
    k = ctx.k
    nodes = interpolation_nodes(ctx, gamma, k)
    fit_nodes, check_node = nodes[: k - 1], nodes[k - 1]
    xs = [node.to_fraction() for node in fit_nodes]
    ys = [h_eval(ctx, gamma, node) for node in fit_nodes]
    if ctx.quadratic:
        ys = [y.rational_value() for y in ys]
    coeffs = _lagrange(xs, ys)
    poly = Poly.from_ascending(k, coeffs)
    expected = h_eval(ctx, gamma, check_node)
    got = poly.eval(check_node.to_fraction())
    if ctx.quadratic:
        expected = expected.rational_value()
    if not (got == expected):
        raise CertificateError(
            f"interpolated h disagrees with a held-out evaluation at {check_node}"
        )
    return poly
