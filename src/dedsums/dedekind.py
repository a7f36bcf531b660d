"""The generalized Dedekind sums: finite double-sum evaluation, the cusp
function, and the quantum-modular polynomials h_gamma.

The double sum over (j mod c, n mod q1) is pushed entirely into integer
arithmetic.  Since q1 | c, every Bernoulli argument (j a + n c/q1)/c has
denominator c, and the inner n-sum is one twisted Bernoulli value
V_t(j a mod c) per power-basis coordinate t of conj(chi1): on each of q1
intervals of r in [0, c) it is one integer polynomial, a piece of Berndt's
character Bernoulli polynomial.  So each j costs one Horner evaluation (one
table lookup in a sweep) per coordinate, and chi2 values enter as
root-of-unity exponent classes that are only expanded into a cyclotomic
number at the very end.  The kernel evaluates the pieces by Horner; the
sweep builds its table of V over [0, c) from running-sum passes over the
difference triangle of the scaled Bernoulli polynomial and phi(q1)
rotations of the result.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import gcd
from operator import add, neg, sub
from typing import Sequence

from . import characters as chars
from .bernoulli import periodic_bernoulli, scaled_int_poly
from .characters import DirichletCharacter
from .exactnum import CertificateError, CyclotomicElement, euler_phi, lcm
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

    @cached_property
    def chi1_conj_coords(self) -> tuple:
        """(n, power-basis coordinates of conj(chi1)(n) in Q(zeta_o1)) over the units n mod q1."""
        return tuple(
            (n, tuple(int(x) for x in CyclotomicElement.root_of_unity(self.o1, -e).coeffs))
            for n, e in enumerate(self.chi1_exps)
            if e is not None
        )

    @cached_property
    def sum_memo(self) -> dict:
        """S by (a mod c, c), filled by :func:`sum_S`: each distinct sum is
        computed once for the life of this context."""
        return {}

    @cached_property
    def pieces_memo(self) -> dict:
        """:func:`_twisted_pieces` by c, filled by :func:`sum_S`."""
        return {}

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


def _taylor_shift(coeffs: list[int], delta: int) -> list[int]:
    """Descending coefficients of P(x + delta) from those of P(x)."""
    p = list(coeffs)
    for i in range(len(p) - 1):
        for j in range(1, len(p) - i):
            p[j] += delta * p[j - 1]
    return p


def _twisted_pieces(ctx: SumContext, c: int) -> tuple[list, int]:
    """The twisted Bernoulli values V_t(r), r in [0, c), as q1 polynomial pieces.

    V_t(r) = sum over units n mod q1 of [conj(chi1)(n)]_t * s*B_{k-1}({(r + n m)/c}),
    where m = c/q1, [x]_t is the coordinate of x at zeta_o1^t in the power
    basis of Q(zeta_o1), and s is the scale of :func:`bernoulli.scaled_int_poly`
    at denominator c (a piece of Berndt's B_{k-1, conj chi1}).  Returns
    ``pieces`` and s: pieces[t][i] holds the descending integer coefficients of
    V_t(i m + rho) in rho, exact for 0 < rho < m.  At a boundary r = i m the
    term of n = -i mod q1 sits at an integer, where the periodic polynomial is
    0 and the piece is not; the kernel never asks for those points, since q2 | m makes
    such an r = j a mod c force q2 | j and so chi2(j) = 0.
    """
    q1 = ctx.q1
    m = c // q1
    ints, scale = scaled_int_poly(ctx.k - 1, c)
    # the term of n on piece i is P(((i + n) mod q1) m + rho)
    shifted = [_taylor_shift(ints[::-1], g * m) for g in range(q1)]
    deg = len(ints)
    pieces = [[[0] * deg for _ in range(q1)] for _ in range(euler_phi(ctx.o1))]
    for i in range(q1):
        for n, weights in ctx.chi1_conj_coords:
            src = shifted[(i + n) % q1]
            for pieces_t, wt in zip(pieces, weights):
                if wt:
                    pieces_t[i] = [x + wt * y for x, y in zip(pieces_t[i], src)]
    return pieces, scale


def _value_table(ctx: SumContext, c: int) -> tuple[list[int], int]:
    """The twisted Bernoulli values V(r), r in [0, c), of a quadratic chi1, and the scale s.

    V(r) = sum over units n mod q1 of chi1(n) P((r + n m) mod c), m = c/q1
    and P, s from :func:`bernoulli.scaled_int_poly` at denominator c: entry
    for entry the value of the pieces of :func:`_twisted_pieces`, boundary
    points r = i m included (the term with i + n = 0 mod q1 reads P(0), as the
    piece does).  P is tabulated over [0, c/2] from its difference triangle
    at 0..d, d = deg P, by d running-sum passes (Horner at every point when
    there are at most d + 1), and mirrored onto (c/2, c) by
    P(c - t) = (-1)^d P(t), the symmetry of B_d; V is then one rotation of
    that table per unit n, summed with its sign.
    """
    ints, scale = scaled_int_poly(ctx.k - 1, c)
    d = len(ints) - 1
    coeffs = ints[::-1]
    half = c // 2
    ys = []
    for t in range(min(half, d) + 1):
        v = 0
        for cf in coeffs:
            v = v * t + cf
        ys.append(v)
    if half > d:
        # leading entries of the forward differences of order 0..d at t = 0
        heads = []
        row = ys
        for _ in range(d + 1):
            heads.append(row[0])
            row = list(map(sub, row[1:], row[:-1]))
        # the order-d difference is constant; each pass integrates one order
        ys = [heads[d]] * (half + 1 - d)
        for head in reversed(heads[:d]):
            ys = list(accumulate(ys, initial=head))
    mirror = ys[c - half - 1 : 0 : -1]
    ys += mirror if d % 2 == 0 else map(neg, mirror)
    # twice over, so ys[s : s + c] is P((r + s) mod c) for r in [0, c)
    ys += ys
    m = c // ctx.q1
    # n = 1 is a unit with chi1(1) = 1
    table = ys[m : m + c]
    for n, e in enumerate(ctx.chi1_exps[2:], 2):
        if e is not None:
            table = list(map(sub if e else add, table, ys[n * m : n * m + c]))
    return table, scale


def _accumulate(ctx: SumContext, a: int, c: int, pieces: list) -> list[list[int]]:
    """Coordinate-class accumulation of the double sum.

    Returns a phi(o1) x o2 integer matrix acc with
    S = sum(acc[t][v] zeta_o1^t zeta_o2^v) / (2 c s), s the scale that comes
    with ``pieces`` from :func:`_twisted_pieces`: the inner n-sum at
    r = j a mod c is one Horner evaluation of V_t per coordinate t.

    Only j up to c/2 is swept; the pairing j -> c-j contributes the same
    total (the three sign flips cancel against the parity constraint), so the
    result is doubled.
    """
    q2, o2 = ctx.q2, ctx.o2
    m = c // ctx.q1
    half = (c - 1) // 2
    step = a * q2 % c
    acc = [[0] * o2 for _ in pieces]
    # j runs class by class mod q2, so chi2(j) is fixed along each inner loop
    for u, e2 in enumerate(ctx.chi2_exps):
        if e2 is None:
            continue
        col = (-e2) % o2
        for row, pieces_t in zip(acc, pieces):
            total = 0
            r = u * a % c
            for j in range(u, half + 1, q2):
                i, rho = divmod(r, m)
                v = 0
                for cf in pieces_t[i]:
                    v = v * rho + cf
                total += (2 * j - c) * v
                r += step
                if r >= c:
                    r -= c
            row[col] += 2 * total
    return acc


def _combine(ctx: SumContext, acc, denom: int) -> CyclotomicElement:
    m = ctx.value_order
    s1, s2 = m // ctx.o1, m // ctx.o2
    terms = [(u * s1 + v * s2, val) for u, row in enumerate(acc) for v, val in enumerate(row)]
    return CyclotomicElement.from_terms(m, terms, denom)


def sum_S(ctx: SumContext, a: int, c: int) -> CyclotomicElement:
    """The finite double sum at the cusp data (a, c), c > 0 divisible by q1 q2.

    For a quadratic pair the value is rational; ``rational_value()`` gives it
    as a Fraction.  S depends on a only mod c, so the value is kept in
    ``ctx.sum_memo`` under (a mod c, c), and the twisted pieces of c in
    ``ctx.pieces_memo``; the pair is validated on every call.
    """
    a = _validate_pair(ctx, a, c)
    value = ctx.sum_memo.get((a, c))
    if value is None:
        entry = ctx.pieces_memo.get(c)
        if entry is None:
            entry = ctx.pieces_memo[c] = _twisted_pieces(ctx, c)
        pieces, scale = entry
        acc = _accumulate(ctx, a, c, pieces)
        value = ctx.sum_memo[a, c] = _combine(ctx, acc, 2 * c * scale)
    return value


def sum_S_tilde(ctx: SumContext, a: int, c: int) -> CyclotomicElement:
    """c^(k-2) * S, the normalization that exposes the arithmetic image."""
    return sum_S(ctx, a, c) * Fraction(c) ** (ctx.k - 2)


def sweep_S_tilde_rational(ctx: SumContext, pairs: Sequence[tuple[int, int]]) -> list[Fraction]:
    """S-tilde over many (a, c) pairs of a quadratic pair, one table of V per distinct c.

    The batched form of ``sum_S_tilde(...).rational_value()``: with both
    characters of order 2, V of :func:`_twisted_pieces` has the single
    coordinate t = 0 and conj(chi2)(j) = chi2(j) = +-1, so
    S = sum over j < c/2 of (2j - c) chi2(j) V(j a mod c) / (c s).  The table
    of V over r in [0, c), built by :func:`_value_table` from finite
    differences and phi(q1) rotations (no Horner per entry), and the signed
    weights (2j - c) chi2(j) serve every a, and each distinct a mod c is
    summed once.  The sweep bypasses the memos of the context: it never asks
    for one c twice, and each table is dropped once its a are summed.
    """
    if not ctx.quadratic:
        raise ValueError("sweeps are defined for quadratic pairs only")
    by_c: dict[int, list[int]] = {}
    for idx, (a, c) in enumerate(pairs):
        by_c.setdefault(c, []).append(idx)
    out: list[Fraction] = [Fraction(0)] * len(pairs)
    chi2_exps, q2 = ctx.chi2_exps, ctx.q2
    for c, indices in by_c.items():
        units = [_validate_pair(ctx, pairs[idx][0], c) for idx in indices]
        table, scale = _value_table(ctx, c)
        weights = [
            (j, (2 * j - c) * (-1) ** e2)
            for j in range(1, (c - 1) // 2 + 1)
            if (e2 := chi2_exps[j % q2]) is not None
        ]
        ck = c ** (ctx.k - 2)
        denom = c * scale
        values = {
            a: Fraction(sum([w * table[j * a % c] for j, w in weights]) * ck, denom)
            for a in dict.fromkeys(units)
        }
        for idx, a in zip(indices, units):
            out[idx] = values[a]
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
    """The ``count`` cheapest nodes for h_gamma, cheapest first.

    A node x = p/q costs q + |c p + d q| for gamma = (a b; c d): den x plus
    den gamma x, to which the kernel work of the two sums in :func:`h_eval`
    is proportional.  The candidates are the cusps p/q with N | q,
    gcd(p, q) = 1 and p = 1 mod N, plus the pole gamma^-1(inf) = -d/c at cost
    |c| (only S-hat at the node is summed there).  Ties go by (cost, q, p).
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
    return [Cusp(p, q) for _, q, p in best]


def h_interpolate(ctx: SumContext, gamma: Mat2) -> Poly:
    """The degree <= k-2 polynomial h_gamma, fitted and certified at k nodes.

    Requires psi(gamma) = 1 (otherwise h is not a polynomial).  Newton's
    divided differences of h over the k nodes of :func:`interpolation_nodes`
    are built in place; the one of order k-1 must be exactly 0, else
    CertificateError.  The certificate is symmetric in the nodes: a wrong
    value delta at node i moves it by delta / prod_{j != i} (x_i - x_j).  The
    Newton form on the first k-1 entries is expanded by Horner into
    descending coefficients.
    """
    if not ctx.psi_is_one(gamma):
        raise ValueError("psi(gamma) != 1: h_gamma is not polynomial")
    k = ctx.k
    nodes = interpolation_nodes(ctx, gamma, k)
    xs = [node.to_fraction() for node in nodes]
    ys = [h_eval(ctx, gamma, node) for node in nodes]
    if ctx.quadratic:
        ys = [y.rational_value() for y in ys]
    # ys[i] becomes the divided difference h[x_0, ..., x_i]
    for order in range(1, k):
        for i in range(k - 1, order - 1, -1):
            ys[i] = (ys[i] - ys[i - 1]) / (xs[i] - xs[i - order])
    if ys[k - 1] != 0:
        raise CertificateError(
            f"h at the nodes {', '.join(map(str, nodes))} is no polynomial of degree <= {k - 2}"
        )
    # coeffs <- coeffs * (x - x_i) + ys[i], from the top entry down
    coeffs = [ys[k - 2]]
    for i in reversed(range(k - 2)):
        x = xs[i]
        coeffs = [
            coeffs[0],
            *(b - x * a for a, b in zip(coeffs, coeffs[1:])),
            ys[i] - x * coeffs[-1],
        ]
    return Poly(k, coeffs)
