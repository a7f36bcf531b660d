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
rotations of the result over [0, c/2], mirrored onto the other half.  The
mixed sums S_r of h_gamma's finite sum formula run through the same kernel,
with the outer weight B_r(j/c) in place of B_1(j/c) and pieces of degree
k-r.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import comb, gcd
from operator import add, neg, sub
from typing import Collection, Sequence

from . import characters as chars
from .bernoulli import periodic_bernoulli, scaled_int_poly
from .characters import DirichletCharacter
from .exactnum import CertificateError, CyclotomicElement, Record, _numerators, euler_phi, lcm
from .modgroup import (
    Cusp,
    Mat2,
    Poly,
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


class SumContext(Record):
    """A pair of primitive nontrivial characters and a weight k >= 2."""

    _fields = ("chi1", "chi2", "k")

    def __init__(self, chi1: DirichletCharacter, chi2: DirichletCharacter, k: int):
        super().__init__(chi1, chi2, k)
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
    def chi1_conj_coords(self) -> tuple:
        """(n, power-basis coordinates of conj(chi1)(n) in Q(zeta_o1)) over the units n mod q1."""
        return tuple(
            (n, tuple(int(x) for x in CyclotomicElement.root_of_unity(self.o1, -e).coeffs))
            for n, e in enumerate(self.chi1.value_exponents)
            if e is not None
        )

    @cached_property
    def sum_memo(self) -> dict:
        """S_r by (a mod c, c, r), filled by :func:`_mixed_sum`: each distinct
        sum is computed once for the life of this context."""
        return {}

    @cached_property
    def pieces_memo(self) -> dict:
        """The kernel of S_r by (c, r), filled by :func:`_mixed_sum`: the
        twisted pieces of degree k-r, the outer weight s_r B_r(j/c) and the
        joint scale s_r s."""
        return {}

    def swap(self) -> "SumContext":
        return SumContext(self.chi2, self.chi1, self.k)

    @cached_property
    def psi_exponents(self) -> tuple:
        """e(d) with psi(d) = chi1(d) conj(chi2(d)) = zeta_m^e(d), m the
        value_order, for every d mod N, in [0, m); None off the units."""
        m, e1, e2 = self.value_order, self.chi1.value_exponents, self.chi2.value_exponents
        s1, s2 = m // self.o1, m // self.o2
        pairs = ((e1[d % self.q1], e2[d % self.q2]) for d in range(self.n))
        return tuple(None if None in e else (e[0] * s1 - e[1] * s2) % m for e in pairs)

    def psi(self, gamma: Mat2) -> CyclotomicElement:
        """psi(gamma) = chi1(d) * conj(chi2(d)) on Gamma_0(N), zeta_m^e(d) with
        e(d) from :attr:`psi_exponents`; ValueError off Gamma_0(N)."""
        if not in_gamma0(gamma, self.n):
            raise ValueError(f"matrix is not in Gamma_0({self.n})")
        return CyclotomicElement.root_of_unity(self.value_order, self.psi_exponents[gamma.d % self.n])

    def psi_is_one(self, gamma: Mat2) -> bool:
        """psi(gamma) == 1, read off its exponent in :attr:`psi_exponents`:
        it builds no root of unity.  ValueError off Gamma_0(N), as :meth:`psi` raises."""
        if not in_gamma0(gamma, self.n):
            raise ValueError(f"matrix is not in Gamma_0({self.n})")
        return self.psi_exponents[gamma.d % self.n] == 0


def _validate_units(ctx: SumContext, c: int, units: Collection[int]) -> list[int]:
    """Each a of ``units`` mod c, after ValueError unless c > 0 is divisible by q1 q2
    and every a is prime to c (c is checked once, each a once)."""
    if c <= 0:
        raise ValueError("c must be positive")
    if c % ctx.n != 0:
        raise ValueError(f"c = {c} is not divisible by q1*q2 = {ctx.n}")
    for a in units:
        if gcd(a, c) != 1:
            raise ValueError(f"a = {a} and c = {c} are not coprime")
    return [a % c for a in units]


def _taylor_shift(coeffs: list[int], delta: int) -> list[int]:
    """Descending coefficients of P(x + delta) from those of P(x)."""
    p = list(coeffs)
    for i in range(len(p) - 1):
        for j in range(1, len(p) - i):
            p[j] += delta * p[j - 1]
    return p


def _twisted_pieces(ctx: SumContext, c: int, degree: int) -> tuple[list, int]:
    """The twisted Bernoulli values V_t(r), r in [0, c), as q1 polynomial pieces.

    V_t(r) = sum over units n mod q1 of [conj(chi1)(n)]_t * s*B_degree({(r + n m)/c}),
    where m = c/q1, [x]_t is the coordinate of x at zeta_o1^t in the power
    basis of Q(zeta_o1), and s is the scale of :func:`bernoulli.scaled_int_poly`
    at denominator c (a piece of Berndt's B_{degree, conj chi1}).  Returns
    ``pieces`` and s: pieces[t][i] holds the descending integer coefficients of
    V_t(i m + rho) in rho, exact for 0 < rho < m.  At a boundary r = i m the
    term of n = -i mod q1 sits at an integer, where the periodic polynomial is
    0 and the piece is not; the kernel never asks for those points, since q2 | m makes
    such an r = j a mod c force q2 | j and so chi2(j) = 0.
    """
    q1 = ctx.q1
    m = c // q1
    ints, scale = scaled_int_poly(degree, c)
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


def _tabulate(ints: Sequence[int], last: int) -> list[int]:
    """P(t) for t in [0, last], P given by its ascending integer coefficients.

    Horner at the first d + 1 points, d = deg P (at every point when there
    are no more), then d running-sum passes over the difference triangle
    taken there.
    """
    d = len(ints) - 1
    coeffs = ints[::-1]
    ys = []
    for t in range(min(last, d) + 1):
        v = 0
        for cf in coeffs:
            v = v * t + cf
        ys.append(v)
    if last > d:
        # leading entries of the forward differences of order 0..d at t = 0
        heads = []
        row = ys
        for _ in range(d + 1):
            heads.append(row[0])
            row = list(map(sub, row[1:], row[:-1]))
        # the order-d difference is constant; each pass integrates one order
        ys = [heads[d]] * (last + 1 - d)
        for head in reversed(heads[:d]):
            ys = list(accumulate(ys, initial=head))
    return ys


def _value_table(ctx: SumContext, c: int) -> tuple[list[int], int]:
    """The twisted Bernoulli values V(r), r in [0, c), of a quadratic chi1, and the scale s.

    V(r) = sum over units n mod q1 of chi1(n) P((r + n m) mod c), m = c/q1
    and P, s from :func:`bernoulli.scaled_int_poly` at denominator c: entry
    for entry the value of the pieces of :func:`_twisted_pieces` of degree
    k-1, with their contract: exact off the boundary points r = i m, which no
    sum reads.  P is tabulated over [0, c/2] by :func:`_tabulate` and
    mirrored onto (c/2, c) by P(c - t) = (-1)^d P(t), d = k-1, the symmetry
    of B_d.  V over [0, c/2] is one rotation of that table per unit n, summed
    with its sign, and is mirrored onto (c/2, c) by V(c - r) = (-1)^d
    chi1(-1) V(r) (substitute n -> -n).  That takes P(0) for (-1)^d P(0),
    which fails at d = 1 (B_1(0) = -B_1(1)), on boundary points only.
    """
    ints, scale = scaled_int_poly(ctx.k - 1, c)
    half = c // 2
    ys = _tabulate(ints, half)
    mirror = ys[c - half - 1 : 0 : -1]
    ys += mirror if ctx.k % 2 == 1 else map(neg, mirror)
    # once more up to c/2, so ys[s : s + half + 1] is P((r + s) mod c) for r in [0, c/2]
    ys += ys[: half + 1]
    m = c // ctx.q1
    exps = ctx.chi1.value_exponents
    # n = 1 is a unit with chi1(1) = 1
    table = ys[m : m + half + 1]
    for n, e in enumerate(exps[2:], 2):
        if e is not None:
            table = list(map(sub if e else add, table, ys[n * m : n * m + half + 1]))
    mirror = table[c - half - 1 : 0 : -1]
    # (-1)^d chi1(-1) = +1 exactly when k - 1 and the exponent of chi1(-1) have one parity
    table += mirror if (ctx.k - 1 + exps[-1]) % 2 == 0 else map(neg, mirror)
    return table, scale


def _accumulate(ctx: SumContext, a: int, c: int, pieces: list, weight: Sequence[int]) -> list[list[int]]:
    """Coordinate-class accumulation of the double sum.

    Returns a phi(o1) x o2 integer matrix acc with
    sum over j mod c of conj(chi2)(j) weight[j] V_t(j a mod c) / s
    = sum(acc[t][v] zeta_o1^t zeta_o2^v) / s, s the scale that comes with
    ``pieces`` from :func:`_twisted_pieces`: the inner n-sum at r = j a mod c
    is one Horner evaluation of V_t per coordinate t.  ``weight[j]``, j up to
    c/2, is the outer weight, an integer multiple of B_r(j/c); each class of
    j mod q2 walks its slice of it.

    Only j up to c/2 is swept; the pairing j -> c-j contributes the same
    total (the three sign flips, (-1)^r, (-1)^(deg V) and chi1 chi2(-1),
    cancel against the parity constraint), so the result is doubled.
    """
    q2, o2 = ctx.q2, ctx.o2
    m = c // ctx.q1
    half = (c - 1) // 2
    step = a * q2 % c
    acc = [[0] * o2 for _ in pieces]
    # j runs class by class mod q2, so chi2(j) is fixed along each inner loop
    for u, e2 in enumerate(ctx.chi2.value_exponents):
        if e2 is None:
            continue
        col = (-e2) % o2
        for row, pieces_t in zip(acc, pieces):
            total = 0
            r = u * a % c
            for w in weight[u : half + 1 : q2]:
                i, rho = divmod(r, m)
                v = 0
                for cf in pieces_t[i]:
                    v = v * rho + cf
                total += w * v
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


def _mixed_sum(ctx: SumContext, a: int, c: int, r: int) -> CyclotomicElement:
    """S_r(a, c) = sum over j mod c, n mod q1 of
    conj(chi1)(n) conj(chi2)(j) B_r({j/c}) B_{k-r}({a j/c + n/q1}), 1 <= r < k,
    for a reduced mod c and the pair validated; S_1 is S.

    The kernel over the twisted pieces of degree k-r and the outer weight
    s_r B_r(j/c), tabulated from :func:`bernoulli.scaled_int_poly`, both kept
    in ``ctx.pieces_memo`` under (c, r) with the joint scale s_r s.  The
    value is kept in ``ctx.sum_memo`` under (a, c, r).
    """
    value = ctx.sum_memo.get((a, c, r))
    if value is None:
        entry = ctx.pieces_memo.get((c, r))
        if entry is None:
            pieces, scale = _twisted_pieces(ctx, c, ctx.k - r)
            ints, weight_scale = scaled_int_poly(r, c)
            # s_1 B_1(j/c) = 2j - c: a range stands in for the table at r = 1
            weight = range(-c, c, 2) if r == 1 else _tabulate(ints, (c - 1) // 2)
            entry = ctx.pieces_memo[c, r] = (pieces, weight, weight_scale * scale)
        pieces, weight, denom = entry
        value = ctx.sum_memo[a, c, r] = _combine(ctx, _accumulate(ctx, a, c, pieces, weight), denom)
    return value


def sum_S(ctx: SumContext, a: int, c: int) -> CyclotomicElement:
    """The finite double sum at the cusp data (a, c), c > 0 divisible by q1 q2.

    For a quadratic pair the value is rational; ``rational_value()`` gives it
    as a Fraction.  S depends on a only mod c, so :func:`_mixed_sum` keeps it
    in ``ctx.sum_memo`` under (a mod c, c, 1); the pair is validated on every
    call.
    """
    return _mixed_sum(ctx, _validate_units(ctx, c, [a])[0], c, 1)


def sum_S_tilde(ctx: SumContext, a: int, c: int) -> CyclotomicElement:
    """c^(k-2) * S, the normalization that exposes the arithmetic image."""
    return sum_S(ctx, a, c) * Fraction(c) ** (ctx.k - 2)


def sweep_sums(ctx: SumContext, c: int, units: Collection[int]) -> tuple[list[int], int]:
    """S(a, c) = sums[i] / den at the i-th a of ``units``, for a quadratic pair: one table of V.

    Both characters have order 2, so V of :func:`_twisted_pieces` has the one
    coordinate t = 0, and S = sum over j < c/2 of (2j - c) chi2(j) V(j a mod c)
    / (c s): each a is one integer lookup sum, den = c s.  The table of V over
    [0, c) from :func:`_value_table` and the signed weights serve every a; c is
    checked once and each a once before the table is built.  No memo is read
    or filled, so pass each distinct a mod c once.
    """
    if not ctx.quadratic:
        raise ValueError("sweeps are defined for quadratic pairs only")
    units = _validate_units(ctx, c, units)
    table, scale = _value_table(ctx, c)
    q2, half = ctx.q2, (c - 1) // 2
    weights = []
    # chi2(j) = (-1)^e2 is fixed on each class u of j mod q2, so the signed
    # weights (2j - c) chi2(j) of a class run in one step of 2 q2 chi2(u)
    for u, e2 in enumerate(ctx.chi2.value_exponents):
        if e2 is not None:
            j0, sign = u or q2, (-1) ** e2
            weights += zip(range(j0, half + 1, q2), range(sign * (2 * j0 - c), sign * c, 2 * q2 * sign))
    return [sum([w * table[j * a % c] for j, w in weights]) for a in units], c * scale


def sum_S_matrix(ctx: SumContext, gamma: Mat2) -> CyclotomicElement:
    """S on a Gamma_0(N) matrix; depends only on the cusp gamma(inf)."""
    if not in_gamma0(gamma, ctx.n):
        raise ValueError(f"matrix is not in Gamma_0({ctx.n})")
    return shat(ctx, Cusp(gamma.a, gamma.c))


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
    """h_gamma(a) = S-hat(a) - j(gamma, a)^(k-2) S-hat(gamma a), exactly.

    gamma a and j(gamma, a)^(k-2) are taken from the integers of gamma and
    a = p/q: one Cusp for the image, one Fraction for the power.
    """
    if not in_gamma0(gamma, ctx.n):
        raise ValueError(f"matrix is not in Gamma_0({ctx.n})")
    if cusp.is_infinity():
        raise ValueError("h_gamma is defined away from infinity")
    base = shat(ctx, cusp)
    p, q = cusp.p, cusp.q
    # gamma a = (a p + b q)/(c p + d q) and j(gamma, a) = (c p + d q)/q
    j_num = gamma.c * p + gamma.d * q
    if j_num == 0:
        # a is the pole gamma^-1(inf), where S-hat(inf) = 0: the slash term drops out
        return base
    jpow = Fraction(j_num ** (ctx.k - 2), q ** (ctx.k - 2))
    return base - shat(ctx, Cusp(gamma.a * p + gamma.b * q, j_num)) * jpow


def _node_unit(an: int, c: int, n: int) -> int:
    """The unit t mod n nearest an/c with an != c t, the lower one on a tie:
    the integers are visited outward from an/c, nearer first."""
    lo = an // c
    hi = lo + 1
    while True:
        if abs(an - c * lo) <= abs(an - c * hi):
            t, lo = lo, lo - 1
        else:
            t, hi = hi, hi + 1
        if an != c * t and gcd(t, n) == 1:
            return t


def _h_fit(ctx: SumContext, gamma: Mat2) -> tuple[list, int]:
    """The degree <= k-2 polynomial h_gamma from the finite sum formula,
    certified at one node, as (nums, den): coefficient i is nums[i]/den.

    Requires psi(gamma) = 1 (otherwise h is not a polynomial).  For
    gamma = (a b; c d) with c != 0 and e = sign(c),

        h_gamma(x) = e^k sum over 1 <= r < k of
                     (-1)^r C(k, r)/k S_r(e a, |c|) (e c x + e d)^(k-1-r),

    S_r as in :func:`_mixed_sum`; for c = 0, h = 0, as ([0] * (k-1), 1).  For
    a quadratic pair the S_r enter the formula as integer numerators over one
    denominator, so the nums are integers; cyclotomic S_r enter as they are,
    over den = k.  The certificate: at the node x = gamma^-1(t/N) = p/q =
    (d t - b N)/(a N - c t), t the unit mod N nearest a N/c with a N != c t,
    the polynomial must equal :func:`h_eval` exactly, else CertificateError;
    cleared of denominators, that is h_eval * den * q^(k-2) =
    sum nums[i] p^(k-2-i) q^i.  An error delta in S_r moves h(x) by
    delta C(k, r)/k j(gamma, x)^(k-1-r), never 0.
    """
    if not ctx.psi_is_one(gamma):
        raise ValueError("psi(gamma) != 1: h_gamma is not polynomial")
    k, n = ctx.k, ctx.n
    a, b, c, d = gamma.a, gamma.b, gamma.c, gamma.d
    if c == 0:
        return [0] * (k - 1), 1
    e = 1 if c > 0 else -1
    a_red = _validate_units(ctx, e * c, [e * a])[0]
    sums = [_mixed_sum(ctx, a_red, e * c, r) for r in range(1, k)]
    den = k
    if ctx.quadratic:
        sums, den_s = _numerators([s.rational_value() for s in sums])
        den *= den_s
    # (|c| x + e d)^p contributes C(p, i) |c|^i (e d)^(p-i) at x^i, index k-2-i
    nums = [0] * (k - 1)
    for r, s in enumerate(sums, 1):
        p = k - 1 - r
        for i in range(p + 1):
            nums[k - 2 - i] += s * (
                e**k * (-1) ** r * comb(k, r) * comb(p, i) * (e * c) ** i * (e * d) ** (p - i)
            )
    t = _node_unit(a * n, c, n)
    node = Cusp(d * t - b * n, a * n - c * t)
    at_node = sum([x * node.p ** (k - 2 - i) * node.q**i for i, x in enumerate(nums)])
    if h_eval(ctx, gamma, node) * (den * node.q ** (k - 2)) != at_node:
        raise CertificateError(f"h_gamma from the sum formula misses h at the node {node}")
    return nums, den


def h_interpolate(ctx: SumContext, gamma: Mat2) -> Poly:
    """h_gamma as a Poly: the certified fit of :func:`_h_fit`, nums[i]/den."""
    nums, den = _h_fit(ctx, gamma)
    return Poly(ctx.k, [x * Fraction(1, den) for x in nums])
