"""Arithmetic image of the normalized sums: the divisibility tables, the
coefficient-integrality polynomial space, the generating-set containment
bound, and the magnitude/bound statistics sweeps.
"""

from __future__ import annotations

import math
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import mul, sub

from . import dedekind as dk
from .characters import named_character
from .dedekind import SumContext
from .exactnum import Record, rational_gcd_set
from .modgroup import (
    RELATORS,
    Mat2,
    Poly,
    coset_walk,
    gamma1_generators,
    iter_G_pairs,
    partial_quotient_max,
    read_word,
    slash_matrix,
    slash_vector,
)

# The three pair groupings of the published divisibility tables: all ordered
# pairs of quadratic primitive characters with q1*q2 <= 32, split by the
# common parity of the admissible weights.
TABLE1_PAIRS = [
    ("chi3", "chi3"), ("chi3", "chi4"), ("chi4", "chi3"),
    ("chi4", "chi4"), ("chi3", "chi7"), ("chi7", "chi3"),
]
TABLE2_PAIRS = [
    ("chi3", "chi8b"), ("chi8b", "chi3"), ("chi5", "chi5"),
    ("chi4", "chi7"), ("chi7", "chi4"), ("chi4", "chi8b"), ("chi8b", "chi4"),
]
TABLE3_PAIRS = [
    ("chi3", "chi5"), ("chi5", "chi3"), ("chi4", "chi5"), ("chi5", "chi4"),
    ("chi3", "chi8a"), ("chi8a", "chi3"), ("chi4", "chi8a"), ("chi8a", "chi4"),
]
EVEN_WEIGHTS = (2, 4, 6, 8)
ODD_WEIGHTS = (3, 5, 7, 9)


class TableCell(Record):
    _fields = ("r", "display", "count", "seconds")


class ContainmentReport(Record):
    """The generator polynomials, their scale m, and ``bound``: the image lies in bound * Z."""

    _fields = ("pair", "k", "polynomials", "m", "bound")

    def conjectured_d(self) -> Fraction:
        """The d of the conjectured shapes d*Z and d*Z/q1 for the image.

        The containment bound m/q1 matches the first shape when it is an
        integer (d = m/q1) and the second otherwise (d = m).
        """
        return self.bound if self.bound.denominator == 1 else self.m

    def divides_2k_minus_2(self) -> bool:
        """Whether the conjectured d divides 2k - 2 (reported, never assumed)."""
        d = self.conjectured_d()
        if d.denominator != 1 or d == 0:
            return False
        return (2 * self.k - 2) % d.numerator == 0


def display_form(r: Fraction, q1: int) -> str:
    """Reduced integers as-is; otherwise the d/q1 shape when r*q1 is integral."""
    if r.denominator == 1:
        return str(r.numerator)
    scaled = r * q1
    if scaled.denominator == 1:
        return f"{scaled.numerator}/{q1}"
    return str(r)


def context_for(pair: tuple[str, str], k: int) -> SumContext:
    return SumContext(named_character(pair[0]), named_character(pair[1]), k)


def image_scale(ctx: SumContext, j: int) -> TableCell:
    """Largest r with S-tilde(G_j(q1 q2)) inside r*Z: the rational gcd of one
    Fraction g_c c^(k-2)/den per c, g_c the gcd of the sums n_a of
    :func:`dedekind.sweep_sums` over the distinct a mod c of G_j, since the
    S-tilde values c^(k-2) n_a/den at c span g_c c^(k-2)/den Z."""
    if not ctx.quadratic:
        raise ValueError("the divisibility tables require a quadratic pair")
    start = time.perf_counter()
    pairs = list(iter_G_pairs(ctx.n, j))
    by_c: dict[int, dict[int, None]] = {}  # the distinct a mod c under each c
    for a, c in pairs:
        by_c.setdefault(c, {})[a % c] = None
    swept = [(c, *dk.sweep_sums(ctx, c, units)) for c, units in by_c.items()]
    r = rational_gcd_set(Fraction(gcd(*sums) * c ** (ctx.k - 2), den) for c, sums, den in swept)
    return TableCell(
        r=r,
        display=display_form(r, ctx.q1),
        count=len(pairs),
        seconds=time.perf_counter() - start,
    )


def _compute_spec(spec: tuple[tuple[str, str], int, int]) -> TableCell:
    """image_scale on one (pair, k, j) spec, the one-argument form Pool.imap
    takes (a module-level function, so workers can unpickle it)."""
    pair, k, j = spec
    return image_scale(context_for(pair, k), j)


class DivisibilityTable(Record):
    _fields = ("pairs", "weights", "cells")

    def display_rows(self) -> list[list[str]]:
        rows = []
        for k in self.weights:
            rows.append([self.cells[(pair, k)].display for pair in self.pairs])
        return rows


def divisibility_tables(j: int, jobs: int = 1, progress=None) -> list[DivisibilityTable]:
    """All three divisibility tables at sweep radius j."""
    tables = [
        DivisibilityTable(TABLE1_PAIRS, EVEN_WEIGHTS, {}),
        DivisibilityTable(TABLE2_PAIRS, EVEN_WEIGHTS, {}),
        DivisibilityTable(TABLE3_PAIRS, ODD_WEIGHTS, {}),
    ]
    slots = [
        (table, (pair, k, j)) for table in tables for k in table.weights for pair in table.pairs
    ]
    specs = [spec for _, spec in slots]

    def collect(results):
        # results arrive in spec order, so each cell is stored and reported as it lands
        for i, ((table, (pair, k, _)), cell) in enumerate(zip(slots, results), 1):
            table.cells[(pair, k)] = cell
            if progress:
                progress(i, len(specs), (pair, k, j))

    if jobs > 1:
        from multiprocessing import Pool

        with Pool(min(jobs, len(specs))) as pool:
            collect(pool.imap(_compute_spec, specs))
    else:
        collect(map(_compute_spec, specs))
    return tables


def poly_space_member(p: Poly, m: Fraction, q: int) -> bool:
    """Membership in the space where q^(n+1) a_n lies in m*Z for all n, at p's weight."""
    for n, a_n in enumerate(p.coeffs):
        if a_n == 0:
            continue
        if m == 0:
            return False
        # a_n q^(n+1) / m is an integer
        if a_n.numerator * q ** (n + 1) * m.denominator % (a_n.denominator * m.numerator):
            return False
    return True


def gamma1_h_table(ctx: SumContext, progress=None) -> list[tuple[list[int], int]]:
    """h on every Schreier generator of Gamma_1(N), in generator order, as
    (nums, den): coefficients nums[i]/den, den > 0, gcd(den, *nums) = 1.

    h is a cocycle, h_(g1 g2) = h_g1|g2 + h_g2, on Gamma_psi = ker psi, the
    group of :func:`coset_walk` at the kernel K of psi on the units.  Each
    Schreier generator of Gamma_psi is fitted by ``_h_fit``, all over one
    denominator, and every relator of SL2(Z) walked from every Gamma_psi
    coset must close and fold, acc <- acc|u + h_u, to 0, else
    CertificateError.  Walked through the Gamma_psi graph, the BFS tree of
    Gamma_1(N) writes each Gamma_1 coset rep as Q_r P_pi(r), Q_r in Gamma_psi
    and P the Gamma_psi rep, with v_r = h(Q_r).  The generator on the Gamma_1
    edge r -s-> t is Q_r w Q_t^-1, w the label of pi(r) -s-> pi(t), so its h
    is (v_r|w + h_w - v_t)|Q_t^-1.  Slash matrices are built only for the
    Gamma_psi generators and their inverses; the tree walk carries Q_r^-1
    as an integer 4-tuple, and the last slash is one :func:`slash_vector`.
    ``progress(i, total)`` is called as each Gamma_1 generator's h is known.
    """
    if not ctx.quadratic:
        raise ValueError("the containment computation requires a quadratic pair")
    k, n = ctx.k, ctx.n
    # psi(u) = chi1(u) chi2(u) is 1 where the two sign exponents agree
    kernel = tuple(
        u for u in range(1, n)
        if gcd(u, n) == 1 and ctx.chi1.value_exponent(u) == ctx.chi2.value_exponent(u)
    )
    psi = coset_walk(n, kernel)
    fits = [dk._h_fit(ctx, g) for g in psi.generators]
    den = lcm(*(d for _, d in fits))
    fitted = [[x * (den // d) for x in nums] for nums, d in fits]
    slashes = [(slash_matrix(g, k), slash_matrix(g.inverse(), k)) for g in psi.generators]

    def step(acc: list[int], label: int, inverse: bool) -> list[int]:
        # h(Q u) = h(Q)|u + h_u and h(Q u^-1) = (h(Q) - h_u)|u^-1
        h_u, (forward, backward) = fitted[label], slashes[label]
        if inverse:
            return [sum(map(mul, map(sub, acc, h_u), col)) for col in backward]
        return [sum(map(mul, acc, col)) + x for col, x in zip(forward, h_u)]

    zero = [0] * (k - 1)
    for start in range(len(psi.tree)):
        for relator in RELATORS:
            end, read = read_word(psi, relator, start)
            if end != start or any(reduce(lambda acc, u: step(acc, *u), read, zero)):
                raise dk.CertificateError(f"h breaks the relator {relator} at coset {start} of Gamma_psi")
    # reading u (u^-1) multiplies Q^-1 on the left by u^-1 (u), as 4-tuples
    left = [((g.d, -g.b, -g.c, g.a), (g.a, g.b, g.c, g.d)) for g in psi.generators]
    gamma1 = coset_walk(n)
    walked = [(0, (1, 0, 0, 1), zero)]  # (pi(r), Q_r^-1, v_r) per Gamma_1 coset r
    for parent, letter in gamma1.tree[1:]:
        coset, read = read_word(psi, (letter,), walked[parent][0])
        _, (e, f, g, h), acc = walked[parent]
        for label, inverse in read:
            acc = step(acc, label, inverse)
            a, b, c, d = left[label][inverse]
            e, f, g, h = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
        walked.append((coset, (e, f, g, h), acc))
    table: list[tuple[list[int], int]] = []
    for i, (t, g) in enumerate(gamma1.edges):
        if g != len(table):
            continue  # I, or a generator met on an earlier edge (labels number first meetings)
        (place, _, acc), (_, inv, v_t) = walked[i // 2], walked[t]
        w = psi.edges[2 * place + i % 2][1]
        if w >= 0:
            acc = step(acc, w, False)
        nums = slash_vector(list(map(sub, acc, v_t)), inv)
        common = gcd(den, *nums)
        table.append(([x // common for x in nums], den // common))
        if progress:
            progress(len(table), len(gamma1.generators))
    return table


def containment_m(
    ctx: SumContext,
    generators: list[Mat2] | None = None,
    pair: tuple[str, str] = ("", ""),
    progress=None,
) -> ContainmentReport:
    """h on the Schreier generators of Gamma_1(N) and the containment scale m.

    m is the gcd of all q1^(n+1) a_n over the generators, so every h lies in
    the polynomial space at m and the image of S-tilde on the whole group is
    contained in (m/q1)*Z.  It is taken from the integer vectors
    (nums, den) of :func:`gamma1_h_table`: with L the lcm of the den,
    m = gcd(q1^(n+1) nums[n] L/den)/L, one Fraction in all.  Each h then
    becomes one Poly, which must pass :func:`poly_space_member` at m, else
    CertificateError.  ``generators`` may list the Schreier generators in
    any order; any other list, and a pair that is not quadratic (the check of
    :func:`gamma1_h_table`), raise ValueError.
    """
    schreier = gamma1_generators(ctx.n)
    if generators is None:
        generators = schreier
    elif len(generators) != len(schreier) or set(generators) != set(schreier):
        raise ValueError(
            f"generators must be the Schreier generators of Gamma_1({ctx.n}), in any order"
        )
    table = dict(zip(schreier, gamma1_h_table(ctx, progress)))
    k, q1 = ctx.k, ctx.q1
    den = lcm(*(d for _, d in table.values()))
    scaled = (
        x * q1 ** (n + 1) * (den // d) for nums, d in table.values() for n, x in enumerate(nums)
    )
    m = Fraction(gcd(*scaled), den)
    polys = []
    for gen in generators:
        nums, d = table[gen]
        h = Poly(k, [Fraction(x, d) for x in nums])
        if not poly_space_member(h, m, q1):
            raise dk.CertificateError(f"h at {gen} lies outside the polynomial space at m = {m}")
        polys.append((gen, h))
    return ContainmentReport(pair=pair, k=k, polynomials=polys, m=m, bound=m / q1)


# -- magnitude bounds --------------------------------------------------------


def trivial_bound(ctx: SumContext, c: int) -> float:
    """c q1 (pi^2/6) (k-1)!/(2 pi)^(k-1), the triangle-inequality bound on |S|."""
    if c <= 0:
        raise ValueError("c must be positive")
    return c * ctx.q1 * (math.pi**2 / 6) * math.factorial(ctx.k - 1) / (2 * math.pi) ** (
        ctx.k - 1
    )


class BoundReport(Record):
    """``count`` matrices swept; ``max_ratio`` the largest |S| / (M(a/c') log^2 c');
    ``delta_ok`` whether |M(a/c') - M(d/c')| <= 1 at every a/c, d = a^-1 mod c;
    ``exceptional`` the L(alpha, C), one per alpha given to bound_statistics."""

    _fields = ("count", "max_ratio", "trivial_bound_ok", "delta_ok", "exceptional")


# significant digits of the first bracket on ln C, and of the last one that
# _above_alpha_log_cubed tries (ln at 2,560 digits takes about 0.5 s)
_LOG_DIGITS = 40
_LOG_DIGITS_MAX = 2560


def _alpha_log_cubed(alpha: Fraction, c: int, digits: int) -> list[Fraction]:
    """Rationals [low, high] with low <= alpha ln^3 c <= high, equal only at
    alpha = 0, from Decimal's correctly rounded ln c at ``digits`` digits."""
    with localcontext() as dctx:
        dctx.prec = digits
        ln = Decimal(c).ln()
    ulp = Fraction(10) ** (ln.adjusted() - digits + 1)
    return sorted(alpha * (Fraction(ln) + err) ** 3 for err in (-ulp, ulp))


def _above_alpha_log_cubed(s: Fraction, alpha: Fraction, c: int) -> bool:
    """Whether s > alpha ln^3 c, exactly: the bracket is narrowed at doubled
    precision until it decides, which it does since ln c is transcendental."""
    digits = _LOG_DIGITS
    while digits <= _LOG_DIGITS_MAX:
        low, high = _alpha_log_cubed(alpha, c, digits)
        if not low < s <= high:
            return s > high
        digits *= 2
    raise dk.CertificateError(
        f"|S| = {s} against {alpha} ln^3 {c} is undecided at {_LOG_DIGITS_MAX} digits"
    )


def bound_statistics(ctx: SumContext, c_max: int, alphas=()) -> BoundReport:
    """Sweep coprime (a, c) with 1 <= a < c <= C and N | c, exactly.

    Folds the integer sums of :func:`dedekind.sweep_sums` at each modulus into
    the statistics and keeps no record per matrix.  ``exceptional`` holds
    L(alpha, C), the number of entries with |S| > alpha ln^3 C, for each alpha
    in ``alphas``, decided exactly for every rational alpha (any sign): each
    |S| is compared with a rational bracket on the threshold, and one inside
    the bracket is decided by :func:`_above_alpha_log_cubed`.
    """
    if c_max < ctx.n:
        raise ValueError("C must be at least q1*q2")
    if not ctx.quadratic:
        raise ValueError("bound sweeps use the exact rational path (quadratic pairs)")
    # |S| = num/den, unreduced, is compared with each rational bound p/q as the
    # integer cross-product num q > p den, with no Fraction per matrix
    brackets = []
    for alpha in map(Fraction, alphas):
        low, high = _alpha_log_cubed(alpha, c_max, _LOG_DIGITS)
        brackets.append((alpha, *low.as_integer_ratio(), *high.as_integer_ratio()))
    exceptional = [0] * len(brackets)
    count = 0
    max_ratio = 0.0
    trivial_ok = delta_ok = True
    for c in range(ctx.n, c_max + 1, ctx.n):
        units = [a for a in range(1, c) if gcd(a, c) == 1]
        sums, den = dk.sweep_sums(ctx, c, units)
        count += len(units)
        bound_num, bound_den = trivial_bound(ctx, c).as_integer_ratio()
        c_prime = c // ctx.q2  # at least q1 >= 3, so log c' > 0
        log_sq = math.log(c_prime) ** 2
        for a, s in zip(units, sums):
            num = abs(s)
            if num * bound_den > bound_num * den:
                trivial_ok = False
            m_a = partial_quotient_max(a, c_prime)
            m_d = partial_quotient_max(pow(a, -1, c) % c_prime, c_prime)
            if abs(m_a - m_d) > 1:
                delta_ok = False
            max_ratio = max(max_ratio, num / den / (m_a * log_sq))
            for i, (alpha, low_num, low_den, high_num, high_den) in enumerate(brackets):
                if num * low_den > low_num * den and (
                    num * high_den > high_num * den
                    or _above_alpha_log_cubed(Fraction(num, den), alpha, c_max)
                ):
                    exceptional[i] += 1
    return BoundReport(
        count=count,
        max_ratio=max_ratio,
        trivial_bound_ok=trivial_ok,
        delta_ok=delta_ok,
        exceptional=exceptional,
    )
