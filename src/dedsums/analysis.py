"""Arithmetic image of the normalized sums: the divisibility tables, the
coefficient-integrality polynomial space, the generating-set containment
bound, and the magnitude/bound statistics sweeps.
"""

from __future__ import annotations

import math
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul, sub

from . import dedekind as dk
from .characters import named_character
from .dedekind import SumContext
from .exactnum import Record, _numerators, rational_gcd_set
from .modgroup import (
    RELATORS,
    Mat2,
    Poly,
    coset_walk,
    iter_G_pairs,
    partial_quotient_max,
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


def _in_poly_space(nums, den: int, m: Fraction, q: int) -> bool:
    """Whether q^(n+1) nums[n]/den lies in m*Z for every n: with m = top/bottom,
    q^(n+1) bottom nums[n] is a multiple of top den."""
    top, bottom = m.as_integer_ratio()
    step = top * den
    return not any(x and (not top or x * q ** (n + 1) * bottom % step) for n, x in enumerate(nums))


def poly_space_member(p: Poly, m: Fraction, q: int) -> bool:
    """Membership in the space where q^(n+1) a_n lies in m*Z for all n, at p's
    weight: :func:`_in_poly_space` on p's numerators over their common denominator."""
    return _in_poly_space(*_numerators(p.coeffs), m, q)


def gamma1_h_table(ctx: SumContext, progress=None) -> tuple[list[list[int]], int]:
    """h on every Schreier generator of Gamma_1(N), in generator order, as
    (rows, den): the coefficients of the i-th h are rows[i][n]/den, all over
    the one den > 0, reduced as a whole: gcd(den, every entry) = 1.

    h is a cocycle, h_(g1 g2) = h_g1|g2 + h_g2, on Gamma_psi = ker psi, the
    group of :func:`coset_walk` at the kernel K of psi on the units, the d
    of exponent 0 in ``ctx.psi_exponents``.  Each Schreier generator of
    Gamma_psi is fitted by ``_h_fit``, all over one denominator, and every
    relator of SL2(Z) walked from every Gamma_psi coset must close and fold,
    acc <- acc|u + h_u, to 0, else CertificateError.  Walked through the
    Gamma_psi graph, the BFS tree of Gamma_1(N) writes each Gamma_1 coset
    rep as Q_r P_pi(r), Q_r in Gamma_psi and P the Gamma_psi rep, with
    v_r = h(Q_r).  The generator on the Gamma_1 edge r -s-> t is Q_r w Q_t^-1,
    w the label of pi(r) -s-> pi(t), so its h is (v_r|w + h_w - v_t)|Q_t^-1.
    Slash matrices are built only for the Gamma_psi generators and their
    inverses.  The relator walks and the tree walk read each letter straight
    off the Gamma_psi ``edges`` and ``back`` tables: the tree keeps pi(r),
    Q_r^-1 (an integer 4-tuple) and v_r in three lists by Gamma_1 coset, an
    edge reading I copies its parent's, a labelled one costs one mat-vec and
    one 4-tuple product, and the last slash is one :func:`slash_vector`.
    ``progress(i, total)`` is called as each Gamma_1 generator's h is known.
    """
    if not ctx.quadratic:
        raise ValueError("the containment computation requires a quadratic pair")
    k, n = ctx.k, ctx.n
    psi = coset_walk(n, tuple(d for d, e in enumerate(ctx.psi_exponents) if e == 0))
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
    edges, back = psi.edges, psi.back
    for start in range(len(back)):
        for relator in RELATORS:  # S and T letters only
            coset, acc = start, zero
            for x in relator:
                coset, label = edges[2 * coset + x]
                if label >= 0:
                    acc = step(acc, label, False)
            if coset != start or any(acc):
                raise dk.CertificateError(f"h breaks the relator {relator} at coset {start} of Gamma_psi")
    # reading u (u^-1) multiplies Q^-1 on the left by u^-1 (u), as 4-tuples
    left = [((g.d, -g.b, -g.c, g.a), (g.a, g.b, g.c, g.d)) for g in psi.generators]
    gamma1 = coset_walk(n)
    # pi(r), Q_r^-1 and v_r per Gamma_1 coset r, each tree letter read off the Gamma_psi edges
    place, inv, v = [0], [(1, 0, 0, 1)], [zero]
    for parent, letter in gamma1.tree[1:]:
        coset = place[parent]
        if letter < 2:
            coset, label = edges[2 * coset + letter]
        else:
            coset = back[coset]
            label = edges[2 * coset + 1][1]
        place.append(coset)
        if label < 0:
            inv.append(inv[parent])
            v.append(v[parent])
            continue
        inverse = letter == 2
        v.append(step(v[parent], label, inverse))
        a, b, c, d = left[label][inverse]
        e, f, g, h = inv[parent]
        inv.append((a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h))
    rows: list[list[int]] = []
    for i, (t, g) in enumerate(gamma1.edges):
        if g != len(rows):
            continue  # I, or a generator met on an earlier edge (labels number first meetings)
        acc = v[i // 2]
        w = edges[2 * place[i // 2] + i % 2][1]
        if w >= 0:
            acc = step(acc, w, False)
        rows.append(slash_vector(list(map(sub, acc, v[t])), inv[t]))
        if progress:
            progress(len(rows), len(gamma1.generators))
    common = gcd(den, *chain.from_iterable(rows))
    return [[x // common for x in row] for row in rows], den // common


def containment_m(
    ctx: SumContext,
    generators: list[Mat2] | None = None,
    pair: tuple[str, str] = ("", ""),
    progress=None,
) -> ContainmentReport:
    """h on the Schreier generators of Gamma_1(N) and the containment scale m.

    m is the gcd of all q1^(n+1) a_n over the generators, so every h lies in
    the polynomial space at m and the image of S-tilde on the whole group is
    contained in (m/q1)*Z.  It is taken from the integer rows over the one
    den of :func:`gamma1_h_table`: m = gcd(q1^(n+1) rows[i][n])/den, one
    Fraction in all.  Each h must lie in the polynomial space at m, the
    integer test :func:`_in_poly_space` on its row, else CertificateError;
    only then is it one Poly, for the report.  ``generators`` may list the
    Schreier generators in any order, matched to them by their entries
    before any fit; any other list, and a pair that is not quadratic (the
    check of :func:`gamma1_h_table`), raise ValueError.
    """
    schreier = coset_walk(ctx.n).generators
    if generators is None:
        generators, order = schreier, range(len(schreier))
    else:
        position = {(g.a, g.b, g.c, g.d): i for i, g in enumerate(schreier)}
        order = [position.get((g.a, g.b, g.c, g.d)) for g in generators]
        if len(order) != len(schreier) or None in order or len(set(order)) != len(order):
            raise ValueError(
                f"generators must be the Schreier generators of Gamma_1({ctx.n}), in any order"
            )
    rows, den = gamma1_h_table(ctx, progress)
    k, q1 = ctx.k, ctx.q1
    m = Fraction(gcd(*(x * q1 ** (n + 1) for row in rows for n, x in enumerate(row))), den)
    polys = []
    for gen, i in zip(generators, order):
        if not _in_poly_space(rows[i], den, m, q1):
            raise dk.CertificateError(f"h at {gen} lies outside the polynomial space at m = {m}")
        polys.append((gen, Poly(k, [Fraction(x, den) for x in rows[i]])))
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
