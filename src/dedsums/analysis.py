"""Arithmetic image of the normalized sums: the divisibility tables, the
coefficient-integrality polynomial space, the generating-set containment
bound, and the magnitude/bound statistics sweeps.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from . import dedekind as dk
from .characters import named_character
from .dedekind import SumContext
from .exactnum import rational_gcd_set, rational_to_str
from .modgroup import (
    Mat2,
    Poly,
    gamma1_generators,
    gamma1_relations,
    g_witness,
    iter_G_pairs,
    partial_quotient_max,
    slash_matrix,
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


@dataclass
class TableCell:
    pair: tuple[str, str]
    k: int
    j: int
    r: Fraction
    display: str
    count: int
    seconds: float


@dataclass
class ContainmentReport:
    pair: tuple[str, str]
    k: int
    generator_count: int
    polynomials: list[tuple[Mat2, Poly]]
    m: Fraction
    bound: Fraction  # image contained in bound * Z

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
    return rational_to_str(r)


def context_for(pair: tuple[str, str], k: int) -> SumContext:
    return SumContext(named_character(pair[0]), named_character(pair[1]), k)


def image_scale(ctx: SumContext, j: int, pair: tuple[str, str] = ("", "")) -> TableCell:
    """Largest r with S-tilde(G_j(q1 q2)) inside r*Z."""
    if not ctx.quadratic:
        raise ValueError("the divisibility tables require a quadratic pair")
    start = time.perf_counter()
    pairs = list(iter_G_pairs(ctx.n, j))
    values = dk.sweep_S_tilde_rational(ctx, pairs)
    r = rational_gcd_set(values)
    return TableCell(
        pair=pair,
        k=ctx.k,
        j=j,
        r=r,
        display=display_form(r, ctx.q1),
        count=len(pairs),
        seconds=time.perf_counter() - start,
    )


def compute_cell(pair: tuple[str, str], k: int, j: int) -> TableCell:
    return image_scale(context_for(pair, k), j, pair)


def _compute_spec(spec: tuple[tuple[str, str], int, int]) -> TableCell:
    """compute_cell on one (pair, k, j) spec, the one-argument form Pool.imap
    takes (a module-level function, so workers can unpickle it)."""
    return compute_cell(*spec)


@dataclass
class DivisibilityTable:
    pairs: list[tuple[str, str]]
    weights: tuple[int, ...]
    cells: dict[tuple[tuple[str, str], int], TableCell] = field(default_factory=dict)

    def display_rows(self) -> list[list[str]]:
        rows = []
        for k in self.weights:
            rows.append([self.cells[(pair, k)].display for pair in self.pairs])
        return rows


def divisibility_tables(j: int, jobs: int = 1, progress=None) -> list[DivisibilityTable]:
    """All three divisibility tables at sweep radius j."""
    tables = [
        DivisibilityTable(TABLE1_PAIRS, EVEN_WEIGHTS),
        DivisibilityTable(TABLE2_PAIRS, EVEN_WEIGHTS),
        DivisibilityTable(TABLE3_PAIRS, ODD_WEIGHTS),
    ]
    specs = [
        (pair, k, j)
        for table in tables
        for k in table.weights
        for pair in table.pairs
    ]

    def collect(results) -> list[TableCell]:
        # results arrive in spec order, so progress reports each cell as it lands
        cells = []
        for i, (spec, cell) in enumerate(zip(specs, results), 1):
            cells.append(cell)
            if progress:
                progress(i, len(specs), spec)
        return cells

    if jobs > 1:
        from multiprocessing import Pool

        with Pool(min(jobs, len(specs))) as pool:
            cells = collect(pool.imap(_compute_spec, specs))
    else:
        cells = collect(map(_compute_spec, specs))
    cells = iter(cells)
    for table in tables:
        for k in table.weights:
            for pair in table.pairs:
                table.cells[(pair, k)] = next(cells)
    return tables


def poly_space_member(p: Poly, k: int, m: Fraction, q: int) -> bool:
    """Membership in the space where q^(n+1) a_n lies in m*Z for all n."""
    if p.weight != k:
        raise ValueError("polynomial weight does not match k")
    m = Fraction(m)
    for n, a_n in enumerate(p.coeffs):
        if a_n == 0:
            continue
        scaled = Fraction(a_n) * q ** (n + 1)
        if m == 0:
            return False
        if (scaled / m).denominator != 1:
            return False
    return True


def gamma1_h_table(ctx: SumContext, progress=None) -> list[Poly]:
    """h on every Schreier generator of Gamma_1(N), in generator order.

    The cocycle relation h_(g1 g2) = h_g1|g2 + h_g2 turns each relation
    u_1 ... u_L = I of :func:`modgroup.gamma1_relations` into
    h_u1|u2...uL + ... + h_uL = 0, folded left to right as acc <- acc|u + h_u.
    So a relation whose generators are all known but one, v, fixes it:
    rotated to end in v, it gives h_v = -(fold of the rest)|v.  The cheapest
    generator no relation has fixed is fitted by ``h_interpolate``, then
    every relation left with one unknown is used, until all are known.  Each
    h is an integer vector over one denominator and each slash one integer
    matrix per generator.  Every relation not used for a derivation must
    fold to exactly 0, else CertificateError.  ``progress(i, total)`` is
    called as each h becomes known.
    """
    k = ctx.k
    gens = gamma1_generators(ctx.n)
    relations = gamma1_relations(ctx.n)
    columns = [list(zip(*slash_matrix(g, k))) for g in gens]
    known: list[tuple[list[int], int] | None] = [None] * len(gens)
    unknown = [len(rel) for rel in relations]
    occurrences: list[list[int]] = [[] for _ in gens]
    for r, rel in enumerate(relations):
        for u in rel:
            occurrences[u].append(r)
    used: set[int] = set()
    ready: list[int] = []
    settled = 0

    def fold(word) -> tuple[list[int], int]:
        nums, den = [0] * (k - 1), 1
        for u in word:
            h_nums, h_den = known[u]
            scale = lcm(den, h_den)
            nums = [
                sum(map(mul, nums, col)) * (scale // den) + h * (scale // h_den)
                for col, h in zip(columns[u], h_nums)
            ]
            den = scale
        return nums, den

    def settle(v: int, nums: list[int], den: int):
        nonlocal settled
        g = gcd(den, *nums)
        known[v] = [x // g for x in nums], den // g
        for r in occurrences[v]:
            unknown[r] -= 1
            if unknown[r] == 1:
                ready.append(r)
        settled += 1
        if progress:
            progress(settled, len(gens))

    # a fit's cost: the denominators of its nodes and their images grow with
    # |c| and |d| (see interpolation_nodes)
    for g in sorted(range(len(gens)), key=lambda i: abs(gens[i].c) + abs(gens[i].d)):
        if known[g] is not None:
            continue
        h = dk.h_interpolate(ctx, gens[g])
        den = lcm(*(c.denominator for c in h.coeffs))
        settle(g, [c.numerator * (den // c.denominator) for c in h.coeffs], den)
        while ready:
            r = ready.pop()
            if unknown[r] != 1:
                continue
            rel = relations[r]
            p = next(i for i, u in enumerate(rel) if known[u] is None)
            nums, den = fold(rel[p + 1 :] + rel[:p])
            v = rel[p]
            used.add(r)
            settle(v, [-sum(map(mul, nums, col)) for col in columns[v]], den)
    for r, rel in enumerate(relations):
        if r not in used and any(fold(rel)[0]):
            raise dk.CertificateError(
                f"the h-table breaks the Gamma_1({ctx.n}) relation {rel} among the generators"
            )
    return [Poly(k, [Fraction(x, den) for x in nums]) for nums, den in known]


def containment_m(
    ctx: SumContext,
    generators: list[Mat2] | None = None,
    pair: tuple[str, str] = ("", ""),
    progress=None,
) -> ContainmentReport:
    """h on a generating set and the containment scale m.

    m is the gcd of all q1^(n+1) a_n over the generators, so every h lies in
    the polynomial space at m and the image of S-tilde on the whole group is
    contained in (m/q1)*Z.  The Schreier generators (in any order) take their
    h from :func:`gamma1_h_table`; any other list is fitted generator by
    generator with ``h_interpolate``.
    """
    if not ctx.quadratic:
        raise ValueError("the containment computation requires a quadratic pair")
    schreier = gamma1_generators(ctx.n)
    if generators is None:
        generators = schreier
    if len(generators) == len(schreier) and set(generators) == set(schreier):
        table = dict(zip(schreier, gamma1_h_table(ctx, progress)))
        polys = [(gen, table[gen]) for gen in generators]
    else:
        polys = []
        for i, gen in enumerate(generators):
            polys.append((gen, dk.h_interpolate(ctx, gen)))
            if progress:
                progress(i + 1, len(generators))
    multiples = [
        Fraction(a_n) * ctx.q1 ** (n + 1) for _, h in polys for n, a_n in enumerate(h.coeffs)
    ]
    m = rational_gcd_set(multiples)
    for gen, h in polys:
        if not poly_space_member(h, ctx.k, m, ctx.q1):
            raise dk.CertificateError(f"h at {gen} lies outside the polynomial space at m = {m}")
    return ContainmentReport(
        pair=pair,
        k=ctx.k,
        generator_count=len(generators),
        polynomials=polys,
        m=m,
        bound=m / ctx.q1,
    )


# -- magnitude bounds --------------------------------------------------------


def trivial_bound(ctx: SumContext, c: int) -> float:
    """c q1 (pi^2/6) (k-1)!/(2 pi)^(k-1), the triangle-inequality bound on |S|."""
    if c <= 0:
        raise ValueError("c must be positive")
    return c * ctx.q1 * (math.pi**2 / 6) * math.factorial(ctx.k - 1) / (2 * math.pi) ** (
        ctx.k - 1
    )


@dataclass
class BoundSweepRow:
    a: int
    c: int
    s_abs: Fraction
    m_quot: int
    ratio: float  # |S| / (M(a/c') log^2 c'), or nan when c' <= 1
    delta_ok: bool  # |M(a/c') - M(d/c')| <= 1 for the canonical witness


@dataclass
class BoundReport:
    k: int
    c_max: int
    rows: list[BoundSweepRow]
    max_ratio: float
    trivial_bound_ok: bool

    def exceptional_count(self, alpha: Fraction) -> int:
        """L(alpha, C): sweep entries with |S| > alpha log^3 C.

        log C is the rounded float ``math.log(C)``, so the threshold is that
        float's exact rational value cubed times alpha; the comparison of each
        exact |S| against it is exact, but the threshold is not the real
        alpha log^3 C.
        """
        threshold = Fraction(alpha) * Fraction(math.log(self.c_max)) ** 3
        return sum(1 for row in self.rows if row.s_abs > threshold)


def bound_statistics(ctx: SumContext, c_max: int) -> BoundReport:
    """Sweep coprime (a, c) with 1 <= a < c <= C and N | c, exactly.

    Reports the nontrivial-bound ratio statistics and checks the trivial
    bound and the partial-quotient difference bound along the way.
    """
    if c_max < ctx.n:
        raise ValueError("C must be at least q1*q2")
    if not ctx.quadratic:
        raise ValueError("bound sweeps use the exact rational path (quadratic pairs)")
    rows: list[BoundSweepRow] = []
    max_ratio = 0.0
    trivial_ok = True
    for c in range(ctx.n, c_max + 1, ctx.n):
        pairs = [(a, c) for a in range(1, c) if gcd(a, c) == 1]
        values = dk.sweep_S_tilde_rational(ctx, pairs)  # k-2 power of c folded in
        ck = Fraction(c) ** (ctx.k - 2)
        for (a, _), v in zip(pairs, values):
            s_abs = abs(v / ck)
            if Fraction(s_abs) > Fraction(trivial_bound(ctx, c)):
                trivial_ok = False
            c_prime = c // ctx.q2
            m_a = partial_quotient_max(Fraction(a, c_prime))
            witness = g_witness(a, c, 1)
            m_d = partial_quotient_max(Fraction(witness.d % c_prime, c_prime))
            delta_ok = abs(m_a - m_d) <= 1
            if c_prime > 1:
                ratio = float(s_abs) / (m_a * math.log(c_prime) ** 2)
                max_ratio = max(max_ratio, ratio)
            else:
                ratio = float("nan")
            rows.append(BoundSweepRow(a, c, s_abs, m_a, ratio, delta_ok))
    return BoundReport(
        k=ctx.k,
        c_max=c_max,
        rows=rows,
        max_ratio=max_ratio,
        trivial_bound_ok=trivial_ok,
    )
