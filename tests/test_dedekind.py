import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from dedsums import analysis, dedekind as dk
from dedsums.bernoulli import bernoulli_number, periodic_bernoulli, scaled_int_poly
from dedsums.characters import (
    DirichletCharacter,
    UnitGroup,
    characters_mod,
    is_primitive,
    named_character,
    parity,
    parse_character,
)
from dedsums.dedekind import ParityError, SumContext
from dedsums.exactnum import CyclotomicElement, cyclotomic_polynomial, euler_phi
from dedsums.modgroup import (
    Cusp,
    Mat2,
    Poly,
    cocycle_j,
    cusp_apply,
    iter_G_pairs,
    random_gamma0,
    random_gamma1,
    slash_matrix,
    slash_vector,
)
from dedsums.oracle import _tail_terms, numeric_context


def slow_sum_S(ctx: SumContext, a: int, c: int) -> CyclotomicElement:
    """Direct double loop with cyclotomic multiplies, independent of the
    integer-table fast path (no exponent classes, no halving)."""
    m = ctx.value_order
    total = CyclotomicElement.zero(m)
    for j in range(c):
        v2 = ctx.chi2(j).conj().embed(m)
        if v2.is_zero():
            continue
        b1 = periodic_bernoulli(1, Fraction(j, c))
        if b1 == 0:
            continue
        for n in range(ctx.q1):
            v1 = ctx.chi1(n).conj().embed(m)
            if v1.is_zero():
                continue
            bk = periodic_bernoulli(ctx.k - 1, Fraction(a * j, c) + Fraction(n, ctx.q1))
            if bk == 0:
                continue
            total = total + v1 * v2 * (b1 * bk)
    return total


def ctx_for(tag1, tag2, k):
    return SumContext(parse_character(tag1), parse_character(tag2), k)


def test_classical_s():
    assert dk.classical_s(1, 3) == Fraction(1, 18)
    assert dk.classical_s(1, 1) == 0
    assert dk.classical_s(5, 7) == dk.classical_s(5 + 7, 7)
    with pytest.raises(ValueError):
        dk.classical_s(2, 4)


def test_classical_s_odd_in_h():
    rng = random.Random(6)
    for _ in range(20):
        k = rng.randint(2, 30)
        h = rng.choice([x for x in range(1, k) if Fraction(x, k).denominator == k])
        assert dk.classical_s(h, k) + dk.classical_s(-h, k) == 0


def test_context_validation():
    with pytest.raises(ParityError):
        ctx_for("chi3", "chi3", 3)
    with pytest.raises(ValueError):
        # lift of chi3 to modulus 9 is not primitive
        imprimitive = [c for c in characters_mod(9) if c.order == 2][0]
        SumContext(imprimitive, named_character("chi3"), 2)
    with pytest.raises(ValueError):
        SumContext(characters_mod(5)[0], named_character("chi5"), 2)  # trivial


def test_sum_validation():
    ctx = ctx_for("chi3", "chi3", 2)
    with pytest.raises(ValueError):
        dk.sum_S(ctx, 1, 10)  # 9 does not divide 10
    with pytest.raises(ValueError):
        dk.sum_S(ctx, 3, 9)  # not coprime
    with pytest.raises(ValueError):
        dk.sum_S(ctx, 1, -9)


@pytest.mark.parametrize(
    "tag1,tag2,k",
    [
        ("chi3", "chi3", 2),
        ("chi3", "chi3", 4),
        ("chi3", "chi4", 2),
        ("chi4", "chi3", 6),
        ("chi3", "chi5", 3),
        ("chi5", "chi4", 5),
    ],
)
def test_fast_path_matches_slow_double_loop(tag1, tag2, k):
    ctx = ctx_for(tag1, tag2, k)
    rng = random.Random(k * 7 + ctx.n)
    for _ in range(3):
        c = ctx.n * rng.randint(1, 3)
        a = rng.choice([x for x in range(1, c) if Fraction(x, c).denominator == c])
        fast = dk.sum_S(ctx, a, c)
        slow = slow_sum_S(ctx, a, c)
        assert (fast - slow.embed(fast.order)).is_zero()


def test_general_character_pair_matches_slow_loop():
    chi5_4 = [c for c in characters_mod(5) if c.order == 4][0]
    chi3 = named_character("chi3")
    ctx = SumContext(chi5_4, chi3, 2)
    for a, c in [(2, 15), (7, 30), (11, 15)]:
        fast = dk.sum_S(ctx, a, c)
        slow = slow_sum_S(ctx, a, c)
        assert (fast - slow.embed(fast.order)).is_zero()


def test_quadratic_pair_values_are_rational():
    rng = random.Random(44)
    ctx = ctx_for("chi4", "chi4", 4)
    for _ in range(10):
        c = 16 * rng.randint(1, 5)
        a = rng.choice([x for x in range(1, c) if Fraction(x, c).denominator == c])
        v = dk.sum_S(ctx, a, c)
        assert v.is_rational()
        assert v.rational_value() == slow_sum_S(ctx, a, c).rational_value()


def test_a_mod_c_invariance():
    # the identity the memo key (a mod c, c) relies on: the slow double loop
    # at the unreduced a + t c, whose Bernoulli arguments see the shift
    ctx = ctx_for("chi5", "chi5", 4)
    for a, c in [(1, 25), (7, 50), (-1, 25)]:
        fast = dk.sum_S(ctx, a, c)
        for t in (-2, -1, 1, 3):
            assert (fast - slow_sum_S(ctx, a + t * c, c).embed(fast.order)).is_zero()


CHI5_QUARTIC = next(chi for chi in characters_mod(5) if chi.order == 4)
MEMO_CELLS = [
    (named_character("chi5"), named_character("chi5"), 4),
    (named_character("chi3"), named_character("chi4"), 2),
    (named_character("chi3"), named_character("chi5"), 3),
    (CHI5_QUARTIC, named_character("chi3"), 2),
    (named_character("chi3"), CHI5_QUARTIC, 4),
]
WARM = [SumContext(*cell) for cell in MEMO_CELLS]


@settings(max_examples=40, deadline=None)
@given(cell=st.integers(0, len(MEMO_CELLS) - 1), t=st.integers(1, 4), data=st.data())
def test_warm_context_matches_fresh_context_and_slow_loop(cell, t, data):
    # one context per cell stays warm across all examples; every value it
    # returns, memo hit or not, equals a cold run on a fresh context and, for
    # small c, the slow double loop at the unreduced a
    ctx, fresh = WARM[cell], SumContext(*MEMO_CELLS[cell])
    c = ctx.n * t
    unit = st.integers(-3 * c, 3 * c).filter(lambda a: gcd(a, c) == 1)
    shift = st.integers(-3, 3)
    seq = []
    for a in data.draw(st.lists(unit, min_size=1, max_size=3)):
        seq += [a, a + data.draw(shift) * c, a, -a]
    for a in seq:
        warm = dk.sum_S(ctx, a, c)
        assert warm == dk.sum_S(fresh, a, c)
        if c <= 60:
            assert (warm - slow_sum_S(ctx, a, c).embed(warm.order)).is_zero()


def test_gamma_infinity_invariance():
    # S(T^m gamma) = S(gamma), exactly
    ctx = ctx_for("chi3", "chi7", 2)
    rng = random.Random(15)
    for _ in range(10):
        g = random_gamma0(rng, 21)
        shifted = Mat2(1, rng.randint(-4, 4), 0, 1) * g
        assert (dk.sum_S_matrix(ctx, shifted) - dk.sum_S_matrix(ctx, g)).is_zero()


def test_s_tilde_reference_anchor():
    # S-tilde at the inverse of (26 1; 25 1), normalized to (a, c) = (-1, 25)
    ctx = ctx_for("chi5", "chi5", 4)
    assert dk.sum_S_tilde(ctx, -1, 25).rational_value() == Fraction(-24, 5)
    g_inv = Mat2(26, 1, 25, 1).inverse()
    v = dk.sum_S_matrix(ctx, g_inv)
    assert v.rational_value() * 25 ** 2 == Fraction(-24, 5)


def G_sweep(ctx: SumContext, j: int):
    """(c, sums, den) of :func:`dedekind.sweep_sums` at each c of G_j(N),
    over the a of G_j prime to c."""
    n = ctx.n
    for c in range(n, j * n, n):
        units = [a for a in range(1, j * n, n) if gcd(a, c) == 1]
        yield (c, *dk.sweep_sums(ctx, c, units))


def test_image_divisibility_chi3_chi3_k2_full_sweep():
    # every S-tilde value c^(k-2) s/den over G_50(9) lies in 2Z: here k = 2
    ctx = ctx_for("chi3", "chi3", 2)
    swept = list(G_sweep(ctx, 50))
    assert sum(len(sums) for _, sums, _ in swept), "sweep must be nonempty"
    assert all(s % (2 * den) == 0 for _, sums, den in swept for s in sums)


def test_image_divisibility_chi4_chi4_k4_full_sweep():
    # every value over G_50(16) for (chi4, chi4), k = 4 lies in 6Z
    ctx = ctx_for("chi4", "chi4", 4)
    assert all(s * c**2 % (6 * den) == 0 for c, sums, den in G_sweep(ctx, 50) for s in sums)


TABLE_CELLS = [
    (pair, k)
    for pairs, weights in (
        (analysis.TABLE1_PAIRS + analysis.TABLE2_PAIRS, analysis.EVEN_WEIGHTS),
        (analysis.TABLE3_PAIRS, analysis.ODD_WEIGHTS),
    )
    for pair in pairs
    for k in weights
]


@settings(max_examples=60, deadline=None)
@given(cell=st.sampled_from(TABLE_CELLS), t=st.integers(1, 30), data=st.data())
def test_sweep_matches_single_calls(cell, t, data):
    # the tabulated twisted values of the sweep against the per-j Horner
    # evaluation of sum_S, several a sharing one c (and so one table), each
    # with its shifts a + c and a - c (and so one sum per residue)
    ctx = analysis.context_for(*cell)
    c = ctx.n * t
    unit = st.integers(-2 * c, 2 * c).filter(lambda a: gcd(a, c) == 1)
    drawn = data.draw(st.lists(unit, min_size=1, max_size=4))
    units = [x for a in drawn for x in (a, a + c, a - c)]
    sums, den = dk.sweep_sums(ctx, c, units)
    assert [Fraction(s, den) for s in sums] == [dk.sum_S(ctx, a, c).rational_value() for a in units]


def horner_table(ctx: SumContext, c: int) -> tuple[list[int], int]:
    """Reference for the sweep's table: V over [0, c) by Horner over the
    pieces of _twisted_pieces."""
    pieces, scale = dk._twisted_pieces(ctx, c, ctx.k - 1)
    table = []
    for coeffs in pieces[0]:
        for rho in range(c // ctx.q1):
            v = 0
            for cf in coeffs:
                v = v * rho + cf
            table.append(v)
    return table, scale


# every table pair at every weight 2..12 of its parity
VALUE_TABLE_CELLS = [
    (pair, k)
    for pairs, first in (
        (analysis.TABLE1_PAIRS + analysis.TABLE2_PAIRS, 2),
        (analysis.TABLE3_PAIRS, 3),
    )
    for pair in pairs
    for k in range(first, 13, 2)
]


@settings(max_examples=300, deadline=None)
@given(cell=st.sampled_from(VALUE_TABLE_CELLS), t=st.integers(1, 8))
@example(cell=(("chi3", "chi3"), 12), t=1)  # c = 9, c/2 <= k - 1: Horner at every point
# k = 2, where the mirror takes P(0) for -P(0) and so differs from the pieces
# at the boundary points r = i c/q1, at t = 1 and at odd c (the mirror then
# starts at index c - c//2 - 1 = c//2)
@example(cell=(("chi3", "chi3"), 2), t=1)
@example(cell=(("chi3", "chi3"), 2), t=3)
@example(cell=(("chi5", "chi5"), 2), t=1)
@example(cell=(("chi3", "chi7"), 2), t=1)
@example(cell=(("chi3", "chi7"), 2), t=2)
@example(cell=(("chi4", "chi8b"), 2), t=1)
def test_value_table_matches_horner_over_pieces(cell, t):
    # entry for entry off the boundary points r = i c/q1, which no sum reads
    ctx = analysis.context_for(*cell)
    c = ctx.n * t
    m = c // ctx.q1
    table, scale = dk._value_table(ctx, c)
    want, want_scale = horner_table(ctx, c)
    assert scale == want_scale and len(table) == len(want) == c
    assert [v for r, v in enumerate(table) if r % m] == [v for r, v in enumerate(want) if r % m]


@pytest.mark.parametrize(
    "pair, k", [(("chi3", "chi3"), 2), (("chi3", "chi7"), 2), (("chi4", "chi5"), 3), (("chi8a", "chi3"), 3)]
)
@pytest.mark.parametrize("all_units", [False, True], ids=["G_j", "units"])
def test_sweep_reads_no_boundary_entry_of_the_value_table(monkeypatch, pair, k, all_units):
    # the entries r = i c/q1 are not V at k = 2; the sweep must never read them
    ctx = analysis.context_for(pair, k)
    n = ctx.n
    if all_units:
        by_c = {c: [a for a in range(1, c) if gcd(a, c) == 1] for c in (n, 2 * n, 3 * n)}
    else:
        by_c = {c: [a for a in range(1, 12 * n, n) if gcd(a, c) == 1] for c in range(n, 12 * n, n)}
    want = [dk.sweep_sums(ctx, c, units) for c, units in by_c.items()]
    value_table = dk._value_table

    def poisoned(ctx, c):
        table, scale = value_table(ctx, c)
        return [10**30 if r % (c // ctx.q1) == 0 else v for r, v in enumerate(table)], scale

    monkeypatch.setattr(dk, "_value_table", poisoned)
    assert [dk.sweep_sums(ctx, c, units) for c, units in by_c.items()] == want


QUADRATIC_CHARS = [named_character(tag) for tag in ("chi3", "chi4", "chi5", "chi7", "chi8a", "chi8b")]


@settings(max_examples=80, deadline=None)
@given(
    chi1=st.sampled_from(QUADRATIC_CHARS),
    chi2=st.sampled_from(QUADRATIC_CHARS),
    t=st.integers(1, 6),
    data=st.data(),
)
def test_sweep_matches_sum_S_tilde(chi1, chi2, t, data):
    sign = parity(chi1) * parity(chi2)
    k = data.draw(st.sampled_from([k for k in range(2, 13) if (-1) ** k == sign]))
    ctx = SumContext(chi1, chi2, k)
    c = ctx.n * t
    a = data.draw(st.integers(-2 * c, 2 * c).filter(lambda a: gcd(a, c) == 1))
    (s,), den = dk.sweep_sums(ctx, c, [a])
    assert Fraction(s * c ** (k - 2), den) == dk.sum_S_tilde(ctx, a, c).rational_value()


@pytest.mark.parametrize(
    "bad", [(3, 9), (1, 10), (1, 0), (1, -9)], ids=["not-coprime", "c-off-level", "c-zero", "c-negative"]
)
@pytest.mark.parametrize("at", [0, 7, None], ids=["first", "middle", "last"])
def test_sweep_validates_every_pair_before_building_a_table(monkeypatch, bad, at):
    # the bad a sits first, in the middle or last of a list of units, each
    # good for c = 9; the sweep at the bad pair's c raises before any table
    ctx = ctx_for("chi3", "chi3", 2)
    a, c = bad
    units = [1, 2, 4, 5, 7, 8, 10, 11, 13]
    units.insert(len(units) if at is None else at, a)
    with pytest.raises(ValueError) as want:
        dk.sum_S(ctx, a, c)
    builds = []
    value_table = dk._value_table
    monkeypatch.setattr(dk, "_value_table", lambda ctx, c: builds.append(c) or value_table(ctx, c))
    with pytest.raises(ValueError) as got:
        dk.sweep_sums(ctx, c, units)
    assert str(got.value) == str(want.value)
    assert builds == []


def test_sweep_builds_no_twisted_pieces(monkeypatch):
    # no piece tables, and one scaled polynomial per distinct c
    pieces_calls, poly_calls = [], []
    twisted_pieces = dk._twisted_pieces
    monkeypatch.setattr(
        dk, "_twisted_pieces", lambda ctx, c, degree: pieces_calls.append(c) or twisted_pieces(ctx, c, degree)
    )
    monkeypatch.setattr(dk, "scaled_int_poly", lambda k, c: poly_calls.append(c) or scaled_int_poly(k, c))
    ctx = ctx_for("chi5", "chi5", 4)
    swept = list(G_sweep(ctx, 8))
    assert all(sums for _, sums, _ in swept)
    assert pieces_calls == []
    assert sorted(poly_calls) == [c for c, _, _ in swept]


# every table pair at the lowest and highest weight of its table: q1 runs over 3, 4, 5, 7 and 8
SWEEP_SUM_CELLS = [(pair, k) for pair, k in TABLE_CELLS if k in (2, 3, 8, 9)]


@pytest.mark.parametrize("pair, k", SWEEP_SUM_CELLS)
def test_sweep_sums_match_sum_S_at_every_unit(pair, k):
    # the integer sums over one den against the Horner kernel, at every unit a
    # mod c for c = N, 2N and 3N
    ctx = analysis.context_for(pair, k)
    for c in (ctx.n, 2 * ctx.n, 3 * ctx.n):
        units = [a for a in range(1, c) if gcd(a, c) == 1]
        sums, den = dk.sweep_sums(ctx, c, units)
        assert den > 0 and len(sums) == len(units)
        assert [Fraction(s, den) for s in sums] == [dk.sum_S(ctx, a, c).rational_value() for a in units]


@pytest.mark.parametrize(
    "c, units",
    [(9, [1, 3]), (9, [6, 2]), (10, [1]), (0, [1]), (-9, [1])],
    ids=["non-unit-last", "non-unit-first", "c-off-level", "c-zero", "c-negative"],
)
def test_sweep_sums_validate_before_building_a_table(monkeypatch, c, units):
    # the same ValueError as sum_S on the first bad input, and no table built
    ctx = ctx_for("chi3", "chi3", 2)
    bad = next((a for a in units if c <= 0 or c % 9 or gcd(a, c) != 1))
    with pytest.raises(ValueError) as want:
        dk.sum_S(ctx, bad, c)
    builds = []
    value_table = dk._value_table
    monkeypatch.setattr(dk, "_value_table", lambda ctx, c: builds.append(c) or value_table(ctx, c))
    with pytest.raises(ValueError) as got:
        dk.sweep_sums(ctx, c, units)
    assert str(got.value) == str(want.value)
    assert builds == []


def old_accumulate(ctx: SumContext, a: int, c: int, p_table=None):
    """The kernel before the twisted values: phi(q1) Bernoulli terms per j at
    denominator c*q1, o1 x o2 exponent classes, Horner or ``p_table`` lookup."""
    q1, q2 = ctx.q1, ctx.q2
    o1, o2 = ctx.o1, ctx.o2
    d_mod = c * q1
    chi2_exps = ctx.chi2.value_exponents
    inner = [(n * c, (-e) % o1) for n, e in enumerate(ctx.chi1.value_exponents) if e is not None]
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


def old_p_table(k: int, c: int, q1: int) -> list[int]:
    """Table of s*B_{k-1}(t/(c q1)) for t in [0, c q1), the old sweep's lookup."""
    d_mod = c * q1
    coeffs = list(reversed(scaled_int_poly(k - 1, d_mod)[0]))
    table = [0] * d_mod
    for t in range(1, d_mod):
        acc = 0
        for cf in coeffs:
            acc = acc * t + cf
        table[t] = acc
    return table


def old_sum_S(ctx: SumContext, a: int, c: int, p_table=None) -> CyclotomicElement:
    scale = scaled_int_poly(ctx.k - 1, c * ctx.q1)[1]
    return dk._combine(ctx, old_accumulate(ctx, a % c, c, p_table), 2 * c * scale)


def primitive_characters(moduli, orders):
    return [
        chi
        for q in moduli
        for chi in characters_mod(q)
        if chi.order in orders and is_primitive(chi)
    ]


# chi1 of orders 2, 3, 4 and 6; chi2 any primitive nontrivial character of a
# small modulus
TWIST_CHI1 = primitive_characters((5, 7, 9, 13), (2, 3, 4, 6))
TWIST_CHI2 = primitive_characters((3, 4, 5, 7, 8), range(2, 7))


@settings(max_examples=80, deadline=None)
@given(
    order=st.sampled_from((2, 3, 4, 6)),
    chi2=st.sampled_from(TWIST_CHI2),
    t=st.integers(1, 6),
    data=st.data(),
)
def test_twisted_kernel_matches_old_kernel(order, chi2, t, data):
    chi1 = data.draw(st.sampled_from([chi for chi in TWIST_CHI1 if chi.order == order]))
    sign = parity(chi1) * parity(chi2)
    k = data.draw(st.sampled_from([k for k in range(2, 10) if (-1) ** k == sign]))
    ctx = SumContext(chi1, chi2, k)
    c = ctx.n * t
    a = data.draw(st.integers(-2 * c, 2 * c).filter(lambda a: gcd(a, c) == 1))
    assert dk.sum_S(ctx, a, c) == old_sum_S(ctx, a, c)
    if ctx.quadratic:
        old = old_sum_S(ctx, a, c, old_p_table(k, c, ctx.q1)).rational_value()
        (s,), den = dk.sweep_sums(ctx, c, [a])
        assert Fraction(s, den) == old


@pytest.mark.parametrize(
    "tag1,tag2,k,a,c",
    [("chi5", "chi3", 3, 1, 15), ("chi5", "chi4", 5, 3, 40), ("chi3", "chi5", 7, -7, 45)],
)
def test_sum_at_interval_boundary_matches_slow_loop(tag1, tag2, k, a, c):
    # k - 1 even, so B_{k-1}(0) != 0: at r = i c/q1 the term n = -i mod q1 is
    # 0 in the double sum but the constant term in V's piece.  Such an r comes
    # only from a j with q2 | j, where chi2(j) = 0, and the sum stays exact.
    ctx = ctx_for(tag1, tag2, k)
    m = c // ctx.q1
    pieces, scale = dk._twisted_pieces(ctx, c, k - 1)
    hits = [j for j in range(1, (c - 1) // 2 + 1) if (j * a) % c % m == 0]
    assert hits
    for j in hits:
        r = j * a % c
        i = r // m
        direct = sum(
            ctx.chi1(n).rational_value()
            * scale
            * periodic_bernoulli(k - 1, Fraction(r + n * m, c))
            for n in range(ctx.q1)
        )
        assert pieces[0][i][-1] != direct
        assert ctx.chi2(j).is_zero()
    assert dk.sum_S(ctx, a, c) == slow_sum_S(ctx, a, c)


def test_weight2_crossed_homomorphism():
    rng = random.Random(71)
    for n, (t1, t2) in ((9, ("chi3", "chi3")), (12, ("chi3", "chi4")), (21, ("chi3", "chi7"))):
        ctx = ctx_for(t1, t2, 2)
        for _ in range(15):
            g1, g2 = random_gamma0(rng, n, 4), random_gamma0(rng, n, 4)
            lhs = dk.sum_S_matrix(ctx, g1 * g2)
            rhs = dk.sum_S_matrix(ctx, g1) + ctx.psi(g1) * dk.sum_S_matrix(ctx, g2)
            assert (lhs - rhs).is_zero()


# -- S-hat and h -------------------------------------------------------------


def test_shat_at_infinity_is_zero():
    ctx = ctx_for("chi5", "chi5", 4)
    assert dk.shat(ctx, Cusp.infinity()).is_zero()


def test_shat_periodicity():
    ctx = ctx_for("chi5", "chi5", 4)
    rng = random.Random(50)
    count = 0
    for a, c in iter_G_pairs(25, 8):
        if count >= 30:
            break
        count += 1
        n = rng.randint(-3, 3)
        slow = slow_sum_S(ctx, a + n * c, c)
        assert (dk.shat(ctx, Cusp(a, c)) - slow).is_zero()
        assert (dk.shat(ctx, Cusp(a + n * c, c)) - slow).is_zero()


def test_shat_equals_sum_on_matrices():
    ctx = ctx_for("chi3", "chi4", 2)
    rng = random.Random(33)
    for _ in range(10):
        g = random_gamma1(rng, 12)
        cusp = cusp_apply(g, Cusp.infinity())
        assert (dk.shat(ctx, cusp) - dk.sum_S_matrix(ctx, g)).is_zero()


def test_shat_rejects_omega_orbit():
    ctx = ctx_for("chi3", "chi3", 2)
    with pytest.raises(ValueError):
        dk.shat(ctx, Cusp(1, 2))


def test_h_of_translation_vanishes():
    ctx = ctx_for("chi5", "chi5", 4)
    for a, c in [(1, 25), (26, 25), (1, 50)]:
        assert dk.h_eval(ctx, Mat2(1, 1, 0, 1), Cusp(a, c)).is_zero()
    assert dk.h_interpolate(ctx, Mat2(1, 1, 0, 1)).coeffs == [0] * (ctx.k - 1)


def test_h_eval_matches_reference_polynomial():
    ctx = ctx_for("chi5", "chi5", 4)
    g1 = Mat2(26, 1, 25, 1)
    for a, c in [(1, 25), (26, 25), (1, 50), (-24, 25)]:
        v = dk.h_eval(ctx, g1, Cusp(a, c)).rational_value()
        assert v == Fraction(-24, 5) * Fraction(a, c) ** 2


def test_h_eval_at_pole_is_polynomial_value():
    # at a = gamma^-1(inf) the slash term drops; the value is the polynomial's
    ctx = ctx_for("chi5", "chi5", 4)
    g1 = Mat2(26, 1, 25, 1)
    pole = cusp_apply(g1.inverse(), Cusp.infinity())
    v = dk.h_eval(ctx, g1, pole).rational_value()
    assert v == Fraction(-24, 5) * Fraction(pole.p, pole.q) ** 2


PSI_PAIRS = [
    ("chi3", "chi3", 2),
    ("chi5", "chi5", 4),
    ("chi3", "chi5", 3),
    ("chi4", "chi8a", 3),
    ("5:1", "5:1", 4),
    ("7:1", "7:1", 6),
    ("5:1", "chi3", 2),
]


@pytest.mark.parametrize("tag1,tag2,k", PSI_PAIRS)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 8), shift=st.integers(1, 200))
def test_psi_is_one_matches_the_field_value(tag1, tag2, k, seed, size, shift):
    # psi_is_one reads the exponent of psi(gamma); psi builds the root of unity
    ctx = ctx_for(tag1, tag2, k)
    gamma = random_gamma0(random.Random(seed), ctx.n, size)
    assert ctx.psi_is_one(gamma) == (ctx.psi(gamma) == 1)
    # off Gamma_0(N) both raise the same ValueError: gamma (1 0; s 1) has
    # lower-left entry c + d s, and d is a unit mod N
    s = shift if shift % ctx.n else shift + 1
    off = gamma * Mat2(1, 0, s, 1)
    with pytest.raises(ValueError) as fast:
        ctx.psi_is_one(off)
    with pytest.raises(ValueError) as field:
        ctx.psi(off)
    assert str(fast.value) == str(field.value)


def field_h_eval(ctx: SumContext, gamma: Mat2, cusp: Cusp) -> CyclotomicElement:
    """Reference: h_gamma(a) = S-hat(a) - S-hat(gamma a) j(gamma, a)^(k-2) in
    cyclotomic arithmetic; S-hat(inf) = 0 drops the slash term at the pole."""
    base = dk.shat(ctx, cusp)
    image = cusp_apply(gamma, cusp)
    if image.is_infinity():
        return base
    return base - dk.shat(ctx, image) * cocycle_j(gamma, cusp) ** (ctx.k - 2)


@pytest.mark.parametrize(
    "tag1,tag2,k",
    [("chi5", "chi5", 4), ("chi3", "chi5", 3), ("chi3", "chi3", 2), ("5:1", "5:1", 4)],
)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 3))
def test_h_eval_matches_the_field_expression(tag1, tag2, k, seed, size):
    # rational S-hat values are combined as Fractions, others in the field;
    # the pole gamma^-1(inf) takes the branch where gamma a is infinity
    ctx = ctx_for(tag1, tag2, k)
    rng = random.Random(seed)
    gamma = random_gamma0(rng, ctx.n, size)
    q = ctx.n * rng.randint(1, size)
    cusps = [Cusp(rng.choice([p for p in range(-q, q) if gcd(p, q) == 1]), q)]
    if gamma.c:
        cusps.append(cusp_apply(gamma.inverse(), Cusp.infinity()))
    for cusp in cusps:
        value, expected = dk.h_eval(ctx, gamma, cusp), field_h_eval(ctx, gamma, cusp)
        assert value.order == expected.order
        assert value == expected, (gamma, cusp)


@settings(max_examples=300, deadline=None)
@given(
    n=st.sampled_from([9, 12, 15, 20, 21, 25, 28, 32, 35, 49]),
    a=st.integers(-5000, 5000),
    size=st.integers(1, 40),
    sign=st.sampled_from([1, -1]),
)
@example(n=9, a=3, size=2, sign=1)  # a N/c = 3/2 lies halfway between the units 1 and 2
def test_node_unit_is_the_nearest_admissible_unit(n, a, size, sign):
    # reference: the least distance over a window of 2N + 2 integers, the
    # lowest t among equals
    c, an = sign * n * size, a * n
    t0 = an // c
    nearest = min(
        (t for t in range(t0 - n, t0 + n + 2) if gcd(t, n) == 1 and an != c * t),
        key=lambda t: abs(an - c * t),
    )
    assert dk._node_unit(an, c, n) == nearest


def ring_order_nodes(ctx: SumContext, gamma: Mat2, count: int) -> list[Cusp]:
    """Reference node choice: the first admissible cusps of the G_j(N) rings in
    ring order, skipping the pole gamma^-1(inf)."""
    pole = cusp_apply(gamma.inverse(), Cusp.infinity())
    seen: set = set()
    nodes: list[Cusp] = []
    j = 1
    while True:
        j += 1
        for pair in iter_G_pairs(ctx.n, j):
            if pair in seen:
                continue
            seen.add(pair)
            node = Cusp(*pair)
            if node == pole:
                continue
            nodes.append(node)
            if len(nodes) == count:
                return nodes


def lagrange(xs: list[Fraction], ys: list) -> list:
    """Ascending coefficients of the interpolating polynomial through (xs, ys),
    summed over the Lagrange basis."""
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


def ring_order_fit(ctx: SumContext, gamma: Mat2) -> Poly:
    """Lagrange fit of h_gamma through the k-1 reference nodes."""
    nodes = ring_order_nodes(ctx, gamma, ctx.k - 1)
    xs = [Fraction(node.p, node.q) for node in nodes]
    ys = [dk.h_eval(ctx, gamma, node) for node in nodes]
    if ctx.quadratic:
        ys = [y.rational_value() for y in ys]
    return Poly(ctx.k, lagrange(xs, ys)[::-1])


@pytest.mark.parametrize(
    "tag1,tag2,k", [("chi5", "chi5", 4), ("chi3", "chi5", 3), ("chi3", "chi4", 2)]
)
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 4))
def test_h_eval_at_pole_matches_interpolant(tag1, tag2, k, seed, size):
    # at the pole the slash term drops out and the value is still the
    # polynomial's; the reference fit never uses the pole
    ctx = ctx_for(tag1, tag2, k)
    gamma = random_gamma1(random.Random(seed), ctx.n, size)
    pole = cusp_apply(gamma.inverse(), Cusp.infinity())
    poly = ring_order_fit(ctx, gamma)
    assert dk.h_eval(ctx, gamma, pole).rational_value() == poly.eval(Fraction(pole.p, pole.q))
    assert dk.h_interpolate(ctx, gamma) == poly


@pytest.mark.parametrize(
    "tag1,tag2,k",
    [
        ("chi3", "chi3", 2),
        ("chi3", "chi5", 3),
        ("chi3", "chi4", 4),
        ("chi4", "chi5", 5),
        ("chi3", "chi3", 6),
        ("chi3", "chi5", 7),
        # cyclotomic values: chi of order 4, 3 and 6
        ("5:1", "5:1", 4),
        ("7:2", "7:2", 6),
        ("7:1", "7:1", 6),
    ],
)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_h_interpolate_matches_ring_order_fit(tag1, tag2, k, seed):
    ctx = ctx_for(tag1, tag2, k)
    rng = random.Random(seed)
    gamma = random_gamma0(rng, ctx.n, 4)
    while not ctx.psi_is_one(gamma):
        gamma = random_gamma0(rng, ctx.n, 4)
    assert dk.h_interpolate(ctx, gamma) == ring_order_fit(ctx, gamma)


# Every way the sum formula can go wrong must fail the one-node certificate:
# a wrong h_eval at the node, or +1 in any one mixed sum S_r of gamma's own
# (a, c).  Run in-process and under python -O, where asserts are stripped.
CERTIFICATE_CHECKS = """
from dedsums import dedekind as dk
from dedsums.characters import parse_character
from dedsums.exactnum import CertificateError
from dedsums.modgroup import Mat2

CASES = [
    (("chi5", "chi5"), 4, Mat2(51, 104, 25, 51)),
    (("chi5", "chi5"), 4, Mat2(-24, 1, -25, 1)),
    (("7:1", "7:1"), 6, Mat2(50, 1, 49, 1)),
]


def context(pair, k):
    return dk.SumContext(parse_character(pair[0]), parse_character(pair[1]), k)


def uncaught_corruptions():
    real_h_eval, real_mixed_sum = dk.h_eval, dk._mixed_sum
    missed = []
    for pair, k, gamma in CASES:
        dk.h_interpolate(context(pair, k), gamma)  # the true fit passes
        dk.h_eval = lambda *args: real_h_eval(*args) + 1
        try:
            dk.h_interpolate(context(pair, k), gamma)
            missed.append((pair, k, str(gamma), "h_eval"))
        except CertificateError:
            pass
        finally:
            dk.h_eval = real_h_eval
        # the kernel's (a, c) for gamma: (e a mod |c|, |c|), e = sign(c)
        c_abs = abs(gamma.c)
        own = (gamma.a * c_abs // gamma.c % c_abs, c_abs)
        for bad_r in range(1, k):

            def corrupted(ctx, a, c, r, target=(*own, bad_r)):
                value = real_mixed_sum(ctx, a, c, r)
                return value + 1 if (a, c, r) == target else value

            dk._mixed_sum = corrupted
            try:
                dk.h_interpolate(context(pair, k), gamma)
                missed.append((pair, k, str(gamma), bad_r))
            except CertificateError:
                pass
            finally:
                dk._mixed_sum = real_mixed_sum
    return missed
"""


def test_h_interpolate_check_failure_raises_certificate_error():
    scope = {}
    exec(CERTIFICATE_CHECKS, scope)
    assert scope["uncaught_corruptions"]() == []
    script = CERTIFICATE_CHECKS + (
        "import sys\n"
        "if __debug__:\n"
        "    sys.exit('not running under -O')\n"
        "missed = uncaught_corruptions()\n"
        "sys.exit(repr(missed) if missed else 0)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(dk.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PYTHONOPTIMIZE", None)
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def test_h_weight2_is_constant_minus_S():
    # for k = 2 and gamma in Gamma_1, h is the constant -S(gamma) (the
    # crossed-homomorphism identity); in particular degree <= 0
    ctx = ctx_for("chi3", "chi3", 2)
    rng = random.Random(28)
    for _ in range(5):
        g = random_gamma1(rng, 9, 3)
        expected = -dk.sum_S_matrix(ctx, g)
        for a, c in [(1, 9), (10, 9), (1, 18)]:
            v = dk.h_eval(ctx, g, Cusp(a, c))
            assert (v - expected).is_zero()
        poly = dk.h_interpolate(ctx, g)
        assert len(poly.coeffs) == 1 and poly.coeffs[0] == expected.rational_value()


def test_h_interpolate_requires_trivial_psi():
    ctx = ctx_for("chi3", "chi7", 2)
    rng = random.Random(90)
    g = random_gamma0(rng, 21)
    while ctx.psi_is_one(g):
        g = random_gamma0(rng, 21)
    with pytest.raises(ValueError):
        dk.h_interpolate(ctx, g)


REFERENCE_H_TABLE = [
    (Mat2(1, 1, 0, 1), [0, 0, 0]),
    (Mat2(-24, 1, -25, 1), [Fraction(24, 5), 0, 0]),
    (Mat2(51, -4, 625, -49), [-5340, Fraction(4176, 5), Fraction(-816, 25)]),
    (Mat2(26, 1, 25, 1), [Fraction(-24, 5), 0, 0]),
    (Mat2(51, 104, 25, 51), [Fraction(-24, 5), Fraction(-96, 5), Fraction(-96, 5)]),
    (Mat2(-74, 7, -275, 26), [Fraction(50244, 5), Fraction(-9576, 5), Fraction(456, 5)]),
    (Mat2(-149, 16, -475, 51), [Fraction(250206, 5), -10752, Fraction(14442, 25)]),
    (Mat2(76, -9, 625, -74), [-39240, Fraction(46464, 5), Fraction(-13752, 25)]),
    (Mat2(51, -7, 175, -24), [Fraction(17262, 5), Fraction(-4692, 5), Fraction(1596, 25)]),
    (Mat2(126, -11, 275, -24), [Fraction(-33444, 5), 1164, Fraction(-1266, 25)]),
    (Mat2(251, -136, 275, -149), [Fraction(6, 5), Fraction(-24, 5), Fraction(54, 25)]),
    (Mat2(101, -80, 125, -99), [15606, Fraction(-122952, 5), Fraction(48438, 5)]),
    (Mat2(426, -313, 475, -349), [Fraction(245724, 5), Fraction(-361332, 5), Fraction(132834, 5)]),
]


@pytest.mark.parametrize("gamma,coeffs", REFERENCE_H_TABLE)
def test_h_interpolate_published_values(gamma, coeffs):
    ctx = ctx_for("chi5", "chi5", 4)
    assert dk.h_interpolate(ctx, gamma) == Poly(4, coeffs)


def test_h_crossed_homomorphism_polynomials():
    # (5:1, 5:1) has cyclotomic h coefficients, so h|g2 slashes those
    for tags in (("chi5", "chi5"), ("5:1", "5:1")):
        ctx = ctx_for(*tags, 4)
        rng = random.Random(61)
        pairs = [(Mat2(26, 1, 25, 1), Mat2(51, 104, 25, 51))]
        pairs += [(random_gamma1(rng, 25, 2), random_gamma1(rng, 25, 2)) for _ in range(6)]
        for g1, g2 in pairs:
            h12 = dk.h_interpolate(ctx, g1 * g2)
            assert h12 == dk.h_interpolate(ctx, g1).slash(g2) + dk.h_interpolate(ctx, g2), tags


def row_slash(p: Poly, gamma: Mat2) -> Poly:
    """Poly.slash as a loop over the rows of the slash matrix, row n scaled
    by coefficient n; the reference for the column products."""
    k = p.weight
    out = [Fraction(0)] * (k - 1)
    for coeff, row in zip(p.coeffs, zip(*slash_matrix(gamma, k))):
        if coeff == 0:
            continue
        for i, t in enumerate(row):
            if t:
                out[i] = out[i] + coeff * t
    return Poly(k, out)


def test_column_slash_matches_the_row_loop():
    rng = random.Random(29)

    def coeff(order):
        if rng.random() < 0.25:
            return 0
        if order == 1:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(euler_phi(order))]
        return CyclotomicElement(order, coeffs)

    for _ in range(60):
        k = rng.choice([2, 3, 4, 6])
        order = rng.choice([1, 1, 3, 4, 5, 12])  # order 1: Fraction coefficients
        p = Poly(k, [coeff(order) for _ in range(k - 1)])
        gamma = random_gamma0(rng, rng.choice([1, 5, 25]))
        assert p.slash(gamma) == row_slash(p, gamma)


@st.composite
def sl2z(draw):
    """(a, b, c, d) in SL2(Z): c = 0 (d = +-1, any b) or a coprime bottom
    row completed by d^-1 mod |c|, then shifted by (a, b) += t (c, d)."""
    c = draw(st.integers(-40, 40))
    if c == 0:
        d = draw(st.sampled_from((1, -1)))
        return d, draw(st.integers(-40, 40)), 0, d
    d = draw(st.integers(-40, 40).filter(lambda d: gcd(c, d) == 1))
    a = pow(d, -1, abs(c)) if abs(c) > 1 else 0
    t = draw(st.integers(-3, 3))
    return a + t * c, (a * d - 1) // c + t * d, c, d


@st.composite
def slash_coeffs(draw):
    """k - 1 coefficients, k = 2..12: all Fractions, or all CyclotomicElements of one order."""
    k = draw(st.integers(2, 12))
    order = draw(st.sampled_from((1, 3, 4, 5, 12)))  # order 1: Fraction coefficients
    fraction = st.fractions(min_value=-50, max_value=50, max_denominator=12)
    if order == 1:
        return draw(st.lists(fraction, min_size=k - 1, max_size=k - 1))
    cyclotomic = st.lists(fraction, min_size=euler_phi(order), max_size=euler_phi(order)).map(
        lambda cs: CyclotomicElement(order, cs)
    )
    return draw(st.lists(cyclotomic, min_size=k - 1, max_size=k - 1))


@settings(max_examples=150, deadline=None)
@given(coeffs=slash_coeffs(), gamma=sl2z())
@example(coeffs=[Fraction(3), Fraction(-1, 2), Fraction(5)], gamma=(-1, 7, 0, -1))
def test_slash_vector_matches_the_slash_matrix(coeffs, gamma):
    g = Mat2(*gamma)
    columns = slash_matrix(g, len(coeffs) + 1)
    assert slash_vector(coeffs, gamma) == [sum(map(mul, coeffs, col)) for col in columns]


@pytest.mark.parametrize(
    "tag1,tag2,k",
    [
        ("chi3", "chi3", 2),
        ("chi3", "chi4", 4),
        ("chi5", "chi5", 4),
        ("chi3", "chi3", 6),
        ("chi3", "chi5", 3),
        ("chi4", "chi5", 5),
        ("5:1", "5:1", 4),
        ("7:2", "7:2", 6),
        ("7:1", "7:1", 6),
    ],
)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), in_gamma1=st.booleans(), negate=st.booleans())
def test_h_top_coefficient_is_minus_c_power_times_S(tag1, tag2, k, seed, in_gamma1, negate):
    # the x^(k-2) coefficient of h_gamma is -c^(k-2) S(gamma), for c of both
    # signs, compared as cyclotomic values; -gamma keeps psi = 1 only at even k
    ctx = ctx_for(tag1, tag2, k)
    rng = random.Random(seed)
    if in_gamma1:
        gamma = random_gamma1(rng, ctx.n, 4)
    else:
        gamma = random_gamma0(rng, ctx.n, 4)
        while gamma.c == 0 or not ctx.psi_is_one(gamma):
            gamma = random_gamma0(rng, ctx.n, 4)
    if negate and ctx.psi_is_one(-gamma):
        gamma = -gamma
    top = dk.h_interpolate(ctx, gamma).coeffs[0]
    assert dk.sum_S_matrix(ctx, gamma) * -Fraction(gamma.c) ** (k - 2) == top


CHI5, ZETA5 = named_character("chi5"), CyclotomicElement.root_of_unity(5)
# an order-4 character mod 5 twice: even, so k = 4 is allowed, and not quadratic
NON_QUADRATIC_CTX = SumContext(parse_character("5:1"), parse_character("5:1"), 4)
OFF_GAMMA0 = Mat2(1, 0, 1, 1)


def assign_order():
    ZETA5.order = 10


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: analysis.bound_statistics(NON_QUADRATIC_CTX, 100), ValueError, "quadratic pairs"),
        (lambda: dk.sweep_sums(NON_QUADRATIC_CTX, 25, [1]), ValueError, "quadratic pairs only"),
        (lambda: dk.sum_S_matrix(ctx_for("chi5", "chi5", 4), OFF_GAMMA0), ValueError, "not in Gamma_0"),
        (lambda: dk.h_eval(ctx_for("chi5", "chi5", 4), OFF_GAMMA0, Cusp(1, 25)), ValueError, "not in Gamma_0"),
        (lambda: dk.h_eval(ctx_for("chi5", "chi5", 4), Mat2(1, 1, 0, 1), Cusp.infinity()), ValueError, "away from"),
        (lambda: cocycle_j(Mat2(1, 1, 0, 1), Cusp.infinity()), ValueError, "finite cusp"),
        (lambda: SumContext(CHI5, CHI5, 0), ValueError, "k must be >= 2"),
        (lambda: dk.classical_s(1, 0), ValueError, "k must be positive"),
        (lambda: Poly(1, []), ValueError, "weight must be >= 2"),
        (lambda: Poly(4, [1, 2]), ValueError, "need 3 coefficients"),
        (lambda: Poly(3, [1, 2]) + Poly(4, [1, 2, 3]), ValueError, "weights differ"),
        (lambda: euler_phi(0), ValueError, "n >= 1"),
        (lambda: cyclotomic_polynomial(0), ValueError, "order must be positive"),
        (lambda: bernoulli_number(-1), ValueError, "nonnegative"),
        (lambda: periodic_bernoulli(0, Fraction(1, 2)), ValueError, "k must be >= 1"),
        (lambda: CyclotomicElement(5, [1, 2]), ValueError, "expected 4 coefficients"),
        (assign_order, AttributeError, "immutable"),
        (lambda: ZETA5**-1, ValueError, "negative powers"),
        (lambda: ZETA5.rational_value(), ValueError, "not rational"),
        (lambda: UnitGroup(0), ValueError, "modulus must be positive"),
        (lambda: DirichletCharacter(5, (1, 2)), ValueError, "does not match"),
        (lambda: numeric_context(ctx_for("chi5", "chi5", 4)).psi(Mat2(1, 1, 4, 5)), ValueError, "shares a factor"),
        (lambda: _tail_terms(0.0, 4, 1e-8, (1.0, 1.0, 1.0), 1000), ValueError, "upper half plane"),
    ],
    ids=[
        "bound-statistics-non-quadratic", "sweep-sums-non-quadratic", "sum-S-matrix-off-gamma0",
        "h-eval-off-gamma0", "h-eval-at-infinity", "cocycle-j-at-infinity", "context-k-below-2",
        "classical-s-k-0", "poly-weight-1", "poly-coefficient-count", "poly-sum-across-weights",
        "euler-phi-0", "cyclotomic-polynomial-0", "bernoulli-number-negative", "periodic-bernoulli-0",
        "cyclotomic-coefficient-count", "cyclotomic-assignment", "cyclotomic-negative-power",
        "cyclotomic-rational-value", "unit-group-0", "character-exponent-length",
        "numeric-psi-non-unit-d", "tail-terms-real-axis",
    ],
)
def test_documented_input_rejections(call, error, message):
    with pytest.raises(error, match=message):
        call()
