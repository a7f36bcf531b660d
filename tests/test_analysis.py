import math
import random
from fractions import Fraction

import pytest

from dedsums import analysis, dedekind as dk
from dedsums.analysis import (
    containment_m,
    context_for,
    display_form,
    image_scale,
    poly_space_member,
    divisibility_tables,
    trivial_bound,
)
from dedsums.modgroup import Poly, random_gamma0, random_gamma1


def test_display_form():
    assert display_form(Fraction(2), 3) == "2"
    assert display_form(Fraction(3, 2), 4) == "6/4"
    assert display_form(Fraction(7, 2), 4) == "14/4"
    assert display_form(Fraction(6, 5), 5) == "6/5"
    assert display_form(Fraction(2, 3), 3) == "2/3"


def test_image_scale_published_cells():
    # three published j = 50 values across the three tables
    assert image_scale(context_for(("chi3", "chi3"), 6), 50).r == Fraction(10, 3)
    assert image_scale(context_for(("chi7", "chi3"), 8), 50).r == Fraction(2)
    assert image_scale(context_for(("chi3", "chi5"), 9), 50).r == Fraction(16)


def test_image_scale_rejects_nonquadratic():
    from dedsums.characters import characters_mod

    chi5_4 = [c for c in characters_mod(5) if c.order == 4][0]
    chi3 = [c for c in characters_mod(3) if c.order == 2][0]
    ctx = dk.SumContext(chi5_4, chi3, 2)
    with pytest.raises(ValueError):
        image_scale(ctx, 5)


def test_small_sweep_coarsens_gcd():
    # gcd over a subset must be an integer multiple of the full-sweep gcd
    ctx = context_for(("chi3", "chi4"), 4)
    r10 = image_scale(ctx, 10).r
    r50 = image_scale(ctx, 50).r
    assert (r10 / r50).denominator == 1


def test_divisibility_tables_structure():
    tables = divisibility_tables(2)
    assert [t.pairs for t in tables] == [
        analysis.TABLE1_PAIRS,
        analysis.TABLE2_PAIRS,
        analysis.TABLE3_PAIRS,
    ]
    assert tables[0].weights == (2, 4, 6, 8)
    assert tables[2].weights == (3, 5, 7, 9)
    rows = tables[0].display_rows()
    assert len(rows) == 4 and len(rows[0]) == 6


def test_poly_space_member_examples():
    p = Poly(4, [Fraction(-24, 5), 0, 0])
    assert poly_space_member(p, 4, Fraction(6), 5)
    big = Poly(4, [-5340, Fraction(4176, 5), Fraction(-816, 25)])
    assert poly_space_member(big, 4, Fraction(6), 5)
    assert poly_space_member(Poly.zero(4), 4, Fraction(17), 9)
    assert not poly_space_member(p, 4, Fraction(25), 5)


def test_containment_chi5_pair():
    report = containment_m(context_for(("chi5", "chi5"), 4), pair=("chi5", "chi5"))
    assert report.m == 6
    assert report.bound == Fraction(6, 5)
    assert report.divides_2k_minus_2()
    for _, poly in report.polynomials:
        assert poly_space_member(poly, 4, report.m, 5)


def test_containment_membership_failure_raises_certificate_error(monkeypatch):
    # the membership certificate is an explicit check, not an assert that -O strips
    monkeypatch.setattr(analysis, "poly_space_member", lambda *args: False)
    with pytest.raises(dk.CertificateError):
        containment_m(context_for(("chi3", "chi3"), 2))


def test_containment_generating_set_independent():
    ctx = context_for(("chi3", "chi3"), 2)
    m_st = containment_m(ctx, order="st").m
    m_ts = containment_m(ctx, order="ts").m
    assert m_st == m_ts


def test_containment_consistent_with_table_cell():
    ctx = context_for(("chi3", "chi3"), 2)
    report = containment_m(ctx)
    cell = image_scale(ctx, 10)
    assert (cell.r / report.bound).denominator == 1


def test_poly_space_slash_stability():
    rng = random.Random(19)
    k, q1, n = 4, 5, 25
    m = Fraction(6)
    for _ in range(25):
        p = Poly(k, [Fraction(m * rng.randint(-9, 9), q1 ** (i + 1)) for i in range(k - 1)])
        assert poly_space_member(p, k, m, q1)
        g = random_gamma0(rng, n, 5)
        assert poly_space_member(p.slash(g), k, m, q1)


def test_poly_space_evaluation_scaling():
    rng = random.Random(23)
    k, q1, n = 4, 5, 25
    m = Fraction(6)
    for _ in range(25):
        p = Poly(k, [Fraction(m * rng.randint(-9, 9), q1 ** (i + 1)) for i in range(k - 1)])
        g = random_gamma1(rng, n, 5)
        value = Fraction(g.c) ** (k - 2) * p.eval(Fraction(g.a, g.c))
        assert (value / (m / q1)).denominator == 1


def test_trivial_bound_shape():
    ctx = context_for(("chi3", "chi3"), 2)
    assert trivial_bound(ctx, 9) == pytest.approx(9 * 3 * math.pi**2 / 6 / (2 * math.pi))
    assert trivial_bound(ctx, 18) > trivial_bound(ctx, 9)
    with pytest.raises(ValueError):
        trivial_bound(ctx, 0)


def test_trivial_bound_respected_on_sweep():
    for k in (2, 4, 6):
        ctx = context_for(("chi3", "chi3"), k)
        from dedsums.modgroup import iter_G_pairs

        pairs = list(iter_G_pairs(9, 10))
        values = dk.sweep_S_tilde_rational(ctx, pairs)
        for (a, c), v in zip(pairs, values):
            s_abs = abs(v) / Fraction(c) ** (k - 2)
            assert float(s_abs) <= trivial_bound(ctx, c)


def test_bound_statistics():
    ctx = context_for(("chi3", "chi3"), 2)
    report = analysis.bound_statistics(ctx, 180)
    assert report.trivial_bound_ok
    assert all(row.delta_ok for row in report.rows)
    assert report.max_ratio > 0
    counts = [report.exceptional_count(Fraction(a)) for a in (Fraction(1, 100), 1, 100)]
    assert counts[0] >= counts[1] >= counts[2]


def test_bound_statistics_validates_inputs():
    ctx = context_for(("chi3", "chi3"), 2)
    with pytest.raises(ValueError):
        analysis.bound_statistics(ctx, 5)


def test_conjectured_d_pattern():
    # bound integral -> d = bound; else d = m; both divide 2k - 2 here
    rep = containment_m(context_for(("chi5", "chi5"), 4))
    assert rep.conjectured_d() == 6 and rep.divides_2k_minus_2()
    rep2 = containment_m(context_for(("chi3", "chi3"), 2))
    assert rep2.divides_2k_minus_2()


def test_gcd_reduction_order_invariant():
    # data-parallel sweeps may reduce in any order
    import random
    from dedsums.exactnum import rational_gcd_set
    from dedsums.modgroup import iter_G_pairs

    ctx = context_for(("chi3", "chi4"), 4)
    values = dk.sweep_S_tilde_rational(ctx, list(iter_G_pairs(12, 6)))
    rng = random.Random(3)
    baseline = rational_gcd_set(values)
    for _ in range(5):
        shuffled = values[:]
        rng.shuffle(shuffled)
        acc = shuffled[0]
        for v in shuffled[1:]:
            acc = rational_gcd_set([acc, v])
        assert acc == baseline


def test_table_pairs_are_complete():
    # the hardcoded pair lists must be exactly the ordered pairs of quadratic
    # primitive characters with q1 q2 <= 32, split by parity
    from dedsums.characters import characters_mod, is_primitive, is_quadratic, parity

    tagged = {}
    for tag, q in (("chi3", 3), ("chi4", 4), ("chi5", 5), ("chi7", 7)):
        tagged[tag] = q
    tagged["chi8a"] = tagged["chi8b"] = 8
    # only moduli up to 32/3 can appear in a pair, and the named tags must
    # exhaust the quadratic primitive characters there
    for q in range(3, 11):
        tags = [t for t, qq in tagged.items() if qq == q]
        found = [c for c in characters_mod(q) if is_quadratic(c) and is_primitive(c)]
        assert len(found) == len(tags), (q, len(found))
    even_pairs, odd_pairs = set(), set()
    from dedsums.characters import named_character

    for t1 in tagged:
        for t2 in tagged:
            if tagged[t1] * tagged[t2] > 32:
                continue
            pp = parity(named_character(t1)) * parity(named_character(t2))
            (even_pairs if pp == 1 else odd_pairs).add((t1, t2))
    assert set(analysis.TABLE1_PAIRS) | set(analysis.TABLE2_PAIRS) == even_pairs
    assert set(analysis.TABLE3_PAIRS) == odd_pairs
