import hashlib
import math
import os
import random
import subprocess
import sys
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
from dedsums.modgroup import Poly, gamma1_generators, random_gamma0, random_gamma1


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


def test_table_jobs_start_at_most_one_worker_per_cell(monkeypatch):
    import multiprocessing

    asked = []

    class SerialPool:
        def __init__(self, processes):
            asked.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, specs):
            return map(fn, specs)

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    reported, reported_serial = [], []
    tables = analysis.divisibility_tables(
        2, jobs=10**6, progress=lambda i, total, spec: reported.append((i, total, spec))
    )
    assert asked == [84]
    serial = analysis.divisibility_tables(
        2, progress=lambda i, total, spec: reported_serial.append((i, total, spec))
    )
    assert [(key, c.r) for t in tables for key, c in t.cells.items()] == [
        (key, c.r) for t in serial for key, c in t.cells.items()
    ]
    # one progress call per cell, in spec order, as the serial run reports
    assert [(i, total) for i, total, _ in reported] == [(i, 84) for i in range(1, 85)]
    assert reported == reported_serial


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


# sha256 of "<generator> <h coefficients>" lines over the 197 Schreier
# generators of Gamma_1(25), (chi5, chi5), k = 4, computed without the memo
CHI5_K4_POLYNOMIALS = "a2f7ffac0759571c512282a425c4af6c49e5bf85b60863736269b14d056f96dd"


def test_containment_runs_each_distinct_sum_once(monkeypatch):
    # 54 of the 197 generators are fitted, the rest derived from the coset
    # relations; the fits ask for 379 sums, 234 distinct (a mod c, c) over 52
    # distinct c, and the context's memo runs the kernel once for each
    calls = {"h_interpolate": 0, "sum_S": 0, "_accumulate": 0, "_twisted_pieces": 0}
    for name in calls:
        def counted(*args, name=name, original=getattr(dk, name)):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(dk, name, counted)
    report = containment_m(context_for(("chi5", "chi5"), 4))
    assert calls == {"h_interpolate": 54, "sum_S": 379, "_accumulate": 234, "_twisted_pieces": 52}
    assert report.generator_count == 197
    assert report.m == 6
    text = "\n".join(f"{g} {','.join(map(str, h.coeffs))}" for g, h in report.polynomials)
    assert hashlib.sha256(text.encode()).hexdigest() == CHI5_K4_POLYNOMIALS


def test_containment_membership_failure_raises_certificate_error(monkeypatch):
    # the membership certificate is an explicit check, not an assert that -O strips
    monkeypatch.setattr(analysis, "poly_space_member", lambda *args: False)
    with pytest.raises(dk.CertificateError):
        containment_m(context_for(("chi3", "chi3"), 2))


# every table pair of level <= 25 at its least weight and at one more, both
# parities of k >= 3 among them
COCYCLE_CELLS = [
    (pair, k)
    for pairs, weights in (
        (analysis.TABLE1_PAIRS + analysis.TABLE2_PAIRS, (2, 4, 6)),
        (analysis.TABLE3_PAIRS, (3, 5, 7)),
    )
    for i, pair in enumerate(p for p in pairs if context_for(p, weights[0]).n <= 25)
    for k in (weights[0], weights[1 + i % 2])
]


@pytest.mark.parametrize(
    "pair,k", COCYCLE_CELLS, ids=[f"{p[0]},{p[1]},{k}" for p, k in COCYCLE_CELLS]
)
def test_cocycle_table_matches_direct_fits(pair, k):
    ctx = context_for(pair, k)
    table = analysis.gamma1_h_table(ctx)
    gens = gamma1_generators(ctx.n)
    assert len(table) == len(gens)
    for gen, h in zip(gens, table):
        assert h == dk.h_interpolate(ctx, gen), gen


# Corrupts the first fit, the cheapest generator: its h is also fixed by
# relations through later fits, so the relation certificate sees it.  (A fit
# on a free basis of the group is pinned by no relation; its own held-out
# node in h_interpolate is what checks it.)
CORRUPT_FIRST_FIT = """
from dedsums import dedekind as dk
from dedsums.modgroup import Poly

_fit, _target = dk.h_interpolate, []


def corrupted(ctx, gamma):
    h = _fit(ctx, gamma)
    if _target in ([], [gamma]):
        _target[:] = [gamma]
        h = Poly(h.weight, [h.coeffs[0] + 1] + h.coeffs[1:])
    return h
"""


def test_relation_certificate_catches_a_corrupted_fit(monkeypatch):
    scope = {}
    exec(CORRUPT_FIRST_FIT, scope)
    monkeypatch.setattr(dk, "h_interpolate", scope["corrupted"])
    with pytest.raises(dk.CertificateError):
        containment_m(context_for(("chi5", "chi5"), 4))


def test_relation_certificate_survives_optimize_flag():
    script = CORRUPT_FIRST_FIT + (
        "import sys\n"
        "from dedsums import analysis\n"
        "if __debug__:\n"
        "    sys.exit('not running under -O')\n"
        "dk.h_interpolate = corrupted\n"
        "try:\n"
        "    analysis.containment_m(analysis.context_for(('chi5', 'chi5'), 4))\n"
        "except dk.CertificateError:\n"
        "    sys.exit(0)\n"
        "sys.exit('the corrupted fit passed the relation certificate')\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(dk.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PYTHONOPTIMIZE", None)
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def test_containment_generating_set_independent():
    # [g0] + [g_i g_(i+1)] generates the same group; at k = 2 each h is a
    # constant and h_(g1 g2) = h_g1 + h_g2, so m cannot move
    ctx = context_for(("chi3", "chi3"), 2)
    gens = gamma1_generators(ctx.n)
    products = [gens[0]] + [g * h for g, h in zip(gens, gens[1:])]
    m_schreier = containment_m(ctx).m
    assert containment_m(ctx, generators=products).m == m_schreier


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
