import hashlib
import math
import os
import random
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
from dedsums.characters import parse_character
from dedsums.exactnum import CertificateError, rational_gcd_set
from dedsums.modgroup import (
    Poly,
    g_witness,
    gamma1_generators,
    iter_G_pairs,
    random_gamma0,
    random_gamma1,
)


def test_display_form():
    assert display_form(Fraction(2), 3) == "2"
    assert display_form(Fraction(3, 2), 4) == "6/4"
    assert display_form(Fraction(7, 2), 4) == "14/4"
    assert display_form(Fraction(6, 5), 5) == "6/5"
    assert display_form(Fraction(2, 3), 3) == "2/3"
    # r q1 not integral: r as it is
    assert display_form(Fraction(1, 6), 4) == "1/6"


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
    assert poly_space_member(p, Fraction(6), 5)
    big = Poly(4, [-5340, Fraction(4176, 5), Fraction(-816, 25)])
    assert poly_space_member(big, Fraction(6), 5)
    assert poly_space_member(Poly(4, [0] * 3), Fraction(17), 9)
    assert not poly_space_member(p, Fraction(25), 5)


def fraction_member(p: Poly, m: Fraction, q: int) -> bool:
    """Reference: q^(n+1) a_n / m in Fraction arithmetic."""
    if m == 0:
        return not any(p.coeffs)
    return all((a_n * q ** (n + 1) / m).denominator == 1 for n, a_n in enumerate(p.coeffs))


@settings(max_examples=200, deadline=None)
@given(
    coeffs=st.lists(st.fractions(max_denominator=200), min_size=3, max_size=3),
    m=st.one_of(st.just(Fraction(0)), st.fractions(max_denominator=50)),
    q=st.integers(1, 9),
)
def test_poly_space_member_matches_fraction_arithmetic(coeffs, m, q):
    p = Poly(4, coeffs)
    assert poly_space_member(p, m, q) == fraction_member(p, m, q)


def test_containment_chi5_pair():
    report = containment_m(context_for(("chi5", "chi5"), 4), pair=("chi5", "chi5"))
    assert report.m == 6
    assert report.bound == Fraction(6, 5)
    assert report.divides_2k_minus_2()
    for _, poly in report.polynomials:
        assert poly_space_member(poly, report.m, 5)


# sha256 of "<generator> <h coefficients>" lines over the 197 Schreier
# generators of Gamma_1(25), (chi5, chi5), k = 4, computed without the memo
CHI5_K4_POLYNOMIALS = "a2f7ffac0759571c512282a425c4af6c49e5bf85b60863736269b14d056f96dd"


def test_containment_runs_each_distinct_sum_once(monkeypatch):
    # psi is trivial for (chi5, chi5), so Gamma_psi is Gamma_0(25): its 17
    # Schreier generators are fitted and the 197 of Gamma_1(25) derived from
    # them.  The 12 fits with c != 0 all sit at |c| = 25: each takes S_1, S_2
    # and S_3 at its own (a, c) and asks sum_S for the two sums at its
    # certificate node.  The context's memo runs the kernel once per distinct
    # (a mod c, c, r), 36 times, over the 3 (c, degree) of c = 25.  The fits
    # reach the table as the integer vectors of _h_fit; the Poly view
    # h_interpolate is never built
    calls = {"h_interpolate": 0, "_h_fit": 0, "sum_S": 0, "_accumulate": 0, "_twisted_pieces": 0}
    for name in calls:
        def counted(*args, name=name, original=getattr(dk, name)):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(dk, name, counted)
    report = containment_m(context_for(("chi5", "chi5"), 4))
    assert calls == {
        "h_interpolate": 0, "_h_fit": 17, "sum_S": 24, "_accumulate": 36, "_twisted_pieces": 3
    }
    assert len(report.polynomials) == 197
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
    for gen, (nums, den) in zip(gens, table):
        assert den > 0 and math.gcd(den, *nums) == 1, gen
        assert Poly(k, [Fraction(x, den) for x in nums]) == dk.h_interpolate(ctx, gen), gen


def test_cocycle_table_takes_the_fits_as_integer_vectors(monkeypatch):
    # the table fits through _h_fit, so it is the same with no Poly view at all
    ctx = context_for(("chi5", "chi5"), 4)

    def no_poly_view(*args):
        raise AssertionError("the h-table built a Poly fit")

    monkeypatch.setattr(dk, "h_interpolate", no_poly_view)
    table = analysis.gamma1_h_table(ctx)
    monkeypatch.undo()
    gens = gamma1_generators(ctx.n)
    assert len(table) == len(gens) == 197
    for gen, (nums, den) in zip(gens, table):
        assert den > 0 and math.gcd(den, *nums) == 1, gen
        assert Poly(4, [Fraction(x, den) for x in nums]) == dk.h_interpolate(ctx, gen), gen


def test_h_table_builds_slash_matrices_only_for_the_psi_generators(monkeypatch):
    # psi is trivial, so Gamma_psi is Gamma_0(25) with 17 generators: two
    # matrices each (it and its inverse), reused by every relator walk and
    # tree step; the slash by Q_t^-1 of each of the 197 Gamma_1 generators
    # is one slash_vector, not a matrix (that would make 231 builds)
    built = []
    monkeypatch.setattr(
        analysis, "slash_matrix", lambda g, k, f=analysis.slash_matrix: built.append(g) or f(g, k)
    )
    table = analysis.gamma1_h_table(context_for(("chi5", "chi5"), 4))
    assert len(table) == 197
    assert len(built) == 34


# Corrupts the first fit, that of the first Schreier generator of Gamma_psi:
# every generator takes part in the relator walks, so the relator certificate
# sees it.  +den on nums[0] is +1 on the top coefficient.
CORRUPT_FIRST_FIT = """
from dedsums import dedekind as dk

_fit, _target = dk._h_fit, []


def corrupted(ctx, gamma):
    nums, den = _fit(ctx, gamma)
    if _target in ([], [gamma]):
        _target[:] = [gamma]
        nums = [nums[0] + den] + nums[1:]
    return nums, den
"""


def test_relation_certificate_catches_a_corrupted_fit(monkeypatch):
    scope = {}
    exec(CORRUPT_FIRST_FIT, scope)
    monkeypatch.setattr(dk, "_h_fit", scope["corrupted"])
    with pytest.raises(dk.CertificateError):
        containment_m(context_for(("chi5", "chi5"), 4))


def test_relation_certificate_survives_optimize_flag():
    script = CORRUPT_FIRST_FIT + (
        "import sys\n"
        "from dedsums import analysis\n"
        "if __debug__:\n"
        "    sys.exit('not running under -O')\n"
        "dk._h_fit = corrupted\n"
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


@pytest.mark.parametrize("pair,k", [(("chi5", "chi5"), 4), (("chi3", "chi5"), 3)])
def test_relator_certificate_catches_each_corrupted_fit(monkeypatch, pair, k):
    # psi is trivial at (chi5, chi5), k = 4, and -I is outside Gamma_psi at
    # (chi3, chi5), k = 3; +1 on the top coefficient of any one Gamma_psi fit
    # breaks a relator walk
    ctx = context_for(pair, k)
    fit = dk._h_fit
    fits = []
    monkeypatch.setattr(dk, "_h_fit", lambda ctx, gamma: fits.append(gamma) or fit(ctx, gamma))
    analysis.gamma1_h_table(ctx)
    assert len(fits) == 17
    for target in fits:

        def corrupted(ctx, gamma, target=target):
            nums, den = fit(ctx, gamma)
            return ([nums[0] + den] + nums[1:], den) if gamma == target else (nums, den)

        monkeypatch.setattr(dk, "_h_fit", corrupted)
        with pytest.raises(dk.CertificateError):
            analysis.gamma1_h_table(ctx)


def test_h_table_rejects_a_pair_that_is_not_quadratic():
    ctx = dk.SumContext(parse_character("5:1"), parse_character("5:1"), 4)
    with pytest.raises(ValueError, match="quadratic"):
        analysis.gamma1_h_table(ctx)
    with pytest.raises(ValueError, match="quadratic"):
        containment_m(ctx)


def test_containment_generating_set_independent():
    # [g0] + [g_i g_(i+1)] generates the same group; at k = 2 each h is a
    # constant and h_(g1 g2) = h_g1 + h_g2, so m cannot move.  containment_m
    # runs over the Schreier set only, so m over the products is taken here.
    ctx = context_for(("chi3", "chi3"), 2)
    gens = gamma1_generators(ctx.n)
    products = [gens[0]] + [g * h for g, h in zip(gens, gens[1:])]
    m_products = rational_gcd_set(
        a_n * ctx.q1 ** (n + 1)
        for g in products
        for n, a_n in enumerate(dk.h_interpolate(ctx, g).coeffs)
    )
    assert containment_m(ctx).m == m_products
    with pytest.raises(ValueError):
        containment_m(ctx, generators=products)


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
        assert poly_space_member(p, m, q1)
        g = random_gamma0(rng, n, 5)
        assert poly_space_member(p.slash(g), m, q1)


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
    # |S| = |s|/den at every (a, c) of G_10(9)
    for k in (2, 4, 6):
        ctx = context_for(("chi3", "chi3"), k)
        for c in range(9, 90, 9):
            sums, den = dk.sweep_sums(ctx, c, [a for a in range(1, 90, 9) if math.gcd(a, c) == 1])
            for s in sums:
                assert float(Fraction(abs(s), den)) <= trivial_bound(ctx, c)


def test_bound_statistics():
    ctx = context_for(("chi3", "chi3"), 2)
    report = analysis.bound_statistics(ctx, 180, (Fraction(1, 100), 1, 100))
    assert report.count == 852  # sum of phi(9t) over t <= 20
    assert report.trivial_bound_ok
    assert report.delta_ok
    assert report.max_ratio > 0
    counts = report.exceptional
    assert counts[0] >= counts[1] >= counts[2]


def fraction_quotient_max(x: Fraction) -> int:
    """M(x) = max of a1..an from floors and reciprocals of the Fraction x."""
    quots = [math.floor(x)]
    while x != quots[-1]:
        x = 1 / (x - quots[-1])
        quots.append(math.floor(x))
    return max(quots[1:], default=1)


def log_cubed(c, digits=100):
    """ln^3 c from Decimal's ln at ``digits`` digits, as a Fraction."""
    with localcontext() as dctx:
        dctx.prec = digits
        return Fraction(Decimal(c).ln()) ** 3


def row_bound_statistics(ctx, c_max, alphas):
    """Reference for bound_statistics: one (|S|, ratio, delta_ok) row per
    swept matrix, d from the canonical witness, and L(alpha, C) counted over
    the rows after the sweep, against ln C rounded at 100 digits."""
    rows = []
    trivial_ok = True
    for c in range(ctx.n, c_max + 1, ctx.n):
        units = [a for a in range(1, c) if math.gcd(a, c) == 1]
        sums, den = dk.sweep_sums(ctx, c, units)
        bound = Fraction(trivial_bound(ctx, c))
        c_prime = c // ctx.q2
        log_sq = math.log(c_prime) ** 2
        for a, s in zip(units, sums):
            s_abs = Fraction(abs(s), den)
            trivial_ok = trivial_ok and s_abs <= bound
            m_a = fraction_quotient_max(Fraction(a, c_prime))
            m_d = fraction_quotient_max(Fraction(g_witness(a, c, 1).d % c_prime, c_prime))
            rows.append((s_abs, float(s_abs) / (m_a * log_sq), abs(m_a - m_d) <= 1))
    threshold = log_cubed(c_max)
    return (
        len(rows),
        max([0.0] + [ratio for _, ratio, _ in rows]),
        trivial_ok,
        all(ok for _, _, ok in rows),
        [sum(1 for s_abs, _, _ in rows if s_abs > Fraction(alpha) * threshold) for alpha in alphas],
    )


TABLE_CELLS = [
    (pair, k)
    for pairs, weights in (
        (analysis.TABLE1_PAIRS + analysis.TABLE2_PAIRS, analysis.EVEN_WEIGHTS),
        (analysis.TABLE3_PAIRS, analysis.ODD_WEIGHTS),
    )
    for pair in pairs
    for k in weights
]


BOUND_CELLS = [(pair, k) for pair, k in TABLE_CELLS if k <= 8]


@settings(max_examples=50, deadline=None)
@given(
    cell=st.sampled_from(BOUND_CELLS),
    data=st.data(),
    alphas=st.lists(
        st.one_of(st.just(Fraction(0)), st.fractions(-2, 4, max_denominator=1000)), max_size=4
    ),
)
def test_bound_statistics_matches_row_sweep(cell, data, alphas):
    # the folded statistics against the per-matrix rows they replaced
    ctx = context_for(*cell)
    c_max = data.draw(st.integers(ctx.n, 8 * ctx.n))
    report = analysis.bound_statistics(ctx, c_max, alphas)
    folded = (
        report.count,
        report.max_ratio,
        report.trivial_bound_ok,
        report.delta_ok,
        report.exceptional,
    )
    assert folded == row_bound_statistics(ctx, c_max, alphas)


def test_exceptional_count_uses_the_exact_logarithm():
    # math.log(180) is 4.2e-17 above ln 180, so at this alpha the rounded
    # threshold alpha * fl(ln 180)^3 is exactly 40/3, while the exact
    # alpha ln^3 180 lies below the four swept entries with |S| = 40/3
    ctx = context_for(("chi3", "chi3"), 2)
    alpha = Fraction(40, 3) / Fraction(math.log(180)) ** 3
    assert alpha * log_cubed(180) < Fraction(40, 3)
    # here ln 180 at 60 digits puts the threshold inside the first 40-digit
    # bracket, so the entries at 40/3 are decided by a narrower one
    close = Fraction(40, 3) / log_cubed(180, 60)
    report = analysis.bound_statistics(ctx, 180, [alpha, close, 0, -1])
    rows = row_bound_statistics(ctx, 180, [alpha, close, 0, -1])
    assert report.exceptional[0] == 4
    assert report.exceptional == rows[4]
    assert report.exceptional[3] == report.count  # every |S| >= 0 > -ln^3 C


def test_exceptional_count_past_the_precision_cap_raises(monkeypatch):
    ctx = context_for(("chi3", "chi3"), 2)
    monkeypatch.setattr(analysis, "_LOG_DIGITS_MAX", 80)
    with pytest.raises(CertificateError):
        analysis.bound_statistics(ctx, 180, [Fraction(40, 3) / log_cubed(180, 200)])


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


@settings(max_examples=40, deadline=None)
@given(cell=st.sampled_from(TABLE_CELLS), j=st.integers(1, 15))
def test_image_scale_matches_gcd_over_every_value(cell, j):
    # one gcd per c over the integer sums against the rational gcd of every
    # S-tilde value of G_j, one Fraction per pair
    ctx = context_for(*cell)
    pairs = list(iter_G_pairs(ctx.n, j))
    if not pairs:  # G_1 is empty, and so is its gcd
        with pytest.raises(ValueError):
            image_scale(ctx, j)
        return
    got = image_scale(ctx, j)
    assert got.count == len(pairs)
    values = []
    for c in range(ctx.n, j * ctx.n, ctx.n):
        sums, den = dk.sweep_sums(ctx, c, [a for a, c_a in pairs if c_a == c])
        values += [Fraction(s * c ** (ctx.k - 2), den) for s in sums]
    assert len(values) == len(pairs)
    assert got.r == rational_gcd_set(values)


def test_gcd_reduction_order_invariant():
    # data-parallel sweeps may reduce in any order
    import random
    from dedsums.exactnum import rational_gcd_set

    ctx = context_for(("chi3", "chi4"), 4)
    values = []
    for c in range(12, 72, 12):
        sums, den = dk.sweep_sums(ctx, c, [a for a in range(1, 72, 12) if math.gcd(a, c) == 1])
        values += [Fraction(s * c**2, den) for s in sums]
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
    from dedsums.characters import characters_mod, is_primitive, parity

    tagged = {}
    for tag, q in (("chi3", 3), ("chi4", 4), ("chi5", 5), ("chi7", 7)):
        tagged[tag] = q
    tagged["chi8a"] = tagged["chi8b"] = 8
    # only moduli up to 32/3 can appear in a pair, and the named tags must
    # exhaust the quadratic primitive characters there
    for q in range(3, 11):
        tags = [t for t, qq in tagged.items() if qq == q]
        found = [c for c in characters_mod(q) if c.order == 2 and is_primitive(c)]
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
