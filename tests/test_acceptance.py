"""Acceptance gate: every headline claim of the artifact at its stated
tolerance, one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
The full-scale containment scan over every table cell is release-tier
(DEDSUMS_RELEASE=1); the default tier covers the reference (chi5, chi5)
case plus all levels up to 25 and spot checks beyond.
"""

import random
import time
from fractions import Fraction

import pytest

from dedsums import analysis, dedekind as dk, fricke as fr, oracle as oc, verify
from dedsums.characters import characters_mod, gauss_sum, is_primitive, named_character, parity
from dedsums.exactnum import lcm, rational_gcd_set
from dedsums.modgroup import Mat2, Poly

SEED = 20250808

# The reference divisibility tables (display forms) the suite reproduces.
REFERENCE_TABLES = {
    ("chi3", "chi3"): {2: "2", 4: "2", 6: "10/3", 8: "14"},
    ("chi3", "chi4"): {2: "2", 4: "2/3", 6: "10", 8: "14/3"},
    ("chi4", "chi3"): {2: "2", 4: "6/4", 6: "10/4", 8: "14/4"},
    ("chi4", "chi4"): {2: "2", 4: "6", 6: "10", 8: "14"},
    ("chi3", "chi7"): {2: "2", 4: "2/3", 6: "10", 8: "14/3"},
    ("chi7", "chi3"): {2: "2", 4: "6/7", 6: "10/7", 8: "2"},
    ("chi3", "chi8b"): {2: "2", 4: "2/3", 6: "10/3", 8: "14/3"},
    ("chi8b", "chi3"): {2: "2", 4: "3", 6: "5", 8: "7"},
    ("chi5", "chi5"): {2: "2", 4: "6/5", 6: "10", 8: "14/5"},
    ("chi4", "chi7"): {2: "2", 4: "6/4", 6: "10/4", 8: "14/4"},
    ("chi7", "chi4"): {2: "2", 4: "6/7", 6: "10/7", 8: "2"},
    ("chi4", "chi8b"): {2: "2", 4: "6", 6: "10", 8: "14"},
    ("chi8b", "chi4"): {2: "2", 4: "6", 6: "10", 8: "14"},
    ("chi3", "chi5"): {3: "4", 5: "8/3", 7: "4", 9: "16"},
    ("chi5", "chi3"): {3: "4/5", 5: "8/5", 7: "12/5", 9: "16/5"},
    ("chi4", "chi5"): {3: "4", 5: "4", 7: "6", 9: "8"},
    ("chi5", "chi4"): {3: "4/5", 5: "8/5", 7: "12/5", 9: "16/5"},
    ("chi3", "chi8a"): {3: "4", 5: "8/3", 7: "4/3", 9: "16"},
    ("chi8a", "chi3"): {3: "2", 5: "4", 7: "6", 9: "8"},
    ("chi4", "chi8a"): {3: "4", 5: "8", 7: "12", 9: "16"},
    ("chi8a", "chi4"): {3: "4", 5: "8", 7: "12", 9: "16"},
}

# (chi3, chi5) at k = 7: the published entry reads 4, but the computed sweep
# contains S~(1, 15) = -17000/3, confirmed by an independent exact double loop
# and by the analytic oracle to 1e-16; the gcd is therefore 4/3.  The sibling
# column (chi3, chi8a), identical at k = 3, 5, 9, prints 4/3 there.
ERRATUM_CELL = (("chi3", "chi5"), 7)
ERRATUM_COMPUTED = "4/3"

REFERENCE_H_POLYNOMIALS = [
    (Mat2(1, 1, 0, 1), Poly(4, [0, 0, 0])),
    (Mat2(-24, 1, -25, 1), Poly(4, [Fraction(24, 5), 0, 0])),
    (Mat2(51, -4, 625, -49), Poly(4, [-5340, Fraction(4176, 5), Fraction(-816, 25)])),
    (Mat2(26, 1, 25, 1), Poly(4, [Fraction(-24, 5), 0, 0])),
    (Mat2(51, 104, 25, 51), Poly(4, [Fraction(-24, 5), Fraction(-96, 5), Fraction(-96, 5)])),
    (
        Mat2(26, 1, 25, 1) * Mat2(51, 104, 25, 51),
        Poly(4, [Fraction(-62448, 5), Fraction(-254688, 5), -51936]),
    ),
    (
        Mat2(51, 104, 25, 51) * Mat2(26, 1, 25, 1),
        Poly(4, [Fraction(-138648, 5), Fraction(-10944, 5), Fraction(-216, 5)]),
    ),
]


def report(criterion: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def tables_j50():
    return analysis.divisibility_tables(50)


@pytest.fixture(scope="module")
def tables_j10():
    return analysis.divisibility_tables(10)


def _cells(tables):
    out = {}
    for t in tables:
        for (pair, k), cell in t.cells.items():
            out[(pair, k)] = cell
    return out


@pytest.mark.xfail(
    strict=True,
    reason="(chi3,chi5) k=7: computed r = 4/3 (witness S~(1,15) = -17000/3, double-checked "
    "against an independent exact evaluation and the analytic oracle); the reference table "
    "prints 4.  Faithful as-stated comparison kept here; see the erratum-aware check below.",
)
def test_c1_tables_j50_as_published(tables_j50):
    cells = _cells(tables_j50)
    for key, per_k in REFERENCE_TABLES.items():
        for k, want in per_k.items():
            assert cells[(key, k)].display == want, (key, k, cells[(key, k)].display, want)


def test_c1_tables_j50_exact_modulo_erratum(tables_j50):
    cells = _cells(tables_j50)
    mismatches = []
    for key, per_k in REFERENCE_TABLES.items():
        for k, want in per_k.items():
            got = cells[(key, k)].display
            if (key, k) == ERRATUM_CELL:
                if got != ERRATUM_COMPUTED:
                    mismatches.append((key, k, got, ERRATUM_COMPUTED))
            elif got != want:
                mismatches.append((key, k, got, want))
    slow = [(key, c.seconds) for key, c in cells.items() if c.seconds > 60]
    assert not slow, f"cells beyond the 60s single-core contract: {slow}"
    report(
        "criterion-1 (tables, j=50)",
        not mismatches,
        "83/84 cells match the reference tables exactly; (chi3,chi5) k=7 computes to 4/3 "
        "(independently verified; printed 4 is inconsistent with its own sweep)"
        if not mismatches
        else f"mismatches: {mismatches}",
    )


def test_c1_ci_tier_j10_divisibility(tables_j50, tables_j10):
    # the j=10 gcd can only coarsen: r10 must be an integer multiple of r50
    cells50, cells10 = _cells(tables_j50), _cells(tables_j10)
    bad = [
        key
        for key in cells50
        if (cells10[key].r / cells50[key].r).denominator != 1
    ]
    report(
        "criterion-1 (CI tier, j=10)",
        not bad,
        f"{len(cells50)} cells consistent in the divisibility order" if not bad else f"bad: {bad}",
    )


def test_c2_h_polynomials():
    ctx = dk.SumContext(named_character("chi5"), named_character("chi5"), 4)
    start = time.time()
    bad = []
    for gamma, want in REFERENCE_H_POLYNOMIALS:
        got = dk.h_interpolate(ctx, gamma)
        if got != want:
            bad.append((gamma, str(got), str(want)))
    report(
        "criterion-2 (h polynomials)",
        not bad,
        f"7/7 reference polynomials reproduced exactly in {time.time() - start:.1f}s"
        if not bad
        else f"bad: {bad}",
    )


@pytest.fixture(scope="module")
def containment_reports(tables_j50):
    """Containment m for the default-tier cells: every level N <= 25, plus
    k = 2 for the larger levels."""
    reports = {}
    for (pair, k) in _cells(tables_j50):
        ctx = analysis.context_for(pair, k)
        if ctx.n > 25 and k > 2:
            continue
        reports[(pair, k)] = analysis.containment_m(ctx, pair=pair)
    return reports


def test_c3_containment_chi5_pair(containment_reports):
    rep = containment_reports[(("chi5", "chi5"), 4)]
    ok = rep.m == 6 and rep.bound == Fraction(6, 5)
    report(
        "criterion-3 (containment, chi5 pair)",
        ok,
        f"m = {rep.m}, image inside ({rep.bound})Z from {len(rep.polynomials)} generators",
    )


def test_c3_table_r_inside_containment_bound(tables_j50, containment_reports):
    cells = _cells(tables_j50)
    bad = []
    for key, rep in containment_reports.items():
        r = cells[key].r
        if (r / rep.bound).denominator != 1:
            bad.append((key, r, rep.bound))
    report(
        "criterion-3 (r inside (m/q1)Z)",
        not bad,
        f"{len(containment_reports)} cells checked (all levels <= 25; k = 2 beyond)"
        if not bad
        else f"bad: {bad}",
    )


def rational_gcd_m(pair: tuple[str, str], rep: analysis.ContainmentReport) -> Fraction:
    """Reference m: rational_gcd_set over Fraction(a_n) q1^(n+1), read from
    the report's polynomials."""
    q1 = named_character(pair[0]).modulus
    return rational_gcd_set(
        [Fraction(a_n) * q1 ** (n + 1) for _, h in rep.polynomials for n, a_n in enumerate(h.coeffs)]
    )


def test_c3_integer_m_matches_rational_gcd(containment_reports):
    bad = [
        (key, rep.m) for key, rep in containment_reports.items() if rep.m != rational_gcd_m(key[0], rep)
    ]
    report(
        "criterion-3 (integer m)",
        not bad,
        f"{len(containment_reports)} cells: m equals the rational gcd" if not bad else f"bad: {bad}",
    )


@pytest.fixture(scope="module")
def every_containment_report(tables_j50):
    return {
        (pair, k): analysis.containment_m(analysis.context_for(pair, k), pair=pair)
        for (pair, k) in _cells(tables_j50)
    }


@pytest.mark.release
def test_c3_containment_every_cell(tables_j50, every_containment_report):
    cells = _cells(tables_j50)
    bad = []
    for (pair, k), rep in every_containment_report.items():
        if (cells[(pair, k)].r / rep.bound).denominator != 1:
            bad.append((pair, k, cells[(pair, k)].r, rep.bound))
    report(
        "criterion-3 (release: all 84 cells)",
        not bad,
        "every table r lies inside the containment bound" if not bad else f"bad: {bad}",
    )


@pytest.mark.release
def test_c3_integer_m_matches_rational_gcd_every_cell(every_containment_report):
    bad = [
        (key, rep.m)
        for key, rep in every_containment_report.items()
        if rep.m != rational_gcd_m(key[0], rep)
    ]
    report(
        "criterion-3 (release: integer m, all 84 cells)",
        not bad,
        "m equals the rational gcd on every cell" if not bad else f"bad: {bad}",
    )


def test_c4_oracle_equivalence():
    ok, detail = verify.suite_oracle(SEED, 1e-8)
    report("criterion-4 (oracle equivalence)", ok, detail)


def test_c5_exact_property_suites():
    start = time.time()
    ok1, d1 = verify.suite_crossed_hom(SEED, 0)
    ok2, d2 = verify.suite_periodicity(SEED, 0)
    ok3, d3 = verify.suite_poly_space(SEED, 0)
    # Gauss-sum identity for every primitive character with q <= 32
    gauss_ok = True
    for q in range(3, 33):
        for chi in characters_mod(q):
            if chi.is_trivial() or not is_primitive(chi):
                continue
            tau, tau_bar = gauss_sum(chi), gauss_sum(chi.conjugate())
            m = lcm(tau.order, tau_bar.order)
            if tau.embed(m) * tau_bar.embed(m) != parity(chi) * q:
                gauss_ok = False
    # worpitzky double sum against the polynomial evaluation, 500 samples
    from dedsums.bernoulli import periodic_bernoulli
    from test_bernoulli import worpitzky_eval

    rng = random.Random(SEED)
    worp_ok = True
    checked = 0
    while checked < 500:
        k = rng.randint(1, 8)
        x = Fraction(rng.randint(-60, 60), rng.randint(1, 37))
        if x.denominator == 1:
            continue
        checked += 1
        if worpitzky_eval(k, x) != periodic_bernoulli(k, x):
            worp_ok = False
    ok = ok1 and ok2 and ok3 and gauss_ok and worp_ok
    report(
        "criterion-5 (exact property suites)",
        ok,
        f"crossed-hom [{d1}]; periodicity [{d2}]; poly-space [{d3}]; "
        f"gauss-sum identity q<=32 [{gauss_ok}]; worpitzky 500 samples [{worp_ok}] "
        f"in {time.time() - start:.0f}s",
    )


def test_c6_fricke_weight2():
    ok, detail = verify.suite_fricke_k2(SEED, 0)
    report("criterion-6 (Fricke k=2)", ok, detail)


def test_c7_reciprocity_and_extended_domain():
    ok, detail = verify.suite_reciprocity_numeric(SEED, 1e-6)
    report("criterion-7 (general reciprocity + S-hat(0))", ok, detail)


def test_c8_bounds():
    start = time.time()
    ctx = analysis.context_for(("chi3", "chi3"), 2)
    rep = analysis.bound_statistics(ctx, 500, (Fraction(1, 100), 1, 100))
    counts = rep.exceptional
    mono = counts[0] >= counts[1] >= counts[2]
    ok, detail = verify.suite_bounds(SEED, 0)
    all_ok = rep.trivial_bound_ok and rep.delta_ok and mono and ok
    report(
        "criterion-8 (bounds, C=500)",
        all_ok,
        f"{rep.count} matrices; trivial bound exact-OK; |delta|<=1 everywhere; "
        f"L(alpha) monotone {counts}; max ratio {rep.max_ratio:.3f}; suite [{detail}] "
        f"in {time.time() - start:.0f}s",
    )
