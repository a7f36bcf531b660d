"""Command-line front end: sums, tables, h-polynomials, generators,
containment, bound sweeps, verification suites, and plot-data emission.

Structured output (CSV/JSON) goes to stdout; progress chatter stays on
stderr so piped output is clean.  Exit codes: 0 success, 1 failed checks,
2 usage errors, 3 parity violations, 4 domain errors (an oracle series that
cannot reach its tolerance is one).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import sys
import time
from fractions import Fraction

from . import analysis, dedekind as dk, fricke as fr, oracle as oc
from .characters import UnknownCharacterError, parse_character
from .dedekind import ParityError, SumContext
from .exactnum import rational_to_str
from .modgroup import (
    Cusp,
    Mat2,
    MatrixFormatError,
    Poly,
    gamma1_generators,
    iter_G_pairs,
    random_gamma0,
    random_gamma1,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_PARITY = 3
EXIT_DOMAIN = 4


class OptionError(ValueError):
    """A numeric option outside its domain; a usage error."""


def _progress(msg: str):
    print(msg, file=sys.stderr, flush=True)


def _check_options(args):
    """Reject a non-finite or non-positive --tol and a non-finite --alpha before any work."""
    tol = getattr(args, "tol", None)
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        raise OptionError(f"--tol must be a positive finite number, got {tol}")
    for alpha in getattr(args, "alpha", None) or ():
        if not math.isfinite(alpha):
            raise OptionError(f"--alpha must be finite, got {alpha}")


def _series_tol(tol: float) -> float:
    """The oracle's series target for a pass threshold ``tol``: a tenth of it,
    and never looser than 1e-9, so a loose --tol cannot pass by truncation."""
    return min(tol, 1e-8) / 10


def _context(pair_spec: str, k: int) -> SumContext:
    tags = [t.strip() for t in pair_spec.split(",")]
    if len(tags) != 2:
        raise UnknownCharacterError(f"pair must be 'tag1,tag2', got {pair_spec!r}")
    return SumContext(parse_character(tags[0]), parse_character(tags[1]), k)


def _value_str(v) -> str:
    if v.is_rational():
        return rational_to_str(v.rational_value())
    return json.dumps(v.to_json())


# -- individual commands -----------------------------------------------------


def cmd_sum(args) -> int:
    ctx = _context(args.pair, args.k)
    value = dk.sum_S(ctx, args.a, args.c)
    print(f"S = {_value_str(value)}")
    if args.tilde:
        print(f"S~ = {_value_str(value * Fraction(args.c) ** (ctx.k - 2))}")
    if args.oracle:
        policy = oc.TruncationPolicy(tol=_series_tol(args.tol))
        numeric = oc.shat_numeric(oc.numeric_context(ctx), Cusp(args.a % args.c, args.c), policy)
        residual = abs(value.to_complex() - numeric)
        print(f"oracle residual = {residual:.3e}")
        if residual >= args.tol:
            return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_table(args) -> int:
    jobs = args.jobs or int(os.environ.get("DEDSUMS_JOBS", "1"))
    t0 = time.perf_counter()
    tables = analysis.divisibility_tables(
        args.j,
        jobs=jobs,
        progress=lambda i, total, spec: _progress(f"[{i}/{total}] {spec[0]} k={spec[1]}"),
    )
    _progress(f"table sweep finished in {time.perf_counter() - t0:.1f}s")
    if args.format == "json":
        payload = [
            {
                "pairs": [list(p) for p in t.pairs],
                "weights": list(t.weights),
                "cells": [
                    {
                        "pair": list(pair),
                        "k": k,
                        "r": rational_to_str(cell.r),
                        "display": cell.display,
                        "count": cell.count,
                        "seconds": round(cell.seconds, 3) if args.timings else None,
                    }
                    for (pair, k), cell in sorted(t.cells.items(), key=lambda kv: (kv[0][1], kv[0][0]))
                ],
            }
            for t in tables
        ]
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["chi1", "chi2", "k", "j", "r", "display", "count", "seconds"])
        for t in tables:
            for k in t.weights:
                for pair in t.pairs:
                    cell = t.cells[(pair, k)]
                    secs = f"{cell.seconds:.3f}" if args.timings else ""
                    writer.writerow(
                        [pair[0], pair[1], k, args.j, rational_to_str(cell.r), cell.display, cell.count, secs]
                    )
    else:
        for idx, t in enumerate(tables, 1):
            print(f"table {idx} (k in {t.weights}):")
            header = ["k\\pair"] + [f"({p[0]},{p[1]})" for p in t.pairs]
            rows = [[str(k)] + row for k, row in zip(t.weights, t.display_rows())]
            widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
            for row in [header] + rows:
                print("  " + "  ".join(s.rjust(w) for s, w in zip(row, widths)))
            print()
    return EXIT_OK


def cmd_hpoly(args) -> int:
    ctx = _context(args.pair, args.k)
    gamma = Mat2.from_str(args.matrix)
    poly = dk.h_interpolate(ctx, gamma)
    print(f"h_gamma(x) = {poly}")
    return EXIT_OK


def cmd_gens(args) -> int:
    gens = gamma1_generators(args.n)
    print(f"# {len(gens)} Schreier generators of Gamma_1({args.n})")
    for g in gens:
        print(g)
    return EXIT_OK


def cmd_contain(args) -> int:
    ctx = _context(args.pair, args.k)
    report = analysis.containment_m(
        ctx,
        pair=tuple(args.pair.split(",")),
        progress=lambda i, total: _progress(f"[{i}/{total}] generators done") if i % 25 == 0 else None,
    )
    print(f"generators: {report.generator_count}")
    print(f"m = {rational_to_str(report.m)}")
    print(f"image of S~ on Gamma_1({ctx.n}) is contained in ({rational_to_str(report.bound)})*Z")
    print(
        f"conjectured d = {rational_to_str(report.conjectured_d())} "
        f"divides 2k-2 = {2 * ctx.k - 2}: {report.divides_2k_minus_2()}"
    )
    if args.polys:
        for g, p in report.polynomials:
            print(f"{g}  ->  {p}")
    return EXIT_OK


def cmd_bounds(args) -> int:
    ctx = _context(args.pair, args.k)
    report = analysis.bound_statistics(ctx, args.cmax)
    delta_ok = all(r.delta_ok for r in report.rows)
    print(f"matrices swept: {len(report.rows)}")
    print(f"trivial bound respected: {report.trivial_bound_ok}")
    print(f"max |S| / (M(a/c') log^2 c'): {report.max_ratio:.6f}")
    print(f"partial-quotient |delta| <= 1 everywhere: {delta_ok}")
    for alpha in args.alpha:
        print(f"L({alpha}, {args.cmax}) = {report.exceptional_count(Fraction(alpha).limit_denominator(10**6))}")
    return EXIT_OK if (report.trivial_bound_ok and delta_ok) else EXIT_CHECK_FAILED


def cmd_plotdata(args) -> int:
    ctx = _context(args.pair, args.k)
    writer = csv.writer(sys.stdout)
    writer.writerow(["a_num", "a_den", "cusp", "value", "value_float"])
    for a, c in iter_G_pairs(ctx.n, args.j):
        v = dk.sum_S(ctx, a, c)
        writer.writerow([a, c, f"{a / c:.10f}", _value_str(v), f"{v.to_complex().real:.12g}"])
    return EXIT_OK


# -- verification suites -----------------------------------------------------


def suite_crossed_hom(seed: int, tol: float) -> tuple[bool, str]:
    """Weight-2 crossed homomorphism on Gamma_0 and the h polynomial cocycle."""
    rng = random.Random(seed)
    for n in (9, 12, 21):
        pair = {9: ("chi3", "chi3"), 12: ("chi3", "chi4"), 21: ("chi3", "chi7")}[n]
        ctx = _context(",".join(pair), 2)
        for _ in range(67):
            g1, g2 = random_gamma0(rng, n, 4), random_gamma0(rng, n, 4)
            lhs = dk.sum_S_matrix(ctx, g1 * g2)
            rhs = dk.sum_S_matrix(ctx, g1) + ctx.psi(g1) * dk.sum_S_matrix(ctx, g2)
            if not (lhs - rhs).is_zero():
                return False, f"weight-2 cocycle failed at N={n}, {g1}, {g2}"
    ctx = _context("chi5,chi5", 4)
    worked = [
        (Mat2(26, 1, 25, 1), Mat2(51, 104, 25, 51)),
        (Mat2(51, 104, 25, 51), Mat2(26, 1, 25, 1)),
    ]
    pairs = worked + [
        (random_gamma1(rng, 25, 3), random_gamma1(rng, 25, 3)) for _ in range(48)
    ]
    for g1, g2 in pairs:
        h12 = dk.h_interpolate(ctx, g1 * g2)
        combo = dk.h_interpolate(ctx, g1).slash(g2) + dk.h_interpolate(ctx, g2)
        if h12 != combo:
            return False, f"h cocycle failed at {g1}, {g2}"
    return True, f"{3 * 67} weight-2 pairs and {len(pairs)} h-polynomial pairs, all exact"


def suite_periodicity(seed: int, tol: float) -> tuple[bool, str]:
    """1-periodicity of S-hat, a mod c invariance, Gamma_infinity invariance."""
    from .modgroup import iter_gamma1_cusp_pairs

    rng = random.Random(seed)
    ctx = _context("chi5,chi5", 4)
    count = 0
    for a, c in iter_gamma1_cusp_pairs(25):
        if count >= 100:
            break
        count += 1
        cusp = Cusp(a, c)
        shift = rng.randint(-3, 3)
        lhs = dk.shat(ctx, Cusp(a + shift * c, c))
        if not (lhs - dk.shat(ctx, cusp)).is_zero():
            return False, f"S-hat not 1-periodic at {cusp}"
        if not (dk.sum_S(ctx, a + c, c) - dk.sum_S(ctx, a, c)).is_zero():
            return False, f"a mod c invariance failed at ({a},{c})"
    return True, f"{count} cusps, shifts exact"


def suite_oracle(seed: int, tol: float) -> tuple[bool, str]:
    """Exact finite sum vs the truncated period integral, 100 seeded draws."""
    rng = random.Random(seed)
    pool = [
        ("chi3", "chi3"), ("chi3", "chi4"), ("chi4", "chi3"), ("chi4", "chi4"),
        ("chi3", "chi7"), ("chi7", "chi3"), ("chi5", "chi5"),
        ("chi3", "chi5"), ("chi5", "chi3"), ("chi4", "chi5"), ("chi5", "chi4"),
    ]
    policy = oc.TruncationPolicy(tol=_series_tol(tol))
    from .characters import named_character, parity

    worst = 0.0
    for i in range(100):
        tag1, tag2 = pool[rng.randrange(len(pool))]
        pair_parity = parity(named_character(tag1)) * parity(named_character(tag2))
        ks = (2, 4, 6) if pair_parity == 1 else (3, 5)
        k = ks[rng.randrange(len(ks))]
        ctx = _context(f"{tag1},{tag2}", k)
        gamma = random_gamma0(rng, ctx.n, 3)
        while gamma.c == 0:
            gamma = random_gamma0(rng, ctx.n, 3)
        nctx = oc.numeric_context(ctx)
        a, c = (gamma.a, gamma.c) if gamma.c > 0 else (-gamma.a, -gamma.c)
        exact = dk.sum_S(ctx, a, c).to_complex()
        numeric = oc.shat_numeric(nctx, Cusp(a % c, c), policy)
        worst = max(worst, abs(exact - numeric))
        if abs(exact - numeric) >= 1e-8:
            return False, f"oracle disagreement {abs(exact - numeric):.2e} at {tag1},{tag2} k={k} {gamma}"
        if i % 25 == 0:
            # independence of the interior split point
            shifted = nctx.s_scale() * oc.phi_numeric(
                nctx, gamma, 1.0, -a / c, policy, z1=(2j - gamma.d) / gamma.c if gamma.c > 0 else (2j + gamma.d) / -gamma.c
            )
            if abs(numeric - shifted) >= 1e-8:
                return False, f"z1 dependence {abs(numeric - shifted):.2e} at {gamma}"
    return True, f"100 draws, worst residual {worst:.2e}"


def suite_fricke_k2(seed: int, tol: float) -> tuple[bool, str]:
    """Exact weight-2 Fricke reciprocity on 30+30 random Gamma_0 matrices."""
    rng = random.Random(seed)
    for pair, n in (("chi3,chi7", 21), ("chi3,chi4", 12)):
        ctx = _context(pair, 2)
        nontrivial = 0
        for _ in range(30):
            gamma = random_gamma0(rng, n, 5)
            report = fr.verify_reciprocity_k2(ctx, gamma)
            if not report.passed:
                return False, f"k=2 reciprocity failed at {pair}, {gamma}"
            if not ctx.psi_is_one(gamma):
                nontrivial += 1
        if pair == "chi3,chi7" and nontrivial == 0:
            return False, "no psi = -1 matrices drawn; constant term never exercised"
    return True, "60 matrices, both pairs, exactly zero residual"


def suite_reciprocity_numeric(seed: int, tol: float) -> tuple[bool, str]:
    """General-weight reciprocity identity and S-hat(0) cross-checks."""
    rng = random.Random(seed)
    checks = 0
    for pair, k, n in (("chi3,chi4", 2, 12), ("chi5,chi5", 4, 25)):
        ctx = _context(pair, k)
        for _ in range(10):
            gamma = random_gamma0(rng, n, 3)
            while gamma.c == 0:
                gamma = random_gamma0(rng, n, 3)
            cusp = Cusp(1, n * rng.randint(1, 3)) if rng.random() < 0.5 else Cusp(
                rng.choice([1, 2, -1]), [x for x in (3, 5, 7, 11) if math.gcd(x, n) == 1][rng.randrange(2)]
            )
            report = fr.verify_reciprocity_general(ctx, gamma, cusp, tol=tol)
            checks += 1
            if not report.passed:
                return False, f"numeric reciprocity residual {report.residual:.2e} at {pair} k={k} {gamma} {cusp}"
    from .analysis import TABLE1_PAIRS, TABLE2_PAIRS, TABLE3_PAIRS

    worst = 0.0
    for pairs, ks in ((TABLE1_PAIRS + TABLE2_PAIRS, (2, 4, 6)), (TABLE3_PAIRS, (3, 5))):
        for tags in pairs:
            for k in ks:
                ctx = _context(f"{tags[0]},{tags[1]}", k)
                exact = fr.shat_at_zero(ctx).to_complex()
                numeric = oc.shat_numeric(oc.numeric_context(ctx), Cusp(0, 1))
                worst = max(worst, abs(exact - numeric))
                if abs(exact - numeric) >= 1e-8:
                    return False, f"S-hat(0) mismatch at {tags} k={k}"
    return True, f"{checks} reciprocity samples; S-hat(0) worst residual {worst:.2e}"


def suite_poly_space(seed: int, tol: float) -> tuple[bool, str]:
    """Slash stability of the coefficient space and the evaluation-scaling bound."""
    rng = random.Random(seed)
    ctx = _context("chi5,chi5", 4)
    k, q1, n = ctx.k, ctx.q1, ctx.n
    m = Fraction(6)
    for _ in range(50):
        coeffs = [
            Fraction(m * rng.randint(-8, 8), q1 ** (i + 1)) for i in range(k - 1)
        ]
        p = Poly(k, coeffs)
        if not analysis.poly_space_member(p, k, m, q1):
            return False, f"{p} built in the space at m = {m} is not a member"
        g0 = random_gamma0(rng, n, 4)
        if not analysis.poly_space_member(p.slash(g0), k, m, q1):
            return False, f"slash stability failed at {g0}"
        g1 = random_gamma1(rng, n, 4)
        value = Fraction(g1.c) ** (k - 2) * p.eval(Fraction(g1.a, g1.c))
        if (value * q1 / m).denominator != 1:
            return False, f"evaluation scaling failed at {g1}"
    return True, "50 random polynomials, slash-stable and evaluation-bounded"


def suite_bounds(seed: int, tol: float) -> tuple[bool, str]:
    """Trivial magnitude bound and partial-quotient statistics."""
    for k in (2, 4, 6):
        ctx = _context("chi3,chi3", k)
        for a, c in iter_G_pairs(9, 10):
            s_val = abs(dk.sum_S(ctx, a, c).rational_value())
            if float(s_val) > analysis.trivial_bound(ctx, c):
                return False, f"trivial bound violated at k={k} ({a},{c})"
    ctx = _context("chi3,chi3", 2)
    report = analysis.bound_statistics(ctx, 180)
    if not report.trivial_bound_ok:
        return False, "trivial bound violated inside bound_statistics"
    if not all(r.delta_ok for r in report.rows):
        return False, "partial-quotient difference bound violated"
    counts = [report.exceptional_count(Fraction(a)) for a in (Fraction(1, 10), 1, 10)]
    if not (counts[0] >= counts[1] >= counts[2]):
        return False, f"L(alpha, C) not monotone: {counts}"
    return True, f"G_10(9) sweeps k<=6 and C=180 statistics, max ratio {report.max_ratio:.3f}"


SUITES = {
    "crossed-hom": suite_crossed_hom,
    "periodicity": suite_periodicity,
    "oracle": suite_oracle,
    "fricke-k2": suite_fricke_k2,
    "reciprocity-numeric": suite_reciprocity_numeric,
    "poly-space": suite_poly_space,
    "bounds": suite_bounds,
}


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    failed = 0
    for name in names:
        t0 = time.perf_counter()
        ok, detail = SUITES[name](args.seed, args.tol)
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name}: {detail}")
        _progress(f"{name} finished in {time.perf_counter() - t0:.1f}s")
        failed += not ok
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


# -- entry point -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dedsums",
        description="Generalized Dedekind sums for Dirichlet character pairs: "
        "exact values, divisibility tables, quantum-modular polynomials, "
        "and numeric cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sum", help="one exact sum S(a, c)")
    p.add_argument("--pair", required=True, help="chi3,chi7 or generic q:index,q:index")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--tilde", action="store_true", help="also print c^(k-2) S")
    p.add_argument("--oracle", action="store_true", help="append the numeric residual")
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=cmd_sum)

    p = sub.add_parser("table", help="the three divisibility tables over G_j")
    p.add_argument("--j", type=int, default=50)
    p.add_argument("--format", choices=("pretty", "csv", "json"), default="pretty")
    p.add_argument("--jobs", type=int, default=0, help="worker processes (env DEDSUMS_JOBS)")
    p.add_argument("--timings", action="store_true", help="include wall times (breaks byte-identical output)")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("hpoly", help="interpolate the polynomial h_gamma")
    p.add_argument("--pair", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--matrix", required=True, help='e.g. "[[51,104],[25,51]]"')
    p.set_defaults(func=cmd_hpoly)

    p = sub.add_parser("gens", help="Schreier generating set of Gamma_1(N)")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_gens)

    p = sub.add_parser("contain", help="containment scale m from a generating set")
    p.add_argument("--pair", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--polys", action="store_true", help="print every generator polynomial")
    p.set_defaults(func=cmd_contain)

    p = sub.add_parser("bounds", help="magnitude-bound sweep up to C")
    p.add_argument("--pair", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cmax", type=int, default=500)
    p.add_argument("--alpha", type=float, nargs="*", default=[1.0])
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="named verification suites")
    p.add_argument("--suite", choices=["all"] + list(SUITES), default="all")
    p.add_argument("--seed", type=int, default=20250808)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("plotdata", help="scatter data of S-hat over the cusp family")
    p.add_argument("--pair", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--j", type=int, default=15)
    p.set_defaults(func=cmd_plotdata)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_options(args)
        return args.func(args)
    except ParityError as exc:
        print(f"parity violation: {exc}", file=sys.stderr)
        return EXIT_PARITY
    except UnknownCharacterError as exc:
        print(f"unknown character: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MatrixFormatError as exc:
        print(f"bad matrix: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OptionError as exc:
        print(f"bad option: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except oc.TruncationError as exc:
        print(f"oracle truncation: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except dk.CertificateError as exc:
        print(f"certificate failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
