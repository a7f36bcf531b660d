"""Command-line front end: sums, tables, h-polynomials, generators,
containment, bound sweeps, verification suites (run from ``verify``), and
plot-data emission.

Structured output (CSV/JSON) goes to stdout; progress chatter stays on
stderr so piped output is clean.  Exit codes: 0 success, 1 failed checks,
2 usage errors, 3 parity violations, 4 domain errors (an oracle series that
cannot reach its tolerance is one, and so is an exact value past the float
range).  Every usage error, argparse's own included, is one ``bad option:``
line on stderr with exit 2, before any work: each option's domain is its
argparse type, and ``--matrix`` text is parsed here, not in the library.
A reader that closes the pipe early (``| head``) is not an error: the rest
of stdout goes to the null device and the exit code is 0.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from fractions import Fraction

from . import analysis, dedekind as dk, oracle as oc, verify
from .characters import UnknownCharacterError, parse_character
from .dedekind import ParityError, SumContext
from .modgroup import Mat2, gamma1_generators, iter_G_pairs
from .verify import SUITES

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_PARITY = 3
EXIT_DOMAIN = 4


class OptionError(ValueError):
    """A malformed command line or an option outside its domain; a usage error."""


class _Parser(argparse.ArgumentParser):
    """argparse whose errors are OptionErrors: main reports every usage error alike."""

    def error(self, message):
        raise OptionError(message)


def _progress(msg: str):
    print(msg, file=sys.stderr, flush=True)


def _argtype(convert, ok=lambda value: True, domain=""):
    """argparse type: the text through ``convert``, rejected unless ``ok``.
    A malformed pair keeps its own message in the usage error."""

    def parse(text: str):
        try:
            value = convert(text)
        except UnknownCharacterError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {domain}, got {value}")
        return value

    parse.__name__ = convert.__name__  # argparse's "invalid int value: 'x'"
    return parse


def _pair(spec: str):
    """--pair "tag1,tag2": its two characters."""
    tags = spec.split(",")
    if len(tags) != 2:
        raise UnknownCharacterError(f"pair must be 'tag1,tag2', got {spec!r}")
    return parse_character(tags[0]), parse_character(tags[1])


def _matrix(text: str) -> Mat2:
    """--matrix "[[a,b],[c,d]]": a 2x2 array of ints of determinant 1."""
    try:
        rows = json.loads(text)
    except (ValueError, RecursionError):  # deep nesting exhausts the decoder
        rows = None
    if not (
        isinstance(rows, list)
        and len(rows) == 2
        and all(isinstance(row, list) and len(row) == 2 for row in rows)
        and all(type(x) is int for row in rows for x in row)
    ):
        raise argparse.ArgumentTypeError(f"expected a 2x2 array of integers, got {text!r}")
    try:
        return Mat2(*rows[0], *rows[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _value_str(v) -> str:
    if v.is_rational():
        return str(v.rational_value())
    return json.dumps(v.to_json())


# -- individual commands -----------------------------------------------------


def cmd_sum(args) -> int:
    ctx = SumContext(*args.pair, args.k)
    print(f"S = {_value_str(dk.sum_S(ctx, args.a, args.c))}")
    if args.tilde:
        print(f"S~ = {_value_str(dk.sum_S_tilde(ctx, args.a, args.c))}")
    if args.oracle:
        residual, _ = verify.oracle_residual(oc.numeric_context(ctx), args.a, args.c, args.tol)
        print(f"oracle residual = {residual:.3e}")
        if residual >= args.tol:
            return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_table(args) -> int:
    t0 = time.perf_counter()
    tables = analysis.divisibility_tables(
        args.j,
        jobs=args.jobs,
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
                        "r": str(cell.r),
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
                        [pair[0], pair[1], k, args.j, str(cell.r), cell.display, cell.count, secs]
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
    poly = dk.h_interpolate(SumContext(*args.pair, args.k), args.matrix)
    print(f"h_gamma(x) = {poly}")
    return EXIT_OK


def cmd_gens(args) -> int:
    gens = gamma1_generators(args.n)
    print(f"# {len(gens)} Schreier generators of Gamma_1({args.n})")
    for g in gens:
        print(g)
    return EXIT_OK


def cmd_contain(args) -> int:
    ctx = SumContext(*args.pair, args.k)
    report = analysis.containment_m(
        ctx,
        progress=lambda i, total: _progress(f"[{i}/{total}] generators done") if i % 25 == 0 else None,
    )
    print(f"generators: {len(report.polynomials)}")
    print(f"m = {report.m}")
    print(f"image of S~ on Gamma_1({ctx.n}) is contained in ({report.bound})*Z")
    print(
        f"conjectured d = {report.conjectured_d()} "
        f"divides 2k-2 = {2 * ctx.k - 2}: {report.divides_2k_minus_2()}"
    )
    if args.polys:
        for g, p in report.polynomials:
            print(f"{g}  ->  {p}")
    return EXIT_OK


def cmd_bounds(args) -> int:
    ctx = SumContext(*args.pair, args.k)
    if args.cmax < ctx.n:  # no c <= C is a multiple of N, so the sweep is empty
        raise OptionError(f"argument --cmax: must be at least q1*q2 = {ctx.n}, got {args.cmax}")
    report = analysis.bound_statistics(ctx, args.cmax, [Fraction(alpha) for alpha in args.alpha])
    print(f"matrices swept: {report.count}")
    print(f"trivial bound respected: {report.trivial_bound_ok}")
    print(f"max |S| / (M(a/c') log^2 c'): {report.max_ratio:.6f}")
    print(f"partial-quotient |delta| <= 1 everywhere: {report.delta_ok}")
    for alpha, count in zip(args.alpha, report.exceptional):
        print(f"L({alpha}, {args.cmax}) = {count}")
    return EXIT_OK if (report.trivial_bound_ok and report.delta_ok) else EXIT_CHECK_FAILED


def cmd_plotdata(args) -> int:
    ctx = SumContext(*args.pair, args.k)
    writer = csv.writer(sys.stdout)
    writer.writerow(["a_num", "a_den", "cusp", "value", "value_float"])
    for a, c in iter_G_pairs(ctx.n, args.j):
        v = dk.sum_S(ctx, a, c)
        writer.writerow([a, c, f"{a / c:.10f}", _value_str(v), f"{v.to_complex().real:.12g}"])
    return EXIT_OK


def cmd_verify(args) -> int:
    failed = 0
    for name, ok, detail, seconds in verify.run_suites(args.suite, args.seed, args.tol):
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        _progress(f"{name} finished in {seconds:.1f}s")
        failed += not ok
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


# -- entry point -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # no sum has a weight below 2, and G_j is empty below j = 2
    weight = radius = _argtype(int, lambda n: n >= 2, "at least 2")
    tol = _argtype(float, lambda t: 0 < t < math.inf, "a positive finite number")
    workers = _argtype(int, lambda n: n >= 1, "at least 1")
    parser = _Parser(
        prog="dedsums",
        description="Generalized Dedekind sums for Dirichlet character pairs: "
        "exact values, divisibility tables, quantum-modular polynomials, "
        "and numeric cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the options of every command that takes one pair of characters and a weight
    paired = argparse.ArgumentParser(add_help=False)
    paired.add_argument(
        "--pair", type=_argtype(_pair), required=True, help="chi3,chi7 or generic q:index,q:index"
    )
    paired.add_argument("--k", type=weight, required=True)

    p = sub.add_parser("sum", parents=[paired], help="one exact sum S(a, c)")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--tilde", action="store_true", help="also print c^(k-2) S")
    p.add_argument("--oracle", action="store_true", help="append the numeric residual")
    p.add_argument("--tol", type=tol, default=1e-8)
    p.set_defaults(func=cmd_sum)

    p = sub.add_parser("table", help="the three divisibility tables over G_j")
    p.add_argument("--j", type=radius, default=50)
    p.add_argument("--format", choices=("pretty", "csv", "json"), default="pretty")
    p.add_argument("--jobs", type=workers, default=1, help="worker processes")
    p.add_argument("--timings", action="store_true", help="seconds in csv and json output (not byte-identical)")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("hpoly", parents=[paired], help="the polynomial h_gamma from the finite sum formula")
    p.add_argument("--matrix", type=_matrix, required=True, help='e.g. "[[51,104],[25,51]]"')
    p.set_defaults(func=cmd_hpoly)

    p = sub.add_parser("gens", help="Schreier generating set of Gamma_1(N)")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_gens)

    p = sub.add_parser("contain", parents=[paired], help="containment scale m from a generating set")
    p.add_argument("--polys", action="store_true", help="print every generator polynomial")
    p.set_defaults(func=cmd_contain)

    p = sub.add_parser("bounds", parents=[paired], help="magnitude-bound sweep up to C")
    p.add_argument("--cmax", type=int, default=500)
    p.add_argument("--alpha", type=_argtype(float, math.isfinite, "finite"), nargs="*", default=[1.0])
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="named verification suites")
    p.add_argument("--suite", choices=["all"] + list(SUITES), default="all")
    p.add_argument("--seed", type=int, default=20250808)
    p.add_argument("--tol", type=tol, default=1e-6)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("plotdata", parents=[paired], help="scatter data of S-hat over the cusp family")
    p.add_argument("--j", type=radius, default=15)
    p.set_defaults(func=cmd_plotdata)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader stopped reading; point stdout at the null device so the
        # interpreter's final flush of what is still buffered cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except ParityError as exc:
        print(f"parity violation: {exc}", file=sys.stderr)
        return EXIT_PARITY
    except OptionError as exc:
        print(f"bad option: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except oc.TruncationError as exc:
        print(f"oracle truncation: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except dk.CertificateError as exc:
        print(f"certificate failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OverflowError as exc:  # an exact value past the float range, as at --oracle or plotdata
        print(f"error: past the float range: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
