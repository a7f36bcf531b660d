"""The benchmark workloads: inputs from the seed, the timed calls into dedsums,
and the exactness gate on every output.

Each workload is a closed loop with one caller.  The constructor builds the
inputs and contexts (the set-up that ``setup_s`` times), ``run`` issues the
operations back to back through the public entry points the CLI commands use
and calls ``lap()`` as each one completes, and ``check`` then verifies every
output against ``reference.json``, the exact values recorded from the
unoptimised code (see ``record.py``).
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# -- tables ---------------------------------------------------------------

# Sweep radius of the table workload: 84 cells in about 1.5 s on one core.
TABLE_RADIUS = 12
TABLE_LAYOUT = ("TABLE1_PAIRS", "TABLE2_PAIRS", "TABLE3_PAIRS", "EVEN_WEIGHTS", "ODD_WEIGHTS")

# The published j = 50 tables (display forms).  Every cell at a smaller radius
# must be an integer multiple of its j = 50 value.  (chi3, chi5) k = 7 is
# printed as 4, but its own sweep contains S~(1, 15) = -17000/3, so the
# computed value 4/3 is the reference.
REFERENCE_TABLES_J50 = {
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
    ("chi3", "chi5"): {3: "4", 5: "8/3", 7: "4/3", 9: "16"},
    ("chi5", "chi3"): {3: "4/5", 5: "8/5", 7: "12/5", 9: "16/5"},
    ("chi4", "chi5"): {3: "4", 5: "4", 7: "6", 9: "8"},
    ("chi5", "chi4"): {3: "4/5", 5: "8/5", 7: "12/5", 9: "16/5"},
    ("chi3", "chi8a"): {3: "4", 5: "8/3", 7: "4/3", 9: "16"},
    ("chi8a", "chi3"): {3: "2", 5: "4", 7: "6", 9: "8"},
    ("chi4", "chi8a"): {3: "4", 5: "8", 7: "12", 9: "16"},
    ("chi8a", "chi4"): {3: "4", 5: "8", 7: "12", 9: "16"},
}

# -- containment ----------------------------------------------------------

CONTAINMENT_PAIR = ("chi5", "chi5")
CONTAINMENT_K = 4
CONTAINMENT_M = Fraction(6)
CONTAINMENT_BOUND = Fraction(6, 5)
CONTAINMENT_GENERATORS = 197
# The seven reference h-polynomials for (chi5, chi5), k = 4: matrix entries
# (a, b, c, d) and coefficients from the top power down.
REFERENCE_H_POLYNOMIALS = [
    ((1, 1, 0, 1), ("0", "0", "0")),
    ((-24, 1, -25, 1), ("24/5", "0", "0")),
    ((51, -4, 625, -49), ("-5340", "4176/5", "-816/25")),
    ((26, 1, 25, 1), ("-24/5", "0", "0")),
    ((51, 104, 25, 51), ("-24/5", "-96/5", "-96/5")),
    ((1351, 2755, 1300, 2651), ("-62448/5", "-254688/5", "-51936")),
    ((3926, 155, 1925, 76), ("-138648/5", "-10944/5", "-216/5")),
]

# -- crosscheck -----------------------------------------------------------

# (q1, o1, q2, o2, k, t): one stratum of oracle draws, characters of orders
# o1 mod q1 and o2 mod q2, weight k, c = t*q1*q2.  The seed picks the
# characters (Galois conjugates share their field, so their cost) and a
# from the recorded pool of each stratum; the work is the same for every
# seed.  Moduli run over {3, 4, 5, 7, 8, 9, 11, 13}, c up to 20N.
CROSSCHECK_STRATA = [
    (5, 4, 3, 2, 2, 20), (3, 2, 5, 4, 2, 16), (5, 4, 4, 2, 4, 12), (4, 2, 5, 4, 2, 20),
    (7, 3, 3, 2, 3, 16), (3, 2, 7, 6, 2, 12), (7, 6, 4, 2, 4, 20), (4, 2, 7, 3, 3, 16),
    (9, 3, 4, 2, 3, 12), (4, 2, 9, 6, 2, 20), (9, 6, 8, 2, 3, 16), (8, 2, 9, 3, 2, 12),
    (11, 5, 3, 2, 3, 20), (3, 2, 11, 10, 2, 16), (11, 10, 4, 2, 4, 12), (5, 4, 11, 5, 3, 20),
    (13, 12, 3, 2, 2, 16), (3, 2, 13, 3, 3, 12), (13, 4, 4, 2, 4, 20), (7, 6, 13, 6, 3, 16),
    (5, 4, 5, 2, 3, 12), (7, 3, 7, 6, 3, 20), (9, 6, 9, 3, 3, 16), (5, 2, 13, 12, 3, 12),
]
POOL_PER_STRATUM = 8
DRAWS_PER_STRATUM = 2
# Gauss identity tau(chi) tau(conj chi) = chi(-1) q, exactly, for primitive
# characters of maximal order, where the cyclotomic field is largest.
GAUSS_MODULI = (11, 13, 16, 17, 19, 25, 27)
GAUSS_PER_MODULUS = 2
ORACLE_TOL = 1e-8


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def canon(x) -> str:
    """Canonical text of an exact value: a rational, a cyclotomic number or a Poly."""
    if hasattr(x, "weight"):
        return f"{x.weight}:" + ",".join(canon(c) for c in x.coeffs)
    if hasattr(x, "to_json"):
        return json.dumps(x.to_json(), sort_keys=True)
    return str(Fraction(x))


def load_reference() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


class Workload:
    planned: int  # operations per solve

    def reference_checks(self) -> list[str]:
        """Checks on fixed inputs, run once per benchmark run outside the timing."""
        return []


class Tables(Workload):
    """All 84 cells of the three divisibility tables at radius TABLE_RADIUS."""

    def __init__(self, seed: int, reference: dict):
        from dedsums import analysis

        self.analysis = analysis
        self.expected = reference["tables"]
        self.planned = len(self.expected)
        # divisibility_tables takes its cell order from these module constants;
        # permuting them within each table moves which cell pays each cold
        # cache miss while the work stays the same.
        rng = random.Random(seed)
        for name in TABLE_LAYOUT:
            order = list(getattr(analysis, name))
            rng.shuffle(order)
            setattr(analysis, name, order if name.endswith("PAIRS") else tuple(order))
        self.result = None
        self.error = None

    def run(self, lap):
        try:
            self.result = self.analysis.divisibility_tables(
                TABLE_RADIUS, jobs=1, progress=lambda i, total, spec: lap()
            )
        except Exception as exc:
            self.error = f"{type(exc).__name__}: {exc}"

    def check(self) -> tuple[int, int, list[str]]:
        cells = {}
        for table in self.result or ():
            for (pair, k), cell in table.cells.items():
                cells[f"{pair[0]},{pair[1]},{k}"] = cell
        wrong = []
        for (pair, per_k) in REFERENCE_TABLES_J50.items():
            for k, shown in per_k.items():
                key = f"{pair[0]},{pair[1]},{k}"
                cell = cells.get(key)
                if cell is None:
                    wrong.append(f"{key}: missing")
                elif str(cell.r) != self.expected[key]:
                    wrong.append(f"{key}: r = {cell.r}, recorded {self.expected[key]}")
                elif (cell.r / Fraction(shown)).denominator != 1:
                    wrong.append(f"{key}: r = {cell.r} is not a multiple of the j=50 value {shown}")
                elif TABLE_RADIUS == 50 and cell.display != shown:
                    wrong.append(f"{key}: display {cell.display}, reference {shown}")
        return self.planned, len(wrong), ([self.error] if self.error else []) + wrong


class Containment(Workload):
    """The containment scale m over the Schreier generators of Gamma_1(25)."""

    def __init__(self, seed: int, reference: dict):
        from dedsums import analysis, modgroup

        self.analysis = analysis
        self.expected = reference["containment"]
        self.ctx = analysis.context_for(CONTAINMENT_PAIR, CONTAINMENT_K)
        self.generators = modgroup.gamma1_generators(self.ctx.n)
        random.Random(seed).shuffle(self.generators)
        self.planned = len(self.generators)
        self.report = None
        self.error = None

    def run(self, lap):
        try:
            self.report = self.analysis.containment_m(
                self.ctx,
                generators=self.generators,
                pair=CONTAINMENT_PAIR,
                progress=lambda i, total: lap(),
            )
        except Exception as exc:
            self.error = f"{type(exc).__name__}: {exc}"

    def check(self) -> tuple[int, int, list[str]]:
        problems = [self.error] if self.error else []
        got = {str(g): digest(canon(h)) for g, h in (self.report.polynomials if self.report else ())}
        failed = 0
        for gen in self.generators:
            key = str(gen)
            if got.get(key) != self.expected.get(key):
                failed += 1
                problems.append(f"h polynomial of {key} differs from the recorded one")
        if len(self.expected) != CONTAINMENT_GENERATORS or set(got) != set(self.expected):
            problems.append("the generator set differs from the recorded 197 generators")
        if self.report is not None and (
            self.report.m != CONTAINMENT_M or self.report.bound != CONTAINMENT_BOUND
        ):
            problems.append(f"m = {self.report.m}, bound {self.report.bound}; expected 6 and 6/5")
        return len(self.generators), failed, problems

    def reference_checks(self) -> list[str]:
        """The seven reference h-polynomials; none of them is a timed output."""
        from dedsums import dedekind
        from dedsums.modgroup import Mat2

        problems = []
        for entries, coeffs in REFERENCE_H_POLYNOMIALS:
            h = dedekind.h_interpolate(self.ctx, Mat2(*entries))
            if [str(c) for c in h.coeffs] != list(coeffs):
                problems.append(f"h at {entries} = {h}, expected {coeffs}")
        return problems


class Crosscheck(Workload):
    """Exact sums against the numeric oracle, and the Gauss identity."""

    def __init__(self, seed: int, reference: dict):
        from dedsums import characters, dedekind, modgroup, oracle

        self.dedekind, self.oracle, self.characters = dedekind, oracle, characters
        self.policy = oracle.TruncationPolicy(tol=ORACLE_TOL / 10)
        rng = random.Random(seed)
        parse = characters.parse_character
        # Every op gets its own contexts, so no op reuses another's series
        # coefficients and the work does not depend on which entries are drawn.
        self.ops = []
        for stratum in reference["crosscheck_sums"]:
            for item in rng.sample(stratum, DRAWS_PER_STRATUM):
                ctx = dedekind.SumContext(parse(item["chi1"]), parse(item["chi2"]), item["k"])
                gamma = modgroup.g_witness(item["a"], item["c"], 1)
                self.ops.append(("sum", item, oracle.numeric_context(ctx), gamma))
        for pool in reference["crosscheck_gauss"]:
            for item in rng.sample(pool, GAUSS_PER_MODULUS):
                self.ops.append(("gauss", item, parse(item["chi"]), None))
        rng.shuffle(self.ops)
        self.planned = len(self.ops)
        self.failures: list[str] = []
        self.max_residual = 0.0

    def run(self, lap):
        for op in self.ops:
            try:
                problem = self._sum(*op[1:]) if op[0] == "sum" else self._gauss(*op[1:3])
            except Exception as exc:
                problem = f"{type(exc).__name__}: {exc}"
            if problem:
                self.failures.append(f"{op[1]}: {problem}")
            lap()

    def _sum(self, item, nctx, gamma):
        a, c = item["a"], item["c"]
        exact = self.dedekind.sum_S(nctx.ctx, a, c)
        numeric = nctx.s_scale() * self.oracle.phi_numeric(nctx, gamma, 1.0, -a / c, self.policy)
        residual = abs(exact.to_complex() - numeric)
        self.max_residual = max(self.max_residual, residual)
        if not residual < ORACLE_TOL:
            return f"oracle residual {residual:.3g}"
        if digest(canon(exact)) != item["digest"]:
            return "exact value differs from the recorded one"
        return None

    def _gauss(self, item, chi):
        tau = self.characters.gauss_sum(chi)
        product = tau * self.characters.gauss_sum(chi.conjugate())
        if not product == self.characters.parity(chi) * chi.modulus:
            return "tau(chi) tau(conj chi) != chi(-1) q"
        if digest(canon(tau)) != item["digest"]:
            return "Gauss sum differs from the recorded one"
        return None

    def check(self) -> tuple[int, int, list[str]]:
        return len(self.ops), len(self.failures), list(self.failures)


WORKLOADS = {"tables": Tables, "containment": Containment, "crosscheck": Crosscheck}
