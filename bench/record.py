"""Write reference.json: the exact outputs every benchmark run is checked against.

    python3 bench/record.py

Run it only on a commit whose outputs are known good; the file it writes is
the exactness gate of the benchmark.  It records the table cells at the
benchmark radius, a digest of each containment h-polynomial, and the
crosscheck input pool (seeds draw from it) with a digest of each exact value.
Every pool entry is also checked against the numeric oracle here, so no
drawn operation can fail on correct code.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from dedsums import analysis, dedekind, modgroup, oracle  # noqa: E402
from dedsums.characters import characters_mod, gauss_sum, is_primitive, parity  # noqa: E402

import workloads as wl  # noqa: E402


def primitive_indices(q: int) -> list[int]:
    return [i for i, chi in enumerate(characters_mod(q)) if not chi.is_trivial() and is_primitive(chi)]


def sum_pool(q1: int, o1: int, q2: int, o2: int, k: int, t: int) -> list[dict]:
    if o1 == 2 and o2 == 2:
        raise ValueError("the crosscheck strata are non-quadratic")
    chars1, chars2 = characters_mod(q1), characters_mod(q2)
    pairs = [
        (i1, i2)
        for i1 in primitive_indices(q1)
        for i2 in primitive_indices(q2)
        if chars1[i1].order == o1
        and chars2[i2].order == o2
        and parity(chars1[i1]) * parity(chars2[i2]) == (-1) ** k
    ]
    if not pairs:
        raise ValueError(f"no pair of orders {o1}, {o2} and parity (-1)^{k} at moduli {q1}, {q2}")
    rng = random.Random(f"crosscheck-pool-{q1}-{o1}-{q2}-{o2}-{k}-{t}")
    c = t * q1 * q2
    pool: dict[tuple, dict] = {}
    while len(pool) < wl.POOL_PER_STRATUM:
        i1, i2 = rng.choice(pairs)
        a = rng.randrange(1, c)
        if math.gcd(a, c) != 1 or (i1, i2, a) in pool:
            continue
        ctx = dedekind.SumContext(chars1[i1], chars2[i2], k)
        exact = dedekind.sum_S(ctx, a, c)
        nctx = oracle.numeric_context(ctx)
        policy = oracle.TruncationPolicy(tol=wl.ORACLE_TOL / 10)
        numeric = nctx.s_scale() * oracle.phi_numeric(
            nctx, modgroup.g_witness(a, c, 1), 1.0, -a / c, policy
        )
        residual = abs(exact.to_complex() - numeric)
        if not residual < wl.ORACLE_TOL:
            raise AssertionError(f"oracle residual {residual:.3g} at {q1}:{i1}, {q2}:{i2}, k={k}, ({a}, {c})")
        pool[(i1, i2, a)] = {
            "chi1": f"{q1}:{i1}", "chi2": f"{q2}:{i2}", "k": k, "a": a, "c": c,
            "digest": wl.digest(wl.canon(exact)),
        }
    return list(pool.values())


def gauss_pool(q: int) -> list[dict]:
    chars = characters_mod(q)
    prim = primitive_indices(q)
    top = max(chars[i].order for i in prim)
    out = []
    for i in prim:
        chi = chars[i]
        if chi.order != top:
            continue
        tau = gauss_sum(chi)
        if not tau * gauss_sum(chi.conjugate()) == parity(chi) * q:
            raise AssertionError(f"Gauss identity fails at {q}:{i}")
        out.append({"chi": f"{q}:{i}", "digest": wl.digest(wl.canon(tau))})
    return out


def main():
    tables = analysis.divisibility_tables(wl.TABLE_RADIUS, jobs=1)
    ctx = analysis.context_for(wl.CONTAINMENT_PAIR, wl.CONTAINMENT_K)
    report = analysis.containment_m(ctx, pair=wl.CONTAINMENT_PAIR)
    reference = {
        "tables": {
            f"{pair[0]},{pair[1]},{k}": str(cell.r)
            for table in tables
            for (pair, k), cell in table.cells.items()
        },
        "containment": {str(g): wl.digest(wl.canon(h)) for g, h in report.polynomials},
        "crosscheck_sums": [sum_pool(*stratum) for stratum in wl.CROSSCHECK_STRATA],
        "crosscheck_gauss": [gauss_pool(q) for q in wl.GAUSS_MODULI],
    }
    with open(wl.REFERENCE_FILE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
