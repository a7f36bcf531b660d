"""Steadiness check of the benchmark itself.

    python3 bench/steady.py [--workloads tables,containment,crosscheck] [--seeds 10] [--first-seed 1]

For each workload: runs ``run.py`` once per seed with tracing off and reports,
for every end-to-end metric, the distance between the first and third
quartile of the values as a share of their median, against the metric's
bound in BENCHMARK.json.  Then runs the traced solve twice on one seed and
checks that the exact work counters repeat exactly.  Exits non-zero when a
run is incorrect, a spread other than ``setup_s`` exceeds its bound, or a
counter differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXACT_COUNTERS = (
    "dedekind.kernel_steps",
    "dedekind.sums",
    "dedekind.ptable_entries",
    "exactnum.cyc_mults",
    "exactnum.max_order",
    "exactnum.gcd_values",
    "characters.gauss_sums",
    "modgroup.coset_table_builds",
    "modgroup.generators",
    "oracle.antiderivative_calls",
    "oracle.series_terms",
)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in declared["workloads"]]
    seconds = declared["run_seconds"]
    ok = True
    for workload in names:
        values: dict[str, list[float]] = {m["name"]: [] for m in declared["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run(workload, seed, seconds, 0)
            ok &= result["correct"] and result["failed"] == 0
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
        for metric in declared["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            s = spread(values[name])
            verdict = "ok" if s < bound / 3 else ("within bound" if s <= bound else "OVER BOUND")
            if s > bound and name != "setup_s":
                ok = False
            print(f"  {workload:<12} {name:<12} median {statistics.median(values[name]):.6g} "
                  f"spread {s:.4f} bound {bound} ({verdict})")
        first, second = (run(workload, args.first_seed, seconds, 1)["metrics"] for _ in range(2))
        differing = [n for n in EXACT_COUNTERS if first[n]["value"] != second[n]["value"]]
        ok &= not differing
        print(f"  {workload:<12} exact counters {'repeat' if not differing else 'DIFFER: ' + ', '.join(differing)}: "
              + " ".join(f"{n}={first[n]['value']}" for n in EXACT_COUNTERS), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
