"""The dedsums benchmark.

    python3 bench/run.py --workload tables|containment|crosscheck --seed N --seconds S --trace 0|1

Every measurement runs in a fresh interpreter (child.py) that imports dedsums
from this checkout's ``src/``, so each one starts with cold caches, as a
``dedsums table`` or ``dedsums contain`` invocation does.  One caller issues
the operations back to back (a closed loop, jobs=1, no threads).

``--trace 0`` measures the end-to-end metrics: twenty set-up-only starts, then
whole solves of the same inputs back to back until the next one would
overrun ``--seconds`` (at least one).  Each metric is the median over the
run's solves; ``setup_s`` is the median over all cold starts.

Other tenants of a shared machine slow it by a third or more for minutes at
a time, far beyond any bound a regression check could use.  So every child
also times a fixed big-integer loop (``child.calibrate``) before and after
its measured part and every half second between ops, and each timing is
reported at the reference speed: multiplied by ``CALIBRATION_REF_S`` over
the median loop time of that child.  Code changes in dedsums do not touch
the loop, so the ratio moves only with the program; the printed lines also
give the raw medians.  ``--trace 1`` runs
one untraced and one traced solve of the same inputs and reports the
per-layer metrics from the traced one.  Every solve checks every output for
exactness.  The last line of standard output is the JSON result; the lines
before it give each metric by name, with its unit and sample count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("tables", "containment", "crosscheck")
SETUP_PROBES = 20
# child.calibrate() on the machine where the benchmark was defined, unloaded
# (2-vCPU Intel Xeon VM, Python 3.11.7).  It only sets the scale of the
# reported times.
CALIBRATION_REF_S = 0.0165
RUN_LIMIT_S = 170  # every child is stopped by then, so the run ends within 180 s

def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples above it."""
    return max(0, math.floor(100 * (1 - 10 / n))) if n > 10 else 0


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def child_env() -> dict[str, str]:
    # No DEDSUMS_JOBS (jobs=1 is passed explicitly) and no PYTHON* settings:
    # PYTHONOPTIMIZE would strip the certifying asserts, PYTHONPATH could
    # shadow this checkout's src/.
    env = {k: v for k, v in os.environ.items() if k != "DEDSUMS_JOBS" and not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.start = time.perf_counter()
        self.env = child_env()

    def child(self, mode: str) -> dict:
        """One child process; returns its report, or {"error": ...}."""
        remaining = RUN_LIMIT_S - (time.perf_counter() - self.start)
        if remaining <= 1:
            return {"error": "no time left in this run"}
        argv = [sys.executable, "-s", str(BENCH / "child.py"), "--workload", self.workload,
                "--seed", str(self.seed), "--mode", mode]
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv + ["--t0", repr(t0)], cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"error": f"{mode} child stopped after {remaining:.0f} s"}
        if proc.returncode != 0 or not out.strip():
            return {"error": f"{mode} child exited with code {proc.returncode}"}
        report = json.loads(out.strip().splitlines()[-1])
        report["elapsed_s"] = time.perf_counter() - t0
        return report


def machine_lines() -> list[str]:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return [
        f"python {platform.python_version()} ({sys.executable})",
        f"nproc {os.cpu_count()}, cpu {model}",
        f"load average at start {load}",
    ]


def speed(report: dict) -> float:
    """How much slower than the reference the machine ran this child."""
    return report["cal_s"] / CALIBRATION_REF_S


def end_to_end(runner: Runner, seconds: float, planned: int, units: dict) -> tuple[dict, list[str], list[dict]]:
    setups = []
    for _ in range(SETUP_PROBES):
        report = runner.child("setup")
        if "error" not in report:
            setups.append(report)
    solves: list[dict] = []
    measure_start = time.perf_counter()
    while True:
        solves.append(runner.child("solve"))
        done = [s for s in solves if "error" not in s]
        elapsed = time.perf_counter() - measure_start
        typical = statistics.median(s["elapsed_s"] for s in done) if done else elapsed
        if not done or elapsed + typical > seconds:
            break
    setups += done
    full = [s for s in done if len(s["op_ms"]) == planned]
    if not full:
        return {}, ["no solve completed"], solves
    tail_p = tail_percentile(planned)
    n = len(full)

    def median(key, reports=full):
        return statistics.median(key(s) for s in reports)

    def timings(scale):
        return {
            "wall_s": median(lambda s: s["wall_s"] / scale(s)),
            "cpu_s": median(lambda s: s["cpu_s"] / scale(s)),
            "ops_per_s": median(lambda s: planned * scale(s) / (sum(s["op_ms"]) / 1000)),
            "op_p50_ms": median(lambda s: percentile(s["op_ms"], 50) / scale(s)),
            "op_tail_ms": median(lambda s: percentile(s["op_ms"], tail_p) / scale(s)),
            "setup_s": median(lambda s: s["setup_s"] / scale(s), setups),
        }

    metrics = timings(speed)
    metrics["peak_rss_mb"] = median(lambda s: s["peak_rss_mb"])
    raw = timings(lambda s: 1.0)
    notes = {
        "wall_s": f"median of {n} solves, interpreter start to result",
        "cpu_s": f"median of {n} solves, user+system CPU of the solve process",
        "ops_per_s": f"{planned} ops over the op phase of a solve, median of {n} solves",
        "op_p50_ms": f"p50 of {planned} ops per solve, median of {n} solves",
        "op_tail_ms": f"p{tail_p} of {planned} ops per solve, median of {n} solves",
        "setup_s": f"median of {len(setups)} cold starts, interpreter start to first op",
        "peak_rss_mb": f"ru_maxrss of the solve process, median of {n} solves",
    }
    lines = [
        f"{name:<12} {metrics[name]:>14.6f} {units[name]:<4} {notes[name]}"
        + (f"; raw {raw[name]:.6g}" if name in raw else "")
        for name in metrics
    ]
    lines.append(f"machine speed: {median(speed, setups):.3f} x the reference time (median over all children)")
    return metrics, lines, solves


def traced(runner: Runner) -> tuple[dict, list[str], list[dict]]:
    plain = runner.child("solve")
    trace = runner.child("trace")
    if "error" in plain or "error" in trace:
        return {}, ["the traced pair of solves did not complete"], [plain, trace]
    metrics = dict(trace["layers"])
    metrics["trace.overhead_frac"] = (trace["wall_s"] / speed(trace)) / (plain["wall_s"] / speed(plain)) - 1
    lines = [f"{name:<44} {value!r}" for name, value in metrics.items()]
    lines.append(f"traced wall {trace['wall_s']:.4f} s, untraced wall {plain['wall_s']:.4f} s")
    return metrics, lines, [plain, trace]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if sys.flags.optimize:
        print("refusing to run under python -O: the certifying asserts would not execute", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "dedsums" / "__init__.py").is_file():
        print(f"no dedsums sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)

    runner = Runner(args.workload, args.seed)
    for line in machine_lines():
        print(f"# {line}")
    # Untimed start: compiles the bytecode caches, runs the checks on fixed
    # inputs, and fails fast on a broken checkout.
    warm = runner.child("warmup")
    if "error" in warm:
        print(f"cannot start the {args.workload} workload: {warm['error']}", file=sys.stderr)
        return 1
    planned = warm["planned_ops"]
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}
    if args.trace:
        metrics, lines, solves = traced(runner)
    else:
        metrics, lines, solves = end_to_end(runner, args.seconds, planned, units)

    attempted = failed = 0
    problems: list[str] = list(warm["problems"])
    for s in solves:
        if "error" in s:
            attempted += planned
            failed += planned
            problems.append(s["error"])
        else:
            attempted += s["attempted"]
            failed += s["failed"]
            problems += s["problems"]
    print(f"# workload {args.workload}, seed {args.seed}, {len(solves)} solves, trace {args.trace}")
    for line in lines:
        print(line)
    print(f"failed_frac  {failed / max(attempted, 1):>14.6f}      {failed} of {attempted} ops wrong or raising")
    for problem in problems[:20]:
        print(f"# problem: {problem}")
    missing = [n for n in units if n not in metrics]
    if missing:
        print(f"metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
