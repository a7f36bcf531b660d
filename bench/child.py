"""One measurement in a fresh interpreter: set a workload up cold, run it, and
print one JSON line with its timings and the result of the exactness gate.

    python3 bench/child.py --workload NAME --seed N --mode warmup|setup|solve|trace --t0 T

``--t0`` is the parent's ``perf_counter`` just before it started this process;
``perf_counter`` is the system-wide monotonic clock on Linux, so set-up time
includes interpreter start.  ``--mode setup`` stops before the first
operation; ``warmup`` does too, after the workload's checks on fixed inputs;
``trace`` records spans (see spans.py) and adds the per-layer summary.
``calibrate`` times a fixed loop around the measured part and every half
second between ops, so that run.py can express every timing at one
reference speed of the machine.  dedsums is
imported from this checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SPANS_DIR = BENCH / "out"


CALIBRATE_EVERY_S = 0.5


def calibrate() -> float:
    """Time one fixed big-integer Horner loop, the kind of work the dedsums
    kernel does; run.py divides the median of these out of every timing."""
    start = time.perf_counter()
    acc = 0
    for t in range(1, 30000):
        v = 0
        for cf in (3, -7, 11, 5, -2, 9, 1):
            v = v * t + cf
        acc += v
    return time.perf_counter() - start


class OpClock:
    """Per-op times from the progress callbacks, with a calibration sample
    taken between ops every ``every`` seconds and kept out of the op times."""

    def __init__(self, every: float | None):
        self.every = every
        self.op_ms: list[float] = []
        cpu = time.process_time()
        self.cal = [calibrate() for _ in range(5)]
        self.cal_cpu = time.process_time() - cpu
        self.start = self.next_cal = time.perf_counter()

    def lap(self):
        now = time.perf_counter()
        self.op_ms.append((now - self.start) * 1000)
        if self.every is not None and now >= self.next_cal:
            cpu = time.process_time()
            self.cal.append(calibrate())
            self.cal_cpu += time.process_time() - cpu
            now = time.perf_counter()
            self.next_cal = now + self.every
        self.start = now


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("warmup", "setup", "solve", "trace"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args()
    if sys.flags.optimize:
        sys.exit("refusing to run under python -O: the certifying asserts would not execute")
    sys.path.insert(0, str(SRC))
    import dedsums

    if Path(dedsums.__file__).resolve().parent != SRC / "dedsums":
        sys.exit(f"dedsums was imported from {dedsums.__file__}, not from {SRC}")
    import spans
    import workloads

    reference = workloads.load_reference()
    recorder = None
    if args.mode == "trace":
        recorder = spans.Recorder()
        recorder.install()
    work = workloads.WORKLOADS[args.workload](args.seed, reference)
    out = {"setup_s": time.perf_counter() - args.t0, "planned_ops": work.planned}
    if args.mode == "warmup":
        out["problems"] = work.reference_checks()
    elif args.mode == "setup":
        out["cal_s"] = statistics.median(calibrate() for _ in range(5))
    else:
        # Tracing keeps the pauses out of the spans: calibrate only around the run.
        clock = OpClock(None if recorder else CALIBRATE_EVERY_S)
        work.run(clock.lap)
        tail_s = time.perf_counter() - clock.start  # work after the last op
        usage = resource.getrusage(resource.RUSAGE_SELF)
        clock.cal += [calibrate() for _ in range(5)]
        out.update(
            wall_s=out["setup_s"] + sum(clock.op_ms) / 1000 + tail_s,
            cpu_s=usage.ru_utime + usage.ru_stime - clock.cal_cpu,
            peak_rss_mb=usage.ru_maxrss / 1024,
            op_ms=clock.op_ms,
            cal_s=statistics.median(clock.cal),
        )
        if recorder is not None:
            recorder.uninstall()
            layers = recorder.summary(out["wall_s"])
            layers["oracle.max_residual"] = getattr(work, "max_residual", 0.0)
            out["layers"] = layers
            SPANS_DIR.mkdir(exist_ok=True)
            recorder.dump(SPANS_DIR / f"spans-{args.workload}-{args.seed}.json")
        attempted, failed, problems = work.check()
        out.update(attempted=attempted, failed=failed, problems=problems[:20])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
