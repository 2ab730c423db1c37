"""pmscheme benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from
``src``.  With ``--trace 0`` it sets up the workload several times (the
median is ``setup_s``), then runs whole passes of the workload until
``--seconds`` have passed, and reports the end-to-end metrics.  Those
times are in reference seconds (``speed.py``): a speed meter runs through
set-up and passes, and each timed interval is scaled by the host's speed
at the time, so that a shared host's drifting CPU speed cancels.  With
``--trace 1`` it sets up once and runs one pass with every layer wrapped
(set-up included), then passes without wrappers for ``--seconds``, and
reports the per-layer metrics and the tracing overhead (traced pass time
minus the median untraced pass time, both in wall seconds, no meter).  Every op's output is checked;
the last line of stdout is the result, the line before it the details:
environment, sample counts, ``fail_ratio`` and the labels of failed ops.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

# Set up at least this many times, and until this many seconds have gone, so
# that a set-up of a few milliseconds still gets a steady median.
SETUP_MIN_RUNS = 3
SETUP_MIN_SECONDS = 1.0
# A 99th percentile needs at least 10 samples beyond it.  Runs with fewer ops
# (the batch workloads, 6 to 20 commands a pass) report percentiles of pass
# time instead, since a percentile of a handful of unlike commands is one
# short command timed once.
MIN_OPS_FOR_OP_PERCENTILES = 1000


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def environment(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def timed_setups(setup, seed: int, work: Path) -> tuple[list[tuple[float, float]], workloads.NextPass]:
    intervals = []
    while len(intervals) < SETUP_MIN_RUNS or sum(t1 - t0 for t0, t1 in intervals) < SETUP_MIN_SECONDS:
        t0 = time.perf_counter()
        next_pass = setup(seed, work)
        intervals.append((t0, time.perf_counter()))
    return intervals, next_pass


def percentile_ms(latencies: list[float], pct: int) -> float:
    if len(latencies) == 1:
        return latencies[0] * 1e3
    return statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1] * 1e3


def run_passes(next_pass: workloads.NextPass, seconds: float) -> list[workloads.PassResult]:
    """Whole passes, back to back, until ``seconds`` have gone (at least one)."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(workloads.run_ops(next_pass()))
    return passes


def measure(args, work: Path) -> tuple[dict, dict, list[workloads.PassResult]]:
    setup = workloads.WORKLOADS[args.workload]
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            next_pass = setup(args.seed, work)
            traced = workloads.run_ops(next_pass())
        finally:
            tracer.uninstall()
        untraced = run_passes(next_pass, args.seconds)
        untraced_wall = statistics.median(p.wall for p in untraced)
        overhead = traced.wall - untraced_wall
        details = {
            "traced_wall_s": traced.wall,
            "untraced_wall_s": untraced_wall,
            "trace_overhead_s": overhead,
        }
        return tracer.metrics(overhead), details, [traced] + untraced

    with speed.SpeedMeter() as meter:
        setup_intervals, next_pass = timed_setups(setup, args.seed, work)
        passes = run_passes(next_pass, args.seconds)

    def ref_s(intervals):
        return [meter.ref_s(t0, t1) for t0, t1 in intervals]

    setup_times = ref_s(setup_intervals)
    op_times = [ref_s(p.intervals) for p in passes]
    pass_times = [sum(t) for t in op_times]
    latencies = [t for times in op_times for t in times]
    if len(latencies) < MIN_OPS_FOR_OP_PERCENTILES:
        latencies = pass_times
    p99_ms = percentile_ms(latencies, 99)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(pass_times),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p99_ms": p99_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    units = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p99_ms": "ms", "peak_rss_mb": "MB"}
    details = {
        "setup_runs": len(setup_times),
        "setup_wall_s": statistics.median(t1 - t0 for t0, t1 in setup_intervals),
        "passes": len(passes),
        "pass_s": pass_times,
        "pass_wall_s": [p.wall for p in passes],
        "kernel_ms": meter.kernel_quartiles_ms(),
        "percentile_samples": len(latencies),
        "samples_beyond_p99": sum(t * 1e3 > p99_ms for t in latencies),
    }
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, details, passes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    try:
        metrics, details, passes = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted = sum(len(p.latencies) for p in passes)
    failed = [label for p in passes for label in p.failed]
    unexpected = [label for p in passes for label in p.unexpected]
    details.update(
        env=environment(args),
        attempted=attempted,
        failed=len(failed),
        fail_ratio={"value": len(failed) / attempted, "unit": "ratio"},
        failed_ops=sorted(set(failed)),
        unexpected_failures=sorted(set(unexpected)),
    )
    print(json.dumps(details))
    print(
        json.dumps(
            {
                "correct": not unexpected,
                "attempted": attempted,
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
