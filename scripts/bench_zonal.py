"""Measure the zonal table engine and write BENCH_zonal.json.

    python3 scripts/bench_zonal.py --parent DIR [--seeds 1 2 ... 10]
                                   [--workloads cold_tables ...]
                                   [--out BENCH_zonal.json]

DIR is a source checkout of the commit to compare against (for example one
unpacked with ``git archive``).  For every seed and workload the script runs
``python3 bench/run.py --workload W --seed S --seconds 8 --trace 0`` once in
DIR and once in this checkout, alternating which runs first, and records
each run's end-to-end metrics and their medians per side.  It then times
``build_table_zonal(n)`` for n = 2..14 in this process (three builds each,
median reported), with ``max_n`` raised for any n above the default guard.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pmscheme.tables import DEFAULT_ZONAL_MAX_N, build_table_zonal  # noqa: E402

WORKLOADS = ("cold_tables", "table_assembly", "warm_queries", "diameters")
METRICS = ("setup_s", "wall_s", "op_p50_ms", "op_p99_ms", "peak_rss_mb")
ZONAL_NS = range(2, 15)
ZONAL_REPEATS = 3


def bench_run(checkout: Path, workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "8", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    details_line, result_line = done.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    return {
        "seed": seed,
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        **{m: result["metrics"][m]["value"] for m in METRICS},
        "passes": json.loads(details_line)["passes"],
    }


def compare(parent: Path, workloads: list[str], seeds: list[int]) -> dict:
    out = {}
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for k, seed in enumerate(seeds):
            sides = [("parent", parent), ("change", ROOT)]
            for side, checkout in sides if k % 2 == 0 else reversed(sides):
                runs[side].append(bench_run(checkout, workload, seed))
        out[workload] = {
            side: {
                "median": {m: statistics.median(r[m] for r in rs) for m in METRICS},
                "runs": rs,
            }
            for side, rs in runs.items()
        }
        print(workload, {s: out[workload][s]["median"]["wall_s"] for s in runs},
              file=sys.stderr)
    return out


def zonal_times() -> dict:
    out = {}
    for n in ZONAL_NS:
        times = []
        for _ in range(ZONAL_REPEATS):
            t0 = time.perf_counter()
            build_table_zonal(n, max_n=max(n, DEFAULT_ZONAL_MAX_N))
            times.append(time.perf_counter() - t0)
        out[str(n)] = {"median_s": statistics.median(times), "runs_s": times}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_zonal.json")
    args = parser.parse_args(argv)

    report = {
        "command": "python3 bench/run.py --workload W --seed S --seconds 8 --trace 0",
        "units": "setup_s, wall_s: reference seconds; op_*: reference ms; peak_rss_mb: MB",
        "env": {"python": platform.python_version(), "nproc": os.cpu_count()},
        "seeds": args.seeds,
        "workloads": compare(args.parent.resolve(), args.workloads, args.seeds),
        "build_table_zonal_s": zonal_times(),
        "default_zonal_max_n": DEFAULT_ZONAL_MAX_N,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
