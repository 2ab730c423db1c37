"""Measure the benchmark workloads and the table engines; write BENCH_*.json.

    python3 scripts/bench_zonal.py --parent DIR --out BENCH_name.json
                                   [--seeds 1 2 ... 10]
                                   [--workloads cold_tables ...]
                                   [--only workloads zonal_rows_sweep_s ...]

DIR is a source checkout of the commit to compare against (for example one
unpacked with ``git archive``).  For every seed and workload the script runs
``python3 bench/run.py --workload W --seed S --seconds 8 --trace 0`` once in
DIR and once in this checkout, alternating which runs first, and records
each run's end-to-end metrics and their medians per side.  Each run gets
its own empty ``PMSCHEME_DATA_DIR``, removed afterwards, so a workload
that passes no ``--data-dir`` neither reads nor fills the user's cache.
It then times the full intersection tensor, ``intersection_numbers(n).p``
(``intersection_numbers`` itself counts nothing), for n = 5..8 once per
checkout and ``build_table_zonal(n)`` for n = 2..14 three times per
checkout, and the symmetric-function route under it, ``zonal_rows(n)``:
its first call in a fresh process (cold chain-step plans) and a later
call, its plans warm, so only the chain steps are timed (the median of
STAGE_REPEATS calls after one untimed call), each for n = 2..22 three
times per checkout; the peak RSS of a fresh process that makes the first
call, for n = 20 and 22 three times per checkout; and building the plans
of k = 2..n cold for n = 2..22, once per checkout.  A checkout from before the
chain keeps nothing between calls, so its warm call repeats its whole
build.
Then ``tables.diameter`` over every relation of the zonal table
for n = 6, 8, ..., 14 once per checkout, and the oracle route,
``build_table_oracle(n)`` given no intersection data, for n = 6, 7, 8 once
per checkout (the median over seeds 0..4 of one build, each counting what
its check reads) and ``tables._check_characters`` alone for n = 6..14
once per checkout (the median of CHECK_REPEATS checks of the zonal table;
the intersection data, guarded to ORACLE_BIG_MAX_N, and the table are
built, and one untimed check counts the class matrices the check reads,
before the timer starts), each timing in a fresh subprocess of its
checkout (alternating which side runs first), and records every run and
the median per side.  The same way it times the two commands that read
the oracle, ``table --source oracle`` and ``verify scheme-axioms``, each
with ``--max-oracle-n 14`` (which both sides accept), for n = 9..14,
GUARD_REPEATS times per checkout: one ``cli.main`` call in a fresh
process, its imports untimed.  The same way it times ``verify induction
--family 5`` at n = INDUCTION_MAX_N and ``verify ratios`` at n =
RATIOS_MAX_N, this checkout's guards, three times per
checkout, so each guard's cost at its limit is on record, and ``fit
--prefix 5 --n-range 5:14`` on a warm cache (the median of FIT_REPEATS
commands after one untimed command that builds and writes the tables)
three times per checkout.  For n = 18 and 20 it times the second call of
``zonal_rows(n)`` in a fresh process, three times per checkout, and counts
the step plans that call misses, once per checkout.  Last, it times
``EigTable.from_json_obj`` on the zonal table's JSON for n = 2..14, the
check every cache load runs: in one fresh subprocess per checkout and n
(alternating which side runs first), the median of LOAD_REPEATS loads.  The
same way it times, for n = 2..14, one ``cli.oracle_table_cached`` load of
a cache file the process has not loaded before, and a later load of the
same unchanged file, after one untimed load (the file is written before
either, in a fresh temporary data directory); ``tables._check_table``
alone on the zonal table of n, the median of CHECK_REPEATS checks after
one untimed check; and, FRAME_REPEATS times per checkout for n in
FRAME_NS, ``tables._frame(n)``'s first call in a fresh process, and for
n in DIMS_NS the dimensions alone, ``dim_hook`` over every partition of
n (listed untimed first), in a fresh process.  It
times, once per checkout in a fresh subprocess, writing the table of n =
14, 16, 18 and 20 (built from ``zonal_rows(n)`` as ``build_table_zonal``
builds it, past its guard too) as a cache file, ``to_json_text`` plus ``cli._atomic_write``, and
records the file's size; and ``build_table_oracle(n)`` with the guard
raised to 14 for n = 9..14.  It times an ascending sweep,
``zonal_rows(k)`` for k = 2..N in one fresh process, and records that
process's peak RSS, for N in SWEEP_NS, three times per checkout: a
checkout that keeps the last table continues each call from the one
before, and one that keeps none climbs the whole chain each time.  Last,
for each workload of
RSS_PASSES it runs ``bench/run.py`` with its ``run_passes`` replaced by
one that runs exactly that workload's fixed number of passes (seed 1,
each run with its own empty ``PMSCHEME_DATA_DIR``), RSS_REPEATS times per
checkout, and records the run's ``peak_rss_mb``: at a fixed pass count the
per-op timings the benchmark keeps are the same on both sides, so the two
readings compare the program's own memory, which an 8 s run, whose
faster side keeps more timings, does not.

``--only`` runs just the named measurements, the keys of the report (the
workload pairs are ``workloads``); the default runs them all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from collections.abc import Sequence
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pmscheme.ratios import RATIOS_MAX_N  # noqa: E402
from pmscheme.spectra import INDUCTION_MAX_N  # noqa: E402
from pmscheme.tables import DEFAULT_ZONAL_MAX_N  # noqa: E402

WORKLOADS = ("cold_tables", "table_assembly", "warm_queries", "diameters")
METRICS = ("setup_s", "wall_s", "op_p50_ms", "op_p99_ms", "peak_rss_mb")
ZONAL_NS = range(2, 15)
ZONAL_REPEATS = 3
STAGE_REPEATS = 5
# zonal_rows: n up to ROWS_MAX_N, peak RSS at ROWS_RSS_NS
ROWS_MAX_N = 22
ROWS_RSS_NS = range(20, ROWS_MAX_N + 1, 2)
ORACLE_NS = range(5, 9)
DIAMETER_NS = range(6, 15, 2)
ORACLE_TABLE_NS = range(6, 9)
ORACLE_BIG_NS = range(9, 15)
ORACLE_BIG_MAX_N = 14
CHECK_NS = range(6, ORACLE_BIG_MAX_N + 1)
WRITE_NS = range(14, 21, 2)
CHECK_REPEATS = 31
FRAME_NS = (24, 30, 40)
FRAME_REPEATS = 5
DIMS_NS = (40,)
GUARD_REPEATS = 3
FIT_REPEATS = 5
# the last n of each ascending zonal_rows sweep
SWEEP_NS = (14, 20, 22)
# zonal_rows(n)'s second call: past the guard, and past the 16 plans the
# plan cache once kept
SECOND_CALL_NS = (18, 20)
LOAD_REPEATS = 21
# the fixed pass count of each workload's peak RSS reading
RSS_PASSES = {"diameters": 2000, "warm_queries": 20, "table_assembly": 250}
RSS_REPEATS = 3
# each timer runs in a checkout's root and prints the seconds of one call
ORACLE_TIMER = """
import sys, time
sys.path.insert(0, "src")
from pmscheme.matchings import intersection_numbers
t0 = time.perf_counter()
intersection_numbers(int(sys.argv[1])).p
print(time.perf_counter() - t0)
"""
ZONAL_TIMER = """
import sys, time
sys.path.insert(0, "src")
from pmscheme.tables import build_table_zonal
n = int(sys.argv[1])
t0 = time.perf_counter()
build_table_zonal(n)
print(time.perf_counter() - t0)
"""
# zonal_rows(n) in a fresh process: the first call, with cold plans
ROWS_COLD_TIMER = """
import sys, time
sys.path.insert(0, "src")
from pmscheme.symfunc import zonal_rows
n = int(sys.argv[1])
t0 = time.perf_counter()
zonal_rows(n)
print(time.perf_counter() - t0)
"""
# the peak RSS, in MB, of a fresh process after zonal_rows(n)
ROWS_RSS_TIMER = """
import resource, sys
sys.path.insert(0, "src")
from pmscheme.symfunc import zonal_rows
zonal_rows(int(sys.argv[1]))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""
# zonal_rows(n) after one untimed call, so its plans are warm
ROWS_WARM_TIMER = f"""
import statistics, sys, time
sys.path.insert(0, "src")
from pmscheme.symfunc import zonal_rows
n = int(sys.argv[1])
zonal_rows(n)
times = []
for _ in range({STAGE_REPEATS}):
    t0 = time.perf_counter()
    zonal_rows(n)
    times.append(time.perf_counter() - t0)
print(statistics.median(times))
"""
# zonal_rows(n)'s second call in a fresh process: its seconds, or with
# {what} = "misses" the number of step plans it missed
ROWS_SECOND_TIMER = """
import sys, time
sys.path.insert(0, "src")
from pmscheme.symfunc import _plan, zonal_rows
n = int(sys.argv[1])
zonal_rows(n)
before = _plan.cache_info().misses
t0 = time.perf_counter()
zonal_rows(n)
seconds = time.perf_counter() - t0
print(_plan.cache_info().misses - before if "{what}" == "misses" else seconds)
"""
# zonal_rows(k) for k = 2..n in a fresh process: the seconds of the sweep,
# or with {what} = "rss" the process's peak RSS in MB after it
SWEEP_TIMER = """
import resource, sys, time
sys.path.insert(0, "src")
from pmscheme.symfunc import zonal_rows
n = int(sys.argv[1])
t0 = time.perf_counter()
for k in range(2, n + 1):
    zonal_rows(k)
seconds = time.perf_counter() - t0
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(rss if "{what}" == "rss" else seconds)
"""
# the chain-step plans of k = 2..n, built cold
PLAN_TIMER = """
import sys, time
sys.path.insert(0, "src")
from pmscheme.symfunc import _plan
n = int(sys.argv[1])
t0 = time.perf_counter()
for k in range(2, n + 1):
    _plan(k)
print(time.perf_counter() - t0)
"""
DIAMETER_TIMER = """
import sys, time
sys.path.insert(0, "src")
from pmscheme.tables import build_table_zonal, diameter
table = build_table_zonal(int(sys.argv[1]))
t0 = time.perf_counter()
for mu in table.columns:
    diameter(table, mu)
print(time.perf_counter() - t0)
"""
ORACLE_TABLE_TIMER = """
import statistics, sys, time
sys.path.insert(0, "src")
from pmscheme.tables import build_table_oracle
n = int(sys.argv[1])
times = []
for seed in range(5):
    t0 = time.perf_counter()
    build_table_oracle(n, seed=seed)
    times.append(time.perf_counter() - t0)
print(statistics.median(times))
"""
CHECK_TIMER = f"""
import statistics, sys, time
sys.path.insert(0, "src")
from pmscheme.matchings import intersection_numbers
from pmscheme.tables import _check_characters, build_table_zonal
n = int(sys.argv[1])
data = intersection_numbers(n, max_n={ORACLE_BIG_MAX_N})
table = build_table_zonal(n)
_check_characters(table, data)
times = []
for _ in range({CHECK_REPEATS}):
    t0 = time.perf_counter()
    _check_characters(table, data)
    times.append(time.perf_counter() - t0)
print(statistics.median(times))
"""
LOAD_TIMER = f"""
import json, statistics, sys, time
sys.path.insert(0, "src")
from pmscheme.tables import EigTable, build_table_zonal
text = build_table_zonal(int(sys.argv[1])).to_json_text()
times = []
for _ in range({LOAD_REPEATS}):
    obj = json.loads(text)
    t0 = time.perf_counter()
    EigTable.from_json_obj(obj)
    times.append(time.perf_counter() - t0)
print(statistics.median(times))
"""
# _check_table alone on the zonal table of n, after one untimed check
CHECK_TABLE_TIMER = f"""
import statistics, sys, time
sys.path.insert(0, "src")
from pmscheme.tables import _check_table, build_table_zonal
table = build_table_zonal(int(sys.argv[1]))
_check_table(table)
times = []
for _ in range({CHECK_REPEATS}):
    t0 = time.perf_counter()
    _check_table(table)
    times.append(time.perf_counter() - t0)
print(statistics.median(times))
"""
# the frame of n, built cold
FRAME_TIMER = """
import sys, time
sys.path.insert(0, "src")
from pmscheme.tables import _frame
n = int(sys.argv[1])
t0 = time.perf_counter()
_frame(n)
print(time.perf_counter() - t0)
"""
# the dimensions of every partition of n, cold, the partitions listed first
DIMS_TIMER = """
import sys, time
sys.path.insert(0, "src")
from pmscheme.partitions import dim_hook, generate_partitions
rows = generate_partitions(int(sys.argv[1]))
t0 = time.perf_counter()
list(map(dim_hook, rows))
print(time.perf_counter() - t0)
"""
# one cache load, after {loads_before} untimed loads of the same file
CACHED_LOAD_TIMER = """
import sys, tempfile, time
sys.path.insert(0, "src")
from pmscheme.cli import Config, oracle_table_cached
n = int(sys.argv[1])
with tempfile.TemporaryDirectory() as data_dir:
    config = Config(data_dir=data_dir)
    oracle_table_cached(config, n)  # builds and writes the file
    for _ in range({loads_before}):
        oracle_table_cached(config, n)
    t0 = time.perf_counter()
    oracle_table_cached(config, n)
    print(time.perf_counter() - t0)
"""

# the cache write of the table of n, built from zonal_rows(n) past the
# guard too: prints the seconds of to_json_text plus _atomic_write, or with
# {what} = "size" the file's size in bytes
WRITE_TIMER = """
import os, sys, tempfile, time
sys.path.insert(0, "src")
from pmscheme.cli import _atomic_write
from pmscheme.partitions import generate_partitions
from pmscheme.symfunc import zonal_rows
from pmscheme.tables import EigTable
n = int(sys.argv[1])
grid = [row[::-1] for row in zonal_rows(n)]
table = EigTable(n, grid, dict.fromkeys(generate_partitions(n), "zonal"))
with tempfile.TemporaryDirectory() as data_dir:
    path = os.path.join(data_dir, "table.json")
    t0 = time.perf_counter()
    _atomic_write(path, table.to_json_text())
    seconds = time.perf_counter() - t0
    print(os.path.getsize(path) if "{what}" == "size" else seconds)
"""
# build_table_oracle(n) with the guard raised to ORACLE_BIG_MAX_N, its
# intersection data counted on demand inside the timer
ORACLE_BIG_TIMER = f"""
import sys, time
sys.path.insert(0, "src")
from pmscheme.matchings import intersection_numbers
from pmscheme.tables import build_table_oracle
n = int(sys.argv[1])
t0 = time.perf_counter()
build_table_oracle(n, data=intersection_numbers(n, max_n={ORACLE_BIG_MAX_N}))
print(time.perf_counter() - t0)
"""

# the CLI command {argv} + ["--n", n], its stdout discarded; a refusal
# (nonzero exit) fails the run instead of timing it
CLI_TIMER = """
import contextlib, io, sys, time
sys.path.insert(0, "src")
from pmscheme.cli import main
t0 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = main({argv!r} + ["--n", sys.argv[1]])
if code:
    sys.exit(code)
print(time.perf_counter() - t0)
"""
# bench/run.py for workload {workload}, its run_passes replaced by exactly
# sys.argv[1] passes; prints the run's peak_rss_mb
RSS_TIMER = """
import io, json, sys, contextlib
sys.path.insert(0, "bench")
import run, workloads
passes = int(sys.argv[1])
run.run_passes = lambda next_pass, seconds: [
    workloads.run_ops(next_pass()) for _ in range(passes)
]
with contextlib.redirect_stdout(io.StringIO()) as out:
    run.main(["--workload", "{workload}", "--seed", "1", "--seconds", "0", "--trace", "0"])
print(json.loads(out.getvalue().splitlines()[-1])["metrics"]["peak_rss_mb"]["value"])
"""
# fit --prefix 5 --n-range 5:N on a warm cache: the median of FIT_REPEATS
# commands after one untimed command, which builds and writes the tables
FIT_TIMER = f"""
import contextlib, io, statistics, sys, time
sys.path.insert(0, "src")
from pmscheme.cli import main
argv = ["fit", "--prefix", "5", "--n-range", "5:" + sys.argv[1]]
times = []
for _ in range({FIT_REPEATS} + 1):
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code:
        sys.exit(code)
    times.append(time.perf_counter() - t0)
print(statistics.median(times[1:]))
"""
INDUCTION_TIMER = CLI_TIMER.format(argv=["verify", "induction", "--family", "5"])
ORACLE_CLI_ARGV = ["--max-oracle-n", str(ORACLE_BIG_MAX_N)]
TABLE_ORACLE_TIMER = CLI_TIMER.format(
    argv=[*ORACLE_CLI_ARGV, "table", "--source", "oracle", "--format", "csv"]
)
SCHEME_AXIOMS_TIMER = CLI_TIMER.format(
    argv=[*ORACLE_CLI_ARGV, "verify", "scheme-axioms"]
)
RATIOS_TIMER = CLI_TIMER.format(argv=["verify", "ratios"])


def bench_run(checkout: Path, workload: str, seed: int) -> dict:
    with tempfile.TemporaryDirectory(prefix="pmscheme-bench-") as data_dir:
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", "8", "--trace", "0"],
            cwd=checkout, capture_output=True, text=True, check=True,
            env={**os.environ, "PMSCHEME_DATA_DIR": data_dir},
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


def fresh_times(
    parent: Path, timer: str, ns: Sequence[int], repeats: int, unit: str = "s"
) -> dict:
    """What the timer reports (in unit, seconds by default) for each n, one
    fresh process per side, n and repeat, alternating which side runs
    first, each with its own empty PMSCHEME_DATA_DIR; medians per side."""
    runs: dict[str, dict[str, list[float]]] = {"parent": {}, "change": {}}
    for k, n in enumerate([n for n in ns for _ in range(repeats)]):
        sides = [("parent", parent), ("change", ROOT)]
        for side, checkout in sides if k % 2 == 0 else reversed(sides):
            with tempfile.TemporaryDirectory(prefix="pmscheme-bench-") as data_dir:
                done = subprocess.run(
                    [sys.executable, "-c", timer, str(n)],
                    cwd=checkout, capture_output=True, text=True, check=True,
                    env={**os.environ, "PMSCHEME_DATA_DIR": data_dir},
                )
            runs[side].setdefault(str(n), []).append(float(done.stdout))
        print("timer", n, {s: runs[s][str(n)][-1] for s in runs}, file=sys.stderr)
    return {
        side: {
            n: {f"median_{unit}": statistics.median(ts), f"runs_{unit}": ts}
            for n, ts in by_n.items()
        }
        for side, by_n in runs.items()
    }


def measurements(parent: Path, args: argparse.Namespace) -> dict:
    """Each measurement of the report by its key, run when called."""
    return {
        "workloads": lambda: compare(parent, args.workloads, args.seeds),
        "intersection_numbers_s": lambda: fresh_times(
            parent, ORACLE_TIMER, ORACLE_NS, 1
        ),
        "build_table_zonal_s": lambda: fresh_times(
            parent, ZONAL_TIMER, ZONAL_NS, ZONAL_REPEATS
        ),
        "zonal_rows_cold_s": lambda: fresh_times(
            parent, ROWS_COLD_TIMER, range(2, ROWS_MAX_N + 1), ZONAL_REPEATS
        ),
        "zonal_rows_warm_s": lambda: fresh_times(
            parent, ROWS_WARM_TIMER, range(2, ROWS_MAX_N + 1), ZONAL_REPEATS
        ),
        "zonal_rows_peak_rss_mb": lambda: fresh_times(
            parent, ROWS_RSS_TIMER, ROWS_RSS_NS, ZONAL_REPEATS, unit="mb"
        ),
        "zonal_rows_sweep_s": lambda: fresh_times(
            parent, SWEEP_TIMER.format(what="seconds"), SWEEP_NS, ZONAL_REPEATS
        ),
        "zonal_rows_sweep_peak_rss_mb": lambda: fresh_times(
            parent, SWEEP_TIMER.format(what="rss"), SWEEP_NS, ZONAL_REPEATS,
            unit="mb",
        ),
        "plan_build_s": lambda: fresh_times(
            parent, PLAN_TIMER, range(2, ROWS_MAX_N + 1), 1
        ),
        "diameter_all_relations_s": lambda: fresh_times(
            parent, DIAMETER_TIMER, DIAMETER_NS, 1
        ),
        "build_table_oracle_s": lambda: fresh_times(
            parent, ORACLE_TABLE_TIMER, ORACLE_TABLE_NS, 1
        ),
        "check_characters_s": lambda: fresh_times(
            parent, CHECK_TIMER, CHECK_NS, 1
        ),
        "table_oracle_cli_s": lambda: fresh_times(
            parent, TABLE_ORACLE_TIMER, ORACLE_BIG_NS, GUARD_REPEATS
        ),
        "verify_scheme_axioms_s": lambda: fresh_times(
            parent, SCHEME_AXIOMS_TIMER, ORACLE_BIG_NS, GUARD_REPEATS
        ),
        "verify_induction_s": lambda: fresh_times(
            parent, INDUCTION_TIMER,
            range(INDUCTION_MAX_N, INDUCTION_MAX_N + 1), GUARD_REPEATS,
        ),
        "verify_ratios_s": lambda: fresh_times(
            parent, RATIOS_TIMER,
            range(RATIOS_MAX_N, RATIOS_MAX_N + 1), GUARD_REPEATS,
        ),
        "fit_warm_s": lambda: fresh_times(
            parent, FIT_TIMER, range(14, 15), GUARD_REPEATS
        ),
        "zonal_rows_second_call_s": lambda: fresh_times(
            parent, ROWS_SECOND_TIMER.format(what="seconds"),
            SECOND_CALL_NS, GUARD_REPEATS,
        ),
        "zonal_rows_second_call_plan_misses": lambda: fresh_times(
            parent, ROWS_SECOND_TIMER.format(what="misses"),
            SECOND_CALL_NS, 1, unit="misses",
        ),
        "from_json_obj_s": lambda: fresh_times(parent, LOAD_TIMER, ZONAL_NS, 1),
        "first_load_s": lambda: fresh_times(
            parent, CACHED_LOAD_TIMER.format(loads_before=0), ZONAL_NS, 1
        ),
        "later_load_s": lambda: fresh_times(
            parent, CACHED_LOAD_TIMER.format(loads_before=1), ZONAL_NS, 1
        ),
        "check_table_s": lambda: fresh_times(
            parent, CHECK_TABLE_TIMER, ZONAL_NS, 1
        ),
        "frame_s": lambda: fresh_times(
            parent, FRAME_TIMER, FRAME_NS, FRAME_REPEATS
        ),
        "dims_s": lambda: fresh_times(parent, DIMS_TIMER, DIMS_NS, FRAME_REPEATS),
        "cache_write_s": lambda: fresh_times(
            parent, WRITE_TIMER.format(what="seconds"), WRITE_NS, 1
        ),
        "cache_file_bytes": lambda: fresh_times(
            parent, WRITE_TIMER.format(what="size"), WRITE_NS, 1, unit="bytes"
        ),
        "build_table_oracle_past_guard_s": lambda: fresh_times(
            parent, ORACLE_BIG_TIMER, ORACLE_BIG_NS, 1
        ),
        "fixed_pass_peak_rss_mb": lambda: {
            workload: fresh_times(
                parent, RSS_TIMER.format(workload=workload),
                range(passes, passes + 1), RSS_REPEATS, unit="mb",
            )
            for workload, passes in RSS_PASSES.items()
        },
    }


MEASUREMENTS = tuple(measurements(Path(), argparse.Namespace()))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument(
        "--only", nargs="+", choices=MEASUREMENTS, default=list(MEASUREMENTS),
        metavar="KEY", help="report keys to measure (default: all)",
    )
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    chosen = measurements(args.parent.resolve(), args)
    report = {
        "command": "python3 bench/run.py --workload W --seed S --seconds 8 --trace 0",
        "units": (
            "setup_s, wall_s: reference seconds; op_*: reference ms; peak_rss_mb: MB; "
            "intersection_numbers_s, build_table_zonal_s, zonal_rows_cold_s,"
            " zonal_rows_warm_s, zonal_rows_sweep_s,"
            " plan_build_s, diameter_all_relations_s,"
            " build_table_oracle_s, check_characters_s, table_oracle_cli_s,"
            " verify_scheme_axioms_s, verify_induction_s,"
            " verify_ratios_s, fit_warm_s, zonal_rows_second_call_s,"
            " from_json_obj_s, first_load_s, later_load_s,"
            " check_table_s, frame_s, dims_s,"
            " cache_write_s, build_table_oracle_past_guard_s: wall-clock seconds;"
            " cache_file_bytes: bytes; fixed_pass_peak_rss_mb: MB, keyed by workload"
            " and pass count; zonal_rows_peak_rss_mb, zonal_rows_sweep_peak_rss_mb:"
            " MB; zonal_rows_second_call_plan_misses: count"
        ),
        "env": {"python": platform.python_version(), "nproc": os.cpu_count()},
        "seeds": args.seeds,
        **{name: chosen[name]() for name in MEASUREMENTS if name in args.only},
        "default_zonal_max_n": DEFAULT_ZONAL_MAX_N,
        "induction_max_n": INDUCTION_MAX_N,
        "ratios_max_n": RATIOS_MAX_N,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
