"""Workloads of the pmscheme benchmark: inputs, set-up and output checks.

Every workload is a closed loop with one client in one process.  A set-up
function builds, from the workload seed, the references and any state the
timed phase needs, and returns a function that gives the operations of the
next pass.  Each operation is a call into the public
surface (``pmscheme.cli.main`` or ``pmscheme.tables.build_table_oracle``,
looked up at call time so that the traced run sees its wrappers) plus a
check against a reference that does not share the timed code path:

* tables: the hand-transcribed goldens in ``tests/golden``;
* ``fit``: ``e_catalog(prefix).to_text()``;
* ``gap`` and ``scan``: valency minus the largest non-top golden entry;
* ``verify``: exit 0 with PASS, or ``"overall": true``;
* ``diameter``: a BFS over relation classes driven by ``p^k_{i mu} > 0``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import pmscheme
from pmscheme import cli, matchings, spectra, symfunc, tables

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"
TABLE_NS = range(2, 8)


# --------------------------------------------------------------------------
# References


def parts_of(label: str) -> tuple[int, ...]:
    """Parts of a golden partition label such as ``[2,1,1]``."""
    return tuple(int(x) for x in label.strip("[]").split(","))


@dataclass
class Golden:
    """One golden table: the CSV text and its parsed cells."""

    n: int
    text: str
    columns: list[str]
    rows: list[str]
    values: list[list[int]]
    dims: list[int]

    @classmethod
    def load(cls, n: int) -> "Golden":
        text = (GOLDEN_DIR / f"table_n{n}.csv").read_bytes().decode()
        header, *body = csv.reader(io.StringIO(text))
        return cls(
            n,
            text,
            header[1:-1],
            [row[0] for row in body],
            [[int(x) for x in row[1:-1]] for row in body],
            [int(row[-1]) for row in body],
        )

    def gaps(self) -> dict[str, int]:
        """Valency minus the largest entry off the top row, per non-identity
        column.  The top row ``[n]`` is the first row and holds valencies."""
        out = {}
        for c, mu in enumerate(self.columns):
            if set(parts_of(mu)) == {1}:
                continue
            col = [row[c] for row in self.values]
            out[mu] = col[0] - max(col[1:])
        return out

    def scan_text(self) -> str:
        gaps = self.gaps()
        lines = [
            f"  {mu}: valency {self.values[0][self.columns.index(mu)]}, gap {g}\n"
            for mu, g in gaps.items()
        ]
        best = min(gaps, key=lambda mu: (gaps[mu], parts_of(mu)))
        return "".join(lines) + f"smallest gap: {best} ({gaps[best]})\n"

    def matches_json(self, obj: dict) -> bool:
        return (
            obj.get("n") == self.n
            and obj.get("columns") == self.columns
            and obj.get("rows") == self.rows
            and obj.get("values") == self.values
            and obj.get("dims") == self.dims
        )

    def matches_table(self, table) -> bool:
        return (
            [str(lam) for lam in table.rows] == self.rows
            and [str(mu) for mu in table.columns] == self.columns
            and table.grid() == self.values
            and table.dims == self.dims
        )


def load_goldens() -> dict[int, Golden]:
    return {n: Golden.load(n) for n in TABLE_NS}


def class_diameter_text(data, mu_index: int) -> str:
    """Expected ``diameter`` output from a BFS over relation classes.

    The stabiliser of the base matching is transitive on each relation
    class, so a class-c matching has a neighbour in class i under relation
    mu exactly when ``p[c][i][mu] > 0``.
    """
    d = len(data.relations)
    start = d - 1  # relations descend, so the identity [1^n] is last
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for c in frontier:
            for i in range(d):
                if i not in dist and data.p[c][i][mu_index] > 0:
                    dist[i] = dist[c] + 1
                    nxt.append(i)
        frontier = nxt
    if len(dist) == d:
        return f"{max(dist.values())}\n"
    reached = sum(data.valencies[i] for i in dist)
    return f"disconnected (reached {reached} of {sum(data.valencies)})\n"


# --------------------------------------------------------------------------
# Operations


@dataclass
class Op:
    """One request of the closed loop.

    ``call`` runs the program and returns what it produced; ``check``
    compares that with the reference.  ``known_defect`` is the exact wrong
    output of a documented, still-open program defect: the op still counts
    as failed, but reproducing that output does not make the run incorrect.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    known_defect: object = None


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def cli_op(
    argv: list[str],
    check: Callable[[int, str], bool],
    data_dir: Path | None = None,
    known_defect=None,
) -> Op:
    full = (["--data-dir", str(data_dir)] if data_dir is not None else []) + argv
    return Op(
        " ".join(argv),
        lambda: run_cli(full),
        lambda out: check(*out),
        known_defect,
    )


def table_csv_op(golden: Golden, data_dir: Path, seed: int | None = None) -> Op:
    seed_args = ["--seed", str(seed)] if seed is not None else []
    argv = seed_args + ["table", "--n", str(golden.n), "--format", "csv"]
    return cli_op(argv, lambda rc, out: rc == 0 and out == golden.text, data_dir)


def table_json_op(golden: Golden, data_dir: Path) -> Op:
    def check(rc, out):
        return rc == 0 and golden.matches_json(json.loads(out))

    return cli_op(["table", "--n", str(golden.n), "--format", "json"], check, data_dir)


def verify_op(argv: list[str], data_dir: Path) -> Op:
    def check(rc, out):
        if "--json" in argv:
            return rc == 0 and json.loads(out).get("overall") is True
        return rc == 0 and ": PASS" in out

    return cli_op(["verify"] + argv, check, data_dir)


def fit_op(prefix: tuple[int, ...], lo: int, hi: int, data_dir: Path) -> Op:
    expected = symfunc.e_catalog(pmscheme.Partition(prefix)).to_text() + "\n"
    argv = ["fit", "--prefix", ",".join(map(str, prefix)), "--n-range", f"{lo}:{hi}"]
    return cli_op(argv, lambda rc, out: rc == 0 and out == expected, data_dir)


# The n=4 table gives 24 for [3,1], but ``_gap_for`` tries the closed forms
# before the cached table and prints the conjectured hook value 28; n=4 is the
# conjecture's documented exception.  The op stays in the menu and fails.
KNOWN_GAP_DEFECTS = {"[3,1]": (0, "28\n")}


def gap_op(mu: str, gap: int, data_dir: Path) -> Op:
    return cli_op(
        ["gap", "--mu", mu],
        lambda rc, out: rc == 0 and out == f"{gap}\n",
        data_dir,
        KNOWN_GAP_DEFECTS.get(mu),
    )


def scan_op(golden: Golden, data_dir: Path) -> Op:
    expected = golden.scan_text()
    return cli_op(
        ["scan", "--n", str(golden.n)],
        lambda rc, out: rc == 0 and out == expected,
        data_dir,
    )


def diameter_op(mu: pmscheme.Partition, data) -> Op:
    expected = class_diameter_text(data, data.index(mu))
    return cli_op(
        ["diameter", "--mu", str(mu)],
        lambda rc, out: rc == 0 and out == expected,
    )


def assembly_op(golden: Golden, seed: int, data) -> Op:
    n = golden.n
    return Op(
        f"build_table_oracle n={n} seed={seed}",
        lambda: tables.build_table_oracle(n, seed=seed, data=data),
        golden.matches_table,
    )


@dataclass
class PassResult:
    """``intervals`` holds the ``perf_counter`` start and end of each op's call."""

    intervals: list[tuple[float, float]] = field(default_factory=list)
    failed: list[str] = field(default_factory=list)
    unexpected: list[str] = field(default_factory=list)

    @property
    def latencies(self) -> list[float]:
        return [t1 - t0 for t0, t1 in self.intervals]

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def run_ops(ops: list[Op]) -> PassResult:
    """Run ops back to back, timing only ``call``; check after each."""
    result = PassResult()
    for op in ops:
        t0 = perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # a crashing op is a failed op, not a crashed run
            out = exc
        result.intervals.append((t0, perf_counter()))
        try:
            ok = not isinstance(out, Exception) and op.check(out)
        except (ValueError, KeyError, TypeError, AttributeError):
            ok = False  # unparsable output
        if not ok:
            result.failed.append(op.label)
            if op.known_defect is None or out != op.known_defect:
                result.unexpected.append(op.label)
    return result


# --------------------------------------------------------------------------
# Workloads


NextPass = Callable[[], list[Op]]


def setup_cold_tables(seed: int, work: Path) -> NextPass:
    """``table --n k --format csv --seed s`` for k = 2..7, each against a
    fresh empty data dir, so every op enumerates, builds and writes."""
    goldens = load_goldens()
    s = random.Random(seed).randrange(1 << 31)

    def next_pass():
        return [
            table_csv_op(goldens[n], Path(tempfile.mkdtemp(dir=work)), seed=s)
            for n in TABLE_NS
        ]

    return next_pass


ASSEMBLY_NS = (6, 7)
ASSEMBLY_SEEDS = 10


def setup_table_assembly(seed: int, work: Path) -> NextPass:
    """``build_table_oracle(n, seed=s, data=D[n])`` for n in {6, 7} over a
    seeded list of seeds; D is counted here, so the timed phase is all
    exact algebra and table assembly."""
    goldens = load_goldens()
    data = {n: matchings.intersection_numbers(n) for n in ASSEMBLY_NS}
    rng = random.Random(seed)
    seeds = [rng.randrange(1 << 31) for _ in range(ASSEMBLY_SEEDS)]
    ops = [assembly_op(goldens[n], s, data[n]) for s in seeds for n in ASSEMBLY_NS]
    return lambda: list(ops)


# At least 1000 commands a pass, so op_p99_ms has 10 samples beyond it.
WARM_MIN_OPS = 1010
INDUCTION_MAX_N = 10
RATIOS_MAX_N = 10
# (prefix, lowest lo) such that fit --n-range lo:7 determines the catalog expression.
FIT_PREFIXES = (((2,), 6), ((3,), 5), ((2, 2), 5), ((4,), 5))


def warm_menu(goldens: dict[int, Golden], data_dir: Path) -> list[Op]:
    """Every command of the warm_queries menu once."""
    menu: list[Op] = []
    for n, g in goldens.items():
        menu.append(table_csv_op(g, data_dir))
        menu.append(table_json_op(g, data_dir))
        menu.append(verify_op(["conjecture", "--n", str(n), "--json"], data_dir))
        menu.append(verify_op(["trace", "--n", str(n)], data_dir))
        menu.append(scan_op(g, data_dir))
        for mu, gap in g.gaps().items():
            menu.append(gap_op(mu, gap, data_dir))
    for prefix, lo_max in FIT_PREFIXES:
        for lo in range(sum(prefix), lo_max + 1):
            menu.append(fit_op(prefix, lo, max(TABLE_NS), data_dir))
    for n in range(2, RATIOS_MAX_N + 1):
        menu.append(verify_op(["ratios", "--n", str(n)], data_dir))
    # The induction step is a claim from the family threshold on; below it
    # (e.g. [2,2] at n=4) FAIL is the correct verdict, so those are not asked.
    for prefix in symfunc.CATALOG_PREFIXES:
        family = ",".join(map(str, prefix.parts))
        for n in range(spectra.family_threshold(prefix), INDUCTION_MAX_N + 1):
            menu.append(
                verify_op(["induction", "--family", family, "--n", str(n)], data_dir)
            )
    return menu


def fill_cache(data_dir: Path) -> None:
    config = cli.Config(data_dir=str(data_dir), seed=0)
    for n in TABLE_NS:
        cli.oracle_table_cached(config, n)


def setup_warm_queries(seed: int, work: Path) -> NextPass:
    """Fill the table cache (seed 0, n = 2..7), then replay seeded shuffles of
    the menu: each pass holds every command the same number of times."""
    goldens = load_goldens()
    data_dir = Path(tempfile.mkdtemp(dir=work))
    fill_cache(data_dir)
    menu = warm_menu(goldens, data_dir)
    deck = menu * math.ceil(WARM_MIN_OPS / len(menu))
    rng = random.Random(seed)

    def next_pass():
        ops = list(deck)
        rng.shuffle(ops)
        return ops

    return next_pass


DIAMETER_MAX_N = 5
DIAMETER_EXTRA = ((2, 1, 1, 1, 1), (2, 2, 2))


def setup_diameters(seed: int, work: Path) -> NextPass:
    """``diameter --mu mu`` for every non-identity mu with n <= 5 plus two at
    n = 6, in a seeded order; references come from intersection numbers."""
    data = {n: matchings.intersection_numbers(n) for n in range(2, DIAMETER_MAX_N + 2)}
    mus = [
        mu
        for n in range(2, DIAMETER_MAX_N + 1)
        for mu in pmscheme.generate_partitions(n)
        if set(mu.parts) != {1}
    ] + [pmscheme.Partition(p) for p in DIAMETER_EXTRA]
    ops = [diameter_op(mu, data[mu.n]) for mu in mus]
    rng = random.Random(seed)

    def next_pass():
        order = list(ops)
        rng.shuffle(order)
        return order

    return next_pass


WORKLOADS: dict[str, Callable[[int, Path], NextPass]] = {
    "cold_tables": setup_cold_tables,
    "table_assembly": setup_table_assembly,
    "warm_queries": setup_warm_queries,
    "diameters": setup_diameters,
}
