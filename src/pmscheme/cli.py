"""Command-line surface: tables, verification runs, gaps, diameters, fits.

Exit codes: 0 pass, 1 verification failure, 2 unsupported request or parse
error, 3 internal ambiguity.  Every command that reads a full table gets
the zonal table, cached on disk keyed by (n, code version); cache writes
are atomic.  ``diameter`` and ``scan --with-diameters`` derive
relation-graph diameters from that table.  The brute-force oracle serves
only ``table --source oracle`` (uncached, seeded by --seed) and the
intersection numbers behind ``verify scheme-axioms``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field
from functools import cache

from . import __version__
from .errors import AmbiguousRowAssignment, GuardExceeded, SchemeError
from .matchings import DEFAULT_ORACLE_MAX_N, intersection_numbers
from .partitions import Partition, generate_partitions, parse_partition
from .ratios import all_merges, gap_ratio_report, tau_ratio, valency_ratio
from .spectra import (
    gap_report,
    trace_identity_check,
    valency,
    verify_induction_step,
)
from .symfunc import fit_e_mu
from .tables import (
    DEFAULT_ZONAL_MAX_N,
    EigTable,
    build_table_formulas,
    build_table_oracle,
    build_table_zonal,
    diameter,
    gap_scan,
    verify_column_orthogonality,
    verify_conjecture,
    verify_structure_constants,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_UNSUPPORTED = 2
EXIT_AMBIGUOUS = 3


@dataclass
class Config:
    data_dir: str = field(
        default_factory=lambda: os.environ.get(
            "PMSCHEME_DATA_DIR",
            os.path.join(os.path.expanduser("~"), ".cache", "pmscheme"),
        )
    )
    max_oracle_n: int = field(
        default_factory=lambda: int(
            os.environ.get("PMSCHEME_MAX_ORACLE_N", DEFAULT_ORACLE_MAX_N)
        )
    )
    seed: int = 0

    def __post_init__(self):
        if self.max_oracle_n < 2:
            raise ValueError("resource guards must be at least 2")


def _cache_path(config: Config, n: int) -> str:
    return os.path.join(config.data_dir, f"table_n{n}_v{__version__}.json")


def _atomic_write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def oracle_table_cached(config: Config, n: int) -> EigTable:
    """The full table for n via the on-disk cache, built by
    ``build_table_zonal`` on a miss and keyed by (n, code version).

    The name predates the zonal engine and is kept because the benchmark
    (``bench/workloads.py`` set-up, ``bench/spans.py``) calls it by name.
    Raises GuardExceeded above DEFAULT_ZONAL_MAX_N.  A cache file that
    cannot be read or parsed, whose table fails the checks that
    ``EigTable.from_json_obj`` runs (labels, grid shape, table invariants),
    or whose table has an unfilled cell (``is_complete``), is rebuilt and
    overwritten, and a cache that cannot be written is skipped; either
    prints a note on stderr.
    """
    path = _cache_path(config, n)
    if os.path.exists(path):
        try:
            with open(path) as fh:
                payload = json.load(fh)
            if payload["code_version"] == __version__ and payload["n"] == n:
                table = EigTable.from_json_obj(payload["table"])
                if not table.is_complete():
                    raise SchemeError("cached table is not complete")
                return table
        except (
            OSError, ValueError, KeyError, TypeError, AttributeError, SchemeError
        ) as exc:
            print(
                f"note: rebuilding unreadable cache {path}: {exc!r}", file=sys.stderr
            )
    table = build_table_zonal(n)
    payload = {
        "code_version": __version__,
        "n": n,
        "table": table.to_json_obj(),
    }
    try:
        _atomic_write(path, json.dumps(payload, indent=2) + "\n")
    except OSError as exc:
        print(f"note: table for n={n} not cached: {exc}", file=sys.stderr)
    return table


def _build_table(config: Config, n: int, source: str) -> EigTable:
    if source == "oracle":
        return build_table_oracle(n, seed=config.seed, max_n=config.max_oracle_n)
    if source == "formulas":
        return build_table_formulas(n)
    return oracle_table_cached(config, n)


def _render(table: EigTable, fmt: str) -> str:
    if fmt == "csv":
        return table.to_csv_text()
    if fmt == "json":
        return table.to_json_text()
    return table.pretty()


def _parse_prefix(text: str) -> Partition:
    if text.startswith("["):
        return parse_partition(text)
    return Partition(int(x) for x in text.split(","))


def _guard_error(exc: GuardExceeded) -> str:
    """The refusal line, with the guard's cost estimate when it has one."""
    return f"error: {exc} ({exc.estimate})" if exc.estimate else f"error: {exc}"


def cmd_table(args, config: Config) -> int:
    n = args.n
    if n < 2:
        print(f"error: tables need n >= 2, got {n}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    try:
        table = _build_table(config, n, args.source)
    except GuardExceeded as exc:
        if args.source == "oracle":
            hint = "; raise --max-oracle-n to override"
        else:
            hint = "; --source formulas prints the closed-form cells"
        print(_guard_error(exc) + hint, file=sys.stderr)
        return EXIT_UNSUPPORTED
    except AmbiguousRowAssignment as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_AMBIGUOUS
    if not table.is_complete():
        print(
            f"note: table for n={n} is partial (closed-form cells only)",
            file=sys.stderr,
        )
    text = _render(table, args.format)
    if not args.out:
        sys.stdout.write(text)
        return EXIT_PASS
    try:
        _atomic_write(os.path.abspath(args.out), text)
    except OSError as exc:
        print(f"error: cannot write --out {args.out}: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    return EXIT_PASS


def _print_verdict(args, obj: dict, text: str) -> None:
    """With --json, print obj as one JSON object led by the verify kind and
    n (obj holds "overall" and the kind's own fields); else print text."""
    if args.json:
        print(json.dumps({"kind": args.kind, "n": args.n, **obj}, indent=2))
    else:
        print(text)


def cmd_verify(args, config: Config) -> int:
    kind = args.kind
    try:
        if kind == "conjecture":
            table = oracle_table_cached(config, args.n)
            verdict = verify_conjecture(table)
            lines = []
            for entry in verdict.per_column:
                if entry["applicable"]:
                    mark = "ok" if entry["holds"] else "FAIL"
                    rows = ", ".join(str(l) for l in entry["rows"])
                    lines.append(
                        f"  {entry['mu']}: second largest on {{{rows}}} [{mark}]"
                    )
            word = "PASS" if verdict.overall else "FAIL"
            lines.append(f"conjecture n={args.n}: {word}")
            _print_verdict(args, verdict.to_json_obj(), "\n".join(lines))
            return EXIT_PASS if verdict.overall else EXIT_FAIL

        if kind == "trace":
            table = oracle_table_cached(config, args.n)
            bad = [
                mu
                for mu in table.columns
                if not trace_identity_check(args.n, mu, table)
            ]
            if bad:
                text = f"trace identity n={args.n}: FAIL at {bad}"
            else:
                text = f"trace identity n={args.n}: PASS ({len(table.columns)} columns)"
            obj = {
                "overall": not bad,
                "columns": len(table.columns),
                "failed": [str(mu) for mu in bad],
            }
            _print_verdict(args, obj, text)
            return EXIT_FAIL if bad else EXIT_PASS

        if kind == "induction":
            prefix = _parse_prefix(args.family)
            report = verify_induction_step(prefix, args.n)
            word = "PASS" if report.passed else "FAIL"
            text = (
                f"induction step family {prefix} at n={args.n}: {word}"
                f" (min slack {report.min_slack} at lam={report.witness[0]},"
                f" row {report.witness[1]})"
            )
            obj = {
                "overall": report.passed,
                "family": str(prefix),
                "rhs": str(report.rhs),
                "min_slack": str(report.min_slack),
                "witness": {"lam": str(report.witness[0]), "row": report.witness[1]},
            }
            _print_verdict(args, obj, text)
            return EXIT_PASS if report.passed else EXIT_FAIL

        if kind == "ratios":
            n = args.n
            failures = []
            mismatched_constant = False
            checked = 0
            for mu in generate_partitions(n):
                if mu.parts[-1:] != (1,):
                    continue
                for spec in all_merges(mu):
                    vr = valency_ratio(spec)
                    tr = tau_ratio(spec)
                    checked += 1
                    if tr is not None and vr != tr:
                        failures.append(spec)
                    report = gap_ratio_report(spec)
                    if not report.matches_formula:
                        mismatched_constant = True
            if failures:
                text = f"ratio laws n={n}: FAIL ({len(failures)} merges disagree)"
            else:
                text = f"ratio laws n={n}: PASS ({checked} merges, valency == tau)"
                if mismatched_constant:
                    text += (
                        "\nNOTE: the closed-form merge constant is half the measured"
                        " ratio on every checked merge; reports carry both values."
                    )
            obj = {
                "overall": not failures,
                "merges": checked,
                "failed": [f"{s.mu} parts {s.i},{s.j}" for s in failures],
                "merge_constant_matches": not mismatched_constant,
            }
            _print_verdict(args, obj, text)
            return EXIT_FAIL if failures else EXIT_PASS

        if kind == "scheme-axioms":
            n = args.n
            data = intersection_numbers(n, max_n=config.max_oracle_n)
            table = oracle_table_cached(config, n)
            ok_struct = verify_structure_constants(table, data)
            ok_orth = verify_column_orthogonality(table)
            ok_trace = all(
                trace_identity_check(n, mu, table) for mu in table.columns
            )
            ok = ok_struct and ok_orth and ok_trace
            text = (
                f"scheme axioms n={n}: {'PASS' if ok else 'FAIL'}"
                f" (structure constants {'ok' if ok_struct else 'FAIL'},"
                f" orthogonality {'ok' if ok_orth else 'FAIL'},"
                f" trace {'ok' if ok_trace else 'FAIL'})"
            )
            obj = {
                "overall": ok,
                "structure_constants": ok_struct,
                "orthogonality": ok_orth,
                "trace": ok_trace,
            }
            _print_verdict(args, obj, text)
            return EXIT_PASS if ok else EXIT_FAIL
    except GuardExceeded as exc:
        print(_guard_error(exc), file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ValueError as exc:  # a bad --family or --n
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except AmbiguousRowAssignment as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_AMBIGUOUS
    print(f"error: unknown verify kind {kind!r}", file=sys.stderr)
    return EXIT_UNSUPPORTED


def _gap_for(config: Config, mu: Partition) -> tuple[int, str]:
    try:
        report = gap_report(mu)
        return report.gap, report.source
    except ValueError:
        pass  # no closed form; fall back to a full table
    report = gap_report(mu, table=oracle_table_cached(config, mu.n))
    return report.gap, report.source


def cmd_gap(args, config: Config) -> int:
    try:
        mu = parse_partition(args.mu)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    if args.n is not None and args.n != mu.n:
        print(
            f"error: --n {args.n} disagrees with {mu} (a partition of {mu.n})",
            file=sys.stderr,
        )
        return EXIT_UNSUPPORTED
    if mu.parts == (1,) * mu.n or mu.n < 2:
        print(f"error: {mu} has no spectral gap to report", file=sys.stderr)
        return EXIT_UNSUPPORTED
    try:
        gap, source = _gap_for(config, mu)
    except GuardExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    print(gap)
    if args.verbose:
        print(f"source: {source}", file=sys.stderr)
    return EXIT_PASS


def cmd_diameter(args, config: Config) -> int:
    try:
        mu = parse_partition(args.mu)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    try:
        result = diameter(oracle_table_cached(config, mu.n), mu)
    except GuardExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    if result.connected:
        print(result.diameter)
    else:
        print(f"disconnected (reached {result.reached} of {result.n_vertices})")
    return EXIT_PASS


def cmd_fit(args, config: Config) -> int:
    try:
        prefix = _parse_prefix(args.prefix)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    try:
        lo, hi = (int(x) for x in args.n_range.split(":"))
    except ValueError:
        print(f"error: bad --n-range {args.n_range!r}, want LO:HI", file=sys.stderr)
        return EXIT_UNSUPPORTED
    if lo < prefix.n or hi < lo:
        print(
            f"error: range {lo}:{hi} invalid for prefix {prefix} (min n {prefix.n})",
            file=sys.stderr,
        )
        return EXIT_UNSUPPORTED
    data = []
    try:
        for n in range(lo, hi + 1):
            table = oracle_table_cached(config, n)
            mu = Partition(prefix.parts + (1,) * (n - prefix.n))
            data.append((n, table.column(mu)))
        expr = fit_e_mu(prefix, data)
    except (GuardExceeded, SchemeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    print(expr.to_text())
    return EXIT_PASS


def cmd_scan(args, config: Config) -> int:
    n = args.n
    try:
        table = oracle_table_cached(config, n)
    except GuardExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    gaps = gap_scan(table)
    for mu in table.columns:
        if mu in gaps:
            print(f"  {mu}: valency {valency(mu)}, gap {gaps[mu]}")
    best = min(gaps, key=lambda m: (gaps[m], m.parts))
    print(f"smallest gap: {best} ({gaps[best]})")
    if args.with_diameters:
        results = [diameter(table, mu) for mu in gaps]
        connected = {r.mu: r.diameter for r in results if r.connected}
        if connected:
            worst = max(connected.values())
            ties = ", ".join(
                str(m) for m in table.columns if connected.get(m) == worst
            )
            print(f"largest diameter: {ties} ({worst})")
        for r in results:
            if not r.connected:
                print(f"  {r.mu}: disconnected ({r.reached}/{r.n_vertices})")
    return EXIT_PASS


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    ``main`` call; parsing leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="pmscheme",
        description="Eigenvalue tables and spectral gaps of the perfect"
        " matching association scheme, with brute-force cross-checks.",
    )
    parser.add_argument("--data-dir", help="cache directory for zonal tables")
    parser.add_argument(
        "--seed", type=int, default=0, help="oracle RNG seed (--source oracle)"
    )
    parser.add_argument("--max-oracle-n", type=int, help="oracle guard override")
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="build and print an eigenvalue table")
    p_table.add_argument("--n", type=int, required=True)
    p_table.add_argument(
        "--source",
        choices=("auto", "zonal", "oracle", "formulas"),
        default="auto",
        help=f"auto and zonal: the full zonal table (n <= {DEFAULT_ZONAL_MAX_N})",
    )
    p_table.add_argument(
        "--format", choices=("csv", "json", "pretty"), default="pretty"
    )
    p_table.add_argument("--out")

    p_verify = sub.add_parser("verify", help="run a verification")
    p_verify.add_argument(
        "kind",
        choices=("conjecture", "trace", "induction", "ratios", "scheme-axioms"),
    )
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--family", help="prefix for induction, e.g. 3,2")
    p_verify.add_argument("--json", action="store_true")

    p_gap = sub.add_parser("gap", help="spectral gap of one relation")
    p_gap.add_argument("--mu", required=True)
    p_gap.add_argument("--n", type=int)
    p_gap.add_argument("--verbose", action="store_true")

    p_diam = sub.add_parser("diameter", help="diameter of one relation graph")
    p_diam.add_argument("--mu", required=True)

    p_fit = sub.add_parser("fit", help="recover a family expression from tables")
    p_fit.add_argument("--prefix", required=True)
    p_fit.add_argument("--n-range", required=True, help="LO:HI inclusive")

    p_scan = sub.add_parser("scan", help="per-column gap scan of a full table")
    p_scan.add_argument("--n", type=int, required=True)
    p_scan.add_argument("--with-diameters", action="store_true")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_UNSUPPORTED if exc.code else EXIT_PASS
    overrides = {"seed": args.seed}
    if args.data_dir:
        overrides["data_dir"] = args.data_dir
    if args.max_oracle_n is not None:
        overrides["max_oracle_n"] = args.max_oracle_n
    try:
        config = Config(**overrides)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED

    if args.command == "table":
        return cmd_table(args, config)
    if args.command == "verify":
        if args.kind == "induction" and not args.family:
            print("error: verify induction needs --family", file=sys.stderr)
            return EXIT_UNSUPPORTED
        return cmd_verify(args, config)
    if args.command == "gap":
        return cmd_gap(args, config)
    if args.command == "diameter":
        return cmd_diameter(args, config)
    if args.command == "fit":
        return cmd_fit(args, config)
    if args.command == "scan":
        return cmd_scan(args, config)
    print(f"error: unknown command {args.command!r}", file=sys.stderr)
    return EXIT_UNSUPPORTED


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
