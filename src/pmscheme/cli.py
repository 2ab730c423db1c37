"""Command-line surface: tables, verification runs, gaps, diameters, fits.

Each subcommand's parser carries its ``cmd_*`` function as ``run``, and
``main`` runs it inside the one ``try`` that maps a refusal to its exit
code.  Exit codes: 0 pass, 1 verification failure or any other
``SchemeError`` (such as a failed product in ``table --source oracle``), 2
unsupported request or parse error (``GuardExceeded``, ``ValueError``,
``FitInconsistent``, ``FitUnderdetermined``), 3 a mislabelled row
(``AmbiguousRowAssignment``); a refusal prints one ``error: {exc}`` line
on stderr; ``table`` adds to its guard's refusal the option that gets past
the guard: ``--max-oracle-n`` for the oracle source up to the zonal guard,
``--source formulas`` past it.  The console script (``main_entry``) ends
by SIGPIPE, silently, when stdout closes.

Every command that reads a full table gets the zonal table, cached on disk
keyed by (n, code version) as its ``--format json`` text; cache writes are
atomic, and ``table --out`` writes in place, as a shell redirect does.  The
file is read on every load, but each distinct text is parsed and checked
once per process (``_checked_table``), so a changed byte is checked in
full; a table served from the file is shared and read-only.
``diameter`` and ``scan --with-diameters`` derive relation-graph diameters
from that table.  The brute-force intersection numbers only check it, in
``verify scheme-axioms`` and ``table --source oracle`` (uncached; ``--seed``
is accepted and changes nothing), which count only the class matrices of
the relations that check multiplies by, each by a walk pruned to the
branches that can end in its relation.  Both run for every n the zonal
table serves: ``--max-oracle-n`` (or PMSCHEME_MAX_ORACLE_N) defaults to
``DEFAULT_ZONAL_MAX_N`` and can only lower what they reach, since the zonal
guard still holds above it.  The library's ``intersection_numbers`` keeps
its own default, ``DEFAULT_ORACLE_MAX_N``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from dataclasses import dataclass, field
from functools import cache, lru_cache

from . import __version__
from .errors import (
    AmbiguousRowAssignment,
    FitInconsistent,
    FitUnderdetermined,
    GuardExceeded,
    SchemeError,
    guard,
)
from .matchings import intersection_numbers
from .partitions import Partition, generate_partitions, parse_partition, valency
from .ratios import RATIOS_MAX_N, all_merges, merge_constant
from .ratios import gap_ratio_report  # noqa: F401  (bench/spans.py traces cli.gap_ratio_report)
from .spectra import (
    family_closed_form,
    family_mu,
    gap_report,
    phi_n11,
    verify_induction_step,
)
from .symfunc import fit_e_mu
from .tables import (
    DEFAULT_ZONAL_MAX_N,
    EigTable,
    build_table_formulas,
    build_table_oracle,
    build_table_zonal,
    column_claim,
    diameter,
    gap_scan,
    trace_identity_check,
    verify_column_orthogonality,
    verify_conjecture,
    verify_structure_constants,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_UNSUPPORTED = 2
EXIT_AMBIGUOUS = 3


def _env_max_oracle_n() -> int:
    """PMSCHEME_MAX_ORACLE_N, or ``DEFAULT_ZONAL_MAX_N`` when it is unset
    or empty, as an empty PMSCHEME_DATA_DIR means the default too: the
    commands that read the oracle check the zonal table, so they run as far
    as it does unless this lowers their limit."""
    text = os.environ.get("PMSCHEME_MAX_ORACLE_N") or str(DEFAULT_ZONAL_MAX_N)
    try:
        return int(text)
    except ValueError:
        pass
    raise ValueError(f"bad PMSCHEME_MAX_ORACLE_N {text!r}: want an integer")


def _env_data_dir() -> str:
    """PMSCHEME_DATA_DIR, or ``~/.cache/pmscheme`` when it is unset or
    empty, as an empty ``--data-dir`` means the default too."""
    return os.environ.get("PMSCHEME_DATA_DIR") or os.path.join(
        os.path.expanduser("~"), ".cache", "pmscheme"
    )


@dataclass
class Config:
    data_dir: str = field(default_factory=_env_data_dir)
    max_oracle_n: int = field(default_factory=_env_max_oracle_n)
    seed: int = 0

    def __post_init__(self):
        if not self.data_dir:
            self.data_dir = _env_data_dir()
        if self.max_oracle_n < 2:
            raise ValueError("resource guards must be at least 2")


def _cache_path(config: Config, n: int) -> str:
    return os.path.join(config.data_dir, f"table_n{n}_v{__version__}.json")


def _atomic_write(path: str, text: str) -> None:
    """Write a cache file: a fresh file beside path, renamed over path, so
    no reader sees half a table.  ``open`` creates it with mode 0666 less
    the umask, as a shell redirect would."""
    directory, name = os.path.split(path)
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "x") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# one checked text for each n = 2..DEFAULT_ZONAL_MAX_N that a cache file serves
@lru_cache(maxsize=DEFAULT_ZONAL_MAX_N - 1)
def _checked_table(n: int, text: str) -> EigTable:
    """The table a cache file for n holds, given the file's text: parsed
    and served only if its ``n`` is n, ``EigTable.from_json_obj`` accepts
    it, the table is complete and every column's provenance is ``zonal``;
    SchemeError (or the parser's error) otherwise.  The verdict depends on
    n, the text and the code alone, so it is memoised per (n, text): a text
    already checked in this process is not parsed or checked again, and a
    text that differs by one character is checked in full.  A refusal is
    raised, never memoised.  A hit returns the same table, which every
    caller only reads."""
    obj = json.loads(text)
    if obj["n"] != n:
        raise SchemeError(f"cache file holds the table for n={obj['n']!r}")
    table = EigTable.from_json_obj(obj)
    if not table.is_complete():
        raise SchemeError("cached table is not complete")
    # every provenance key is a column (EigTable refuses any other), so one
    # "zonal" tag per column covers them all
    tags = table.provenance.values()
    if len(tags) != len(table.columns) or any(t != "zonal" for t in tags):
        raise SchemeError("cached table has a column not marked zonal")
    return table


def oracle_table_cached(config: Config, n: int) -> EigTable:
    """The full table for n, read from the cache file for (n, code version)
    or built by ``build_table_zonal`` and written there (GuardExceeded above
    DEFAULT_ZONAL_MAX_N).  The benchmark (``bench/workloads.py``,
    ``bench/spans.py``) calls it by this name, which predates the zonal
    engine.  The file is the table's ``to_json_text``; it is opened once on
    every call and served only if ``_checked_table`` accepts its text, which
    checks each distinct text once per process.  A missing file, or a data
    directory path that names a file, is built silently; any other file
    that cannot be read or served, a directory in its place included, is
    rebuilt and overwritten, and a cache that cannot be written is skipped;
    either prints a note on stderr.  A table served from the file may be the one
    an earlier call returned: it is shared and read-only.
    """
    path = _cache_path(config, n)
    try:
        with open(path) as fh:
            return _checked_table(n, fh.read())
    except (FileNotFoundError, NotADirectoryError):
        pass  # nothing cached yet
    except (
        OSError, ValueError, KeyError, TypeError, AttributeError, SchemeError
    ) as exc:
        print(f"note: rebuilding unreadable cache {path}: {exc!r}", file=sys.stderr)
    table = build_table_zonal(n)
    try:
        _atomic_write(path, table.to_json_text())
    except OSError as exc:
        print(f"note: table for n={n} not cached: {exc}", file=sys.stderr)
    return table


def _build_table(config: Config, n: int, source: str) -> EigTable:
    if source == "oracle":
        data = intersection_numbers(n, max_n=config.max_oracle_n)
        return build_table_oracle(n, seed=config.seed, data=data)
    if source == "formulas":
        return build_table_formulas(n)
    return oracle_table_cached(config, n)


def _render(table: EigTable, fmt: str) -> str:
    if fmt == "csv":
        return table.to_csv_text()
    if fmt == "json":
        return table.to_json_text()
    return table.pretty()


def _parse_prefix(text: str, option: str) -> Partition:
    try:
        if text.startswith("["):
            return parse_partition(text)
        return Partition(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(
            f"bad {option} {text!r}: want parts like 3,2 or [3,2]"
        ) from None


def cmd_table(args, config: Config) -> int:
    n = args.n
    if n < 2:
        raise ValueError(f"tables need n >= 2, got {n}")
    try:
        table = _build_table(config, n, args.source)
    except GuardExceeded as exc:
        if args.source == "formulas":
            raise
        if args.source == "oracle" and n <= DEFAULT_ZONAL_MAX_N:
            hint = "raise --max-oracle-n to override"
        else:
            hint = "--source formulas prints the closed-form cells"
        raise GuardExceeded(f"{exc}; {hint}") from None
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
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write --out {args.out}: {exc}") from None
    return EXIT_PASS


# Each verify kind returns (obj, text): obj holds "overall" and the kind's
# own --json fields, text is the plain verdict.


def _verify_conjecture(args, config: Config) -> tuple[dict, str]:
    verdict = verify_conjecture(oracle_table_cached(config, args.n))
    lines = []
    for c in verdict.claims:
        if c.holds is not None:
            rows, mark = ", ".join(map(str, c.rows)), "ok" if c.holds else "FAIL"
            lines.append(f"  {c.mu}: second largest on {{{rows}}} [{mark}]")
    lines.append(f"conjecture n={args.n}: {'PASS' if verdict.overall else 'FAIL'}")
    return verdict.to_json_obj(), "\n".join(lines)


def _verify_trace(args, config: Config) -> tuple[dict, str]:
    table = oracle_table_cached(config, args.n)
    bad = [mu for mu in table.columns if not trace_identity_check(table, mu)]
    if bad:
        text = f"trace identity n={args.n}: FAIL at {bad}"
    else:
        text = f"trace identity n={args.n}: PASS ({len(table.columns)} columns)"
    obj = {
        "overall": not bad,
        "columns": len(table.columns),
        "failed": [str(mu) for mu in bad],
    }
    return obj, text


def _verify_induction(args, config: Config) -> tuple[dict, str]:
    if not args.family:
        raise ValueError("verify induction needs --family")
    prefix = _parse_prefix(args.family, "--family")
    report = verify_induction_step(prefix, args.n)
    text = (
        f"induction step family {prefix} at n={args.n}:"
        f" {'PASS' if report.passed else 'FAIL'}"
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
    return obj, text


def _verify_ratios(args, config: Config) -> tuple[dict, str]:
    n = args.n
    guard("ratio laws", n, RATIOS_MAX_N)
    if n < 2:
        raise ValueError(f"ratio laws need n >= 2, got {n}")
    heads = [mu for mu in generate_partitions(n) if mu[-1:] == (1,)]
    # (valency, phi_n11) of each partition a merge reads, once per command
    facts: dict[Partition, tuple[int, int]] = {}

    def facts_of(mu: Partition) -> tuple[int, int]:
        known = facts.get(mu)
        if known is None:
            known = facts[mu] = (valency(mu), phi_n11(mu))
            # no law reads the closed form, but a catalog partition's
            # family checks still run, once
            family_closed_form(mu)
        return known

    failures = []
    mismatched_constant = False
    checked = 0
    for mu in heads:
        merges = all_merges(mu)
        if not merges:
            continue
        checked += len(merges)
        v_mu, t_mu = facts_of(mu)
        for spec in merges:
            v_new, t_new = facts_of(spec.merged)
            c = merge_constant(spec)
            # gap_ratio_report's two laws in integers: valency ratio == tau
            # ratio where the tau ratio exists (t_mu != 0), and valency
            # ratio == merge constant; no valency is 0
            if t_mu != 0 and v_new * t_mu != t_new * v_mu:
                failures.append(spec)
            if v_new * c.denominator != c.numerator * v_mu:
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
    return obj, text


def _verify_scheme_axioms(args, config: Config) -> tuple[dict, str]:
    n = args.n
    data = intersection_numbers(n, max_n=config.max_oracle_n)
    table = oracle_table_cached(config, n)
    ok_struct = verify_structure_constants(table, data)
    ok_orth = verify_column_orthogonality(table)
    ok_trace = all(trace_identity_check(table, mu) for mu in table.columns)
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
    return obj, text


VERIFY_KINDS = {
    "conjecture": _verify_conjecture,
    "trace": _verify_trace,
    "induction": _verify_induction,
    "ratios": _verify_ratios,
    "scheme-axioms": _verify_scheme_axioms,
}


def cmd_verify(args, config: Config) -> int:
    """Print the verdict (with --json, one JSON object led by the kind and
    n) and exit 0 on pass, 1 on failure."""
    obj, text = VERIFY_KINDS[args.kind](args, config)
    if args.json:
        print(json.dumps({"kind": args.kind, "n": args.n, **obj}, indent=2))
    else:
        print(text)
    return EXIT_PASS if obj["overall"] else EXIT_FAIL


def _gap_for(config: Config, mu: Partition) -> tuple[int, str]:
    try:
        report = gap_report(mu)
        return report.gap, report.source
    except ValueError:
        pass  # no closed form; read the gap off the full table
    table = oracle_table_cached(config, mu.n)
    return column_claim(mu, table.column(mu)).gap, "table"


def cmd_gap(args, config: Config) -> int:
    mu = parse_partition(args.mu)
    if args.n is not None and args.n != mu.n:
        raise ValueError(f"--n {args.n} disagrees with {mu} (a partition of {mu.n})")
    if mu == (1,) * mu.n or mu.n < 2:
        raise ValueError(f"{mu} has no spectral gap to report")
    gap, source = _gap_for(config, mu)
    print(gap)
    if args.verbose:
        print(f"source: {source}", file=sys.stderr)
    return EXIT_PASS


def cmd_diameter(args, config: Config) -> int:
    mu = parse_partition(args.mu)
    result = diameter(oracle_table_cached(config, mu.n), mu)
    if result.connected:
        print(result.diameter)
    else:
        print(f"disconnected (reached {result.reached} of {result.n_vertices})")
    return EXIT_PASS


def cmd_fit(args, config: Config) -> int:
    prefix = _parse_prefix(args.prefix, "--prefix")
    try:
        lo, hi = (int(x) for x in args.n_range.split(":"))
    except ValueError:
        raise ValueError(f"bad --n-range {args.n_range!r}, want LO:HI") from None
    if lo < prefix.n or hi < lo:
        raise ValueError(
            f"range {lo}:{hi} invalid for prefix {prefix} (min n {prefix.n})"
        )
    if not prefix or min(prefix) < 2:  # as monomial_basis, before any table
        raise ValueError("family prefix needs all parts >= 2")
    guard("zonal table", hi, DEFAULT_ZONAL_MAX_N)
    data = []
    for n in range(lo, hi + 1):
        data.append((n, oracle_table_cached(config, n).column(family_mu(prefix, n))))
    print(fit_e_mu(prefix, data).to_text())
    return EXIT_PASS


def cmd_scan(args, config: Config) -> int:
    table = oracle_table_cached(config, args.n)
    claims = gap_scan(table)
    for c in claims.values():
        print(f"  {c.mu}: valency {c.top}, gap {c.gap}")
    best = min(claims.values(), key=lambda c: (c.gap, c.mu))
    print(f"smallest gap: {best.mu} ({best.gap})")
    if args.with_diameters:
        results = [diameter(table, mu) for mu in claims]
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
        "--seed", type=int, default=0, help="accepted and ignored"
    )
    parser.add_argument(
        "--max-oracle-n",
        type=int,
        help="largest n of table --source oracle and verify scheme-axioms"
        f" (default {DEFAULT_ZONAL_MAX_N})",
    )
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
    p_table.set_defaults(run=cmd_table)

    p_verify = sub.add_parser("verify", help="run a verification")
    p_verify.add_argument("kind", choices=tuple(VERIFY_KINDS))
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--family", help="prefix for induction, e.g. 3,2")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(run=cmd_verify)

    p_gap = sub.add_parser("gap", help="spectral gap of one relation")
    p_gap.add_argument("--mu", required=True)
    p_gap.add_argument("--n", type=int)
    p_gap.add_argument("--verbose", action="store_true")
    p_gap.set_defaults(run=cmd_gap)

    p_diam = sub.add_parser("diameter", help="diameter of one relation graph")
    p_diam.add_argument("--mu", required=True)
    p_diam.set_defaults(run=cmd_diameter)

    p_fit = sub.add_parser("fit", help="recover a family expression from tables")
    p_fit.add_argument("--prefix", required=True)
    p_fit.add_argument("--n-range", required=True, help="LO:HI inclusive")
    p_fit.set_defaults(run=cmd_fit)

    p_scan = sub.add_parser("scan", help="per-column gap scan of a full table")
    p_scan.add_argument("--n", type=int, required=True)
    p_scan.add_argument("--with-diameters", action="store_true")
    p_scan.set_defaults(run=cmd_scan)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.  Exact answers print in
    full: Python's int-to-str digit limit (3.10.7 and later) is lifted while
    the command runs, and the caller's limit is restored on return."""
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


def _run(argv: list[str] | None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_UNSUPPORTED if exc.code else EXIT_PASS
    overrides = {"seed": args.seed}
    if args.data_dir:
        overrides["data_dir"] = args.data_dir
    if args.max_oracle_n is not None:
        overrides["max_oracle_n"] = args.max_oracle_n
    try:
        return args.run(args, Config(**overrides))
    except (GuardExceeded, ValueError, FitInconsistent, FitUnderdetermined) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except AmbiguousRowAssignment as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_AMBIGUOUS
    except SchemeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


def main_entry() -> None:
    """Console-script entry: a closed stdout ends the process by SIGPIPE,
    silently, as it ends any Unix filter."""
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
