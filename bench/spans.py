"""Per-layer tracing for the benchmark's traced run.

Wrappers are installed at the module attribute where each caller looks the
function up (``tables`` calls ``exactalg.charpoly`` through the ``exactalg``
module, but ``intersection_numbers`` through its own global, and so on), so
no file of the program changes.  Each wrapper records one span: calls,
inclusive seconds, and self seconds (inclusive minus the time of direct
child spans).  Untraced runs install nothing.
"""

from __future__ import annotations

import inspect
import math
from collections import Counter, defaultdict
from time import perf_counter

from pmscheme import cli, exactalg, matchings, partitions, spectra, symfunc, tables

EigTable = tables.EigTable

# (owner, attribute, span name).  One span name may sit at several owners.
TARGETS = [
    (cli, "main", "cli.main"),
    (cli, "oracle_table_cached", "cli.oracle_table_cached"),
    (cli, "build_table_oracle", "tables.build_table_oracle"),
    (tables, "build_table_oracle", "tables.build_table_oracle"),
    (matchings, "intersection_numbers", "matchings.intersection_numbers"),
    (tables, "intersection_numbers", "matchings.intersection_numbers"),
    (cli, "intersection_numbers", "matchings.intersection_numbers"),
    (exactalg, "charpoly", "exactalg.charpoly"),
    (exactalg, "distinct_integer_roots", "exactalg.distinct_integer_roots"),
    (exactalg, "kernel_basis", "exactalg.kernel_basis"),
    (exactalg, "solve_unique", "exactalg.solve_unique"),
    (EigTable, "from_json_obj", "tables.from_json_obj"),
    (EigTable, "to_csv_text", "tables.serialize"),
    (EigTable, "to_json_text", "tables.serialize"),
    (cli, "verify_conjecture", "tables.verify"),
    (cli, "gap_scan", "tables.verify"),
    (cli, "verify_column_orthogonality", "tables.verify"),
    (cli, "gap_report", "spectra.gap_report"),
    (cli, "trace_identity_check", "spectra.trace_identity_check"),
    (tables, "trace_identity_check", "spectra.trace_identity_check"),
    (cli, "gap_ratio_report", "ratios.gap_ratio_report"),
    (cli, "fit_e_mu", "symfunc.fit_e_mu"),
    (cli, "verify_induction_step", "spectra.verify_induction_step"),
    (spectra, "eval_expr", "symfunc.eval_expr"),
    (tables, "eval_expr", "symfunc.eval_expr"),
    (symfunc, "eval_expr", "symfunc.eval_expr"),
    (cli, "diameter", "matchings.diameter"),
]

CACHED = {
    "partitions.generate_partitions": partitions.generate_partitions,
    "partitions.dim_hook": partitions.dim_hook,
}

# Reported per-layer metrics: (name, unit).  Order follows the workloads
# whose end-to-end metrics they explain.
METRICS = [
    ("matchings.intersection_numbers.calls", "count"),
    ("matchings.intersection_numbers.s", "s"),
    ("matchings.classified", "count"),
    ("tables.build_table_oracle.calls", "count"),
    ("tables.build_table_oracle.self_s", "s"),
    ("exactalg.charpoly.calls", "count"),
    ("exactalg.charpoly.s", "s"),
    ("exactalg.distinct_integer_roots.calls", "count"),
    ("exactalg.distinct_integer_roots.s", "s"),
    ("exactalg.root_candidates", "count"),
    ("exactalg.kernel_basis.calls", "count"),
    ("exactalg.kernel_basis.s", "s"),
    ("tables.combo_accept_ratio", "ratio"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.oracle_table_cached.calls", "count"),
    ("cli.oracle_table_cached.s", "s"),
    ("cli.cache_hits", "count"),
    ("cli.cache_misses", "count"),
    ("tables.from_json_obj.s", "s"),
    ("tables.serialize.s", "s"),
    ("tables.verify.s", "s"),
    ("spectra.gap_report.calls", "count"),
    ("spectra.gap_report.s", "s"),
    ("spectra.trace_identity_check.calls", "count"),
    ("spectra.trace_identity_check.s", "s"),
    ("ratios.gap_ratio_report.calls", "count"),
    ("ratios.gap_ratio_report.s", "s"),
    ("symfunc.fit_e_mu.calls", "count"),
    ("symfunc.fit_e_mu.s", "s"),
    ("exactalg.solve_unique.calls", "count"),
    ("exactalg.solve_unique.s", "s"),
    ("spectra.verify_induction_step.calls", "count"),
    ("spectra.verify_induction_step.s", "s"),
    ("symfunc.eval_expr.calls", "count"),
    ("symfunc.eval_expr.s", "s"),
    ("matchings.diameter.calls", "count"),
    ("matchings.diameter.s", "s"),
    ("matchings.bfs_reached", "count"),
    ("partitions.generate_partitions.hits", "count"),
    ("partitions.generate_partitions.misses", "count"),
    ("partitions.dim_hook.hits", "count"),
    ("partitions.dim_hook.misses", "count"),
    ("trace.overhead_s", "s"),
]


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


class Tracer:
    """Span aggregates and counters for the functions in ``TARGETS``."""

    def __init__(self):
        self.spans = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        self.counts = Counter()
        self._children: list[float] = []
        self._installed: list[tuple[object, str, object]] = []
        self._cache_start: dict[str, tuple[int, int]] = {}

    def _wrap(self, name: str, fn):
        spans, children = self.spans, self._children
        after = {
            "matchings.intersection_numbers": self._count_classified,
            "exactalg.distinct_integer_roots": self._count_root_candidates,
            "matchings.diameter": self._count_bfs_reached,
            "cli.oracle_table_cached": self._count_cache_outcome,
        }.get(name)

        def wrapper(*args, **kwargs):
            builds = spans["tables.build_table_oracle"]["calls"]
            children.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = children.pop()
                if children:
                    children[-1] += dt
                span = spans[name]
                span["calls"] += 1
                span["s"] += dt
                span["self_s"] += dt - child
            if after is not None:
                after(args, kwargs, result, builds)
            return result

        return wrapper

    def _count_classified(self, args, kwargs, result, _):
        n = _arg(args, kwargs, 0, "n")
        matchings_count = math.prod(range(2 * n - 1, 0, -2))
        self.counts["matchings.classified"] += matchings_count * (len(result.relations) + 1)

    def _count_root_candidates(self, args, kwargs, result, _):
        self.counts["exactalg.root_candidates"] += 2 * _arg(args, kwargs, 1, "bound") + 1

    def _count_bfs_reached(self, args, kwargs, result, _):
        self.counts["matchings.bfs_reached"] += result.reached

    def _count_cache_outcome(self, args, kwargs, result, builds_before):
        built = self.spans["tables.build_table_oracle"]["calls"] > builds_before
        self.counts["cli.cache_misses" if built else "cli.cache_hits"] += 1

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            original = inspect.getattr_static(owner, attr)
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, original.__func__))
            else:
                wrapped = self._wrap(name, original)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, original))
        self._cache_start = {
            name: (fn.cache_info().hits, fn.cache_info().misses)
            for name, fn in CACHED.items()
        }

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)
        for name, fn in CACHED.items():
            info = fn.cache_info()
            hits, misses = self._cache_start[name]
            self.counts[name + ".hits"] += info.hits - hits
            self.counts[name + ".misses"] += info.misses - misses

    def metrics(self, overhead_s: float) -> dict[str, dict]:
        values: dict[str, float] = dict(self.counts)
        for name, span in self.spans.items():
            for key, value in span.items():
                values[f"{name}.{key}"] = value
        charpolys = values.get("exactalg.charpoly.calls", 0)
        builds = values.get("tables.build_table_oracle.calls", 0)
        values["tables.combo_accept_ratio"] = builds / charpolys if charpolys else 0.0
        values["trace.overhead_s"] = overhead_s
        return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in METRICS}
