"""Eigenvalue tables built three ways, plus table-level verifiers.

The zonal route is the production engine: the entry on eigenspace lam and
relation mu is the coefficient of p_mu in the zonal polynomial J_lam^(2),
computed exactly in ``symfunc``.  The oracle route is the independent
check: it recovers every eigenvalue from the brute-force intersection
numbers of the scheme (the intersection matrices commute, a random
small-integer combination separates the common eigenvectors, and each
eigenvector row is read off componentwise).  The formula route fills
whatever closed forms cover.  Cells never come from guessing: a row that
cannot be matched to a unique eigenspace index is a hard error, and every
built table passes ``_check_table`` or raises SchemeError.
"""

from __future__ import annotations

import csv
import io
import json
import random
from fractions import Fraction

from . import exactalg
from .errors import (
    AmbiguousRowAssignment,
    GuardExceeded,
    IncompleteTable,
    SchemeError,
)
from .matchings import IntersectionData, intersection_numbers
from .partitions import (
    Partition,
    dim_hook,
    double_factorial,
    generate_partitions,
    parse_partition,
)
from .spectra import phi_n11, trace_identity_check, valency
from .symfunc import (
    CATALOG_PREFIXES,
    PowerSumExpr,
    e_catalog,
    eval_expr,
    zonal_power_sums,
)

_MAX_COMBO_ATTEMPTS = 60
# The largest n timed in BENCH_zonal.json, where it builds in 0.45 s; larger
# n are untimed.
DEFAULT_ZONAL_MAX_N = 14


class EigTable:
    """Matrix of eigenvalues: rows are eigenspace indices in canonical
    descending order, columns are relations in ascending order."""

    def __init__(
        self,
        n: int,
        values: dict[tuple[Partition, Partition], int],
        provenance: dict[Partition, str],
    ):
        self.n = n
        self.rows: list[Partition] = list(generate_partitions(n))
        self.columns: list[Partition] = list(reversed(self.rows))
        self.dims: list[int] = [dim_hook(lam) for lam in self.rows]
        self._values = values
        self.provenance = provenance

    def value(self, lam: Partition, mu: Partition) -> int | None:
        return self._values.get((lam, mu))

    def column(self, mu: Partition) -> list[int]:
        col = [self._values.get((lam, mu)) for lam in self.rows]
        if any(v is None for v in col):
            raise IncompleteTable(f"column {mu} is not fully populated")
        return col  # type: ignore[return-value]

    def has_column(self, mu: Partition) -> bool:
        return all((lam, mu) in self._values for lam in self.rows)

    def is_complete(self) -> bool:
        return all(self.has_column(mu) for mu in self.columns)

    def grid(self) -> list[list[int | None]]:
        return [
            [self._values.get((lam, mu)) for mu in self.columns]
            for lam in self.rows
        ]

    def to_csv_text(self) -> str:
        """Canonical CSV: header lambda\\mu + columns + Dim, one row per
        eigenspace, exact integers, empty cells where a value is absent."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["lambda\\mu"] + [str(mu) for mu in self.columns] + ["Dim"])
        for lam, dim in zip(self.rows, self.dims):
            cells: list[str | int] = [str(lam)]
            for mu in self.columns:
                v = self._values.get((lam, mu))
                cells.append("" if v is None else v)
            cells.append(dim)
            writer.writerow(cells)
        return buf.getvalue()

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "columns": [str(mu) for mu in self.columns],
            "rows": [str(lam) for lam in self.rows],
            "values": self.grid(),
            "dims": self.dims,
            "provenance": {
                str(mu): self.provenance[mu]
                for mu in self.columns
                if mu in self.provenance
            },
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2) + "\n"

    @classmethod
    def from_json_obj(cls, obj: dict) -> "EigTable":
        n = obj["n"]
        rows = [parse_partition(s) for s in obj["rows"]]
        columns = [parse_partition(s) for s in obj["columns"]]
        values: dict[tuple[Partition, Partition], int] = {}
        for lam, row in zip(rows, obj["values"]):
            for mu, v in zip(columns, row):
                if v is not None:
                    values[(lam, mu)] = v
        provenance = {parse_partition(s): p for s, p in obj["provenance"].items()}
        table = cls(n, values, provenance)
        if table.rows != rows or table.columns != columns:
            raise SchemeError("serialized table is not in canonical order")
        return table

    def pretty(self) -> str:
        header = ["lam\\mu"] + [str(mu) for mu in self.columns] + ["Dim"]
        body = []
        for lam, dim in zip(self.rows, self.dims):
            row = [str(lam)]
            for mu in self.columns:
                v = self._values.get((lam, mu))
                row.append("." if v is None else str(v))
            row.append(str(dim))
            body.append(row)
        widths = [max(len(r[c]) for r in [header] + body) for c in range(len(header))]
        lines = [
            "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
            for row in [header] + body
        ]
        return "\n".join(lines) + "\n"


def _check_table(table: EigTable) -> None:
    """Raise SchemeError unless the filled cells pass the table invariants:
    identity column all ones, top row the valencies, dimensions summing to
    (2n-1)!!, and the trace identity on every complete column."""
    n = table.n
    identity = Partition((1,) * n)
    top = Partition((n,))
    for lam in table.rows:
        v = table.value(lam, identity)
        if v is not None and v != 1:
            raise SchemeError(f"identity column must be all ones, bad at {lam}")
    for mu in table.columns:
        v = table.value(top, mu)
        if v is not None and v != valency(mu):
            raise SchemeError(f"top row must hold valencies, bad at {mu}")
    if sum(table.dims) != double_factorial(2 * n - 1):
        raise SchemeError(f"dimensions do not sum to (2n-1)!! for n={n}")
    for mu in table.columns:
        if table.has_column(mu) and not trace_identity_check(n, mu, table):
            raise SchemeError(f"trace identity fails at {mu}")


def build_table_zonal(n: int, max_n: int = DEFAULT_ZONAL_MAX_N) -> EigTable:
    """Full eigenvalue table from the zonal polynomials J_lam^(2).

    (S_2n, H_n) is a Gelfand pair and valency(mu) = |H_n| / z_{2mu}, so the
    coefficient of p_mu in J_lam^(2) is exactly the eigenvalue of relation
    mu on eigenspace lam (Macdonald, Symmetric Functions and Hall
    Polynomials, VII.2).  Every column is tagged "zonal".
    """
    if not 2 <= n <= max_n:
        raise GuardExceeded(f"zonal table guarded to 2 <= n <= {max_n} (asked {n})")
    values = {
        (lam, mu): phi
        for lam, row in zonal_power_sums(n).items()
        for mu, phi in row.items()
    }
    table = EigTable(n, values, {mu: "zonal" for mu in generate_partitions(n)})
    _check_table(table)
    return table


def build_table_oracle(
    n: int,
    seed: int = 0,
    data: IntersectionData | None = None,
    max_n: int | None = None,
) -> EigTable:
    """Full eigenvalue table from the brute-force intersection numbers.

    A random combination B of the intersection matrices is formed with
    small seeded coefficients; its characteristic polynomial must split into
    distinct integer roots (fresh coefficients otherwise).  Each root's exact
    kernel vector carries every eigenvalue; rows are matched to eigenspace
    indices by dimension, with exact catalog predictions breaking ties.
    """
    if data is None:
        data = (
            intersection_numbers(n)
            if max_n is None
            else intersection_numbers(n, max_n=max_n)
        )
    rels = data.relations
    d = len(rels)
    bmats = [data.b_matrix(i) for i in range(d)]
    rng = random.Random(seed)
    bound = 1 + 9 * sum(data.valencies)
    roots = None
    for _ in range(_MAX_COMBO_ATTEMPTS):
        coeffs = [rng.randint(-9, 9) for _ in range(d)]
        combo = [
            [sum(c * bm[r][s] for c, bm in zip(coeffs, bmats)) for s in range(d)]
            for r in range(d)
        ]
        poly = exactalg.charpoly(combo)
        roots = exactalg.distinct_integer_roots(poly, bound)
        if roots is not None:
            break
    if roots is None:
        raise SchemeError(
            f"no separating combination found in {_MAX_COMBO_ATTEMPTS} attempts"
        )

    n_points = double_factorial(2 * n - 1)
    eigenrows: list[tuple[list[int], int]] = []
    for tau in roots:
        shifted = [
            [Fraction(combo[r][s] - (tau if r == s else 0)) for s in range(d)]
            for r in range(d)
        ]
        kernel = exactalg.kernel_basis(shifted)
        assert len(kernel) == 1, "distinct roots must give one-dimensional kernels"
        u = kernel[0]
        j0 = next(i for i, x in enumerate(u) if x != 0)
        row = []
        for bm in bmats:
            phi = sum(Fraction(bm[j0][s]) * u[s] for s in range(d)) / u[j0]
            assert phi.denominator == 1
            row.append(int(phi))
        mult = Fraction(n_points) / sum(
            Fraction(phi * phi, v) for phi, v in zip(row, data.valencies)
        )
        assert mult.denominator == 1
        eigenrows.append((row, int(mult)))

    assignment = _assign_rows(n, rels, eigenrows)
    values: dict[tuple[Partition, Partition], int] = {}
    for lam, row in assignment.items():
        for mu, phi in zip(rels, row):
            values[(lam, mu)] = phi
    table = EigTable(n, values, {mu: "oracle" for mu in rels})
    _check_table(table)
    return table


def _assign_rows(
    n: int,
    rels: list[Partition],
    eigenrows: list[tuple[list[int], int]],
) -> dict[Partition, list[int]]:
    """Match eigenvector rows to eigenspace indices.

    Dimension decides when unique; otherwise the exact values predicted on
    the catalog columns with prefixes [2] and [3] must single out one
    candidate, and anything still ambiguous is a hard error.
    """
    tie_cols: list[tuple[int, PowerSumExpr]] = []
    for prefix in (Partition((2,)), Partition((3,))):
        if prefix.n <= n:
            mu = Partition(prefix.parts + (1,) * (n - prefix.n))
            if mu in rels:
                tie_cols.append((rels.index(mu), e_catalog(prefix)))
    out: dict[Partition, list[int]] = {}
    for row, mult in eigenrows:
        candidates = [lam for lam in generate_partitions(n) if dim_hook(lam) == mult]
        if len(candidates) > 1:
            filtered = []
            for lam in candidates:
                if all(
                    eval_expr(expr, lam) == row[idx] for idx, expr in tie_cols
                ):
                    filtered.append(lam)
            candidates = filtered
        if len(candidates) != 1:
            raise AmbiguousRowAssignment(
                f"eigenvector row with multiplicity {mult} matches "
                f"{len(candidates)} eigenspace indices",
                candidates=candidates,
            )
        lam = candidates[0]
        if lam in out:
            raise AmbiguousRowAssignment(
                f"eigenspace index {lam} matched by two eigenvector rows",
                candidates=[lam],
            )
        out[lam] = row
    if len(out) != len(rels):
        raise AmbiguousRowAssignment(
            "not every eigenspace index was matched", candidates=[]
        )
    return out


def build_table_formulas(
    n: int, extra: dict[Partition, PowerSumExpr] | None = None
) -> EigTable:
    """Table from closed forms only: the identity column, the catalog family
    columns, and the top two rows for every relation.  Other cells stay absent.

    extra maps additional family prefixes to fitted expressions; their
    columns are marked with interpolated provenance.
    """
    if n < 2:
        raise ValueError("tables need n >= 2")
    values: dict[tuple[Partition, Partition], int] = {}
    provenance: dict[Partition, str] = {}
    rows = generate_partitions(n)
    columns = list(reversed(rows))
    identity = Partition((1,) * n)
    for lam in rows:
        values[(lam, identity)] = 1
    provenance[identity] = "closed-form"
    top = Partition((n,))
    second = Partition((n - 1, 1))
    for mu in columns:
        values[(top, mu)] = valency(mu)
        values[(second, mu)] = phi_n11(mu)
    sources: list[tuple[Partition, PowerSumExpr, str]] = [
        (prefix, e_catalog(prefix), "closed-form") for prefix in CATALOG_PREFIXES
    ]
    for prefix, expr in (extra or {}).items():
        sources.append((prefix, expr, "interpolated"))
    for prefix, expr, tag in sources:
        if prefix.n > n:
            continue
        mu = Partition(prefix.parts + (1,) * (n - prefix.n))
        for lam in rows:
            phi = eval_expr(expr, lam)
            assert phi.denominator == 1
            existing = values.get((lam, mu))
            if existing is not None:
                assert existing == int(phi), f"formula clash at ({lam}, {mu})"
            values[(lam, mu)] = int(phi)
        provenance[mu] = tag
    table = EigTable(n, values, provenance)
    _check_table(table)
    return table


def second_largest(table: EigTable, mu: Partition) -> tuple[int, list[Partition]]:
    """Largest column entry off the top row, with every row attaining it."""
    col = table.column(mu)
    top = Partition((table.n,))
    entries = [(lam, v) for lam, v in zip(table.rows, col) if lam != top]
    best = max(v for _, v in entries)
    return best, [lam for lam, v in entries if v == best]


def second_largest_abs(table: EigTable, mu: Partition) -> tuple[int, list[Partition]]:
    """Largest |entry| off the top row, with every row attaining it."""
    col = table.column(mu)
    top = Partition((table.n,))
    entries = [(lam, v) for lam, v in zip(table.rows, col) if lam != top]
    best = max(abs(v) for _, v in entries)
    return best, [lam for lam, v in entries if abs(v) == best]


class ConjectureVerdict:
    """Per-column second-largest-eigenvalue verdicts for one table."""

    def __init__(self, n: int, per_column: list[dict], overall: bool):
        self.n = n
        self.per_column = per_column
        self.overall = overall

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "overall": self.overall,
            "columns": [
                {
                    "mu": str(entry["mu"]),
                    "applicable": entry["applicable"],
                    "second_largest_rows": [str(l) for l in entry["rows"]],
                    "holds": entry["holds"],
                }
                for entry in self.per_column
            ],
        }


def verify_conjecture(table: EigTable) -> ConjectureVerdict:
    """Check, per applicable column, that [n-1,1] attains the second largest
    eigenvalue.  Applicable: at least two parts of size 1, or mu = [n-1,1]
    with n != 4.  Ties count as attaining."""
    if not table.is_complete():
        raise IncompleteTable("conjecture verification needs a complete table")
    n = table.n
    hook = Partition((n - 1, 1))
    per_column = []
    overall = True
    for mu in table.columns:
        applicable = mu.r1() >= 2 or (mu == hook and n != 4)
        entry = {"mu": mu, "applicable": applicable, "rows": [], "holds": None}
        if applicable:
            value, rows = second_largest(table, mu)
            entry["rows"] = rows
            entry["holds"] = hook in rows
            overall = overall and entry["holds"]
        per_column.append(entry)
    return ConjectureVerdict(n, per_column, overall)


def derangement_spectrum(table: EigTable) -> list[int]:
    """Row-wise sum of the columns whose relation has no part of size 1."""
    out = [0] * len(table.rows)
    for mu in table.columns:
        if mu.r1() == 0:
            col = table.column(mu)
            out = [a + b for a, b in zip(out, col)]
    return out


def verify_structure_constants(
    table: EigTable,
    data: IntersectionData,
    pairs: list[tuple[int, int]] | None = None,
) -> bool:
    """phi_i phi_j = sum_k p^k_ij phi_k for every row and relation pair."""
    rels = data.relations
    d = len(rels)
    cols = {mu: table.column(mu) for mu in rels}
    if pairs is None:
        pairs = [(i, j) for i in range(d) for j in range(d)]
    for i, j in pairs:
        ci, cj = cols[rels[i]], cols[rels[j]]
        for r in range(len(table.rows)):
            lhs = ci[r] * cj[r]
            rhs = sum(data.p[k][i][j] * cols[rels[k]][r] for k in range(d))
            if lhs != rhs:
                return False
    return True


def verify_column_orthogonality(table: EigTable) -> bool:
    """Dimension-weighted products of two columns vanish unless the columns
    coincide, where they give (2n-1)!! times the valency."""
    n = table.n
    total = double_factorial(2 * n - 1)
    cols = [table.column(mu) for mu in table.columns]
    for i, mu in enumerate(table.columns):
        for j in range(i, len(table.columns)):
            s = sum(
                f * a * b for f, a, b in zip(table.dims, cols[i], cols[j])
            )
            expected = total * valency(mu) if i == j else 0
            if s != expected:
                return False
    return True


def gap_scan(table: EigTable) -> dict[Partition, int]:
    """Spectral gap of every non-identity column of a complete table."""
    out = {}
    identity = Partition((1,) * table.n)
    for mu in table.columns:
        if mu == identity:
            continue
        value, _ = second_largest(table, mu)
        out[mu] = valency(mu) - value
    return out
