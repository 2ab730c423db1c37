"""Eigenvalue tables built three ways, plus table-level verifiers.

The zonal route is the production engine: the entry on eigenspace lam and
relation mu is the coefficient of p_mu in the zonal polynomial J_lam^(2),
computed exactly in ``symfunc``.  The oracle route is that table confirmed
by the brute-force intersection numbers, which owe nothing to symmetric
functions: its rows must be distinct characters of the Bose-Mesner algebra
the numbers count, each with the multiplicity and flip entry of its label.
The formula route fills whatever closed forms cover.  Each route fills one
rows x columns grid, None marking a cell it left unfilled, and ``EigTable``
holds that grid.  Cells never come from guessing: a row whose keys belong
to another eigenspace index is a hard error, and every table built or
loaded from JSON passes ``_check_table`` or raises SchemeError.  A complete
table also gives the intersection numbers and the relation-graph
diameters; no other module reads an ``EigTable``.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import mul

from .errors import AmbiguousRowAssignment, IncompleteTable, SchemeError, guard
from .matchings import IntersectionData, intersection_numbers
from .partitions import (
    Partition,
    dim_hook,
    double_factorial,
    generate_partitions,
)
from .spectra import conjecture_applies, family_mu, phi_n11, valency
from .symfunc import (
    CATALOG_PREFIXES,
    PowerSumExpr,
    e_catalog,
    eval_expr,
    zonal_power_sums,
)

# The largest n timed in BENCH_elim.json, where it builds in 0.4 s; larger
# n are untimed.
DEFAULT_ZONAL_MAX_N = 14
# build_table_formulas fills a p(n) x p(n) grid: at n = 24 that takes
# 0.4-0.6 s and 75 MB peak RSS (Python 3.11, 2 cores); at n = 40 the grid
# alone would be about 1.4e9 list slots, roughly 11 GB.
FORMULAS_MAX_N = 24
# The tags a column's provenance may hold, one per way its cells were filled.
PROVENANCE_TAGS = ("zonal", "oracle", "closed-form", "interpolated")


class EigTable:
    """Matrix of eigenvalues: rows are eigenspace indices in canonical
    descending order, columns are relations in ascending order.

    The cells are one rows x columns grid of ``int`` (not ``bool`` or
    ``float``), None marking an unfilled cell; any other grid, an n that is
    not an ``int``, or a provenance entry whose key is not a column or whose
    tag is not in PROVENANCE_TAGS raises SchemeError.  The table keeps its
    own copies of the grid and the provenance, and reads the columns and the
    set of complete columns off the grid once, so ``column``,
    ``has_column`` and ``is_complete`` are lookups.
    """

    def __init__(
        self,
        n: int,
        grid: list[list[int | None]],
        provenance: dict[Partition, str],
    ):
        if type(n) is not int:
            raise SchemeError(f"table n must be an int, got {n!r}")
        self.n = n
        self.rows: list[Partition] = list(generate_partitions(n))
        self.columns: list[Partition] = list(reversed(self.rows))
        self.dims: list[int] = [dim_hook(lam) for lam in self.rows]
        width = len(self.columns)
        if len(grid) != len(self.rows) or any(len(row) != width for row in grid):
            raise SchemeError("values grid is not rows x columns")
        if not set(map(type, chain.from_iterable(grid))) <= {int, type(None)}:
            raise SchemeError("values grid holds a cell that is not an int")
        self._grid = [list(row) for row in grid]
        self._row_at = {lam: r for r, lam in enumerate(self.rows)}
        self._cols = dict(zip(self.columns, map(list, zip(*self._grid))))
        self._complete = {mu for mu, col in self._cols.items() if None not in col}
        self._set_provenance(provenance)

    def _set_provenance(self, provenance: dict) -> None:
        self.provenance = dict(provenance)
        for mu, tag in self.provenance.items():
            if mu not in self._cols or tag not in PROVENANCE_TAGS:
                raise SchemeError(f"bad provenance {tag!r} for column {mu}")

    def value(self, lam: Partition, mu: Partition) -> int | None:
        col = self._cols.get(mu)
        r = self._row_at.get(lam)
        return None if col is None or r is None else col[r]

    def column(self, mu: Partition) -> list[int]:
        if mu not in self._complete:
            raise IncompleteTable(f"column {mu} is not fully populated")
        return list(self._cols[mu])

    def has_column(self, mu: Partition) -> bool:
        return mu in self._complete

    def is_complete(self) -> bool:
        return len(self._complete) == len(self.columns)

    def grid(self) -> list[list[int | None]]:
        return [list(row) for row in self._grid]

    def to_csv_text(self) -> str:
        """Canonical CSV: header lambda\\mu + columns + Dim, one row per
        eigenspace, exact integers, empty cells where a value is absent."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["lambda\\mu"] + [str(mu) for mu in self.columns] + ["Dim"])
        for lam, dim, row in zip(self.rows, self.dims, self._grid):
            cells = ["" if v is None else v for v in row]
            writer.writerow([str(lam)] + cells + [dim])
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
        """Inverse of ``to_json_obj``.  The row and column labels, the
        provenance keys included, must be the canonical ones spelled as
        ``str`` spells them, the ``values`` grid rows x columns of ints
        (null marks an unfilled cell; ``dims`` is not read), and the table
        must pass ``_check_table``; SchemeError otherwise, so a doctored
        cache file is refused."""
        table = cls(obj["n"], obj["values"], {})
        labels = [str(lam) for lam in table.rows]
        if obj["rows"] != labels or obj["columns"] != labels[::-1]:
            raise SchemeError("serialized table is not in canonical order")
        # a key that is no canonical label stays a str, which no column is
        by_label = dict(zip(labels, table.rows))
        table._set_provenance(
            {by_label.get(s, s): tag for s, tag in obj["provenance"].items()}
        )
        _check_table(table)
        return table

    def pretty(self) -> str:
        header = ["lam\\mu"] + [str(mu) for mu in self.columns] + ["Dim"]
        body = [
            [str(lam)] + ["." if v is None else str(v) for v in row] + [str(dim)]
            for lam, dim, row in zip(self.rows, self.dims, self._grid)
        ]
        widths = [max(len(r[c]) for r in [header] + body) for c in range(len(header))]
        lines = [
            "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
            for row in [header] + body
        ]
        return "\n".join(lines) + "\n"


def _check_table(table: EigTable) -> None:
    """Raise SchemeError unless the filled cells pass the table invariants:
    identity column all ones, top row the valencies, and the trace identity
    on every complete column (``dims`` come from ``dim_hook``, not a file)."""
    n = table.n
    identity = table.columns[0]
    for lam, v in zip(table.rows, table._cols[identity]):
        if v is not None and v != 1:
            raise SchemeError(f"identity column must be all ones, bad at {lam}")
    valencies = [valency(mu) for mu in table.columns]
    for mu, v, valency_mu in zip(table.columns, table._grid[0], valencies):
        if v is not None and v != valency_mu:
            raise SchemeError(f"top row must hold valencies, bad at {mu}")
    total = double_factorial(2 * n - 1)
    for mu, valency_mu in zip(table.columns, valencies):
        if mu in table._complete and not _trace_identity(
            table.dims, table._cols[mu], valency_mu * total, mu == identity
        ):
            raise SchemeError(f"trace identity fails at {mu}")


def trace_identity_check(table: EigTable, mu: Partition) -> bool:
    """v_mu (2n-1)!! equals the dimension-weighted sum of squared eigenvalues;
    off the identity relation the plain dimension-weighted sum is zero."""
    lhs = valency(mu) * double_factorial(2 * table.n - 1)
    return _trace_identity(
        table.dims, table.column(mu), lhs, mu == table.columns[0]
    )


def _trace_identity(
    dims: list[int], column: list[int], lhs: int, identity: bool
) -> bool:
    weighted = _weighted(dims, column)
    if sum(map(mul, weighted, column)) != lhs:
        return False
    return identity or sum(weighted) == 0


def build_table_zonal(n: int) -> EigTable:
    """Full eigenvalue table from the zonal polynomials J_lam^(2).

    (S_2n, H_n) is a Gelfand pair and valency(mu) = |H_n| / z_{2mu}, so the
    coefficient of p_mu in J_lam^(2) is exactly the eigenvalue of relation
    mu on eigenspace lam (Macdonald, Symmetric Functions and Hall
    Polynomials, VII.2).  Every column is tagged "zonal".
    """
    grid = _zonal_grid(n)
    table = EigTable(n, grid, dict.fromkeys(generate_partitions(n), "zonal"))
    _check_table(table)
    return table


def _zonal_grid(n: int) -> list[list[int]]:
    """The zonal rows x columns grid, guarded before any work."""
    guard("zonal table", n, DEFAULT_ZONAL_MAX_N, lo=2)
    columns = generate_partitions(n)[::-1]
    return [[row[mu] for mu in columns] for row in zonal_power_sums(n).values()]


def build_table_oracle(
    n: int, seed: int = 0, data: IntersectionData | None = None
) -> EigTable:
    """The zonal table, confirmed by the brute-force intersection numbers
    (``_check_characters``) and with every column tagged "oracle".  data
    defaults to ``intersection_numbers(n)``; seed is accepted and changes
    nothing."""
    if n < 2:
        raise ValueError("tables need n >= 2")
    if data is None:
        data = intersection_numbers(n)
    table = EigTable(n, _zonal_grid(n), dict.fromkeys(data.relations, "oracle"))
    _check_table(table)
    _check_characters(table, data)
    return table


def _check_characters(table: EigTable, data: IntersectionData) -> None:
    """Refuse a complete table unless each row is 1 at the identity relation
    and satisfies phi_i phi_j = sum_k p^k_ij phi_k over the pairs i <= j
    (the identity and zero p skipped), and no two rows are equal
    (SchemeError otherwise).  Such rows are characters of the commutative
    Bose-Mesner algebra data counts, so d of them are all its characters
    (Bannai and Ito, Algebraic Combinatorics I: Association Schemes, 1984).
    Row lam must also have multiplicity (2n-1)!! / sum_i phi_i^2 / v_i equal
    to dim_hook(lam) and flip entry ``_flip_eigenvalue(lam)``, keys that tell
    every lam apart for n <= 14 (AmbiguousRowAssignment otherwise).
    """
    n = table.n
    if data.n != n:
        raise SchemeError(f"intersection numbers are for n={data.n}, not {n}")
    if not table.is_complete():
        raise IncompleteTable("the character check needs a complete table")
    rels = data.relations
    identity = len(rels) - 1
    flip = rels.index(Partition((2,) + (1,) * (n - 2)))
    products = [
        (i, j, [(k, pk[i][j]) for k, pk in enumerate(data.p) if pk[i][j]])
        for i in range(identity)
        for j in range(i, identity)
    ]
    # the multiplicity in integers over L = lcm(v_i)
    scale = lcm(*data.valencies)
    weights = [scale // v for v in data.valencies]
    total = double_factorial(2 * n - 1) * scale
    seen = set()
    # relations descend and the columns ascend, so each row is reversed
    for lam, dim, phi in zip(table.rows, table.dims, (r[::-1] for r in table._grid)):
        if phi[identity] != 1:
            raise SchemeError(f"row {lam} is not 1 at the identity relation")
        for i, j, terms in products:
            if phi[i] * phi[j] != sum(p * phi[k] for k, p in terms):
                raise SchemeError(
                    f"row {lam} fails phi_i phi_j = sum_k p^k_ij phi_k at the"
                    f" pair ({rels[i]}, {rels[j]})"
                )
        if tuple(phi) in seen:
            raise SchemeError(f"row {lam} repeats an earlier row")
        seen.add(tuple(phi))
        mult = Fraction(total, sum(map(mul, phi, map(mul, phi, weights))))
        if mult != dim or phi[flip] != _flip_eigenvalue(lam):
            raise AmbiguousRowAssignment(
                f"row {lam} has multiplicity {mult} and flip entry {phi[flip]},"
                f" but eigenspace {lam} has dimension {dim} and flip eigenvalue"
                f" {_flip_eigenvalue(lam)}",
                candidates=[lam],
            )


def _flip_eigenvalue(lam: Partition) -> int:
    """sum_i lam_i (lam_i - i): the eigenvalue of the flip relation
    [2,1^(n-2)] on eigenspace lam (Diaconis and Holmes, Random walks on
    trees and matchings, 2002)."""
    return sum(part * (part - i) for i, part in enumerate(lam.parts, start=1))


def build_table_formulas(
    n: int, extra: dict[Partition, PowerSumExpr] | None = None
) -> EigTable:
    """Table from closed forms only: the identity column, the catalog family
    columns, and the top two rows for every relation.  Other cells stay absent.

    extra maps additional family prefixes to fitted expressions; their
    columns are marked with interpolated provenance.  Raises GuardExceeded
    above FORMULAS_MAX_N before any work.
    """
    if n < 2:
        raise ValueError("tables need n >= 2")
    guard("closed-form table", n, FORMULAS_MAX_N)
    rows = generate_partitions(n)
    columns = rows[::-1]
    # the identity column [1^n] is all ones
    grid: list[list[int | None]] = [[1] + [None] * (len(columns) - 1) for _ in rows]
    provenance: dict[Partition, str] = {columns[0]: "closed-form"}
    # the top two rows are [n] and [n-1,1]
    grid[0] = [valency(mu) for mu in columns]
    grid[1] = [phi_n11(mu) for mu in columns]
    sources: list[tuple[Partition, PowerSumExpr, str]] = [
        (prefix, e_catalog(prefix), "closed-form") for prefix in CATALOG_PREFIXES
    ]
    for prefix, expr in (extra or {}).items():
        sources.append((prefix, expr, "interpolated"))
    for prefix, expr, tag in sources:
        if prefix.n > n:
            continue
        mu = family_mu(prefix, n)
        c = columns.index(mu)
        for lam, row in zip(rows, grid):
            phi = eval_expr(expr, lam)
            if phi.denominator != 1:
                raise SchemeError(f"non-integer value {phi} at ({lam}, {mu})")
            if row[c] is not None and row[c] != phi:
                raise SchemeError(f"formula clash at ({lam}, {mu})")
            row[c] = int(phi)
        provenance[mu] = tag
    table = EigTable(n, grid, provenance)
    _check_table(table)
    return table


def second_largest(table: EigTable, mu: Partition) -> tuple[int, list[Partition]]:
    """Largest column entry off the top row, with every row attaining it."""
    values = table.column(mu)[1:]
    best = max(values)
    return best, [lam for lam, v in zip(table.rows[1:], values) if v == best]


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
    """Check, per column the conjecture applies to
    (``spectra.conjecture_applies``), that [n-1,1] attains the second
    largest eigenvalue.  Ties count as attaining."""
    if not table.is_complete():
        raise IncompleteTable("conjecture verification needs a complete table")
    n = table.n
    hook = Partition((n - 1, 1))
    per_column = []
    overall = True
    for mu in table.columns:
        applicable = conjecture_applies(mu)
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


def verify_structure_constants(table: EigTable, data: IntersectionData) -> bool:
    """True when the table passes ``_check_characters`` against data: every
    row a character of the algebra data counts, on its own label."""
    try:
        _check_characters(table, data)
    except SchemeError:
        return False
    return True


def verify_column_orthogonality(table: EigTable) -> bool:
    """Dimension-weighted products of two columns vanish unless the columns
    coincide, where they give (2n-1)!! times the valency: the class sums of
    f_lam phi_lam(mu) are the unit vector at mu, for every mu."""
    try:
        return all(
            _class_sums(table, _weighted(table.dims, table.column(mu)))
            == [int(c == mu) for c in table.columns]
            for mu in table.columns
        )
    except SchemeError:
        return False


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


def _weighted(weights: list[int], column: list[int]) -> list[int]:
    return list(map(mul, weights, column))


def _class_sums(table: EigTable, weights: list[int]) -> list[int]:
    """sum_lam w_lam phi_lam(c) / ((2n-1)!! v_c) for each relation c, in
    column order, v_c read off the top row.  For w_lam = f_lam g(phi_lam) it
    is the entry of g(A) at the base matching and one class-c matching
    (Brouwer-Cohen-Neumaier, Distance-Regular Graphs, 2.2), a count, so
    SchemeError unless every value is a nonnegative integer."""
    total = double_factorial(2 * table.n - 1)
    out = []
    for c, v in zip(table.columns, table._grid[0]):
        num = sum(_weighted(weights, table.column(c)))
        denom = total * v
        if denom <= 0 or num < 0 or num % denom:
            raise SchemeError(
                f"class sum {num} / ({total} * {v}) at {c} is not a"
                " nonnegative integer"
            )
        out.append(num // denom)
    return out


def intersection_matrix(table: EigTable, mu: Partition) -> list[list[int]]:
    """Intersection numbers of relation mu from a complete table.

    Entry (c, i) is p^c_{i mu}, the class sum at c of f phi(mu) phi(i), with
    relations indexed like ``IntersectionData.relations``: the result equals
    ``intersection_numbers(n).b_matrix(j)`` for mu = relations[j].  Raises
    SchemeError unless every entry is a nonnegative integer.
    """
    f_mu = _weighted(table.dims, table.column(mu))
    # relations descend like the rows; class sums ascend like the columns
    by_i = [_class_sums(table, _weighted(f_mu, table.column(i))) for i in table.rows]
    return [list(row) for row in zip(*by_i)][::-1]


class DiameterResult:
    """Relation-graph diameter, or the matchings reached when disconnected."""

    __slots__ = ("mu", "connected", "diameter", "reached", "n_vertices")

    def __init__(self, mu, connected, diameter, reached, n_vertices):
        self.mu = mu
        self.connected = connected
        self.diameter = diameter
        self.reached = reached
        self.n_vertices = n_vertices

    def __repr__(self) -> str:
        if self.connected:
            return f"DiameterResult({self.mu}, diameter={self.diameter})"
        return (
            f"DiameterResult({self.mu}, disconnected, "
            f"reached {self.reached} of {self.n_vertices})"
        )


def diameter(table: EigTable, mu: Partition) -> DiameterResult:
    """Diameter of the relation graph of mu from walk counts.

    The walks of length t in I + A_mu from the base matching to one class-c
    matching number the class sum at c of f_lam (1 + phi_lam(mu))^t.  The
    classes with a nonzero count are those within distance t, a set that
    only grows, so counting it ends the loop, within d steps, at the first
    step that adds none.  The graph is vertex-transitive, so the last step
    that adds a class is the diameter.
    ``reached`` counts matchings: the valencies of the reached classes.
    """
    steps = [1 + phi for phi in table.column(mu)]
    weights = list(table.dims)
    support, t = [], -1  # t ends as the last walk length that adds a class
    while sum(grown := [s > 0 for s in _class_sums(table, weights)]) > sum(support):
        support, t = grown, t + 1
        weights = _weighted(weights, steps)
    reached = sum(valency(c) for c, hit in zip(table.columns, support) if hit)
    n_vertices = double_factorial(2 * table.n - 1)
    connected = all(support)
    return DiameterResult(mu, connected, t if connected else None, reached, n_vertices)
