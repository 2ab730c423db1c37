"""Eigenvalue tables built three ways, plus table-level verifiers.

The zonal route is the production engine: the entry on eigenspace lam and
relation mu is the coefficient of p_mu in the zonal polynomial J_lam^(2),
computed exactly in ``symfunc``.  The oracle route is the independent
check and needs only the brute-force intersection numbers of the scheme:
every table row is a left eigenvector of each intersection matrix, so a
random small-integer combination with distinct integer eigenvalues has the
rows as its left eigenvectors.  One integer Krylov sequence gives both its
characteristic polynomial (the monic relation among the sequence's rows)
and every row, and each row is labelled by its multiplicity and its flip
entry.  The formula route fills whatever closed forms cover.  Each route
fills one rows x columns grid, None marking a cell it left unfilled, and
``EigTable`` holds that grid.  Cells never come from guessing: a row that
cannot be matched to a unique eigenspace index is a hard error, and every
table built or loaded from JSON passes ``_check_table`` or raises
SchemeError.  A complete table also gives the intersection numbers and the
relation-graph diameters; no other module reads an ``EigTable``.
"""

from __future__ import annotations

import csv
import io
import json
import random
from math import lcm
from operator import mul

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
from .spectra import conjecture_applies, family_mu, phi_n11, valency
from .symfunc import (
    CATALOG_PREFIXES,
    PowerSumExpr,
    e_catalog,
    eval_expr,
    zonal_power_sums,
)

_MAX_COMBO_ATTEMPTS = 60
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
        if any(type(v) is not int for row in grid for v in row if v is not None):
            raise SchemeError("values grid holds a cell that is not an int")
        self._grid = [list(row) for row in grid]
        self._row_at = {lam: r for r, lam in enumerate(self.rows)}
        self._cols = dict(zip(self.columns, map(list, zip(*self._grid))))
        self._complete = {mu for mu, col in self._cols.items() if None not in col}
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
        """Inverse of ``to_json_obj``.  The row and column labels must be
        the canonical ones spelled as ``str`` spells them, the ``values``
        grid rows x columns of ints (null marks an unfilled cell; ``dims``
        is not read), and the table must pass ``_check_table``; SchemeError
        otherwise, so a doctored cache file is refused."""
        provenance = {parse_partition(s): p for s, p in obj["provenance"].items()}
        table = cls(obj["n"], obj["values"], provenance)
        labels = [str(lam) for lam in table.rows]
        if obj["rows"] != labels or obj["columns"] != labels[::-1]:
            raise SchemeError("serialized table is not in canonical order")
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
    for lam, v in zip(table.rows, table._cols[Partition((1,) * n)]):
        if v is not None and v != 1:
            raise SchemeError(f"identity column must be all ones, bad at {lam}")
    for mu, v in zip(table.columns, table._grid[0]):
        if v is not None and v != valency(mu):
            raise SchemeError(f"top row must hold valencies, bad at {mu}")
    for mu in table.columns:
        if table.has_column(mu) and not trace_identity_check(table, mu):
            raise SchemeError(f"trace identity fails at {mu}")


def trace_identity_check(table: EigTable, mu: Partition) -> bool:
    """v_mu (2n-1)!! equals the dimension-weighted sum of squared eigenvalues;
    off the identity relation the plain dimension-weighted sum is zero."""
    n = table.n
    column = table.column(mu)
    dims = table.dims
    v = valency(mu)
    lhs = v * double_factorial(2 * n - 1)
    rhs = sum(phi * phi * f for phi, f in zip(column, dims))
    if lhs != rhs:
        return False
    if mu.parts != (1,) * n:
        if sum(phi * f for phi, f in zip(column, dims)) != 0:
            return False
    return True


def build_table_zonal(n: int) -> EigTable:
    """Full eigenvalue table from the zonal polynomials J_lam^(2).

    (S_2n, H_n) is a Gelfand pair and valency(mu) = |H_n| / z_{2mu}, so the
    coefficient of p_mu in J_lam^(2) is exactly the eigenvalue of relation
    mu on eigenspace lam (Macdonald, Symmetric Functions and Hall
    Polynomials, VII.2).  Every column is tagged "zonal".
    """
    if not 2 <= n <= DEFAULT_ZONAL_MAX_N:
        raise GuardExceeded(
            f"zonal table guarded to 2 <= n <= {DEFAULT_ZONAL_MAX_N} (asked {n})"
        )
    columns = generate_partitions(n)[::-1]
    grid = [[row[mu] for mu in columns] for row in zonal_power_sums(n).values()]
    table = EigTable(n, grid, {mu: "zonal" for mu in columns})
    _check_table(table)
    return table


def build_table_oracle(
    n: int, seed: int = 0, data: IntersectionData | None = None
) -> EigTable:
    """Full eigenvalue table from the brute-force intersection numbers.

    phi_i phi_j = sum_k p^k_ij phi_k makes every table row a left
    eigenvector of each intersection matrix B_i, with eigenvalue phi_i.  A
    combination C of the B_i with small seeded coefficients must have
    distinct integer eigenvalues (fresh coefficients otherwise).  With e the
    unit vector at the identity relation [1^n], the Krylov rows e C^0 ..
    e C^d satisfy one monic integer relation, found by
    ``exactalg.krylov_polynomial``; it is the characteristic polynomial chi
    when e C^0 .. e C^(d-1) are independent.  Column orthogonality gives
    e = sum_lam f_lam phi_lam / (2n-1)!! with every coefficient nonzero, so
    e is cyclic exactly when the eigenvalues are distinct: dependent rows
    reject a combination as a repeated root of chi would, and the accepted
    combination is the one a characteristic-polynomial test accepts.  By
    Cayley-Hamilton, u = e q(C), with q = chi / (x - tau) for each integer
    root tau, satisfies u C = tau u, so the row of root tau is u read off
    the Krylov rows and scaled to 1 at [1^n].
    u C = tau u is checked exactly, and the multiplicity
    (2n-1)!! / sum_i phi_i^2 / v_i must be an integer.  Rows are matched to
    eigenspace indices by dimension and flip eigenvalue.
    """
    if n < 2:
        raise ValueError("tables need n >= 2")
    if data is None:
        data = intersection_numbers(n)
    rels = data.relations
    d = len(rels)
    rng = random.Random(seed)
    bound = 1 + 9 * sum(data.valencies)
    for _ in range(_MAX_COMBO_ATTEMPTS):
        coeffs = [rng.randint(-9, 9) for _ in range(d)]
        # C = sum_i c_i B_i: entry (k, j) is sum_i c_i p^k_ij
        combo = [_row_times(coeffs, pk) for pk in data.p]
        krylov = _krylov_rows(combo)
        poly = exactalg.krylov_polynomial(krylov)
        if poly is None:
            continue
        roots = exactalg.distinct_integer_roots(poly, bound)
        if roots is not None:
            break
    else:
        raise SchemeError(
            f"no separating combination found in {_MAX_COMBO_ATTEMPTS} attempts"
        )

    n_points = double_factorial(2 * n - 1)
    # m_tau = n_points / sum_i phi_i^2 / v_i, in integers over L = lcm(v_i)
    scale = lcm(*data.valencies)
    weights = [scale // v for v in data.valencies]
    eigenrows: list[tuple[list[int], int]] = []
    for tau in roots:
        q, _ = exactalg.synthetic_division(poly, tau)
        u = _row_times(q, krylov[:d])
        if _row_times(u, combo) != [tau * x for x in u]:
            raise SchemeError(f"root {tau} gives no left eigenvector")
        if u[-1] == 0 or any(x % u[-1] for x in u):
            raise SchemeError(f"root {tau} gives no integral row that is 1 at [1^n]")
        row = [x // u[-1] for x in u]
        norm = sum(phi * phi * w for phi, w in zip(row, weights))
        mult, rem = divmod(n_points * scale, norm)
        if rem:
            raise SchemeError(
                f"non-integer multiplicity {n_points * scale}/{norm} at root {tau}"
            )
        eigenrows.append((row, mult))

    # rels descend and the columns ascend, so each row is reversed
    assignment = _assign_rows(n, rels, eigenrows)
    grid = [assignment[lam][::-1] for lam in generate_partitions(n)]
    table = EigTable(n, grid, {mu: "oracle" for mu in rels})
    _check_table(table)
    return table


def _row_times(u: list[int], mat: list[list[int]]) -> list[int]:
    """The row vector u times the matrix mat."""
    return [sum(map(mul, u, col)) for col in zip(*mat)]


def _krylov_rows(combo: list[list[int]]) -> list[list[int]]:
    """The d + 1 rows e C^0 .. e C^d, e the unit vector at [1^n] (the last
    relation)."""
    d = len(combo)
    rows = [[0] * (d - 1) + [1]]
    for _ in range(d):
        rows.append(_row_times(rows[-1], combo))
    return rows


def _flip_eigenvalue(lam: Partition) -> int:
    """sum_i lam_i (lam_i - i): the eigenvalue of the flip relation
    [2,1^(n-2)] on eigenspace lam (Diaconis and Holmes, Random walks on
    trees and matchings, 2002)."""
    return sum(part * (part - i) for i, part in enumerate(lam.parts, start=1))


def _assign_rows(
    n: int,
    rels: list[Partition],
    eigenrows: list[tuple[list[int], int]],
) -> dict[Partition, list[int]]:
    """Match eigenvector rows to eigenspace indices.

    A row's multiplicity and flip entry must equal (dim_hook(lam),
    _flip_eigenvalue(lam)) for exactly one lam, which no other row took;
    these keys tell every lam apart for n <= 14.  Anything else is a hard
    error.
    """
    flip = rels.index(Partition((2,) + (1,) * (n - 2)))
    by_key: dict[tuple[int, int], list[Partition]] = {}
    for lam in generate_partitions(n):
        by_key.setdefault((dim_hook(lam), _flip_eigenvalue(lam)), []).append(lam)
    out: dict[Partition, list[int]] = {}
    for row, mult in eigenrows:
        candidates = by_key.get((mult, row[flip]), [])
        if len(candidates) != 1:
            raise AmbiguousRowAssignment(
                f"eigenvector row with multiplicity {mult} and flip entry"
                f" {row[flip]} matches {len(candidates)} eigenspace indices",
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
    columns are marked with interpolated provenance.  Raises GuardExceeded
    above FORMULAS_MAX_N before any work.
    """
    if n < 2:
        raise ValueError("tables need n >= 2")
    if n > FORMULAS_MAX_N:
        raise GuardExceeded(
            f"closed-form table guarded to n <= {FORMULAS_MAX_N} (asked {n})"
        )
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
    return [w * phi for w, phi in zip(weights, column)]


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
