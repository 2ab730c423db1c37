"""Eigenvalue tables built three ways, plus table-level verifiers.

The zonal route is the production engine: the entry on eigenspace lam and
relation mu is the coefficient of p_mu in the zonal polynomial J_lam^(2),
computed exactly in ``symfunc``.  The oracle route is the independent
check and needs only the brute-force intersection numbers of the scheme:
every table row is a left eigenvector of each intersection matrix, so a
random small-integer combination with distinct integer eigenvalues has the
rows as its left eigenvectors, all read off one integer Krylov sequence,
and each row is labelled by its multiplicity and its flip entry.  The
formula route fills whatever closed forms cover.  Each route fills one
rows x columns grid, None marking a cell it left unfilled, and ``EigTable``
holds that grid.  Cells never come from guessing: a row that cannot be
matched to a unique eigenspace index is a hard error, and every table built
or loaded from JSON passes ``_check_table`` or raises SchemeError.  A
complete table also gives the intersection numbers and the relation-graph
diameters.
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
from .matchings import DEFAULT_ORACLE_MAX_N, IntersectionData, intersection_numbers
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
# build_table_formulas fills a p(n) x p(n) grid: at n = 24 that takes
# 0.4-0.6 s and 75 MB peak RSS (Python 3.11, 2 cores); at n = 40 the grid
# alone would be about 1.4e9 list slots, roughly 11 GB.
FORMULAS_MAX_N = 24


class EigTable:
    """Matrix of eigenvalues: rows are eigenspace indices in canonical
    descending order, columns are relations in ascending order.

    The cells are one rows x columns grid, None marking an unfilled cell;
    a grid of any other shape raises SchemeError.  The table keeps its own
    copy of the grid and reads the columns and the set of complete
    columns off it once, so ``column``, ``has_column`` and ``is_complete``
    are lookups.
    """

    def __init__(
        self,
        n: int,
        grid: list[list[int | None]],
        provenance: dict[Partition, str],
    ):
        self.n = n
        self.rows: list[Partition] = list(generate_partitions(n))
        self.columns: list[Partition] = list(reversed(self.rows))
        self.dims: list[int] = [dim_hook(lam) for lam in self.rows]
        width = len(self.columns)
        if len(grid) != len(self.rows) or any(len(row) != width for row in grid):
            raise SchemeError("values grid is not rows x columns")
        self._grid = [list(row) for row in grid]
        self._row_at = {lam: r for r, lam in enumerate(self.rows)}
        self._cols = dict(zip(self.columns, map(list, zip(*self._grid))))
        self._complete = {mu for mu, col in self._cols.items() if None not in col}
        self.provenance = provenance

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
        grid rows x columns (null marks an unfilled cell), and the table
        must pass ``_check_table``; SchemeError otherwise, so a doctored
        cache file is refused."""
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
    identity column all ones, top row the valencies, dimensions summing to
    (2n-1)!!, and the trace identity on every complete column."""
    n = table.n
    for lam, v in zip(table.rows, table._cols[Partition((1,) * n)]):
        if v is not None and v != 1:
            raise SchemeError(f"identity column must be all ones, bad at {lam}")
    for mu, v in zip(table.columns, table._grid[0]):
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
    columns = generate_partitions(n)[::-1]
    grid = [[row[mu] for mu in columns] for row in zonal_power_sums(n).values()]
    table = EigTable(n, grid, {mu: "zonal" for mu in columns})
    _check_table(table)
    return table


def build_table_oracle(
    n: int,
    seed: int = 0,
    data: IntersectionData | None = None,
    max_n: int = DEFAULT_ORACLE_MAX_N,
) -> EigTable:
    """Full eigenvalue table from the brute-force intersection numbers.

    phi_i phi_j = sum_k p^k_ij phi_k makes every table row a left
    eigenvector of each intersection matrix B_i, with eigenvalue phi_i.  A
    combination C of the B_i with small seeded coefficients must have a
    characteristic polynomial chi with distinct integer roots (fresh
    coefficients otherwise).  By Cayley-Hamilton, u = e q(C), with
    q = chi / (x - tau) and e the unit vector at the identity relation
    [1^n], satisfies u C = tau u, so the row of root tau is u read off the
    Krylov rows e C^m (m < d) and scaled to 1 at [1^n].  u C = tau u is
    checked exactly.  Rows are matched to eigenspace indices by dimension
    and flip eigenvalue.
    """
    if n < 2:
        raise ValueError("tables need n >= 2")
    if data is None:
        data = intersection_numbers(n, max_n=max_n)
    rels = data.relations
    d = len(rels)
    rng = random.Random(seed)
    bound = 1 + 9 * sum(data.valencies)
    roots = None
    for _ in range(_MAX_COMBO_ATTEMPTS):
        coeffs = [rng.randint(-9, 9) for _ in range(d)]
        # C = sum_i c_i B_i: entry (k, j) is sum_i c_i p^k_ij
        combo = [_row_times(coeffs, pk) for pk in data.p]
        poly = exactalg.charpoly(combo)
        roots = exactalg.distinct_integer_roots(poly, bound)
        if roots is not None:
            break
    if roots is None:
        raise SchemeError(
            f"no separating combination found in {_MAX_COMBO_ATTEMPTS} attempts"
        )

    krylov = [[0] * (d - 1) + [1]]
    for _ in range(d - 1):
        krylov.append(_row_times(krylov[-1], combo))
    n_points = double_factorial(2 * n - 1)
    eigenrows: list[tuple[list[int], int]] = []
    for tau in roots:
        q, _ = exactalg.synthetic_division(poly, tau)
        u = _row_times(q, krylov)
        if _row_times(u, combo) != [tau * x for x in u]:
            raise SchemeError(f"root {tau} gives no left eigenvector")
        if u[-1] == 0 or any(x % u[-1] for x in u):
            raise SchemeError(f"root {tau} gives no integral row that is 1 at [1^n]")
        row = [x // u[-1] for x in u]
        mult = Fraction(n_points) / sum(
            Fraction(phi * phi, v) for phi, v in zip(row, data.valencies)
        )
        if mult.denominator != 1:
            raise SchemeError(f"non-integer multiplicity {mult} at root {tau}")
        eigenrows.append((row, int(mult)))

    # rels descend and the columns ascend, so each row is reversed
    assignment = _assign_rows(n, rels, eigenrows)
    grid = [assignment[lam][::-1] for lam in generate_partitions(n)]
    table = EigTable(n, grid, {mu: "oracle" for mu in rels})
    _check_table(table)
    return table


def _row_times(u: list[int], mat: list[list[int]]) -> list[int]:
    """The row vector u times the matrix mat."""
    return [sum(x * y for x, y in zip(u, col)) for col in zip(*mat)]


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
        mu = Partition(prefix.parts + (1,) * (n - prefix.n))
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


def _largest_off_top(
    table: EigTable, mu: Partition, key
) -> tuple[int, list[Partition]]:
    """Largest key(entry) of column mu below the top row (row 0), with
    every row attaining it."""
    keys = [key(v) for v in table.column(mu)[1:]]
    best = max(keys)
    return best, [lam for lam, k in zip(table.rows[1:], keys) if k == best]


def second_largest(table: EigTable, mu: Partition) -> tuple[int, list[Partition]]:
    """Largest column entry off the top row, with every row attaining it."""
    return _largest_off_top(table, mu, lambda v: v)


def second_largest_abs(table: EigTable, mu: Partition) -> tuple[int, list[Partition]]:
    """Largest |entry| off the top row, with every row attaining it."""
    return _largest_off_top(table, mu, abs)


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


def intersection_matrix(table: EigTable, mu: Partition) -> list[list[int]]:
    """Intersection numbers of relation mu from a complete table.

    Entry (c, i) is p^c_{i mu} = sum_lam f_lam phi(i) phi(mu) phi(c) /
    ((2n-1)!! v_c) (Brouwer-Cohen-Neumaier, Distance-Regular Graphs, 2.2),
    with relations indexed like ``IntersectionData.relations``, so the result
    equals ``intersection_numbers(n).b_matrix(j)`` for mu = relations[j].
    Raises SchemeError unless every entry is a nonnegative integer.
    """
    rels = table.rows  # the partitions of n in descending order
    cols = [table.column(r) for r in rels]
    weights = [f * phi for f, phi in zip(table.dims, table.column(mu))]
    total = double_factorial(2 * table.n - 1)
    out = []
    for rel_c, col_c in zip(rels, cols):
        scaled = [w * phi for w, phi in zip(weights, col_c)]
        denom = total * valency(rel_c)
        row = []
        for rel_i, col_i in zip(rels, cols):
            num = sum(s * phi for s, phi in zip(scaled, col_i))
            if num < 0 or num % denom:
                raise SchemeError(
                    f"p^{rel_c}_({rel_i}, {mu}) = {Fraction(num, denom)} is not"
                    " a nonnegative integer"
                )
            row.append(num // denom)
        out.append(row)
    return out


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
    """Diameter of the relation graph of mu by BFS over relation classes.

    The stabiliser of the base matching is transitive on each relation
    class, so a class-c matching has a mu-neighbour in class i exactly when
    p^c_{i mu} > 0, and the class distances are the graph distances from the
    base matching.  The graph is vertex-transitive, so the largest of them
    is the diameter.  ``reached`` counts matchings: the valencies of the
    reached classes.
    """
    matrix = intersection_matrix(table, mu)
    d = len(matrix)
    dist = {d - 1: 0}  # the identity class [1^n] is last
    frontier = [d - 1]
    while frontier:
        nxt = []
        for c in frontier:
            for i, count in enumerate(matrix[c]):
                if count > 0 and i not in dist:
                    dist[i] = dist[c] + 1
                    nxt.append(i)
        frontier = nxt
    reached = sum(valency(table.rows[i]) for i in dist)
    n_vertices = double_factorial(2 * table.n - 1)
    if len(dist) == d:
        return DiameterResult(mu, True, max(dist.values()), reached, n_vertices)
    return DiameterResult(mu, False, None, reached, n_vertices)
