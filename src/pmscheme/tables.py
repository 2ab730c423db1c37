"""Eigenvalue tables built three ways, plus table-level verifiers.

The zonal route is the production engine: the entry on eigenspace lam and
relation mu is the coefficient of p_mu in the zonal polynomial J_lam^(2),
computed exactly in ``symfunc``.  The oracle route is that table confirmed
by the brute-force intersection numbers, which owe nothing to symmetric
functions: its rows must also be characters of the Bose-Mesner algebra the
numbers count, checked as row . B_g = phi_g row against the class matrices
B_g of a few relations g that tell the rows apart, the smallest classes
first, each from a walk pruned to the branches that can end in its
relation (``_check_characters``).
The formula route fills whatever closed forms cover.  Each route fills one
rows x columns grid, None marking a cell it left unfilled, and
``EigTable`` holds that grid.  Every table built or
loaded from JSON passes ``_check_table`` or raises SchemeError; that check
also holds each complete row to its label's multiplicity and stratum sums,
so cells traded between rows, or rows in the wrong order, are a hard
error.  A complete table also gives the intersection numbers and the
relation-graph diameters; ``column_claim`` reads one column, from any source.

What depends on n alone (the labels, their ``str`` spellings, dimensions,
valencies, multiplicity weights, stratum sums and the conjecture's scope)
is derived once per process by ``_frame(n)``, a bounded cache of immutable
frames that every table of n shares.  A process that handles tables of one
n more than once (a library caller, ``cli.main`` in a loop, the test suite)
derives them once; every build, load, check and rendering reads them from
the frame.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import factorial
from operator import add, mul
from types import MappingProxyType
from typing import NamedTuple

from .errors import AmbiguousRowAssignment, IncompleteTable, SchemeError, guard
from .matchings import IntersectionData, intersection_numbers
from .partitions import (
    Partition,
    dim_hook,
    double_factorial,
    generate_partitions,
    partition_count,
)
from .spectra import conjecture_applies, family_mu, phi_n11, valency
from .symfunc import (
    CATALOG_PREFIXES,
    _content_strata,
    e_catalog,
    eval_expr,
    zonal_rows,
)

# The largest n served as a table.  The chain from T(n-1) by the Pieri rule
# (Stanley 1989; Macdonald VI), the cut-and-join eigen-equation (Goulden and
# Jackson 1997) and the principal specialization builds it in about 0.05 s
# in a fresh process, and n = 20 in about 0.75 s (BENCH_chain.json).  The
# row keys tell every row apart at every n; the bound stays until tables
# past 14 have a check of their own.
DEFAULT_ZONAL_MAX_N = 14
# build_table_formulas fills a p(n) x p(n) grid: at n = 24 that takes
# 0.4-0.6 s and 75 MB peak RSS (Python 3.11, 2 cores); at n = 40 the grid
# alone would be about 1.4e9 list slots, roughly 11 GB.
FORMULAS_MAX_N = 24
# The tags a column's provenance may hold, one per way its cells were filled.
PROVENANCE_TAGS = ("zonal", "oracle", "closed-form")


class _Frame(NamedTuple):
    """The facts of n alone that every table of n shares.

    Rows are the partitions of n in canonical descending order and columns
    the same partitions ascending, so column 0 is the identity relation
    [1^n].  ``row_labels``/``column_labels`` spell them as ``str`` does and
    ``by_label`` maps a label back to its partition; ``row_at``/``col_at``
    give a partition's index.  Per row: ``dims`` (``dim_hook``) and
    ``strata``, the sums e_0, ..., e_(n-1) its strata must have
    (``_content_strata``); per column: ``valencies`` v_mu, ``weights``
    2^n n! / v_mu, ``col_strata``, its stratum n - len(mu), and ``applies``
    (``conjecture_applies``).  ``total`` is (2n-1)!! and ``scaled`` is
    (2n-1)!! 2^n n!.
    """

    rows: tuple[Partition, ...]
    columns: tuple[Partition, ...]
    row_labels: tuple[str, ...]
    column_labels: tuple[str, ...]
    by_label: Mapping[str, Partition]
    row_at: Mapping[Partition, int]
    col_at: Mapping[Partition, int]
    dims: tuple[int, ...]
    valencies: tuple[int, ...]
    total: int
    weights: tuple[int, ...]
    scaled: int
    strata: tuple[tuple[int, ...], ...]
    col_strata: tuple[int, ...]
    applies: tuple[bool, ...]


# a frame for each n from 2 to the larger guard of the zonal and formula builders
@lru_cache(maxsize=max(DEFAULT_ZONAL_MAX_N, FORMULAS_MAX_N) - 1)
def _frame(n: int) -> _Frame:
    """The frame of n, derived once per process while it stays cached; the
    only place in this module that computes a per-n fact.  A wrong
    dimension fails ``_check_table`` on every complete row of n."""
    rows = tuple(generate_partitions(n))
    columns = rows[::-1]
    labels = tuple(map(str, columns))
    col_at = {mu: c for c, mu in enumerate(columns)}
    valencies = tuple(map(valency, columns))
    total = double_factorial(2 * n - 1)
    # the multiplicity in integers, through 1 / v_mu = z2(mu) / (2^n n!)
    scale = 2**n * factorial(n)
    return _Frame(
        rows=rows,
        columns=columns,
        row_labels=labels[::-1],
        column_labels=labels,
        by_label=MappingProxyType(dict(zip(labels, columns))),
        row_at=MappingProxyType({lam: r for r, lam in enumerate(rows)}),
        col_at=MappingProxyType(col_at),
        dims=tuple(map(dim_hook, rows)),
        valencies=valencies,
        total=total,
        weights=tuple(scale // v for v in valencies),
        scaled=total * scale,
        strata=tuple(_content_strata(rows)),
        col_strata=tuple(n - len(mu) for mu in columns),
        applies=tuple(map(conjecture_applies, columns)),
    )


class EigTable:
    """Matrix of eigenvalues: rows are eigenspace indices in canonical
    descending order, columns are relations in ascending order.

    The cells are one rows x columns grid of ``int`` (not ``bool`` or
    ``float``), None marking an unfilled cell; any other grid, an n that is
    not an ``int`` or is below 2, or a provenance entry whose key is not a
    column or whose tag is not in PROVENANCE_TAGS raises SchemeError (n and
    the grid's shape are checked before the frame is looked up).  The labels,
    dimensions, valencies and the other facts of n alone come from the
    shared ``_frame(n)``, so a second table of n derives none of them; the
    table keeps its own copies of the grid and the provenance and its own
    ``rows``, ``columns`` and ``dims`` lists, which nothing here reads back.
    It reads the columns and the set of complete columns off the grid once,
    so ``column``, ``has_column`` and ``is_complete`` are lookups.
    """

    def __init__(
        self,
        n: int,
        grid: list[list[int | None]],
        provenance: dict[Partition, str],
    ):
        if type(n) is not int:
            raise SchemeError(f"table n must be an int, got {n!r}")
        if n < 2:
            raise SchemeError(f"tables need n >= 2, got {n}")
        # p(n) x p(n), and p(n) >= n: fewer rows than n are refused uncounted
        size = len(grid)
        if size < n or size != partition_count(n) or any(len(r) != size for r in grid):
            raise SchemeError("values grid is not rows x columns")
        frame = self._frame = _frame(n)
        self.n = n
        self.rows: list[Partition] = list(frame.rows)
        self.columns: list[Partition] = list(frame.columns)
        self.dims: list[int] = list(frame.dims)
        if not set(map(type, chain.from_iterable(grid))) <= {int, type(None)}:
            raise SchemeError("values grid holds a cell that is not an int")
        self._grid = [list(row) for row in grid]
        # column c of the grid, and the indices of the columns without a gap
        self._cols = list(zip(*self._grid))
        self._complete = {c for c, col in enumerate(self._cols) if None not in col}
        self._set_provenance(provenance)

    def _set_provenance(self, provenance: dict) -> None:
        self.provenance = dict(provenance)
        for mu, tag in self.provenance.items():
            if mu not in self._frame.col_at or tag not in PROVENANCE_TAGS:
                raise SchemeError(f"bad provenance {tag!r} for column {mu}")

    def value(self, lam: Partition, mu: Partition) -> int | None:
        c = self._frame.col_at.get(mu)
        r = self._frame.row_at.get(lam)
        return None if c is None or r is None else self._grid[r][c]

    def column(self, mu: Partition) -> list[int]:
        """Column mu as a fresh list the caller may change; IncompleteTable
        unless it is complete.  The queries in this module read the grid in
        place instead (``_column``, ``_columns``), without the copy."""
        return list(self._column(mu))

    def _column(self, mu: Partition) -> tuple[int, ...]:
        """Column mu as the grid holds it, shared and read in place; raises
        as ``column`` does."""
        c = self._frame.col_at.get(mu)
        if c not in self._complete:
            raise IncompleteTable(f"column {mu} is not fully populated")
        return self._cols[c]

    def _columns(self) -> list[tuple[int, ...]]:
        """Every column as the grid holds it, shared and read in place;
        IncompleteTable, worded as ``column`` words it, at the first column
        with a gap."""
        if not self.is_complete():
            for mu in self._frame.columns:
                self._column(mu)
        return self._cols

    def has_column(self, mu: Partition) -> bool:
        return self._frame.col_at.get(mu) in self._complete

    def is_complete(self) -> bool:
        return len(self._complete) == len(self._cols)

    def grid(self) -> list[list[int | None]]:
        return [list(row) for row in self._grid]

    def to_csv_text(self) -> str:
        """Canonical CSV: header lambda\\mu + columns + Dim, one row per
        eigenspace, exact integers, empty cells where a value is absent."""
        frame = self._frame
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["lambda\\mu", *frame.column_labels, "Dim"])
        # csv writes None as an empty field
        writer.writerows(
            [label, *row, dim]
            for label, dim, row in zip(frame.row_labels, frame.dims, self._grid)
        )
        return buf.getvalue()

    def to_json_obj(self) -> dict:
        frame = self._frame
        return {
            "n": self.n,
            "columns": list(frame.column_labels),
            "rows": list(frame.row_labels),
            "values": self.grid(),
            "dims": list(frame.dims),
            "provenance": {
                label: self.provenance[mu]
                for mu, label in zip(frame.columns, frame.column_labels)
                if mu in self.provenance
            },
        }

    def to_json_text(self) -> str:
        """``to_json_obj`` on one line, with no spaces: the C encoder, which
        ``json.dumps`` skips when given an indent, writes it."""
        return json.dumps(self.to_json_obj(), separators=(",", ":")) + "\n"

    @classmethod
    def from_json_obj(cls, obj: dict) -> "EigTable":
        """Inverse of ``to_json_obj``.  The row and column labels, the
        provenance keys included, must be the canonical ones spelled as
        ``str`` spells them, the ``values`` grid rows x columns of ints
        (null marks an unfilled cell; ``dims`` is not read), and the table
        must pass ``_check_table``; SchemeError otherwise, so a doctored
        cache file is refused."""
        table = cls(obj["n"], obj["values"], {})
        frame = table._frame
        rows, columns = list(frame.row_labels), list(frame.column_labels)
        if obj["rows"] != rows or obj["columns"] != columns:
            raise SchemeError("serialized table is not in canonical order")
        # a key that is no canonical label stays a str, which no column is
        by_label = frame.by_label
        table._set_provenance(
            {by_label.get(s, s): tag for s, tag in obj["provenance"].items()}
        )
        _check_table(table)
        return table

    def pretty(self) -> str:
        frame = self._frame
        header = ["lam\\mu", *frame.column_labels, "Dim"]
        body = [
            [label] + ["." if v is None else str(v) for v in row] + [str(dim)]
            for label, dim, row in zip(frame.row_labels, frame.dims, self._grid)
        ]
        widths = [max(len(r[c]) for r in [header] + body) for c in range(len(header))]
        lines = [
            "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
            for row in [header] + body
        ]
        return "\n".join(lines) + "\n"


def _check_table(table: EigTable) -> None:
    """Raise SchemeError unless the filled cells pass the table invariants,
    in this order: identity column all ones; every row lam without an
    unfilled cell on its own label (AmbiguousRowAssignment otherwise), that
    is with multiplicity (2n-1)!! / sum_mu phi(mu)^2 / v_mu equal to
    dim_hook(lam), by the row orthogonality relation (Bannai and Ito,
    Algebraic Combinatorics I: Association Schemes, 1984), and with sum
    e_k(A_lam) over the relations mu of each stratum k = n - len(mu), A_lam
    the alpha = 2 contents of lam: the row is J_lam^(2) in power sums,
    J_lam^(2)(1^t) = prod over A_lam of (t + c) (Macdonald VI (10.20)) and
    p_mu(1^t) = t^len(mu).  Stratum 1 is the flip entry; e_1, ..., e_(n-1)
    fix A_lam, which fixes lam, so these keys tell every lam apart at every
    n, and a trade of two cells in one column changes two rows' sums in its
    stratum.  Then top row the valencies; and the trace identity on every
    complete column.  Dimensions, valencies, weights and strata are read
    from the table's frame, derived from n, never from a file; only the grid
    is walked.  A grid whose rows are permuted is refused at its first wrong
    row, named with its first failing stratum."""
    frame = table._frame
    for lam, v in zip(frame.rows, table._cols[0]):
        if v is not None and v != 1:
            raise SchemeError(f"identity column must be all ones, bad at {lam}")
    n, weights, scaled = table.n, frame.weights, frame.scaled
    col_strata = frame.col_strata
    for lam, dim, want, phi in zip(frame.rows, frame.dims, frame.strata, table._grid):
        if None in phi:
            continue
        norm = sum(map(mul, weights, map(mul, phi, phi)))
        sums = [0] * n
        for k, v in zip(col_strata, phi):
            sums[k] += v
        if dim * norm != scaled or tuple(sums) != want:
            got = expected = ""
            for k, (s, e) in enumerate(zip(sums, want)):
                if s != e:
                    got = f" and stratum {k} sum {s}"
                    expected = f" and stratum {k} sum {e}"
                    break
            raise AmbiguousRowAssignment(
                f"row {lam} has multiplicity {Fraction(scaled, norm)}{got}, but"
                f" eigenspace {lam} has dimension {dim}{expected}"
            )
    for mu, v, valency_mu in zip(frame.columns, table._grid[0], frame.valencies):
        if v is not None and v != valency_mu:
            raise SchemeError(f"top row must hold valencies, bad at {mu}")
    for c, (mu, valency_mu) in enumerate(zip(frame.columns, frame.valencies)):
        if c in table._complete and not _trace_identity(
            frame.dims, table._cols[c], valency_mu * frame.total, c == 0
        ):
            raise SchemeError(f"trace identity fails at {mu}")


def trace_identity_check(table: EigTable, mu: Partition) -> bool:
    """v_mu (2n-1)!! equals the dimension-weighted sum of squared eigenvalues;
    off the identity relation the plain dimension-weighted sum is zero."""
    column = table._column(mu)
    frame = table._frame
    c = frame.col_at[mu]
    return _trace_identity(frame.dims, column, frame.valencies[c] * frame.total, c == 0)


def _trace_identity(
    dims: Sequence[int], column: Sequence[int], lhs: int, identity: bool
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
    """The zonal rows x columns grid, guarded before any work: the rows of
    ``zonal_rows``, each reversed into column order."""
    guard("zonal table", n, DEFAULT_ZONAL_MAX_N, lo=2)
    return [row[::-1] for row in zonal_rows(n)]


def build_table_oracle(
    n: int, seed: int = 0, data: IntersectionData | None = None
) -> EigTable:
    """The zonal table, confirmed by the brute-force intersection numbers
    (``_check_characters``, which runs ``_check_table`` first) and with
    every column tagged "oracle"; a row off its label raises
    AmbiguousRowAssignment.  data defaults to ``intersection_numbers(n)``;
    seed is accepted and changes nothing."""
    if n < 2:
        raise ValueError("tables need n >= 2")
    if data is None:
        data = intersection_numbers(n)
    table = EigTable(n, _zonal_grid(n), dict.fromkeys(data.relations, "oracle"))
    _check_characters(table, data)
    return table


def _check_characters(table: EigTable, data: IntersectionData) -> None:
    """Refuse a complete table unless it passes ``_check_table`` and its rows
    are the characters of the commutative Bose-Mesner algebra data counts
    (Bannai and Ito, Algebraic Combinatorics I: Association Schemes, 1984);
    SchemeError otherwise.

    Only the relations g of ``_separating_set`` are multiplied: each row
    must satisfy phi_g phi_j = sum_k p^k_gj phi_k, that is row . B_g =
    phi_g row, for every g in S and every non-identity j (zero p skipped),
    which costs O(|S| d^2) where all pairs cost O(d^3).  S is {flip} for
    n in {2, 3, 4, 5, 7}, {flip, [2,2,2]} for n = 6 and {flip,
    [3,1^(n-3)]} for n = 8..14.  Only those class matrices are read, column
    by column as ``data.columns(g)`` keeps them: each product is one
    ``sum(map(mul, coefficients, getter(phi)))`` over the nonzero p^k_gj,
    and no call scans a class matrix again.  Each is counted by a walk that
    prunes every branch that cannot end in relation g, so its cost follows
    that class's size (n(n-1) for the flip, 120 for [2,2,2], 8 C(n,3) for
    [3,1^(n-3)]) rather than (2n-1)!!, and the full tensor is never counted.
    Rows are checked in order, each at (g, j) in S order and j ascending,
    and the first failure is named.

    This is as strong as checking every pair.  Write a row as phi = sum_s
    a_s chi_s over the d true characters.  Applying phi to A_g E_s, with
    E_s the primitive idempotents, shows that a row passing at g has a_s = 0
    wherever chi_s(A_g) != phi_g.  So each row lies in the span of its own
    fibre, the characters that agree with it on S, and phi(I) = 1 (the
    identity column, held by ``_check_table``) makes that fibre nonempty.
    The rows are pairwise distinct on S, so d rows sit in d disjoint
    nonempty fibres of d characters: each fibre is a single character, and
    each row equals it.
    """
    n = table.n
    if data.n != n:
        raise SchemeError(f"intersection numbers are for n={data.n}, not {n}")
    if not table.is_complete():
        raise IncompleteTable("the character check needs a complete table")
    _check_table(table)
    rels = data.relations
    lams = table._frame.rows
    # relations descend and the columns ascend, so each row is reversed
    rows = [r[::-1] for r in table._grid]
    products = [
        (g, j, coefficients, getter)
        for g in _separating_set(lams, rows)
        for j, (coefficients, getter) in enumerate(data.columns(g))
    ]
    for lam, phi in zip(lams, rows):
        for g, j, coefficients, getter in products:
            if phi[g] * phi[j] != sum(map(mul, coefficients, getter(phi))):
                raise SchemeError(
                    f"row {lam} fails phi_i phi_j = sum_k p^k_ij phi_k at the"
                    f" pair ({rels[g]}, {rels[j]})"
                )


def _separating_set(
    lams: Sequence[Partition], rows: Sequence[Sequence[int]]
) -> list[int]:
    """A separating set S of relations for the rows of lams: rows lists each
    row in relation order (descending, the identity last), and S holds
    indices into it, taken smallest class first until the rows' values on S
    are pairwise distinct.  The top row [n] holds each relation's valency
    (``_check_table`` has held it there), and classes of one size are taken
    from the flip [2,1^(n-2)], the relation before the identity, upward.
    SchemeError naming two equal rows when no set separates."""
    valencies = rows[0]
    order = sorted(range(len(valencies) - 2, -1, -1), key=valencies.__getitem__)
    chosen, keys = [], [()] * len(rows)
    for g in order:
        if len(set(keys)) == len(keys):
            break
        chosen.append(g)
        keys = [key + (phi[g],) for key, phi in zip(keys, rows)]
    seen: dict[tuple, Partition] = {}
    for lam, key in zip(lams, keys):
        if key in seen:
            raise SchemeError(
                f"rows {seen[key]} and {lam} are equal on every relation but"
                " the identity"
            )
        seen[key] = lam
    return chosen


def build_table_formulas(n: int) -> EigTable:
    """Table from closed forms only: the identity column, the catalog family
    columns, and the top two rows for every relation.  Other cells stay
    absent.  Raises GuardExceeded above FORMULAS_MAX_N before any work.
    """
    if n < 2:
        raise ValueError("tables need n >= 2")
    guard("closed-form table", n, FORMULAS_MAX_N)
    frame = _frame(n)
    columns = frame.columns
    # the identity column [1^n] is all ones
    grid: list[list[int | None]] = [
        [1] + [None] * (len(columns) - 1) for _ in frame.rows
    ]
    provenance: dict[Partition, str] = {columns[0]: "closed-form"}
    # the top two rows are [n] and [n-1,1]
    grid[0] = list(frame.valencies)
    grid[1] = [phi_n11(mu) for mu in columns]
    for prefix in CATALOG_PREFIXES:
        if prefix.n > n:
            continue
        expr = e_catalog(prefix)
        mu = family_mu(prefix, n)
        c = frame.col_at[mu]
        for lam, row in zip(frame.rows, grid):
            phi = eval_expr(expr, lam)
            if phi.denominator != 1:
                raise SchemeError(f"non-integer value {phi} at ({lam}, {mu})")
            if row[c] is not None and row[c] != phi:
                raise SchemeError(f"formula clash at ({lam}, {mu})")
            row[c] = int(phi)
        provenance[mu] = "closed-form"
    table = EigTable(n, grid, provenance)
    _check_table(table)
    return table


class ColumnClaim(NamedTuple):
    """What column mu says: ``top`` its top cell (the valency), ``second``
    the largest value off the top row, ``rows`` every row that reaches it,
    ``gap`` top - second, and ``holds`` whether [n-1,1] is among those rows
    (ties count), None where ``conjecture_applies`` is false."""

    mu: Partition
    top: int
    second: int
    rows: tuple[Partition, ...]
    gap: int
    holds: bool | None


def column_claim(mu: Partition, column: Sequence[int]) -> ColumnClaim:
    """The claim of column mu, given its values over ``_frame(mu.n).rows``
    from any source; SchemeError unless it holds p(n) values and its top
    cell is mu's valency."""
    if mu.n < 2:
        raise SchemeError(f"{mu} has no second eigenvalue")
    frame = _frame(mu.n)
    c = frame.col_at[mu]
    top = frame.valencies[c]
    if len(column) != len(frame.rows) or column[0] != top:
        raise SchemeError(f"column {mu} needs {len(frame.rows)} values led by {top}")
    second = max(column[1:])
    rows = tuple(lam for lam, v in zip(frame.rows[1:], column[1:]) if v == second)
    holds = frame.rows[1] in rows if frame.applies[c] else None
    return ColumnClaim(mu, top, second, rows, top - second, holds)


class ConjectureVerdict(NamedTuple):
    """The claim of every column of one table; ``overall``: none fails."""

    n: int
    claims: tuple[ColumnClaim, ...]
    overall: bool

    def to_json_obj(self) -> dict:
        columns = [
            {
                "mu": str(c.mu),
                "applicable": c.holds is not None,
                "second_largest_rows": [str(r) for r in c.rows if c.holds is not None],
                "holds": c.holds,
            }
            for c in self.claims
        ]
        return {"n": self.n, "overall": self.overall, "columns": columns}


def verify_conjecture(table: EigTable) -> ConjectureVerdict:
    """``column_claim`` of every column; IncompleteTable, worded as
    ``EigTable.column`` words it, on a partial table."""
    claims = tuple(map(column_claim, table._frame.columns, table._columns()))
    overall = all(c.holds is not False for c in claims)
    return ConjectureVerdict(table.n, claims, overall)


def derangement_spectrum(table: EigTable) -> list[int]:
    """Row-wise sum of the columns whose relation has no part of size 1."""
    columns = table._frame.columns
    out = [0] * len(columns)
    for mu in columns:
        if mu.r1() == 0:
            out = list(map(add, out, table._column(mu)))
    return out


def verify_structure_constants(table: EigTable, data: IntersectionData) -> bool:
    """True when the table passes ``_check_characters`` against data: every
    row on its own label (``_check_table``) and a character of the algebra
    data counts.  Only the products with the relations of a separating set
    are checked, which is as strong as every product: a row passing at g
    lies in the span of the characters that agree with it at g, so rows
    that pass on a set S and are pairwise distinct on S sit in d disjoint
    nonempty fibres of the d characters, one character each."""
    try:
        _check_characters(table, data)
    except SchemeError:
        return False
    return True


def verify_column_orthogonality(table: EigTable) -> bool:
    """Dimension-weighted products of two columns vanish unless the columns
    coincide, where they give (2n-1)!! times the valency: the class sums of
    f_lam phi_lam(mu) are the unit vector at mu, for every mu."""
    frame = table._frame
    try:
        return all(
            _class_sums(table, _weighted(frame.dims, col))
            == [int(c == mu) for c in frame.columns]
            for mu, col in zip(frame.columns, table._columns())
        )
    except SchemeError:
        return False


def gap_scan(table: EigTable) -> dict[Partition, ColumnClaim]:
    """``column_claim`` of every non-identity column of a complete table, by
    relation; IncompleteTable as ``verify_conjecture`` raises it."""
    pairs = zip(table._frame.columns[1:], table._columns()[1:])
    return {mu: column_claim(mu, col) for mu, col in pairs}


def _weighted(weights: Sequence[int], column: Sequence[int]) -> list[int]:
    return list(map(mul, weights, column))


def _class_sums(table: EigTable, weights: Sequence[int]) -> list[int]:
    """sum_lam w_lam phi_lam(c) / ((2n-1)!! v_c) for each relation c, in
    column order, v_c read off the top row.  For w_lam = f_lam g(phi_lam) it
    is the entry of g(A) at the base matching and one class-c matching
    (Brouwer-Cohen-Neumaier, Distance-Regular Graphs, 2.2), a count, so
    SchemeError unless every value is a nonnegative integer.  The columns
    are read in place (``EigTable._columns``, IncompleteTable on a partial
    table), each sum one multiply-accumulate with no copy."""
    total = table._frame.total
    out = []
    for c, v, col in zip(table._frame.columns, table._grid[0], table._columns()):
        num = sum(map(mul, weights, col))
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
    frame = table._frame
    f_mu = _weighted(frame.dims, table._column(mu))
    # relations descend like the rows; class sums ascend like the columns
    by_i = [_class_sums(table, _weighted(f_mu, table._column(i))) for i in frame.rows]
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
    Column mu and every column a step sums are read in place, not copied;
    IncompleteTable, as ``EigTable.column`` raises it, on a partial table.
    """
    frame = table._frame
    steps = [1 + phi for phi in table._column(mu)]
    weights = list(frame.dims)
    support, t = [], -1  # t ends as the last walk length that adds a class
    while sum(grown := [s > 0 for s in _class_sums(table, weights)]) > sum(support):
        support, t = grown, t + 1
        weights = _weighted(weights, steps)
    reached = sum(v for v, hit in zip(frame.valencies, support) if hit)
    n_vertices = frame.total
    connected = all(support)
    return DiameterResult(mu, connected, t if connected else None, reached, n_vertices)
