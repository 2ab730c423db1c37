"""Power-sum expressions over Q[t], content evaluation and exact interpolation.

A PowerSumExpr is a finite Q[t]-linear combination of monomials p_lam =
p_{lam_1} p_{lam_2} ... , with p of the empty partition meaning the constant 1
(this matches the catalog's closed forms; the alternative reading
p_0 = number of variables would shift every constant term).  Evaluating at a
partition lam substitutes t = 2n and each p_k by the sum of k-th powers of the
contents of the doubled shape 2*lam.  An expression is held in one form,
integer coefficients over one common denominator, so evaluation and fitting
run in integers (content power sums are summed from cached rows); a Fraction
is made only for a result or for a coefficient's text.  Nothing adds or
scales expressions.

``_CATALOG`` is the one registry of the paper's closed-form families
[2], [3], [2,2], [4], [3,2] and [5] (each padded by parts 1): threshold,
second eigenvalue and gap coefficients in n, and the expression, written as
the text ``PowerSumExpr.to_text`` prints (and ``pmscheme fit`` recovers) and
parsed once at import.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from math import gcd, lcm, prod
from typing import Mapping, NamedTuple, Sequence

from . import exactalg
from .errors import FitInconsistent, FitUnderdetermined, SchemeError
from .partitions import (
    Partition,
    generate_partitions,
    parse_partition,
    successors,
)


class PowerSumExpr:
    """A Q[t]-linear combination of power-sum monomials, held in integers.

    Built from a map monomial (a Partition) -> rational coefficients in t,
    lowest degree first.  ``den`` is the least common denominator of all
    coefficients and ``int_terms`` holds one (integer coefficients of
    den * poly ascending in t, monomial parts) pair per nonzero term, larger
    monomials first, so equal expressions hold equal tuples.  ``kmax`` is
    the largest power-sum index any monomial uses.
    """

    __slots__ = ("den", "int_terms", "kmax")

    def __init__(self, terms: Mapping[Partition, Sequence] | None = None):
        polys: dict[Partition, list[Fraction]] = {}
        for mono, coeffs in (terms or {}).items():
            cs = [Fraction(c) for c in coeffs]
            while cs and cs[-1] == 0:
                cs.pop()
            if cs:
                polys[mono] = cs
        den = lcm(*(c.denominator for cs in polys.values() for c in cs))
        int_terms = tuple(
            (tuple(c.numerator * (den // c.denominator) for c in polys[m]), m)
            for m in sorted(polys, key=lambda m: (-m.n, tuple(-p for p in m)))
        )
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "int_terms", int_terms)
        kmax = max((m[0] for m in polys if m), default=0)
        object.__setattr__(self, "kmax", kmax)

    def at_t(self, t: int) -> list[tuple[int, tuple[int, ...]]]:
        """den * f with t fixed: (integer coefficient, monomial parts) pairs."""
        return [(horner(coeffs, t), parts) for coeffs, parts in self.int_terms]

    def __setattr__(self, name, value):
        raise AttributeError("PowerSumExpr is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, PowerSumExpr) and (
            (self.den, self.int_terms) == (other.den, other.int_terms)
        )

    def __repr__(self) -> str:
        return f"PowerSumExpr({self.to_text()!r})"

    def to_text(self) -> str:
        """Canonical text form, larger monomials first and each coefficient
        a reduced fraction; parsed back losslessly."""
        if not self.int_terms:
            return "(0)*p[]"
        out = []
        for coeffs, parts in self.int_terms:
            poly = []
            for d, c in enumerate(coeffs):
                if c:
                    power = "" if d == 0 else "*t" if d == 1 else f"*t^{d}"
                    poly.append(f"{Fraction(c, self.den)}{power}")
            out.append(f"({' + '.join(poly)})*p{Partition(parts)}")
        return " + ".join(out)


def horner(coeffs: Sequence[int], x: int) -> int:
    """The integer polynomial with these coefficients, lowest degree first,
    at x."""
    v = 0
    for c in reversed(coeffs):
        v = v * x + c
    return v


_COEFF = re.compile(r"^(-?\d+(?:/\d+)?)(?:\*t(?:\^(\d+))?)?$")


def parse_power_sum_expr(text: str) -> PowerSumExpr:
    """Inverse of ``PowerSumExpr.to_text``, which writes each monomial once
    and each degree of its coefficient once."""
    terms: dict[Partition, list[Fraction]] = {}
    s = text.strip()
    pos = 0
    while pos < len(s):
        if s[pos] != "(":
            raise ValueError(f"expected '(' at position {pos} of {text!r}")
        close = s.index(")", pos)
        if s[close : close + 3] != ")*p":
            raise ValueError(f"expected ')*p' at position {close} of {text!r}")
        close_b = s.index("]", close)
        term = s[pos : close_b + 1]
        mono = parse_partition(s[close + 3 : close_b + 1])
        if mono in terms:
            raise ValueError(f"monomial p{mono} repeated in {text!r}")
        coeffs: dict[int, Fraction] = {}
        for part in s[pos + 1 : close].split(" + "):
            m = _COEFF.match(part.strip())
            if not m:
                raise ValueError(f"bad coefficient {part!r} in term {term!r}")
            d = int(m.group(2) or 1) if "t" in part else 0
            if d in coeffs:
                raise ValueError(f"degree {d} repeated in term {term!r}")
            try:
                coeffs[d] = Fraction(m.group(1))
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in term {term!r}") from None
        terms[mono] = [coeffs.get(d, 0) for d in range(max(coeffs) + 1)]
        pos = close_b + 1
        if pos < len(s):
            if s[pos : pos + 3] != " + ":
                raise ValueError(f"expected ' + ' at position {pos} of {text!r}")
            pos += 3
    return PowerSumExpr(terms)


@cache
def _row_power_sums(i: int, length: int, kmax: int) -> tuple[int, ...]:
    """Sums of c^k, k = 0..kmax, over the contents c of row i (1-based) of
    a doubled shape whose row i has 2 * length boxes."""
    sums = [0] * (kmax + 1)
    for c in range(1 - i, 2 * length - i + 1):
        x = 1
        for k in range(kmax + 1):
            sums[k] += x
            x *= c
    return tuple(sums)


def content_power_sums(lam: Partition, kmax: int) -> list[int]:
    """[p_0, ..., p_kmax] of the contents of 2*lam (p_0 = 2n), row by row."""
    rows = [_row_power_sums(i, part, kmax) for i, part in enumerate(lam, start=1)]
    return list(map(sum, zip((0,) * (kmax + 1), *rows)))


def combine(terms: Sequence[tuple[int, tuple[int, ...]]], sums: Sequence[int]) -> int:
    """sum of coefficient * prod(sums[k] for k in parts) over (coefficient,
    parts) pairs such as ``PowerSumExpr.at_t`` gives."""
    total = 0
    for v, parts in terms:
        for k in parts:
            v *= sums[k]
        total += v
    return total


def eval_expr(f: PowerSumExpr, lam: Partition) -> Fraction:
    """Evaluate f at the contents of 2*lam, with t = 2n (boxes of 2*lam).

    The sum runs in integers over f's common denominator; the one Fraction
    is the result.
    """
    if lam.n < 1:
        raise ValueError("evaluation needs a nonempty partition")
    num = combine(f.at_t(2 * lam.n), content_power_sums(lam, f.kmax))
    return Fraction(num, f.den)


class CatalogEntry:
    """One closed-form family, prefix + 1^(n - |prefix|): its second
    eigenvalue and spectral gap as polynomials in n, proven for
    n >= threshold, and ``expr``, parsed from its text, which generates the
    family's column.  Like ``PowerSumExpr``, the polynomials are held in
    integers: ``second`` and ``gap`` are the coefficients, lowest degree
    first, of den * polynomial, over the one least common denominator
    ``den`` of the rational coefficients given."""

    def __init__(self, threshold: int, second: tuple, gap: tuple, expr: str):
        self.threshold = threshold
        second, gap = [Fraction(c) for c in second], [Fraction(c) for c in gap]
        self.den = lcm(*(c.denominator for c in second + gap))
        self.second = tuple(int(c * self.den) for c in second)
        self.gap = tuple(int(c * self.den) for c in gap)
        self.expr = parse_power_sum_expr(expr)


_CATALOG: dict[tuple[int, ...], CatalogEntry] = {
    (2,): CatalogEntry(
        threshold=3,
        second=(1, -3, 1),
        gap=(-1, 2),
        expr="(1/2)*p[1] + (-1/4*t)*p[]",
    ),
    (3,): CatalogEntry(
        threshold=5,
        second=(-4, Fraction(38, 3), -8, Fraction(4, 3)),
        gap=(4, -10, 4),
        expr="(1/2)*p[2] + (-1)*p[1] + (3/4*t + -1/4*t^2)*p[]",
    ),
    (2, 2): CatalogEntry(
        threshold=6,
        second=(6, -20, Fraction(33, 2), -5, Fraction(1, 2)),
        gap=(-6, 17, -11, 2),
        expr="(-3/4)*p[2] + (1/8)*p[1,1] + (5/4 + -1/8*t)*p[1]"
        " + (-3/4*t + 9/32*t^2)*p[]",
    ),
    (4,): CatalogEntry(
        threshold=6,
        second=(24, -80, 66, -20, 2),
        gap=(-24, 68, -44, 8),
        expr="(1/2)*p[3] + (-9/4)*p[2] + (11/2 + -1*t)*p[1]"
        " + (-23/8*t + 1*t^2)*p[]",
    ),
    (3, 2): CatalogEntry(
        threshold=7,
        second=(-80, Fraction(836, 3), -270, 110, -20, Fraction(4, 3)),
        gap=(
            80, Fraction(-740, 3), Fraction(610, 3), Fraction(-190, 3), Fraction(20, 3)
        ),
        expr="(-2)*p[3] + (1/4)*p[2,1] + (15/2 + -1/8*t)*p[2] + (-1/2)*p[1,1]"
        " + (-15 + 29/8*t + -1/8*t^2)*p[1] + (29/4*t + -47/16*t^2 + 1/16*t^3)*p[]",
    ),
    (5,): CatalogEntry(
        threshold=6,
        second=(-192, Fraction(3344, 5), -648, 264, -48, Fraction(16, 5)),
        gap=(192, -592, 488, -152, 16),
        expr="(1/2)*p[4] + (-4)*p[3] + (20 + -3/2*t)*p[2] + (-1)*p[1,1]"
        " + (-34 + 7*t)*p[1] + (217/12*t + -8*t^2 + 5/12*t^3)*p[]",
    ),
}

CATALOG_PREFIXES: tuple[Partition, ...] = tuple(
    sorted((Partition(p) for p in _CATALOG), key=lambda q: (q.n, q))
)


def catalog_entry(prefix: Partition) -> CatalogEntry:
    """The entry of the family prefix + trailing 1s; ValueError off the catalog."""
    entry = _CATALOG.get(prefix)
    if entry is None:
        raise ValueError(f"no closed form in catalog for prefix {prefix}")
    return entry


def e_catalog(prefix: Partition) -> PowerSumExpr:
    """The eigenvalue-generating expression for the family prefix + trailing 1s."""
    return catalog_entry(prefix).expr


def delta_eval(f: PowerSumExpr, lam: Partition, i: int) -> Fraction:
    """f at the grown partition (t = 2n+2) minus f at lam (t = 2n)."""
    match = [lp for lp, row in successors(lam) if row == i]
    if not match:
        raise ValueError(f"row {i} is not an admissible growth of {lam}")
    return eval_expr(f, match[0]) - eval_expr(f, lam)


def delta_closed_forms(name: str, lam_i: int, i: int):
    """Closed forms for increments of p1, p2, p1^2 and p3 under one row growth.

    For p1sq the increment is affine in p1 of the starting shape and the
    result is the pair (coefficient of p1, constant); the other names return
    plain integers.
    """
    if name == "p1":
        return -2 * (i - 1) + 4 * lam_i + 1
    if name == "p2":
        return 2 * i * i - 6 * i + 5 - 8 * i * lam_i + 12 * lam_i + 8 * lam_i * lam_i
    if name == "p1sq":
        coeff = 8 * lam_i - 4 * i + 6
        const = (
            16 * lam_i**2 - 16 * i * lam_i + 24 * lam_i + 4 * i * i - 12 * i + 9
        )
        return (coeff, const)
    if name == "p3":
        return (
            -2 * i**3
            + 12 * i * i * lam_i
            - 24 * i * lam_i * lam_i
            + 16 * lam_i**3
            + 9 * i * i
            - 36 * i * lam_i
            + 36 * lam_i * lam_i
            - 15 * i
            + 30 * lam_i
            + 9
        )
    raise ValueError(f"unknown increment name {name!r}")


def _merges(parts: tuple[int, ...]) -> set[tuple[int, ...]]:
    """All partitions obtained by grouping the given parts and summing groups."""
    if not parts:
        return {()}
    first, rest = parts[0], parts[1:]
    out: set[tuple[int, ...]] = set()
    for sub in _merges(rest):
        out.add(tuple(sorted(sub + (first,), reverse=True)))
        for k in range(len(sub)):
            merged = sub[:k] + (sub[k] + first,) + sub[k + 1 :]
            out.add(tuple(sorted(merged, reverse=True)))
    return out


def monomial_basis(prefix: Partition) -> list[tuple[Partition, int]]:
    """(monomial, degree bound in t) for each monomial allowed in the
    prefix's expression: everything of smaller size than the reduced prefix,
    plus merges of the reduced prefix itself.

    The degree bound of monomial lam is |mu| - |lam| + len(mu) - len(lam)
    for the reduced prefix mu; monomials with a negative bound are dropped.
    """
    if any(p < 2 for p in prefix) or not prefix:
        raise ValueError("family prefix needs all parts >= 2")
    reduced = Partition(p - 1 for p in prefix)
    monos: set[tuple[int, ...]] = set(_merges(reduced))
    for size in range(reduced.n):
        monos.update(generate_partitions(size))
    entries = []
    for parts in sorted(monos, key=lambda m: (-sum(m), tuple(-x for x in m))):
        lam = Partition(parts)
        bound = reduced.n - lam.n + len(reduced) - len(lam)
        if bound >= 0:
            entries.append((lam, bound))
    return entries


DataColumn = Sequence[int]


def fit_e_mu(
    prefix: Partition, data: Sequence[tuple[int, DataColumn]]
) -> PowerSumExpr:
    """Recover the family expression exactly from eigenvalue columns.

    data holds (n, column) pairs where a column lists, in canonical
    descending row order, the eigenvalue of the relation
    prefix + 1^(n - |prefix|) on each eigenspace of n.  One stacked linear
    system is solved for all polynomial coefficients at once: its rows are
    the integers t^d * p_mono(lam), which ``exactalg.solve_unique`` reduces
    fraction-free.  Degree bounds are capped at (#distinct n - 1), the
    highest degree the data can pin down.  The result is re-checked against
    every supplied point in integers: den * f at the point equals den times
    the value.
    """
    basis = monomial_basis(prefix)
    points = [(n, _checked_column(n, col)) for n, col in data]
    n_values = sorted({n for n, _ in points})
    if not n_values:
        raise FitUnderdetermined("no data supplied")
    cap = len(n_values) - 1
    unknowns: list[tuple[Partition, int]] = []
    for mono, bound in basis:
        for d in range(min(bound, cap) + 1):
            unknowns.append((mono, d))
    kmax = max((m[0] for m, _ in unknowns if m), default=0)
    # row r of every column before row r + 1 of any: rows of distinct n
    # come early, so solve_unique reaches full rank after fewer of them
    cells = sorted(
        (
            (r, n, lam, value)
            for n, column in points
            for r, (lam, value) in enumerate(zip(generate_partitions(n), column))
        ),
        key=lambda cell: cell[0],
    )
    position = {mono: i for i, (mono, _) in enumerate(basis)}
    columns = [(position[mono], d) for mono, d in unknowns]
    power_sums = [content_power_sums(lam, kmax) for _, _, lam, _ in cells]
    rows: list[list[int]] = []
    for (_, n, _, _), sums in zip(cells, power_sums):
        monos = [prod([sums[k] for k in mono]) for mono, _ in basis]
        rows.append([(2 * n) ** d * monos[i] for i, d in columns])
    solution = exactalg.solve_unique(rows, [value for *_, value in cells])
    terms: dict[Partition, list[Fraction]] = {}
    for (mono, d), c in zip(unknowns, solution):
        terms.setdefault(mono, [Fraction(0)] * (cap + 1))[d] = c
    expr = PowerSumExpr(terms)
    at_t = {n: expr.at_t(2 * n) for n in n_values}
    for (_, n, lam, value), sums in zip(cells, power_sums):
        if combine(at_t[n], sums) != value * expr.den:
            raise FitInconsistent(
                f"fitted expression misses column n={n} at row {lam}"
            )
    return expr


def _checked_column(n: int, col: DataColumn) -> list:
    values = list(col)
    rows = len(generate_partitions(n))
    if len(values) != rows:
        raise ValueError(f"column for n={n} has {len(values)} values, expected {rows}")
    return values


# --------------------------------------------------------------------------
# Zonal polynomials J_lam^(2) in the power-sum basis

def _flip_eigenvalue(lam: Partition) -> int:
    """sum_i lam_i (lam_i - i): the eigenvalue of the flip relation
    [2,1^(n-2)] on eigenspace lam (Diaconis and Holmes, Random walks on
    trees and matchings, 2002), so row . N = theta_lam row for the row of
    J_lam^(2) and the flip class matrix N of ``_flip_counts``."""
    return sum(part * (part - i) for i, part in enumerate(lam, start=1))


def _flip_counts(rho: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Row rho of the flip class matrix N: of the n(n-1) flip neighbours of
    a matching at relation rho to a fixed one, how many are at each
    relation.  Each pair of cycles a, b (half-lengths) gives 2ab neighbours
    where the two merge; a cycle c gives C(c,2) in its own class and c
    where it splits into (t, c-t) for each t < c/2, c/2 for t = c/2 (the
    cut-and-join counts: Goulden and Jackson, Transitive factorizations
    into transpositions and holomorphic mappings on the sphere, 1997).
    The chain of ``zonal_rows`` never reads N; it is the reference its
    rows are checked against."""
    out: dict[tuple[int, ...], int] = {}

    def add(drop: tuple[int, ...], put: tuple[int, ...], count: int) -> None:
        parts = list(rho)
        for x in drop:
            parts.remove(x)
        mu = tuple(sorted(parts + list(put), reverse=True))
        out[mu] = out.get(mu, 0) + count

    own = sum(c * (c - 1) // 2 for c in rho)
    if own:
        out[rho] = own
    for i, a in enumerate(rho):
        for b in rho[i + 1 :]:
            add((a, b), (a + b,), 2 * a * b)
        for t in range(1, a // 2 + 1):
            add((a,), (t, a - t), a if 2 * t < a else t)
    return out


def _content_strata(lams: Sequence[Partition]) -> list[tuple[int, ...]]:
    """For each lam of n >= 1 in lams, the partitions of n in canonical
    order: e_0, ..., e_(n-1) of the alpha = 2 contents 2(j-1) - (i-1) of its
    cells (i, j), the coefficients, highest power first, of the product of
    (t + 2(j-1) - (i-1)) over its cells other than (1,1).

    t times that product is J_lam^(2)(1^t) (Macdonald, Symmetric Functions
    and Hall Polynomials, VI (10.20)) and p_rho(1^t) = t^len(rho), so e_k is
    the sum of J_lam^(2)'s coefficients over the rho of stratum k = n -
    len(rho).  Each lam but [n] is an earlier partition, lam with its last
    box moved to the end of row 1, times (t + c) over (t + a), c and a the
    contents of the two boxes: one pass of synthetic division per row.
    """
    done: dict[tuple[int, ...], list[int]] = {}
    for lam in lams:
        first, last, height = lam[0], lam[-1], len(lam)
        if height == 1:
            q = [1]
            for j in range(1, first):
                q = [x + 2 * j * y for x, y in zip(q + [0], [0] + q)]
        else:
            # q = parent + (c - a) parent / (t + a), d the quotient so far
            a = 2 * first
            s = 2 * (last - 1) - (height - 1) - a
            q, d = [], 0
            for x in done[(first + 1,) + lam[1:-1] + (last - 1,) * (last > 1)]:
                q.append(x + s * d)
                d = x - a * d
        done[lam] = q
    return [tuple(q) for q in done.values()]


def _grown(mu: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The shapes mu + box, one per addable corner, top row first."""
    return [
        mu[:i] + (part + 1,) + mu[i + 1 :]
        for i, part in enumerate(mu + (0,))
        if i == 0 or mu[i - 1] > part
    ]


def _pieri(mu: tuple[int, ...]) -> list[tuple[int, int]]:
    """The a_lam of p_1 J_mu^(2) = sum of a_lam J_lam^(2), one per shape of
    ``_grown(mu)`` (mu nonempty), each as a (numerator, denominator) pair:
    all positive, summing to 1.  Adding a box in row r, a_lam is the product
    of (h+1)/(h+3) over the cells of row r of mu and of (h+2)/(h+3) over the
    cells of mu above the new box, with h = 2 arm + leg in mu (the Pieri
    rule at alpha = 2: Stanley, Some combinatorial properties of Jack
    symmetric functions, 1989; Macdonald VI (6.24))."""
    # heights[j]: how many parts of mu exceed j, the cells of column j + 1
    heights: list[int] = []
    for i in range(len(mu), 0, -1):
        heights += [i] * (mu[i - 1] - (mu[i] if i < len(mu) else 0))
    out = []
    for r, part in enumerate(mu + (0,)):
        if r and mu[r - 1] == part:
            continue
        num = den = 1
        for j in range(part):
            h = 2 * (part - 1 - j) + heights[j] - 1 - r
            num *= h + 1
            den *= h + 3
        for i in range(r):
            h = 2 * (mu[i] - 1 - part) + r - 1 - i
            num *= h + 2
            den *= h + 3
        out.append((num, den))
    return out


class _Plan(NamedTuple):
    """What the chain step from T(k-1) to T(k) reads, a fact of k alone.

    ``lift`` maps column nu of T(k-1) to column nu + [1] of T(k), and
    ``raises`` lists, per column nu of T(k-1), the (d, 2 c m_c) with d the
    column of nu with one part c raised to c + 1, for each distinct part c
    (m_c times in nu).  ``steps`` holds, per row lam of T(k): the index in
    T(k-1) of mu, lam less the last box of its last row; theta_mu -
    theta_lam'' for lam'' = mu + [1], or None when lam ends in a part 1; the
    (index, multiplier) of each shape mu + box before lam, all earlier rows;
    the multipliers' common denominator L; and the expected p_(1^k) entry.
    ``strata`` holds each column's stratum k - len(rho) and ``contents``
    each row's ``_content_strata``.
    """

    lift: tuple[int, ...]
    raises: tuple[tuple[tuple[int, int], ...], ...]
    steps: tuple[tuple[int, int | None, tuple[tuple[int, int], ...], int, int], ...]
    strata: tuple[int, ...]
    contents: tuple[tuple[int, ...], ...]


@cache
def _plan(k: int) -> _Plan:
    """The plan of the chain step to k >= 2; see ``zonal_rows``."""
    lams = generate_partitions(k)
    at = {lam: d for d, lam in enumerate(lams)}
    prev = generate_partitions(k - 1)
    source_at = {mu: j for j, mu in enumerate(prev)}
    pieri: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    steps = []
    for lam in lams:
        mu = lam[:-1] + (lam[-1] - 1,) * (lam[-1] > 1)
        grown = _grown(mu)
        i = grown.index(lam)
        if mu not in pieri:
            pieri[mu] = _pieri(mu)
        coeffs = pieri[mu][: i + 1]
        shift = None
        if lam[-1] > 1:
            theta = _flip_eigenvalue(mu + (1,))
            shift = _flip_eigenvalue(mu) - theta
            coeffs = [
                (num * (_flip_eigenvalue(o) - theta), den)
                for (num, den), o in zip(coeffs, grown)
            ]
        # each coefficient in lowest terms, then over their least common
        # denominator
        gcds = [gcd(num, den) for num, den in coeffs]
        lcd = lcm(*(den // g for (_, den), g in zip(coeffs, gcds)))
        *multipliers, unit = (num * lcd // den for num, den in coeffs)
        built = tuple(zip([at[o] for o in grown[:i]], multipliers))
        steps.append((source_at[mu], shift, built, lcd, unit))
    return _Plan(
        lift=tuple(at[nu + (1,)] for nu in prev),
        raises=tuple(
            tuple(
                (at[nu[:i] + (c + 1,) + nu[i + 1 :]], 2 * c * nu.count(c))
                for i, c in enumerate(nu)
                if i == 0 or nu[i - 1] > c
            )
            for nu in prev
        ),
        steps=tuple(steps),
        strata=tuple(k - len(rho) for rho in lams),
        contents=tuple(_content_strata(lams)),
    )


# (n, rows as tuples) of T(1), where every chain starts, and of the last
# table zonal_rows returned: one binding, replaced whole, so a reader sees
# a whole table, T(1) or a kept one
_T1: tuple[int, tuple[tuple[int, ...], ...]] = (1, ((1,),))
_last = _T1


def zonal_rows(n: int) -> list[list[int]]:
    """Power-sum coefficients of every zonal polynomial J_lam^(2) of degree n.

    Row lam lists the coefficient of p_rho in J_lam^(2) for each rho, both
    in canonical order; J_lam^(2) is 1 at p_(1^n), the identity column.
    The rows of T(k) are built from those of T(k-1), starting at T(1) =
    [[1]], by three classical facts:

    - the Pieri rule, p_1 J_mu = sum of a_lam J_lam over lam = mu + box,
      with a_lam > 0 in closed form (``_pieri``; Stanley, Some combinatorial
      properties of Jack symmetric functions, 1989; Macdonald, Symmetric
      Functions and Hall Polynomials, VI (6.24));
    - the cut-and-join eigen-equation J_lam N = theta_lam J_lam, with N the
      flip class matrix (``_flip_counts``, Goulden and Jackson 1997) and
      theta_lam = ``_flip_eigenvalue(lam)``;
    - the principal specialization J_lam(1^t) = prod over the cells (i, j)
      of lam of (t + 2(j-1) - (i-1)) (Macdonald VI (10.20)), which fixes
      the row's sum over each stratum (``_content_strata``).

    Row lam, in canonical order, comes from mu, lam less the last box of
    its last row.  Every shape mu + box but lam and lam'' = mu + [1] adds a
    box to a higher row, so its row comes earlier and is built.  The row v
    of p_1 J_mu holds J_mu's coefficient of p_nu at column nu + [1].  If
    lam ends in a part 1, lam'' = lam and x = v = sum of a_lam' J_lam'.
    Otherwise x = v (N - theta_lam'') = sum of a_lam' (theta_lam' -
    theta_lam'') J_lam', which drops J_lam'' and keeps J_lam, as adding a
    box in row r of mu raises theta by 2 mu_r + 1 - r, which falls strictly
    with r.  x costs no product by N: a relation nu + [1] has the flip
    neighbours of nu's cycles, plus 2c where the part 1 merges into a part
    c, so v N = theta_mu v + the raise of J_mu (``_Plan.raises``).  So L x
    less the fixed integer multiple L a_lam' (theta_lam' - theta_lam'') of
    each built row, with L the common denominator, is u J_lam for the
    expected u = L a_lam (theta_lam - theta_lam'') (L a_lam when lam ends
    in a part 1), and no step takes an inner product.  The step raises
    SchemeError naming J_lam^(2) unless that row's p_(1^k) entry is u != 0,
    u divides every entry, and the quotient's sum over each stratum is the
    one its contents give.  The plan of every k (``_plan``) is cached.

    The last table a call returned is kept, as tuples, in ``_last``: a call
    for n past it, T(k) with k < n, continues from T(k) with the steps k+1..n;
    any other call, the same n again included, starts at T(1).  Every call
    runs at least its own last step with all its checks.  A call that fails
    leaves the kept table as it was; one that succeeds drops it, falling
    back to T(1) while it copies its own table in, and then keeps that
    table.  The rows returned are new lists.
    T(0) and T(1) are [[1]], J of the empty partition and J_[1], and leave
    ``_last`` as it was; ValueError for n < 0.
    """
    global _last
    if n < 0:
        raise ValueError(f"zonal polynomials need n >= 0, got {n}")
    if n <= 1:
        return [[1]]
    start, rows = _last
    if start >= n:
        start, rows = _T1
    for k in range(start + 1, n + 1):
        rows = _chain_step(_plan(k), rows, generate_partitions(k))
    # drop the table resumed from before copying the new one
    _last = _T1
    _last = n, tuple(map(tuple, rows))
    return rows


def _chain_step(
    plan: _Plan, prev: Sequence[Sequence[int]], lams: Sequence[Partition]
) -> list[list[int]]:
    """T(k) from T(k-1) by the plan of k; see ``zonal_rows``."""
    out: list[list[int]] = []
    for lam, (src, shift, built, lcd, unit), contents in zip(
        lams, plan.steps, plan.contents
    ):
        x = [0] * len(lams)
        if shift is None:
            for d, c in zip(plan.lift, prev[src]):
                x[d] = c
        else:
            for d, c, raised in zip(plan.lift, prev[src], plan.raises):
                x[d] += shift * c
                for e, m in raised:
                    x[e] += m * c
        # L x less the multiple of each built row (the first subtraction
        # scales x by L)
        scale = lcd
        for j, m in built:
            x = [scale * c - m * b for c, b in zip(x, out[j])]
            scale = 1
        if scale != 1:
            x = [scale * c for c in x]
        if not unit or x[-1] != unit:
            raise SchemeError(
                f"zonal polynomial J_{lam}^(2) does not follow from the Pieri"
                f" rule: its row is {x[-1]} at p_{lams[-1]}, where the rule"
                f" gives {unit}, which must be nonzero"
            )
        if any(c % unit for c in x):
            raise SchemeError(
                f"zonal polynomial J_{lam}^(2) is not an integer row: {unit}"
                " does not divide every entry"
            )
        row = [c // unit for c in x]
        sums = [0] * len(contents)
        for s, c in zip(plan.strata, row):
            sums[s] += c
        if tuple(sums) != contents:
            s = next(
                s for s, (got, want) in enumerate(zip(sums, contents)) if got != want
            )
            raise SchemeError(
                f"zonal polynomial J_{lam}^(2) is not J(1^t) = prod (t + content):"
                f" its stratum {s} sums to {sums[s]}, not {contents[s]}"
            )
        out.append(row)
    return out


def zonal_power_sums(n: int) -> dict[Partition, dict[Partition, int]]:
    """``zonal_rows(n)`` as a map lam -> {rho: coefficient of p_rho in
    J_lam^(2)}, both in canonical order: the chain from T(1) by the Pieri
    rule (Stanley 1989; Macdonald VI (6.24)), the cut-and-join
    eigen-equation (Goulden and Jackson 1997) and the principal
    specialization (Macdonald VI (10.20))."""
    lams = generate_partitions(n)
    return {lam: dict(zip(lams, row)) for lam, row in zip(lams, zonal_rows(n))}
