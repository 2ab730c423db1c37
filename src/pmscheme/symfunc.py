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
from functools import lru_cache, reduce
from math import gcd, lcm, prod
from typing import Mapping, Sequence

from . import exactalg
from .errors import FitInconsistent, FitUnderdetermined, SchemeError
from .partitions import (
    Partition,
    generate_partitions,
    parse_partition,
    successors,
    z2,
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


@lru_cache(maxsize=4096)
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
    sums = [0] * (kmax + 1)
    for i, part in enumerate(lam, start=1):
        for k, s in enumerate(_row_power_sums(i, part, kmax)):
            sums[k] += s
    return sums


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


def _times_p(k: int, nu: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
    """p_k m_nu = sum_a m_{a+k}(mu) m_mu as (mu, m_{a+k}(mu)) pairs: a runs
    over the distinct parts of nu and 0, and mu is nu with one a raised to
    a + k (Macdonald, Symmetric Functions and Hall Polynomials, I.6)."""
    out = []
    for i, a in enumerate(nu + (0,)):
        if i and nu[i - 1] == a:
            continue  # one raise per distinct part
        b = a + k
        j = i
        while j and nu[j - 1] < b:
            j -= 1
        mu = nu[:j] + (b,) + nu[j:i] + nu[i + 1 :]
        out.append((mu, mu.count(b)))
    return out


def _merge_columns(lams: Sequence[Partition]) -> list[list[tuple[int, int]]]:
    """The merge counts R, p_rho = sum_mu R[rho][mu] m_mu, as the sparse
    columns the elimination reads: column j lists the nonzero (i,
    R[lams[i]][lams[j]]), i ascending.  R[rho][mu] is the number of maps f
    from the parts of rho to the parts of mu with every part of mu the sum of
    the rho parts sent to it (Macdonald, Symmetric Functions and Hall
    Polynomials, I.6, the transition matrix L(p, m)).

    Row rho = (k) + rho' is p_k times row rho', each m_nu of it multiplied by
    ``_times_p``.  Rows of smaller sizes and the p_k m_nu products are kept
    only as long as this call.  At n = 14 this takes 12 ms, where the
    capacity recursion it replaced took 59 ms (BENCH_merge.json).
    """
    rows: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {(): {(): 1}}
    products: dict[tuple[int, tuple[int, ...]], list] = {}

    def row(rho: tuple[int, ...]) -> dict[tuple[int, ...], int]:
        out = rows.get(rho)
        if out is None:
            k, out = rho[0], {}
            for nu, c in row(rho[1:]).items():
                terms = products.get((k, nu))
                if terms is None:
                    terms = products[k, nu] = _times_p(k, nu)
                for mu, m in terms:
                    out[mu] = out.get(mu, 0) + c * m
            rows[rho] = out
        return out

    index = {lam: j for j, lam in enumerate(lams)}
    cols: list[list[tuple[int, int]]] = [[] for _ in lams]
    for i, rho in enumerate(lams):
        for mu, r in row(rho).items():
            cols[index[mu]].append((i, r))
    return cols


def _eliminate(
    lams: Sequence[Partition], cols: Sequence[Sequence[tuple[int, int]]]
) -> list[list[int]]:
    """The power-sum rows of the J_lam^(2), lam in lams (every partition of
    one n, canonical order), from the merge columns ``_merge_columns`` gives;
    see ``zonal_rows``."""
    size = len(lams)
    weights = [z2(lam) for lam in lams]
    common = lcm(*weights)
    rows: list[list[int]] = []
    pivots: list[int] = []  # m_lam coefficient of finished row lam
    for i, lam in enumerate(lams):
        row = [0] * size
        for k, r in cols[i]:
            row[k] = r * (common // weights[k])
        for j in range(i):
            c = sum(row[k] * r for k, r in cols[j])
            if c:
                g = gcd(c, pivots[j])
                a, b = pivots[j] // g, c // g
                row = [a * x - b * y for x, y in zip(row, rows[j])]
        g = reduce(gcd, row)
        unit = row[-1] // g
        if unit not in (1, -1):
            raise SchemeError(
                f"zonal polynomial J_{lam}^(2) has a non-integer power-sum"
                f" coefficient: its primitive row is {unit} at p_{lams[-1]}"
            )
        row = [x // g * unit for x in row]
        rows.append(row)
        pivots.append(sum(row[k] * r for k, r in cols[i]))
    return rows


def zonal_rows(n: int) -> list[list[int]]:
    """Power-sum coefficients of every zonal polynomial J_lam^(2) of degree n.

    Row lam lists the coefficient of p_rho in J_lam^(2) for each rho, both
    in canonical order.  With R the merge counts (``_merge_columns``, built
    by one p_k m_nu step per part, Macdonald I.6), g_mu = sum_rho
    R[rho][mu] p_rho / z2(rho) is the basis dual to the m_mu under
    <p_rho, p_sigma> = delta z2(rho).  J_lam is m_lam plus m_nu with nu <
    lam, and orthogonal to every J_nu with nu < lam (Macdonald, Symmetric
    Functions and Hall Polynomials, VI.4 and VII.2), so up to scale it is
    the one element of span{g_mu : mu >= lam} with no m_nu term for any
    nu > lam, the order being the canonical one.  Row lam starts at g_lam
    times the lcm of the z2; for each finished row nu in canonical order it
    loses the multiple that clears its m_nu term (the m_nu coefficient of
    sum_rho x_rho p_rho is sum_rho x_rho R[rho][nu]), both multipliers
    divided by their gcd first.  The row is then made primitive and scaled
    to 1 at p_(1^n), the identity column; a coefficient that is not an
    integer raises SchemeError.
    """
    lams = generate_partitions(n)
    return _eliminate(lams, _merge_columns(lams))


def zonal_power_sums(n: int) -> dict[Partition, dict[Partition, int]]:
    """``zonal_rows(n)`` as a map lam -> {rho: coefficient of p_rho in
    J_lam^(2)}, both in canonical order: the elimination over the merge
    counts of the p_k m_nu recursion (Macdonald I.6, timed per stage in
    BENCH_merge.json)."""
    lams = generate_partitions(n)
    return {lam: dict(zip(lams, row)) for lam, row in zip(lams, zonal_rows(n))}
