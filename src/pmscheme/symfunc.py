"""Power-sum expressions over Q[t], content evaluation and exact interpolation.

A PowerSumExpr is a finite Q[t]-linear combination of monomials p_lam =
p_{lam_1} p_{lam_2} ... , with p of the empty partition meaning the constant 1
(this matches the catalog's closed forms; the alternative reading
p_0 = number of variables would shift every constant term).  Evaluating at a
partition lam substitutes t = 2n and each p_k by the sum of k-th powers of the
contents of the doubled shape 2*lam.  Evaluation and fitting run in integers
(an expression carries its coefficients over one common denominator, and
content power sums are summed from cached rows); a Fraction is made only
for a result.  Nothing adds or scales expressions.

``_CATALOG`` is the one registry of the paper's closed-form families
[2], [3], [2,2], [4], [3,2] and [5] (each padded by parts 1): threshold,
second eigenvalue and gap polynomials in n, and the expression, built once.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm, prod
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from . import exactalg
from .errors import FitInconsistent, FitUnderdetermined, SchemeError
from .partitions import (
    Partition,
    generate_partitions,
    parse_partition,
    successors,
    z2,
)


class PolyT:
    """A univariate polynomial with Fraction coefficients, lowest degree
    first: in t inside a PowerSumExpr, in n for a catalog family."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("PolyT is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, t) -> Fraction:
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * t + c
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyT) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"PolyT({list(self.coeffs)})"

    def to_text(self) -> str:
        parts = []
        for d, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if d == 0:
                parts.append(str(c))
            elif d == 1:
                parts.append(f"{c}*t")
            else:
                parts.append(f"{c}*t^{d}")
        return " + ".join(parts) if parts else "0"


_POLY_TERM = re.compile(r"^(-?\d+(?:/\d+)?)(?:\*t(?:\^(\d+))?)?$")


def parse_polyt(text: str) -> PolyT:
    """Inverse of ``PolyT.to_text``, which writes each degree at most once."""
    coeffs: dict[int, Fraction] = {}
    for term in text.strip().split(" + "):
        m = _POLY_TERM.match(term.strip())
        if not m:
            raise ValueError(f"bad polynomial term {term!r}")
        d = int(m.group(2) or 1) if "t" in term else 0
        if d in coeffs:
            raise ValueError(f"degree {d} repeated in {text!r}")
        coeffs[d] = Fraction(m.group(1))
    return PolyT(coeffs.get(d, 0) for d in range(max(coeffs) + 1))


def _tpoly(*coeffs) -> PolyT:
    """Shorthand: _tpoly(c0, c1, ...) with rational coefficients."""
    return PolyT([Fraction(c) for c in coeffs])


class PowerSumExpr:
    """Map from monomial index (a Partition) to PolyT coefficient.

    On construction the expression also builds its integer form: ``den``, the
    least common denominator of all coefficients, and ``int_terms``, one
    (integer coefficients of den * poly ascending in t, monomial parts) pair
    per term.  ``kmax`` is the largest power-sum index any monomial uses.
    """

    __slots__ = ("terms", "den", "int_terms", "kmax")

    def __init__(self, terms: Mapping[Partition, PolyT] | None = None):
        clean: dict[Partition, PolyT] = {}
        if terms:
            for mono, poly in terms.items():
                if not poly.is_zero():
                    clean[mono] = poly
        den = lcm(*(c.denominator for p in clean.values() for c in p.coeffs))
        int_terms = tuple(
            (tuple(c.numerator * (den // c.denominator) for c in p.coeffs), m.parts)
            for m, p in clean.items()
        )
        object.__setattr__(self, "terms", MappingProxyType(clean))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "int_terms", int_terms)
        kmax = max((m.parts[0] for m in clean if m.parts), default=0)
        object.__setattr__(self, "kmax", kmax)

    def at_t(self, t: int) -> list[tuple[int, tuple[int, ...]]]:
        """den * f with t fixed: (integer coefficient, monomial parts) pairs."""
        out = []
        for coeffs, parts in self.int_terms:
            v = 0
            for c in reversed(coeffs):
                v = v * t + c
            out.append((v, parts))
        return out

    def __setattr__(self, name, value):
        raise AttributeError("PowerSumExpr is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, PowerSumExpr) and self.terms == other.terms

    def monomials(self) -> list[Partition]:
        return sorted(self.terms, key=lambda m: (-m.n, tuple(-p for p in m.parts)))

    def __repr__(self) -> str:
        return f"PowerSumExpr({self.to_text()!r})"

    def to_text(self) -> str:
        """Canonical text form, larger monomials first; parsed back losslessly."""
        if not self.terms:
            return "(0)*p[]"
        out = []
        for mono in self.monomials():
            out.append(f"({self.terms[mono].to_text()})*p{mono}")
        return " + ".join(out)


def parse_power_sum_expr(text: str) -> PowerSumExpr:
    """Inverse of ``PowerSumExpr.to_text``, which writes each monomial once."""
    terms: dict[Partition, PolyT] = {}
    s = text.strip()
    pos = 0
    while pos < len(s):
        if s[pos] != "(":
            raise ValueError(f"expected '(' at position {pos} of {text!r}")
        close = s.index(")", pos)
        poly = parse_polyt(s[pos + 1 : close])
        if s[close : close + 3] != ")*p":
            raise ValueError(f"expected ')*p' at position {close} of {text!r}")
        open_b = close + 3
        close_b = s.index("]", open_b)
        mono = parse_partition(s[open_b : close_b + 1])
        if mono in terms:
            raise ValueError(f"monomial p{mono} repeated in {text!r}")
        terms[mono] = poly
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
    for i, part in enumerate(lam.parts, start=1):
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
    n >= threshold, and ``expr``, which generates the family's column."""

    def __init__(self, threshold: int, second: PolyT, gap: PolyT, terms: Mapping):
        self.threshold, self.second, self.gap = threshold, second, gap
        self.expr = PowerSumExpr({Partition(m): p for m, p in terms.items()})


# Every polynomial lists its coefficients lowest degree first.
_CATALOG: dict[tuple[int, ...], CatalogEntry] = {
    (2,): CatalogEntry(
        threshold=3,
        second=_tpoly(1, -3, 1),
        gap=_tpoly(-1, 2),
        terms={
            (1,): _tpoly(Fraction(1, 2)),
            (): _tpoly(0, Fraction(-1, 4)),
        },
    ),
    (3,): CatalogEntry(
        threshold=5,
        second=_tpoly(-4, Fraction(38, 3), -8, Fraction(4, 3)),
        gap=_tpoly(4, -10, 4),
        terms={
            (2,): _tpoly(Fraction(1, 2)),
            (1,): _tpoly(-1),
            (): _tpoly(0, Fraction(3, 4), Fraction(-1, 4)),
        },
    ),
    (2, 2): CatalogEntry(
        threshold=6,
        second=_tpoly(6, -20, Fraction(33, 2), -5, Fraction(1, 2)),
        gap=_tpoly(-6, 17, -11, 2),
        terms={
            (1, 1): _tpoly(Fraction(1, 8)),
            (2,): _tpoly(Fraction(-3, 4)),
            (1,): _tpoly(Fraction(10, 8), Fraction(-1, 8)),
            (): _tpoly(0, Fraction(-24, 32), Fraction(9, 32)),
        },
    ),
    (4,): CatalogEntry(
        threshold=6,
        second=_tpoly(24, -80, 66, -20, 2),
        gap=_tpoly(-24, 68, -44, 8),
        terms={
            (3,): _tpoly(Fraction(1, 2)),
            (2,): _tpoly(Fraction(-9, 4)),
            (1,): _tpoly(Fraction(11, 2), -1),
            (): _tpoly(0, Fraction(-23, 8), 1),
        },
    ),
    (3, 2): CatalogEntry(
        threshold=7,
        second=_tpoly(-80, Fraction(836, 3), -270, 110, -20, Fraction(4, 3)),
        gap=_tpoly(
            80, Fraction(-740, 3), Fraction(610, 3), Fraction(-190, 3), Fraction(20, 3)
        ),
        terms={
            (3,): _tpoly(-2),
            (2, 1): _tpoly(Fraction(1, 4)),
            (2,): _tpoly(Fraction(60, 8), Fraction(-1, 8)),
            (1, 1): _tpoly(Fraction(-1, 2)),
            (1,): _tpoly(Fraction(-120, 8), Fraction(29, 8), Fraction(-1, 8)),
            (): _tpoly(0, Fraction(116, 16), Fraction(-47, 16), Fraction(1, 16)),
        },
    ),
    (5,): CatalogEntry(
        threshold=6,
        second=_tpoly(-192, Fraction(3344, 5), -648, 264, -48, Fraction(16, 5)),
        gap=_tpoly(192, -592, 488, -152, 16),
        terms={
            (4,): _tpoly(Fraction(1, 2)),
            (3,): _tpoly(-4),
            (2,): _tpoly(20, Fraction(-3, 2)),
            (1, 1): _tpoly(-1),
            (1,): _tpoly(-34, 7),
            (): _tpoly(0, Fraction(217, 12), Fraction(-96, 12), Fraction(5, 12)),
        },
    ),
}

CATALOG_PREFIXES: tuple[Partition, ...] = tuple(
    sorted((Partition(p) for p in _CATALOG), key=lambda q: (q.n, q.parts))
)


def catalog_entry(prefix: Partition) -> CatalogEntry:
    """The entry of the family prefix + trailing 1s; ValueError off the catalog."""
    entry = _CATALOG.get(prefix.parts)
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
    if any(p < 2 for p in prefix.parts) or not prefix.parts:
        raise ValueError("family prefix needs all parts >= 2")
    reduced = Partition(p - 1 for p in prefix.parts)
    monos: set[tuple[int, ...]] = set(_merges(reduced.parts))
    for size in range(reduced.n):
        monos.update(p.parts for p in generate_partitions(size))
    entries = []
    for parts in sorted(monos, key=lambda m: (-sum(m), tuple(-x for x in m))):
        lam = Partition(parts)
        bound = reduced.n - lam.n + len(reduced) - len(lam)
        if bound >= 0:
            entries.append((lam, bound))
    return entries


DataColumn = Sequence[int]


def fit_e_mu(
    prefix: Partition,
    data: Sequence[tuple[int, DataColumn]],
    holdout: tuple[int, DataColumn] | None = None,
) -> PowerSumExpr:
    """Recover the family expression exactly from eigenvalue columns.

    data holds (n, column) pairs where a column lists, in canonical
    descending row order, the eigenvalue of the relation
    prefix + 1^(n - |prefix|) on each eigenspace of n.  One stacked linear
    system is solved for all polynomial coefficients at once: its rows are
    the integers t^d * p_mono(lam), which ``exactalg.solve_unique`` reduces
    fraction-free.  Degree bounds are capped at (#distinct n - 1), the
    highest degree the data can pin down.  The result is re-evaluated
    against every supplied point, and against the holdout column when
    given.
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
    kmax = max((m.parts[0] for m, _ in unknowns if m.parts), default=0)
    rows: list[list[int]] = []
    rhs: list[Fraction] = []
    for n, column in points:
        t = 2 * n
        for lam, value in zip(generate_partitions(n), column):
            sums = content_power_sums(lam, kmax)
            rows.append([t**d * prod(sums[k] for k in m.parts) for m, d in unknowns])
            rhs.append(value)
    solution = exactalg.solve_unique(rows, rhs)
    terms: dict[Partition, list[Fraction]] = {}
    for (mono, d), c in zip(unknowns, solution):
        terms.setdefault(mono, [Fraction(0)] * (cap + 1))
        terms[mono][d] = c
    expr = PowerSumExpr({m: PolyT(cs) for m, cs in terms.items()})
    checks = list(points)
    if holdout is not None:
        checks.append((holdout[0], _checked_column(*holdout)))
    for n, column in checks:
        for lam, value in zip(generate_partitions(n), column):
            if eval_expr(expr, lam) != value:
                raise FitInconsistent(
                    f"fitted expression misses column n={n} at row {lam}"
                )
    return expr


def _checked_column(n: int, col: DataColumn) -> list[Fraction]:
    values = [Fraction(v) for v in col]
    rows = len(generate_partitions(n))
    if len(values) != rows:
        raise ValueError(f"column for n={n} has {len(values)} values, expected {rows}")
    return values


# --------------------------------------------------------------------------
# Zonal polynomials J_lam^(2) in the power-sum basis


def _merge_counts(parts_list: Sequence[tuple[int, ...]]) -> list[list[int]]:
    """R[i][j]: the number of maps f from the parts of rho_i to the parts of
    rho_j with every part of rho_j the sum of the rho_i parts sent to it, so
    that p_rho = sum_mu R[rho][mu] m_mu.

    The recursion places the parts of rho largest first into the remaining
    capacities of mu's parts; capacities are kept sorted with zeros dropped,
    and slots of equal capacity are counted once times their multiplicity.
    Its memo lives only as long as this call.
    """

    @lru_cache(maxsize=None)
    def count(rest: tuple[int, ...], caps: tuple[int, ...]) -> int:
        if not rest:
            return 0 if caps else 1
        head, tail = rest[0], rest[1:]
        total = 0
        k = 0
        while k < len(caps) and caps[k] >= head:
            c = caps[k]
            mult = 1
            while k + mult < len(caps) and caps[k + mult] == c:
                mult += 1
            left = caps[:k] + caps[k + 1 :]
            if c > head:
                left = tuple(sorted(left + (c - head,), reverse=True))
            total += mult * count(tail, left)
            k += mult
        return total

    return [[count(rho, mu) for mu in parts_list] for rho in parts_list]


def zonal_power_sums(n: int) -> dict[Partition, dict[Partition, int]]:
    """Power-sum coefficients of every zonal polynomial J_lam^(2) of degree n.

    The result maps lam to {rho: coefficient of p_rho in J_lam^(2)}, both in
    canonical order.  With R the merge counts, g_mu = sum_rho R[rho][mu]
    p_rho / z2(rho) is the basis dual to the m_mu under <p_rho, p_sigma> =
    delta z2(rho).  J_lam is m_lam plus m_nu with nu < lam, and orthogonal to
    every J_nu with nu < lam (Macdonald, Symmetric Functions and Hall
    Polynomials, VI.4 and VII.2), so up to scale it is the one element of
    span{g_mu : mu >= lam} with no m_nu term for any nu > lam, the order being
    the canonical one.  Row lam starts at g_lam times the lcm of the z2;
    for each finished row nu in canonical order it loses the multiple that
    clears its m_nu term (the m_nu coefficient of sum_rho x_rho p_rho is
    sum_rho x_rho R[rho][nu]), both multipliers divided by their gcd first.
    The row is then made primitive and scaled to 1 at p_(1^n), the identity
    column; a coefficient that is not an integer raises SchemeError.
    """
    lams = generate_partitions(n)
    size = len(lams)
    merges = _merge_counts([lam.parts for lam in lams])
    weights = [z2(lam) for lam in lams]
    common = lcm(*weights)
    # column nu of R as its nonzero (rho, R[rho][nu]); R is lower triangular
    cols = [
        [(k, merges[k][j]) for k in range(j, size) if merges[k][j]]
        for j in range(size)
    ]
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
    return {lam: dict(zip(lams, row)) for lam, row in zip(lams, rows)}
