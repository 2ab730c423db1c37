"""Power-sum expressions over Q[t], content evaluation and exact interpolation.

A PowerSumExpr is a finite Q[t]-linear combination of monomials p_lam =
p_{lam_1} p_{lam_2} ... , with p of the empty partition meaning the constant 1
(this matches the catalog's closed forms; the alternative reading
p_0 = number of variables would shift every constant term).  Evaluating at a
partition lam substitutes t = 2n and each p_k by the sum of k-th powers of the
contents of the doubled shape 2*lam.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm
from operator import mul
from typing import Iterable, Mapping, Sequence

from . import exactalg
from .errors import FitInconsistent, FitUnderdetermined, SchemeError
from .partitions import (
    Dominance,
    Partition,
    content,
    dominance_compare,
    generate_partitions,
    successors,
)


class PolyT:
    """A univariate polynomial in t with Fraction coefficients."""

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

    def __add__(self, other: "PolyT") -> "PolyT":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return PolyT([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)])

    def __neg__(self) -> "PolyT":
        return PolyT([-c for c in self.coeffs])

    def __sub__(self, other: "PolyT") -> "PolyT":
        return self + (-other)

    def __mul__(self, other) -> "PolyT":
        if isinstance(other, PolyT):
            if self.is_zero() or other.is_zero():
                return PolyT()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return PolyT(out)
        return PolyT([c * Fraction(other) for c in self.coeffs])

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyT) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"PolyT({list(self.coeffs)})"

    def to_text(self) -> str:
        if not self.coeffs:
            return "0"
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
    s = text.strip()
    if s == "0":
        return PolyT()
    coeffs: dict[int, Fraction] = {}
    for term in s.split(" + "):
        m = _POLY_TERM.match(term.strip())
        if not m:
            raise ValueError(f"bad polynomial term {term!r}")
        c = Fraction(m.group(1))
        if "t" in term:
            d = int(m.group(2)) if m.group(2) else 1
        else:
            d = 0
        coeffs[d] = coeffs.get(d, 0) + c
    out = [Fraction(0)] * (max(coeffs) + 1)
    for d, c in coeffs.items():
        out[d] = c
    return PolyT(out)


def _tpoly(*coeffs) -> PolyT:
    """Shorthand: _tpoly(c0, c1, ...) with rational coefficients."""
    return PolyT([Fraction(c) for c in coeffs])


class PowerSumExpr:
    """Map from monomial index (a Partition) to PolyT coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Partition, PolyT] | None = None):
        clean: dict[Partition, PolyT] = {}
        if terms:
            for mono, poly in terms.items():
                if not isinstance(poly, PolyT):
                    poly = _tpoly(poly)
                if not poly.is_zero():
                    clean[mono] = poly
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("PowerSumExpr is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, PowerSumExpr) and self.terms == other.terms

    def __add__(self, other: "PowerSumExpr") -> "PowerSumExpr":
        out = dict(self.terms)
        for mono, poly in other.terms.items():
            out[mono] = out.get(mono, PolyT()) + poly
        return PowerSumExpr(out)

    def __sub__(self, other: "PowerSumExpr") -> "PowerSumExpr":
        return self + other.scale(-1)

    def scale(self, factor) -> "PowerSumExpr":
        if not isinstance(factor, PolyT):
            factor = _tpoly(factor)
        return PowerSumExpr({m: p * factor for m, p in self.terms.items()})

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
        mono = _parse_bracket_parts(s[open_b : close_b + 1])
        terms[mono] = terms.get(mono, PolyT()) + poly
        pos = close_b + 1
        if pos < len(s):
            if s[pos : pos + 3] != " + ":
                raise ValueError(f"expected ' + ' at position {pos} of {text!r}")
            pos += 3
    return PowerSumExpr(terms)


def _parse_bracket_parts(text: str) -> Partition:
    from .partitions import parse_partition

    return parse_partition(text)


def eval_expr(f: PowerSumExpr, lam: Partition) -> Fraction:
    """Evaluate f at the contents of 2*lam, with t = 2n (boxes of 2*lam)."""
    if lam.n < 1:
        raise ValueError("evaluation needs a nonempty partition")
    cv = content(lam)
    t = 2 * lam.n
    powers: dict[int, int] = {}
    total = Fraction(0)
    for mono, poly in f.terms.items():
        val = poly(t)
        for k in mono.parts:
            if k not in powers:
                powers[k] = cv.power_sum(k)
            val *= powers[k]
        total += val
    return total


_CATALOG: dict[tuple[int, ...], dict[tuple[int, ...], PolyT]] = {
    (2,): {
        (1,): _tpoly(Fraction(1, 2)),
        (): _tpoly(0, Fraction(-1, 4)),
    },
    (3,): {
        (2,): _tpoly(Fraction(1, 2)),
        (1,): _tpoly(-1),
        (): _tpoly(0, Fraction(3, 4), Fraction(-1, 4)),
    },
    (2, 2): {
        (1, 1): _tpoly(Fraction(1, 8)),
        (2,): _tpoly(Fraction(-3, 4)),
        (1,): _tpoly(Fraction(10, 8), Fraction(-1, 8)),
        (): _tpoly(0, Fraction(-24, 32), Fraction(9, 32)),
    },
    (4,): {
        (3,): _tpoly(Fraction(1, 2)),
        (2,): _tpoly(Fraction(-9, 4)),
        (1,): _tpoly(Fraction(11, 2), -1),
        (): _tpoly(0, Fraction(-23, 8), 1),
    },
    (3, 2): {
        (3,): _tpoly(-2),
        (2, 1): _tpoly(Fraction(1, 4)),
        (2,): _tpoly(Fraction(60, 8), Fraction(-1, 8)),
        (1, 1): _tpoly(Fraction(-1, 2)),
        (1,): _tpoly(Fraction(-120, 8), Fraction(29, 8), Fraction(-1, 8)),
        (): _tpoly(0, Fraction(116, 16), Fraction(-47, 16), Fraction(1, 16)),
    },
    (5,): {
        (4,): _tpoly(Fraction(1, 2)),
        (3,): _tpoly(-4),
        (2,): _tpoly(20, Fraction(-3, 2)),
        (1, 1): _tpoly(-1),
        (1,): _tpoly(-34, 7),
        (): _tpoly(0, Fraction(217, 12), Fraction(-96, 12), Fraction(5, 12)),
    },
}

CATALOG_PREFIXES: tuple[Partition, ...] = tuple(
    sorted((Partition(p) for p in _CATALOG), key=lambda q: (q.n, q.parts))
)


def e_catalog(prefix: Partition) -> PowerSumExpr:
    """The eigenvalue-generating expression for the family prefix + trailing 1s.

    Supported prefixes: [2], [3], [2,2], [4], [3,2], [5].
    """
    key = prefix.parts
    if key not in _CATALOG:
        raise ValueError(f"no closed form in catalog for prefix {prefix}")
    return PowerSumExpr({Partition(m): p for m, p in _CATALOG[key].items()})


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


class MonomialBasis:
    """Admissible monomials for a family prefix, with degree bounds in t."""

    __slots__ = ("prefix", "entries")

    def __init__(self, prefix: Partition, entries: list[tuple[Partition, int]]):
        self.prefix = prefix
        self.entries = entries

    def monomials(self) -> list[Partition]:
        return [m for m, _ in self.entries]


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


def monomial_basis(prefix: Partition) -> MonomialBasis:
    """Monomials allowed in the prefix's expression: everything of smaller
    size than the reduced prefix, plus merges of the reduced prefix itself.

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
    return MonomialBasis(prefix, entries)


DataColumn = Mapping[Partition, int] | Sequence[int]


def fit_e_mu(
    prefix: Partition,
    data: Sequence[tuple[int, DataColumn]],
    holdout: tuple[int, DataColumn] | None = None,
) -> PowerSumExpr:
    """Recover the family expression exactly from eigenvalue columns.

    data holds (n, column) pairs where a column maps each partition of n (or
    lists values in canonical descending row order) to the eigenvalue of the
    relation prefix + 1^(n - |prefix|) on that eigenspace.  One stacked linear
    system over the rationals is solved for all polynomial coefficients at
    once; degree bounds are capped at (#distinct n - 1), the highest degree
    the data can pin down.  The result is re-evaluated against every supplied
    point, and against the holdout column when given.
    """
    basis = monomial_basis(prefix)
    points = [(n, _column_as_mapping(n, col)) for n, col in data]
    n_values = sorted({n for n, _ in points})
    if not n_values:
        raise FitUnderdetermined("no data supplied")
    cap = len(n_values) - 1
    unknowns: list[tuple[Partition, int]] = []
    for mono, bound in basis.entries:
        for d in range(min(bound, cap) + 1):
            unknowns.append((mono, d))
    needed_powers = {p for m, _ in unknowns for p in m.parts}
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for n, column in points:
        t = 2 * n
        for lam in generate_partitions(n):
            cv = content(lam)
            powers = {k: cv.power_sum(k) for k in needed_powers}
            row = []
            for mono, d in unknowns:
                v = Fraction(t) ** d
                for k in mono.parts:
                    v *= powers[k]
                row.append(v)
            rows.append(row)
            rhs.append(Fraction(column[lam]))
    solution = exactalg.solve_unique(rows, rhs)
    terms: dict[Partition, list[Fraction]] = {}
    for (mono, d), c in zip(unknowns, solution):
        terms.setdefault(mono, [Fraction(0)] * (cap + 1))
        terms[mono][d] = c
    expr = PowerSumExpr({m: PolyT(cs) for m, cs in terms.items()})
    checks = list(points)
    if holdout is not None:
        checks.append((holdout[0], _column_as_mapping(holdout[0], holdout[1])))
    for n, column in checks:
        for lam in generate_partitions(n):
            if eval_expr(expr, lam) != column[lam]:
                raise FitInconsistent(
                    f"fitted expression misses column n={n} at row {lam}"
                )
    return expr


def _column_as_mapping(n: int, col: DataColumn) -> dict[Partition, Fraction]:
    lams = generate_partitions(n)
    if isinstance(col, Mapping):
        out = {}
        for lam in lams:
            if lam not in col:
                raise ValueError(f"column for n={n} is missing row {lam}")
            out[lam] = Fraction(col[lam])
        return out
    values = list(col)
    if len(values) != len(lams):
        raise ValueError(
            f"column for n={n} has {len(values)} values, expected {len(lams)}"
        )
    return {lam: Fraction(v) for lam, v in zip(lams, values)}


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


def _z(parts: tuple[int, ...]) -> int:
    """z_rho = prod_i i^(m_i) m_i!, the centralizer order of cycle type rho."""
    out = 1
    mult: dict[int, int] = {}
    for p in parts:
        mult[p] = mult.get(p, 0) + 1
        out *= p * mult[p]
    return out


def _jack_scale(lam: Partition) -> int:
    """prod over boxes s of (2 a(s) + l(s) + 1): J_lam^(2) over P_lam^(2)."""
    conj = lam.conjugate().parts
    out = 1
    for i, row in enumerate(lam.parts):
        for j in range(row):
            out *= 2 * (row - j - 1) + (conj[j] - i - 1) + 1
    return out


def zonal_power_sums(n: int) -> dict[Partition, dict[Partition, int]]:
    """Power-sum coefficients of every zonal polynomial J_lam^(2) of degree n.

    The result maps lam to {rho: coefficient of p_rho in J_lam^(2)}, both in
    canonical order.  Each monomial m_mu is written in power sums by
    inverting the merge-count matrix; Gram-Schmidt then runs on the m_mu
    under <p_rho, p_sigma> = delta z_rho 2^len(rho), in increasing dominance,
    and each result is scaled by prod_s (2a(s) + l(s) + 1).  Projections
    are only taken onto mu dominated by lam (the others vanish), and every
    vector is an integer vector over a common denominator.  A coefficient
    that is not an integer raises SchemeError.
    """
    lams = generate_partitions(n)
    parts_list = [lam.parts for lam in lams]
    size = len(parts_list)
    merges = _merge_counts(parts_list)
    weights = [_z(rho) * 2 ** len(rho) for rho in parts_list]

    # m_lam = mono[i] / mono_den[i]; R is lower triangular in canonical order.
    mono: list[list[int]] = []
    mono_den: list[int] = []
    for i in range(size):
        den = 1
        for j in range(i):
            if merges[i][j]:
                den = lcm(den, mono_den[j])
        vec = [0] * size
        vec[i] = den
        for j in range(i):
            r = merges[i][j]
            if r:
                f = r * (den // mono_den[j])
                vec = [v - f * x for v, x in zip(vec, mono[j])]
        den *= merges[i][i]
        g = reduce(gcd, vec, den)
        mono.append([v // g for v in vec])
        mono_den.append(den // g)

    zonal: dict[int, list[int]] = {}
    weighted: dict[int, list[int]] = {}
    norms: dict[int, int] = {}
    for i in reversed(range(size)):
        lam = lams[i]
        num = mono[i]
        coeffs: list[tuple[int, Fraction]] = []
        for j in zonal:
            if dominance_compare(lams[j], lam) is Dominance.LESS:
                ip = sum(map(mul, num, weighted[j]))
                if ip:
                    coeffs.append((j, Fraction(ip, norms[j])))
        common = 1
        for _, c in coeffs:
            common = lcm(common, c.denominator)
        vec = [common * v for v in num]
        for j, c in coeffs:
            f = c.numerator * (common // c.denominator)
            vec = [v - f * x for v, x in zip(vec, zonal[j])]
        scale = Fraction(_jack_scale(lam), mono_den[i] * common)
        out = []
        for v in vec:
            q = v * scale
            if q.denominator != 1:
                raise SchemeError(
                    f"zonal polynomial J_{lam}^(2) has a"
                    f" non-integer power-sum coefficient {q}"
                )
            out.append(int(q))
        zonal[i] = out
        weighted[i] = [w * x for w, x in zip(weights, out)]
        norms[i] = sum(map(mul, out, weighted[i]))
    return {
        lams[i]: {lams[k]: zonal[i][k] for k in range(size)} for i in range(size)
    }
