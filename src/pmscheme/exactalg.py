"""Exact linear algebra over the rationals and integer polynomial roots.

Small dense systems only (dimension <= number of partitions of n, so a few
dozen), in exact arithmetic with no floating point.  Row reduction clears
each row's denominators and eliminates in integers, keeping every row
primitive, and makes Fractions only for its result.  ``solve_unique``
eliminates only until it holds one pivot per unknown, back-substitutes
over one common denominator, and then checks every row in integers,
the rows it never eliminated included; ``symfunc.fit_e_mu`` calls it.
Nothing in the package calls the rest, which stays while ``bench/spans.py``
names ``charpoly``, ``distinct_integer_roots`` and ``kernel_basis``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import FitInconsistent, FitUnderdetermined, SchemeError

Vector = list[Fraction]
Matrix = list[list[Fraction]]


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _integer_row(row: list) -> list[int]:
    """The row (ints or Fractions) times the lcm of its denominators; a
    row of ints as it is."""
    if all(type(x) is int for x in row):
        return row
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def _row_step(row: list[int], top: list[int], c: int) -> list[int]:
    """p * row - f * top made primitive, p = top[c] and f = row[c]: the
    integer step that clears column c of row by the pivot row top."""
    p, f = top[c], row[c]
    return _primitive([p * a - f * b for a, b in zip(row, top)])


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices).

    Entries may be int or Fraction.  Every integer row stays a nonzero
    multiple of the row a rational Gauss-Jordan elimination would hold
    (``_row_step`` eliminates row i by pivot row r), so the pivots are the
    same and dividing each pivot row by its pivot gives the unique RREF.
    Zero rows come last, as Fraction(0) entries.
    """
    m = [_primitive(_integer_row(row)) for row in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                m[i] = _row_step(m[i], top, c)
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    out = [[Fraction(x, row[c]) for x in row] for row, c in zip(m, pivots)]
    out += [[Fraction(0)] * ncols for _ in range(len(m) - r)]
    return out, pivots


def solve_unique(a: Matrix, b: Vector) -> Vector:
    """Solve a x = b, demanding a unique exact solution.

    Entries may be int or Fraction; each augmented row is scaled to
    integers.  Rows are eliminated one at a time against the echelon rows
    found so far (``_row_step``) until there is one pivot per unknown; back
    substitution then gives x as integers over one common denominator, and
    every row, eliminated or not, is checked against it in integers.
    Raises FitInconsistent when no solution exists, before
    FitUnderdetermined when more than one does.
    """
    ncols = len(a[0]) if a else 0
    aug = [_integer_row([*row, rhs]) for row, rhs in zip(a, b)]
    echelon: dict[int, list[int]] = {}  # pivot column -> its echelon row
    for row in aug:
        if len(echelon) == ncols:
            break
        for c in sorted(echelon):
            if row[c]:
                row = _row_step(row, echelon[c], c)
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead == ncols:
            raise FitInconsistent("no exact solution reproduces the data")
        if lead is not None:
            echelon[lead] = _primitive(row)
    if len(echelon) < ncols:
        raise FitUnderdetermined(
            f"system determines only {len(echelon)} of {ncols} unknowns"
        )
    # x = num / den; row c reads p x_c + sum_{j>c} row[j] x_j = row[ncols]
    num, den = [0] * ncols, 1
    for c in reversed(range(ncols)):
        row = echelon[c]
        p = row[c]
        rest = row[ncols] * den - sum(map(mul, row[c + 1 : ncols], num[c + 1 :]))
        if p < 0:
            p, rest = -p, -rest
        g = gcd(rest, p)
        num = [x * (p // g) for x in num]
        num[c] = rest // g
        den *= p // g
    for row in aug:
        if sum(map(mul, row, num)) != row[ncols] * den:
            raise FitInconsistent("no exact solution reproduces the data")
    return [Fraction(x, den) for x in num]


def kernel_basis(a: Matrix) -> list[Vector]:
    """Basis of the right kernel of a (rows may be rationals)."""
    if not a:
        return []
    ncols = len(a[0])
    red, pivots = rref(a)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def charpoly(mat: list[list[int]]) -> list[int]:
    """Characteristic polynomial det(xI - M) by Faddeev-LeVerrier.

    Returns coefficients ascending in degree; the leading coefficient is 1.
    All intermediate divisions are exact over the integers.
    """
    d = len(mat)
    coeffs = [0] * (d + 1)
    coeffs[d] = 1
    m = [row[:] for row in mat]
    c = 0
    for k in range(1, d + 1):
        if k > 1:
            for i in range(d):
                m[i][i] += c
            m = _mat_mul(mat, m)
        tr = sum(m[i][i] for i in range(d))
        if tr % k:
            raise SchemeError(f"trace {tr} of step {k} is not divisible by {k}")
        c = -tr // k
        coeffs[d - k] = c
    return coeffs


def _mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def synthetic_division(coeffs: list[int], r: int) -> tuple[list[int], int]:
    """(q, p(r)) with p = (x - r) q + p(r); coefficients ascending."""
    acc = [coeffs[-1]]
    for c in reversed(coeffs[:-1]):
        acc.append(acc[-1] * r + c)
    return acc[-2::-1], acc[-1]


def distinct_integer_roots(coeffs: list[int], bound: int) -> list[int] | None:
    """All roots of a monic integer polynomial, ascending, if it splits into
    distinct integer roots with |root| <= bound; None otherwise.

    Integer Newton descent from bound + 1: above the largest root of a
    polynomial with only real roots p > 0 and p' > 0, and x - ceil(p/p')
    never steps past an integer root.  Each root found is divided out by
    synthetic division and the descent resumes from it on the quotient.
    Meeting p < 0 or p' <= 0 (a repeated root has p' = 0), a root above
    bound, or a step below -bound means the polynomial does not split so.
    """
    roots: list[int] = []
    work = coeffs
    x = bound + 1
    while len(work) > 1:
        p = dp = 0
        for c in reversed(work):
            dp = dp * x + p
            p = p * x + c
        if p < 0 or dp <= 0:
            return None
        if p == 0:
            if x > bound:
                return None
            roots.append(x)
            work, _ = synthetic_division(work, x)
            continue
        x -= -(-p // dp)
        if x < -bound:
            return None
    return roots[::-1]
