"""Exact linear algebra over the rationals and integer polynomial roots.

Small dense systems only (dimension <= number of partitions of n, so a few
dozen), in exact arithmetic with no floating point.  Row reduction clears
each row's denominators and eliminates in integers, keeping every row
primitive, and makes Fractions only for its result.  The oracle's
characteristic polynomial is the monic relation among its Krylov rows, one
fraction-free forward elimination and an exact integer back-substitution;
Faddeev-LeVerrier (``charpoly``) stays as the reference the tests compare
it with.  Integer roots come from a Newton descent in integers and
quotients by x - r from synthetic division; none divides inexactly.
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


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices).

    Entries may be int or Fraction.  Every integer row stays a nonzero
    multiple of the row a rational Gauss-Jordan elimination would hold
    (eliminating row i by pivot row r is p * row_i - row_i[c] * row_r), so
    the pivots are the same and dividing each pivot row by its pivot gives
    the unique RREF.  Zero rows come last, as Fraction(0) entries.
    """
    m = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        m.append(_primitive([x.numerator * (den // x.denominator) for x in row]))
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
        p = top[c]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f != 0:
                m[i] = _primitive([p * a - f * b for a, b in zip(m[i], top)])
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    out = [[Fraction(x, row[c]) for x in row] for row, c in zip(m, pivots)]
    out += [[Fraction(0)] * ncols for _ in range(len(m) - r)]
    return out, pivots


def solve_unique(a: Matrix, b: Vector) -> Vector:
    """Solve a x = b, demanding a unique exact solution.

    Raises FitInconsistent when no solution exists and FitUnderdetermined when
    more than one does.
    """
    ncols = len(a[0]) if a else 0
    aug = [row + [rhs] for row, rhs in zip(a, b)]
    red, pivots = rref(aug)
    for row in red:
        if all(x == 0 for x in row[:-1]) and row[-1] != 0:
            raise FitInconsistent("no exact solution reproduces the data")
    if ncols in pivots:
        raise FitInconsistent("no exact solution reproduces the data")
    if len(pivots) < ncols:
        raise FitUnderdetermined(
            f"system determines only {len(pivots)} of {ncols} unknowns"
        )
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][-1]
    return x


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


def krylov_polynomial(rows: list[list[int]]) -> list[int] | None:
    """The monic integer relation sum_m q_m rows[m] = 0 among d + 1 integer
    rows of length d, with q_d = 1; coefficients ascending.

    For the Krylov rows e M^0 .. e M^d this is the minimal polynomial of e
    under M, and equals det(xI - M) when rows 0..d-1 are independent (e is
    cyclic).  Returns None when they are dependent.  Forward elimination on
    the transposed system runs in integers (each eliminated row is
    p * row_i - row_i[c] * row_r made primitive, as in ``rref``), then
    back-substitution divides exactly; SchemeError if the relation is not
    integral.
    """
    d = len(rows) - 1
    # equation j: sum_{m<d} rows[m][j] q_m = -rows[d][j]; after step c,
    # m[c] holds columns c..d of its row (the entries left of c are zero)
    m = [[row[j] for row in rows[:d]] + [-rows[d][j]] for j in range(d)]
    for c in range(d):
        pivot = next((i for i in range(c, d) if m[i][0] != 0), None)
        if pivot is None:
            return None
        m[c], m[pivot] = m[pivot], m[c]
        p, *top = m[c]
        for i in range(c + 1, d):
            f, *row = m[i]
            m[i] = _primitive([p * a - f * b for a, b in zip(row, top)]) if f else row
    q = [0] * d + [1]
    for c in reversed(range(d)):
        p, *row = m[c]
        num = row[-1] - sum(map(mul, row[:-1], q[c + 1 : d]))
        if num % p:
            raise SchemeError(f"Krylov relation is not integral at degree {c}")
        q[c] = num // p
    return q


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
