"""The integer evaluation, row reduction and induction step against plain
Fraction references written here.

``eval_expr`` sums over a common denominator, ``rref`` eliminates
fraction-free and ``verify_induction_step`` grows power sums by the two new
contents; each reference below is the direct rational computation.
Examples are derandomized and sizes bounded, as in test_properties.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmscheme import Partition
from pmscheme.exactalg import kernel_basis, rref, solve_unique
from pmscheme.partitions import content, generate_partitions, successors
from pmscheme.spectra import _GrowthIncrements, verify_induction_step
from pmscheme.symfunc import (
    CATALOG_PREFIXES,
    PowerSumExpr,
    delta_eval,
    e_catalog,
    eval_expr,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

SMALL_PARTITIONS = [lam for n in range(1, 10) for lam in generate_partitions(n)]

fractions = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))

monomials = st.lists(st.integers(1, 5), max_size=4).map(
    lambda parts: Partition(sorted(parts, reverse=True))
)

# monomial -> Fraction coefficients in t, lowest degree first
coefficient_maps = st.dictionaries(
    monomials, st.lists(fractions, max_size=4), max_size=6
)


def reference_eval(terms, lam: Partition) -> Fraction:
    cv = content(lam)
    total = Fraction(0)
    for mono, coeffs in terms.items():
        val = sum(c * (2 * lam.n) ** d for d, c in enumerate(coeffs))
        for k in mono.parts:
            val *= cv.power_sum(k)
        total += val
    return total


@PROPERTY
@given(coefficient_maps)
def test_eval_expr_matches_fraction_reference(terms):
    f = PowerSumExpr(terms)
    for lam in SMALL_PARTITIONS:
        got = eval_expr(f, lam)
        assert type(got) is Fraction
        assert got == reference_eval(terms, lam), (f, lam)


def reference_rref(rows):
    """Gauss-Jordan over Fraction, pivot = first nonzero entry at or below."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return m, []
    pivots, r = [], 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


@st.composite
def deficient_matrices(draw):
    """Rows drawn from a few base rows: the base rows themselves, zero rows,
    exact duplicates, scalar multiples and rational combinations, with int
    and Fraction entries mixed."""
    width = draw(st.integers(1, 6))
    entries = st.one_of(st.integers(-9, 9), fractions)
    full_row = st.lists(entries, min_size=width, max_size=width)
    base = draw(st.lists(full_row, min_size=1, max_size=4))
    kinds = st.sampled_from(("base", "zero", "duplicate", "multiple", "combination"))
    rows = []
    for kind in draw(st.lists(kinds, min_size=1, max_size=8)):
        row = draw(st.sampled_from(base))
        if kind == "zero":
            row = [0] * width
        elif kind == "duplicate" and rows:
            row = draw(st.sampled_from(rows))
        elif kind == "multiple":
            k = draw(fractions.filter(bool))
            row = [k * x for x in row]
        elif kind == "combination":
            cs = draw(st.lists(fractions, min_size=len(base), max_size=len(base)))
            row = [sum(c * b[j] for c, b in zip(cs, base)) for j in range(width)]
        rows.append(list(row))
    return rows


@PROPERTY
@given(deficient_matrices())
def test_rref_matches_fraction_gauss_jordan(rows):
    got, pivots = rref(rows)
    want, want_pivots = reference_rref(rows)
    assert pivots == want_pivots
    assert got == want
    assert all(type(x) is Fraction for row in got for x in row)
    for v in kernel_basis(rows):
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)
    assert len(kernel_basis(rows)) == len(rows[0]) - len(pivots)


@PROPERTY
@given(deficient_matrices(), st.lists(fractions, min_size=6, max_size=6))
def test_solve_unique_matches_reference_when_determined(rows, x):
    width = len(rows[0])
    b = [sum(a * xi for a, xi in zip(row, x)) for row in rows]
    _, pivots = reference_rref(rows)
    if len(pivots) == width:
        assert solve_unique(rows, b) == x[:width]


def reference_induction(prefix: Partition, n: int):
    """The successor-by-successor scan: every growth evaluated in full, from
    the catalog's coefficients as Fractions."""
    expr = e_catalog(prefix)
    terms = {
        Partition(parts): [Fraction(c, expr.den) for c in coeffs]
        for coeffs, parts in expr.int_terms
    }

    def delta(lam, i):
        grown = next(lp for lp, row in successors(lam) if row == i)
        return reference_eval(terms, grown) - reference_eval(terms, lam)

    rhs = delta(Partition((n - 1, 1)), 1)
    best = None
    for lam in generate_partitions(n):
        if lam == Partition((n,)):
            continue
        base = reference_eval(terms, lam)
        for lam_plus, i in successors(lam):
            slack = rhs - (reference_eval(terms, lam_plus) - base)
            if best is None or slack < best[0]:
                best = (slack, lam, i)
    return rhs, best


@pytest.mark.parametrize("prefix", CATALOG_PREFIXES, ids=str)
def test_induction_step_matches_successor_scan(prefix):
    for n in range(max(prefix.n, 2), 17):
        report = verify_induction_step(prefix, n)
        rhs, (slack, lam, i) = reference_induction(prefix, n)
        assert report.rhs == rhs and type(report.rhs) is Fraction
        assert report.min_slack == slack and type(report.min_slack) is Fraction
        assert report.passed == (slack >= 0)
        assert report.witness == (lam, i)


def test_growth_increments_expand_monomials_past_two_factors():
    # the catalog's monomials have at most two factors; these have three,
    # with repeated parts, so sub-monomials of one and two factors occur
    f = PowerSumExpr(
        {
            Partition([2, 1, 1]): [Fraction(1, 3), Fraction(-1, 5)],
            Partition([2, 2]): [Fraction(-3, 4)],
            Partition([1, 1, 1]): [Fraction(2, 7), 0, Fraction(1, 9)],
            Partition([3]): [1],
            Partition([]): [0, Fraction(1, 2)],
        }
    )
    for n in range(1, 9):
        increments = _GrowthIncrements(f, n)
        for lam in generate_partitions(n):
            want = [(i, f.den * delta_eval(f, lam, i)) for _, i in successors(lam)]
            assert increments(lam) == want, lam
