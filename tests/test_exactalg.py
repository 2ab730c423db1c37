import random
from fractions import Fraction

import pytest

from pmscheme.errors import FitInconsistent, FitUnderdetermined
from pmscheme.exactalg import (
    charpoly,
    distinct_integer_roots,
    kernel_basis,
    solve_unique,
    synthetic_division,
)

F = Fraction


def test_charpoly_known():
    assert charpoly([[1, 1], [2, 0]]) == [-2, -1, 1]  # (x-2)(x+1)
    assert charpoly([[3]]) == [-3, 1]
    assert charpoly([[0, 0], [0, 0]]) == [0, 0, 1]


def test_charpoly_matches_root_products():
    rng = random.Random(1)
    for _ in range(20):
        d = rng.randint(2, 5)
        roots = [rng.randint(-6, 6) for _ in range(d)]
        # companion-free: build a triangular matrix with the chosen diagonal
        mat = [[roots[i] if i == j else (rng.randint(-3, 3) if j > i else 0) for j in range(d)] for i in range(d)]
        poly = charpoly(mat)
        for r in roots:
            assert synthetic_division(poly, r)[1] == 0


def _from_roots(roots):
    """Ascending coefficients of the monic polynomial prod (x - r)."""
    coeffs = [1]
    for r in roots:
        coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return coeffs


def _roots_by_scan(coeffs, bound):
    # a monic polynomial of degree d with d distinct integer roots is their product
    roots = [x for x in range(-bound, bound + 1) if synthetic_division(coeffs, x)[1] == 0]
    return roots if len(roots) == len(coeffs) - 1 else None


def test_squarefree_and_roots():
    # (x-1)^2 (x+3) = x^3 + x^2 - 5x + 3
    poly = [3, -5, 1, 1]
    assert distinct_integer_roots(poly, 10) is None  # repeated root rejected
    # (x-2)(x+1)x = x^3 - x^2 - 2x
    assert distinct_integer_roots([0, -2, -1, 1], 5) == [-1, 0, 2]
    assert distinct_integer_roots([-2, -1, 1], 5) == [-1, 2]
    # irreducible over the integers
    assert distinct_integer_roots([1, 0, 1], 5) is None
    # a root at bound + 1, where the descent starts, and one at -bound - 1
    assert distinct_integer_roots(_from_roots([6, -1]), 5) is None
    assert distinct_integer_roots(_from_roots([6, -1]), 6) == [-1, 6]
    assert distinct_integer_roots(_from_roots([-6, 1]), 5) is None
    assert distinct_integer_roots(_from_roots([-6, 1]), 6) == [-6, 1]
    assert distinct_integer_roots(_from_roots([5, -5]), 5) == [-5, 5]
    # repeated largest root, repeated inner root, double zero root
    assert distinct_integer_roots(_from_roots([3, 3, -1]), 10) is None
    assert distinct_integer_roots(_from_roots([4, 1, 1, -2]), 10) is None
    assert distinct_integer_roots(_from_roots([0, 0, 2]), 10) is None
    assert distinct_integer_roots(_from_roots([0, 2]), 10) == [0, 2]
    # no real roots; real but not integer; a non-real pair beside integer roots
    assert distinct_integer_roots([7, 0, 3, 0, 1], 50) is None
    assert distinct_integer_roots([-2, 0, 1], 50) is None
    # (x^2 + 1)(x - 2)(x + 3)
    assert distinct_integer_roots([-6, 1, -5, 1, 1], 50) is None
    assert distinct_integer_roots([1], 3) == []
    assert distinct_integer_roots([-7, 1], 1000) == [7]


def test_newton_roots_fuzz_against_scan():
    rng = random.Random(20021)
    div_rng = random.Random(1986)
    bound = 12
    found = 0
    for _ in range(12000):
        kind = rng.randrange(3)
        if kind == 2:
            coeffs = [rng.randint(-40, 40) for _ in range(rng.randint(0, 5))] + [1]
        else:
            degree = rng.randint(1, 6)
            roots = [rng.randint(-bound - 2, bound + 2) for _ in range(degree)]
            if rng.random() < 0.3:
                roots.append(rng.choice(roots))
            coeffs = _from_roots(roots)
            if kind == 1:
                i = rng.randrange(len(coeffs) - 1)
                coeffs[i] += rng.choice((-2, -1, 1, 2))
        got = distinct_integer_roots(coeffs, bound)
        assert got == _roots_by_scan(coeffs, bound), coeffs
        found += got is not None
        # synthetic division: (x - r) q + p(r) == p
        r = div_rng.randint(-bound - 2, bound + 2)
        q, rem = synthetic_division(coeffs, r)
        product = [a - r * b for a, b in zip([0] + q, q + [0])]
        assert [product[0] + rem] + product[1:] == coeffs, (coeffs, r)
    assert found > 2000  # the fuzz reaches the success path often


def test_solve_unique_and_errors():
    a = [[F(1), F(2)], [F(3), F(4)]]
    assert solve_unique(a, [F(5), F(11)]) == [F(1), F(2)]
    with pytest.raises(FitUnderdetermined):
        solve_unique([[F(1), F(1)]], [F(2)])
    with pytest.raises(FitInconsistent):
        solve_unique([[F(1), F(1)], [F(2), F(2)]], [F(1), F(3)])


def test_solve_unique_checks_rows_past_full_rank():
    # the first two rows fix x = (1, 2); the third, never eliminated, is off
    with pytest.raises(FitInconsistent):
        solve_unique([[1, 0], [0, 1], [1, 1]], [1, 2, 4])
    assert solve_unique([[1, 0], [0, 1], [1, 1]], [1, 2, 3]) == [F(1), F(2)]
    # rank 1 of 2 unknowns and inconsistent: the inconsistency is reported
    with pytest.raises(FitInconsistent):
        solve_unique([[1, 1], [2, 2]], [1, 3])
    with pytest.raises(FitInconsistent):
        solve_unique([[1, 1, 0], [0, 0, 0], [3, 3, 0]], [1, 0, 4])


def test_solve_unique_int_and_fraction_input_agree():
    a = [[2, 1, 0], [1, 3, 1], [0, 1, 4], [3, 4, 1]]
    x = [F(1, 5), F(-3, 7), F(2)]
    b = [sum(c * xi for c, xi in zip(row, x)) for row in a]
    den = 35
    a_int = [[c * den for c in row] for row in a]
    b_int = [int(v * den) for v in b]
    assert all(type(v) is int for v in b_int)
    got = solve_unique(a_int, b_int)
    assert got == x
    assert got == solve_unique([[F(c) for c in row] for row in a_int], [F(v) for v in b_int])
    assert all(type(v) is F for v in got)


def test_kernel_basis():
    a = [[F(1), F(2), F(3)], [F(2), F(4), F(6)]]
    basis = kernel_basis(a)
    assert len(basis) == 2
    for v in basis:
        assert all(sum(r * x for r, x in zip(row, v)) == 0 for row in a)
