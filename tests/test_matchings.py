import random

import pytest

from pmscheme import (
    Matching,
    Partition,
    base_matching,
    degree_count,
    degree_histogram,
    diameter,
    double_factorial,
    enumerate_matchings,
    generate_partitions,
    parse_matching,
    quotient_counts,
    quotient_counts_all,
    quotient_counts_from,
    rank,
    relation,
    representative,
    unrank,
    valency,
)
from pmscheme.errors import GuardExceeded

P = Partition


def test_enumeration_counts():
    for n in range(1, 8):
        assert sum(1 for _ in enumerate_matchings(n)) == double_factorial(2 * n - 1)


def test_enumeration_guard():
    with pytest.raises(GuardExceeded):
        list(enumerate_matchings(10))
    with pytest.raises(GuardExceeded):
        list(enumerate_matchings(0))


def test_matching_validation_and_text():
    m = parse_matching("1 2 | 3 4")
    assert m == base_matching(2)
    assert m.to_text() == "1 2 | 3 4"
    assert parse_matching("4 3 | 2 1").to_text() == "1 2 | 3 4"
    with pytest.raises(ValueError):
        parse_matching("1 1 | 2 3")
    with pytest.raises(ValueError):
        Matching((1, 0, 3))
    with pytest.raises(ValueError):
        Matching((0, 1, 3, 2))


def test_relation_examples():
    p0 = base_matching(2)
    assert relation(p0, p0) == P([1, 1])
    assert relation(p0, parse_matching("1 3 | 2 4")) == P([2])
    # two matchings of K_12 overlapping in cycles of lengths 6, 4 and 2
    solid = parse_matching("1 6 | 2 3 | 4 5 | 7 8 | 9 10 | 11 12")
    dashed = parse_matching("1 2 | 5 6 | 3 4 | 7 10 | 8 9 | 11 12")
    assert relation(solid, dashed) == P([3, 2, 1])
    with pytest.raises(ValueError):
        relation(base_matching(2), base_matching(3))


def test_relation_symmetry_random():
    rng = random.Random(99)
    total = double_factorial(2 * 6 - 1)
    for _ in range(10_000):
        a = unrank(rng.randrange(total), 6)
        b = unrank(rng.randrange(total), 6)
        assert relation(a, b) == relation(b, a)


def test_relation_invariant_under_relabeling():
    rng = random.Random(3)
    n = 5
    total = double_factorial(2 * n - 1)
    for _ in range(1000):
        a = unrank(rng.randrange(total), n)
        b = unrank(rng.randrange(total), n)
        perm = list(range(2 * n))
        rng.shuffle(perm)
        perm = tuple(perm)
        assert relation(a.apply(perm), b.apply(perm)) == relation(a, b)


def test_representatives():
    for n in range(1, 8):
        p0 = base_matching(n)
        for mu in generate_partitions(n):
            assert relation(p0, representative(mu)) == mu


def test_rank_unrank_inverse_exhaustive():
    for n in range(1, 6):
        for r, m in enumerate(enumerate_matchings(n)):
            assert rank(m) == r
            assert unrank(r, n) == m
    with pytest.raises(ValueError):
        unrank(double_factorial(9), 5)


def test_degrees_match_valency():
    for n in range(1, 7):
        hist = degree_histogram(n)
        for mu in generate_partitions(n):
            assert hist[mu] == valency(mu)
    assert degree_count(P([3, 2])) == 160


def test_intersection_numbers_small(idata):
    data2 = idata(2)
    assert [str(m) for m in data2.relations] == ["[2]", "[1,1]"]
    k = data2.index(P([2]))
    assert data2.p[k][k][k] == 1
    # identity representative forces a diagonal slice
    kid = data2.index(P([1, 1]))
    for i in range(2):
        for j in range(2):
            assert data2.p[kid][i][j] == (data2.valencies[i] if i == j else 0)

    data4 = idata(4)
    for k in range(len(data4.relations)):
        for i, mu in enumerate(data4.relations):
            assert sum(data4.p[k][i]) == valency(mu)


def test_quotient_examples():
    qc5 = quotient_counts_all(5)
    q = qc5[P([3, 1, 1])]
    assert (q.a, q.b) == (32, 6)
    assert q.eigenvalues() == (80, 26)
    assert qc5[P([2, 1, 1, 1])].a - qc5[P([2, 1, 1, 1])].b == 11
    qid = qc5[P([1, 1, 1, 1, 1])]
    assert (qid.a, qid.b) == (1, 0)
    # a relation without a part of size 1 never stays inside the fixed-edge
    # block, so a = 0 and b carries the whole eigenvalue
    q22 = quotient_counts(P([2, 2]))
    assert q22.a == 0
    assert q22.matrix() == [[0, 12], [2, 10]]
    assert q22.eigenvalues() == (12, -2)


def test_quotient_matrix_rows_sum_to_valency():
    for n in range(2, 7):
        for mu, q in quotient_counts_all(n).items():
            assert q.matrix()[0][0] + q.matrix()[0][1] == q.valency
            assert q.valency == valency(mu)


def test_quotient_equitability_sampled():
    rng = random.Random(17)
    for n in (4, 5):
        total = double_factorial(2 * n - 1)
        qc = quotient_counts_all(n)
        inside, outside = [], []
        while len(inside) < 20 or len(outside) < 20:
            m = unrank(rng.randrange(total), n)
            (inside if m.partner[0] == 1 else outside).append(m)
        for m in inside[:20]:
            hist = quotient_counts_from(m)
            for mu, q in qc.items():
                assert hist.get(mu, 0) == q.a, f"inside block not equitable at {mu}"
        for m in outside[:20]:
            hist = quotient_counts_from(m)
            for mu, q in qc.items():
                assert hist.get(mu, 0) == q.b, f"outside block not equitable at {mu}"


def test_diameter_flip_graph():
    for n in range(3, 6):
        res = diameter(P([2] + [1] * (n - 2)))
        assert res.connected and res.diameter == n - 1


def test_diameter_identity_disconnected():
    res = diameter(P([1, 1, 1, 1]))
    assert not res.connected
    assert res.reached == 1
    assert res.n_vertices == 105


def test_diameter_other_relations():
    assert diameter(P([2, 2])).diameter == 3
    assert diameter(P([4])).diameter == 2
    assert diameter(P([3, 1])).diameter == 2


def test_diameter_guard():
    with pytest.raises(GuardExceeded):
        diameter(P([2] + [1] * 8))
    with pytest.raises(GuardExceeded):
        diameter(P([2, 1, 1]), max_n=3)


def test_enumerating_helpers_are_guarded():
    # degree_count([10]) would otherwise enumerate 654,729,075 matchings
    with pytest.raises(GuardExceeded):
        degree_count(P([10]))
    with pytest.raises(GuardExceeded):
        degree_histogram(9)
    with pytest.raises(GuardExceeded):
        quotient_counts_from(base_matching(9))
    with pytest.raises(GuardExceeded):
        degree_count(P([2, 1, 1]), max_n=3)
    with pytest.raises(GuardExceeded):
        quotient_counts_from(base_matching(4), max_n=3)
    assert degree_count(P([2, 1, 1]), max_n=4) == valency(P([2, 1, 1]))

