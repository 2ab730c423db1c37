import random
import sys
import time

import pytest

from pmscheme import (
    Matching,
    Partition,
    base_matching,
    build_table_formulas,
    build_table_oracle,
    build_table_zonal,
    degree_histogram,
    diameter,
    double_factorial,
    enumerate_matchings,
    generate_partitions,
    intersection_matrix,
    intersection_numbers,
    parse_matching,
    quotient_counts_all,
    quotient_counts_from,
    rank,
    relation,
    representative,
    unrank,
    valency,
    verify_induction_step,
    zonal_check,
)
from pmscheme import matchings, partitions
from pmscheme.errors import GuardExceeded, SchemeError

P = Partition


def test_enumeration_counts():
    for n in range(1, 8):
        assert sum(1 for _ in enumerate_matchings(n)) == double_factorial(2 * n - 1)


def test_enumeration_guard():
    with pytest.raises(GuardExceeded):
        list(enumerate_matchings(10))
    with pytest.raises(GuardExceeded, match="n <= 8"):
        next(enumerate_matchings(9))
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
    assert degree_histogram(5)[P([3, 2])] == 160


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


@pytest.mark.parametrize("n", range(1, 8))
def test_b_matrix_alone_is_the_slice_of_p(n, idata):
    """b_matrix(i), counted on its own pruned walk, equals the slice
    p[.][i][.] of the full tensor for every relation."""
    full = idata(n).p
    d = len(full)
    alone = intersection_numbers(n)
    for i in range(d):
        assert alone.b_matrix(i) == [[full[k][i][j] for j in range(d)] for k in range(d)]


@pytest.mark.parametrize("n", range(1, 7))
def test_columns_are_the_nonzero_entries_of_b_matrix(n, idata):
    """columns(g) holds, for each non-identity j, the nonzero entries of
    column j of b_matrix(g), rows ascending, and a getter of those rows;
    it is kept and shared."""
    data = idata(n)
    d = len(data.relations)
    for g in range(d):
        b = data.b_matrix(g)
        columns = data.columns(g)
        assert len(columns) == d - 1
        for j, (coefficients, getter) in enumerate(columns):
            rows = getter(range(d))
            assert type(rows) is tuple and list(rows) == sorted(rows)
            assert dict(zip(rows, coefficients)) == {
                k: b[k][j] for k in range(d) if b[k][j]
            }
            assert len(coefficients) == len(rows)
        assert data.columns(g) is columns


def test_intersection_data_counts_on_first_read(monkeypatch):
    """intersection_numbers counts nothing; an oracle build walks once per
    separating relation and keeps what it counted."""
    walks = []
    real = matchings._union_counts

    def counted(*args, **kwargs):
        walks.append(kwargs.get("target"))
        return real(*args, **kwargs)

    monkeypatch.setattr(matchings, "_union_counts", counted)
    for n, separating in ((6, [9, 7]), (7, [13])):
        walks.clear()
        data = intersection_numbers(n)
        assert walks == []
        build_table_oracle(n, data=data)
        assert walks == separating
        build_table_oracle(n, data=data)
        assert walks == separating


def test_b_matrix_refuses_a_row_off_the_class_size(monkeypatch):
    monkeypatch.setattr(partitions, "z2", lambda mu: 1)
    # z2 = 1 makes every class as large as the hyperoctahedral group, 48
    message = r"^row 0 of b_matrix\(1\) does not sum to the valency 48$"
    with pytest.raises(SchemeError, match=message):
        intersection_numbers(3).b_matrix(1)


def _reference_partners(n):
    """Every matching of K_{2n} as a partner tuple, smallest vertex first."""
    m = 2 * n
    partner = [-1] * m

    def rec(start):
        u = start
        while u < m and partner[u] != -1:
            u += 1
        if u == m:
            yield tuple(partner)
            return
        for v in range(u + 1, m):
            if partner[v] == -1:
                partner[u] = v
                partner[v] = u
                yield from rec(u + 1)
                partner[u] = -1
                partner[v] = -1

    yield from rec(0)


def _reference_parts(p, q):
    """Cycle half-lengths of the union of p and q, by walking it."""
    m = len(p)
    seen = bytearray(m)
    parts = []
    for v0 in range(m):
        if seen[v0]:
            continue
        length = 0
        v = v0
        while not seen[v]:
            seen[v] = 1
            w = p[v]
            seen[w] = 1
            v = q[w]
            length += 1
        parts.append(length)
    parts.sort(reverse=True)
    return tuple(parts)


def _reference_histogram(p, partners):
    counts = {}
    for r in partners:
        t = _reference_parts(p, r)
        counts[t] = counts.get(t, 0) + 1
    return {P(t): c for t, c in counts.items()}


@pytest.mark.parametrize("n", range(1, 8))
def test_incremental_counts_match_union_walks(n, idata):
    """The incremental counter agrees with walking every union: intersection
    numbers, valencies, the degree histogram and quotient histograms from
    the base and three other matchings."""
    data = idata(n)
    index = {mu.parts: i for i, mu in enumerate(data.relations)}
    d = len(data.relations)
    base = base_matching(n).partner
    reps = [rep.partner for rep in data.reps]
    p = [[[0] * d for _ in range(d)] for _ in range(d)]
    partners = list(_reference_partners(n))
    for r in partners:
        i = index[_reference_parts(base, r)]
        for k in range(d):
            p[k][i][index[_reference_parts(r, reps[k])]] += 1
    assert data.p == p
    degrees = _reference_histogram(base, partners)
    assert data.valencies == [degrees[mu] for mu in data.relations]
    assert degree_histogram(n) == degrees

    through_12 = [r for r in partners if r[0] == 1]
    total = double_factorial(2 * n - 1)
    ranks = [0] + random.Random(8).sample(range(1, total), min(3, total - 1))
    for r in ranks:
        q = unrank(r, n)
        assert quotient_counts_from(q) == _reference_histogram(q.partner, through_12)


def _closing_pattern(pairing, completion):
    """How completion joins the three pairs of pairing (paths 0, 1, 2 in the
    order of their smallest points) into cycles, by a union-find over the
    six points: 0 = {0}{1}{2}, 1 = {0,1}{2}, 2 = {0,2}{1}, 3 = {1,2}{0},
    4 = {0,1,2}."""
    parent = list(range(6))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for edges in (pairing, completion):
        for v, w in enumerate(edges):
            parent[find(v)] = find(w)
    a, b, c = (find(v) for v in range(6) if v < pairing[v])
    joined = (a == b, a == c, b == c)
    return {
        (False, False, False): 0,
        (True, False, False): 1,
        (False, True, False): 2,
        (False, False, True): 3,
        (True, True, True): 4,
    }[joined]


def test_completion_table_counts_every_completion():
    from pmscheme.matchings import _completion_table

    pairing, leaf = _completion_table()
    pairings = list(_reference_partners(3))
    assert len(pairings) == 15 and len(leaf) == 15 * 15
    assert sum(entry is not None for entry in pairing) == 15
    for t, e in enumerate(pairings):
        firsts = [v for v in range(6) if v < e[v]]
        assert pairing[36 * e[0] + 6 * e[1] + e[2]] == (t, firsts[1], firsts[2])
    for q, base in enumerate(pairings):
        for p, ref in enumerate(pairings):
            cells = leaf[15 * q + p]
            assert sum(k for _, _, k in cells) == 15
            expected = {}
            for completion in pairings:
                cell = (_closing_pattern(base, completion), _closing_pattern(ref, completion))
                expected[cell] = expected.get(cell, 0) + 1
            assert {(b, r): k for b, r, k in cells} == expected
            assert len(cells) == len(expected)


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
    q22 = quotient_counts_all(4)[P([2, 2])]
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
    # table-derived: tables.diameter on the zonal table
    for n in range(3, 13):
        res = diameter(build_table_zonal(n), P([2] + [1] * (n - 2)))
        assert res.connected and res.diameter == n - 1


def test_diameter_identity_disconnected():
    res = diameter(build_table_zonal(4), P([1, 1, 1, 1]))
    assert not res.connected
    assert res.reached == 1
    assert res.n_vertices == 105


def test_diameter_other_relations():
    table = build_table_zonal(4)
    assert diameter(table, P([2, 2])).diameter == 3
    assert diameter(table, P([4])).diameter == 2
    assert diameter(table, P([3, 1])).diameter == 2


def _class_bfs(rels, linked):
    """(diameter or None when disconnected, matchings reached) of a BFS over
    relation classes from the base matching, where linked(c, i) says that a
    class-c matching has a neighbour in class i."""
    start = len(rels) - 1  # relations descend, so the identity [1^n] is last
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for c in frontier:
            for i in range(len(rels)):
                if i not in dist and linked(c, i):
                    dist[i] = dist[c] + 1
                    nxt.append(i)
        frontier = nxt
    reached = sum(valency(rels[i]) for i in dist)
    return (max(dist.values()) if len(dist) == len(rels) else None), reached


def _assert_diameter(table, mu, expected):
    res = diameter(table, mu)
    assert (res.diameter, res.reached) == expected, (table.n, mu)
    assert res.connected == (expected[0] is not None)
    assert res.n_vertices == double_factorial(2 * table.n - 1)


@pytest.mark.parametrize("n", range(2, 7))
def test_diameter_matches_brute_force_class_bfs(n, idata):
    # the stabiliser of the base matching is transitive on each class, so a
    # class-c matching has a mu-neighbour in class i exactly when p^c_{i mu} > 0
    data = idata(n)
    table = build_table_zonal(n)
    for j, mu in enumerate(data.relations):
        expected = _class_bfs(data.relations, lambda c, i: data.p[c][i][j] > 0)
        _assert_diameter(table, mu, expected)


@pytest.mark.parametrize("n", range(7, 11))
def test_diameter_matches_class_bfs_over_intersection_matrix(n):
    table = build_table_zonal(n)
    for mu in table.rows:
        matrix = intersection_matrix(table, mu)
        expected = _class_bfs(table.rows, lambda c, i: matrix[c][i] > 0)
        _assert_diameter(table, mu, expected)


def test_diameter_guard():
    # the only limit is the zonal table's guard
    with pytest.raises(GuardExceeded):
        diameter(build_table_zonal(15), P([2] + [1] * 13))


def test_enumerating_helpers_are_guarded():
    # degree_histogram(10) would otherwise enumerate 654,729,075 matchings
    with pytest.raises(GuardExceeded):
        degree_histogram(10)
    with pytest.raises(GuardExceeded):
        degree_histogram(9)
    with pytest.raises(GuardExceeded):
        quotient_counts_from(base_matching(9))
    with pytest.raises(GuardExceeded):
        quotient_counts_all(9)
    with pytest.raises(ValueError):
        quotient_counts_all(1)


def test_oracle_guard_lists_no_partitions(monkeypatch):
    # the refusal's estimate counts the p(200) = 3,972,999,029,388 relations
    # at n = 200 without listing them
    from pmscheme import matchings

    def fail(n):
        raise AssertionError(f"partitions of {n} listed past the guard")

    monkeypatch.setattr(matchings, "generate_partitions", fail)
    with pytest.raises(GuardExceeded) as refused:
        intersection_numbers(200)
    message = str(refused.value)
    assert message.startswith("intersection numbers guarded to n <= 8 (asked 200) (")
    assert message.endswith(" matchings x 3972999029388 relations)")
    with pytest.raises(GuardExceeded, match=r"guarded to n <= 3 \(asked 4\)"):
        intersection_numbers(4, max_n=3)


def test_guards_refuse_an_n_past_the_digit_limit():
    # Python prints no int of more than 4300 digits by default; every guard
    # names such an n, and the coset estimate 2^n n!, as a power of ten
    huge = 10**5000
    calls = [
        lambda: intersection_numbers(huge),
        lambda: degree_histogram(huge),
        lambda: next(enumerate_matchings(huge)),
        lambda: build_table_zonal(huge),
        lambda: build_table_formulas(huge),
        lambda: verify_induction_step(Partition([2]), huge),
        lambda: zonal_check(Partition([3000]), Partition([3000])),
    ]
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for call in calls:
            with pytest.raises(GuardExceeded, match="about 10"):
                call()
        start = time.perf_counter()
        with pytest.raises(GuardExceeded) as refused:
            zonal_check(Partition([huge]), Partition([huge]))
        assert time.perf_counter() - start < 1.0
    finally:
        sys.set_int_max_str_digits(saved)
    assert str(refused.value) == (
        "coset character sum guarded to n <= 5 (asked about 10^5000)"
        " (stabilizer order 2^n n! = about 10^(about 10^5004))"
    )
    with pytest.raises(GuardExceeded) as refused:
        zonal_check(Partition([6]), Partition([6]))
    assert str(refused.value).endswith("(asked 6) (stabilizer order 2^n n! = 46080)")
