import pickle
import random
from math import factorial

import pytest

from pmscheme import (
    Dominance,
    Partition,
    content,
    dim_hook,
    dominance_compare,
    double_factorial,
    frobenius_dim,
    generate_partitions,
    irr_char,
    parse_partition,
    successors,
    unrank,
)
from pmscheme.partitions import _frobenius, eigenspace_dim, iter_partitions

P = Partition


def test_generation_counts():
    assert [len(generate_partitions(n)) for n in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]
    assert generate_partitions(0) == (P(),)


def test_generation_order_small_literals():
    # independent transcription of the partition lists in canonical order
    assert [p.parts for p in generate_partitions(4)] == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1),
    ]
    assert [p.parts for p in generate_partitions(6)] == [
        (6,), (5, 1), (4, 2), (4, 1, 1), (3, 3), (3, 2, 1), (3, 1, 1, 1),
        (2, 2, 2), (2, 2, 1, 1), (2, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1),
    ]


def test_generation_first_last_and_sorted():
    for n in range(1, 10):
        ps = generate_partitions(n)
        assert ps[0] == P([n])
        assert ps[-1] == P([1] * n)
        assert list(ps) == sorted(ps, key=lambda p: p.parts, reverse=True)
        assert all(p.n == n for p in ps)


def test_partition_validation():
    with pytest.raises(ValueError):
        P([1, 2])
    with pytest.raises(ValueError):
        P([2, 0])
    with pytest.raises(ValueError):
        P([-1])


def test_parse_and_format():
    assert parse_partition("[2,1^3]") == P([2, 1, 1, 1])
    assert parse_partition("[]") == P()
    assert parse_partition(" [ 3 , 2 ] ") == P([3, 2])
    assert str(P([2, 1, 1, 1])) == "[2,1,1,1]"
    assert str(P()) == "[]"
    for bad in ("2,1", "[2,", "[1,2]", "[0]", "[2^0]", "[a]"):
        with pytest.raises(ValueError):
            parse_partition(bad)
    for n in range(8):
        for p in generate_partitions(n):
            assert parse_partition(str(p)) == p


def test_value_types_are_tuples():
    """Partitions, matchings and content vectors hash, compare and order as
    the tuples they hold, and stay immutable through pickling."""
    values = []
    for n in range(11):
        ps = generate_partitions(n)
        assert sorted(ps, reverse=True) == list(ps)
        values += [(p, "parts") for p in ps]
        values += [(content(p), "values") for p in ps]
    for n in range(1, 7):
        total = double_factorial(2 * n - 1)
        values += [(unrank(r, n), "partner") for r in range(0, total, total // 7 or 1)]
    for x, field in values:
        plain = tuple(x)
        assert type(plain) is tuple
        assert type(x).__hash__ is tuple.__hash__
        assert type(x).__eq__ is tuple.__eq__
        assert hash(x) == hash(plain)
        assert x == plain
        again = pickle.loads(pickle.dumps(x))
        assert type(again) is type(x) and again == x
        for name in (field, "extra"):
            with pytest.raises(AttributeError):
                setattr(x, name, plain)


def test_dominance_examples():
    assert dominance_compare(P([4]), P([3, 1])) is Dominance.GREATER
    assert dominance_compare(P([4, 1, 1]), P([3, 3])) is Dominance.INCOMPARABLE
    assert dominance_compare(P([2, 2]), P([2, 2])) is Dominance.EQUAL
    with pytest.raises(ValueError):
        dominance_compare(P([2]), P([3]))


def test_dominance_is_partial_order():
    for n in range(1, 9):
        ps = generate_partitions(n)
        rel = {}
        for a in ps:
            for b in ps:
                rel[(a, b)] = dominance_compare(a, b)
        for a in ps:
            assert rel[(a, a)] is Dominance.EQUAL
            for b in ps:
                # antisymmetry via the flipped verdict
                flips = {
                    Dominance.GREATER: Dominance.LESS,
                    Dominance.LESS: Dominance.GREATER,
                    Dominance.EQUAL: Dominance.EQUAL,
                    Dominance.INCOMPARABLE: Dominance.INCOMPARABLE,
                }
                assert rel[(b, a)] is flips[rel[(a, b)]]
                for c in ps:
                    if (
                        rel[(a, b)] in (Dominance.GREATER, Dominance.EQUAL)
                        and rel[(b, c)] in (Dominance.GREATER, Dominance.EQUAL)
                    ):
                        assert rel[(a, c)] in (Dominance.GREATER, Dominance.EQUAL)


def test_canonical_order_refines_dominance():
    for n in range(1, 9):
        ps = list(generate_partitions(n))
        pos = {p: i for i, p in enumerate(ps)}
        for a in ps:
            for b in ps:
                if dominance_compare(a, b) is Dominance.GREATER:
                    assert pos[a] < pos[b]


def test_double():
    assert P([3, 2, 1]).double() == P([6, 4, 2])
    assert P().double() == P()
    assert P([1, 1]).double() == P([2, 2])


def test_content_examples():
    assert content(P([3, 2, 1])).values == (0, 1, 2, 3, 4, 5, -1, 0, 1, 2, -2, -1)
    assert content(P([1])).values == (0, 1)
    assert content(P([1, 1])).values == (0, 1, -1, 0)
    for n in range(1, 8):
        for lam in generate_partitions(n):
            assert len(content(lam)) == 2 * n


def test_content_single_row_closed_form():
    for n in range(1, 51):
        assert content(P([n])).power_sum(1) == n * (2 * n - 1)


def test_successors_examples():
    def as_set(lam):
        return {(p.parts, i) for p, i in successors(lam)}

    assert as_set(P([2, 1])) == {((3, 1), 1), ((2, 2), 2), ((2, 1, 1), 3)}
    assert as_set(P([1])) == {((2,), 1), ((1, 1), 2)}
    assert as_set(P([2, 2])) == {((3, 2), 1), ((2, 2, 1), 3)}
    assert as_set(P()) == {((1,), 1)}


def test_successors_count_is_distinct_parts_plus_one():
    for n in range(1, 10):
        for lam in generate_partitions(n):
            assert len(successors(lam)) == len(set(lam.parts)) + 1


def test_successors_cover_all_larger_partitions():
    for n in range(0, 9):
        produced = set()
        for lam in generate_partitions(n):
            for nxt, _ in successors(lam):
                assert nxt.n == n + 1
                produced.add(nxt)
        assert produced == set(generate_partitions(n + 1))


def test_dim_examples():
    assert dim_hook(P([5])) == 1
    assert dim_hook(P([4, 1])) == 35
    assert dim_hook(P([1, 1, 1, 1, 1])) == 42


def test_dim_routes_agree_and_sum():
    for n in range(0, 9):
        total = 0
        for lam in generate_partitions(n):
            f = dim_hook(lam)
            assert f == frobenius_dim(lam) == eigenspace_dim(lam)
            if n <= 6:
                assert f == irr_char(lam.double(), P([1] * (2 * n)))
            total += f
        assert total == double_factorial(2 * n - 1)
        assert sum(dim_hook(lam) ** 2 for lam in generate_partitions(n)) <= factorial(
            2 * n
        )


def test_hook_formula_matches_frobenius_up_to_30():
    # the frame computes each dimension by the hook length formula alone;
    # the Frobenius determinant holds it to account here, for all 28 629
    # partitions of n <= 30, uncached on both sides so the sweep keeps nothing
    count = 0
    for n in range(0, 31):
        total = 0
        for lam in iter_partitions(n):
            f = eigenspace_dim(lam)
            assert f == _frobenius(lam), lam
            total += f
            count += 1
        assert total == double_factorial(2 * n - 1), n
    assert count == 28629


def test_irr_char_examples():
    for sigma in generate_partitions(6):
        assert irr_char(P([6]), sigma) == 1
    assert irr_char(P([2, 2]), P([1, 1, 1, 1])) == 2
    assert irr_char(P([1, 1, 1, 1]), P([2, 1, 1])) == -1
    with pytest.raises(ValueError):
        irr_char(P([2, 2]), P([2, 1]))


def test_irr_char_column_orthogonality_s5():
    # sum over shapes of chi(sigma) chi(tau) is |centralizer| on the diagonal
    n = 5
    shapes = generate_partitions(n)

    def centralizer(sigma):
        size = 1
        for v, m in sigma.multiplicities().items():
            size *= v**m * factorial(m)
        return size

    for sigma in shapes:
        for tau in shapes:
            s = sum(irr_char(sh, sigma) * irr_char(sh, tau) for sh in shapes)
            assert s == (centralizer(sigma) if sigma == tau else 0)


def test_first_column_restriction_random():
    rng = random.Random(7)
    # character at a full cycle: +-1 on hooks, 0 elsewhere
    for n in range(2, 9):
        full = P([n])
        for lam in generate_partitions(n):
            value = irr_char(lam, full)
            is_hook = len(lam) == 1 or lam.parts[1:] == (1,) * (len(lam) - 1)
            if is_hook:
                assert value == (-1) ** (len(lam) - 1)
            else:
                assert value == 0
    # random sanity: characters are integers within the dimension bound
    for _ in range(50):
        n = rng.randint(2, 7)
        shapes = generate_partitions(n)
        lam = rng.choice(shapes)
        sigma = rng.choice(shapes)
        assert abs(irr_char(lam, sigma)) <= irr_char(lam, P([1] * n))
