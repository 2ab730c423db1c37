"""Property tests for the text forms, the rank bijection, relation symmetry
and the table serialization.

Examples are derandomized and sizes bounded, so every run checks the same
cases in a few seconds.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from pmscheme import EigTable, Partition, build_table_zonal
from pmscheme.matchings import Matching, parse_matching, rank, relation, unrank
from pmscheme.partitions import parse_partition

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)

partitions = st.lists(st.integers(1, 12), max_size=10).map(
    lambda parts: Partition(sorted(parts, reverse=True))
)


@st.composite
def matchings(draw, n=None):
    if n is None:
        n = draw(st.integers(1, 7))
    order = draw(st.permutations(range(2 * n)))
    partner = [0] * (2 * n)
    for a, b in zip(order[::2], order[1::2]):
        partner[a], partner[b] = b, a
    return Matching(partner)


@st.composite
def matching_pairs(draw):
    n = draw(st.integers(1, 7))
    return draw(matchings(n)), draw(matchings(n))


def _sugared(p: Partition) -> str:
    """The exponent form, e.g. [3,2^2,1^3]."""
    tokens = [
        f"{value}^{count}" if count > 1 else str(value)
        for value, count in p.multiplicities().items()
    ]
    return "[" + ", ".join(tokens) + "]"


@PROPERTY
@given(partitions)
def test_partition_text_round_trip(p):
    assert parse_partition(str(p)) == p
    assert parse_partition(_sugared(p)) == p


@PROPERTY
@given(matchings())
def test_matching_text_and_rank_round_trip(m):
    assert parse_matching(m.to_text()) == m
    assert unrank(rank(m), m.n) == m


@PROPERTY
@given(matching_pairs())
def test_relation_is_symmetric(pair):
    p, q = pair
    assert relation(p, q) == relation(q, p)
    assert relation(p, q).n == p.n
    assert relation(p, p) == Partition((1,) * p.n)


@settings(derandomize=True, database=None, deadline=None)
@given(st.integers(2, 8))
def test_zonal_table_json_round_trip(n):
    table = build_table_zonal(n)
    back = EigTable.from_json_obj(json.loads(table.to_json_text()))
    assert back.to_json_obj() == table.to_json_obj()
    assert back.to_csv_text() == table.to_csv_text()
