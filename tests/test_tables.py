import hashlib
import json
import os
import re
import subprocess
import sys
import time
from itertools import permutations
from operator import add

import pytest

from pmscheme import (
    CATALOG_PREFIXES,
    DEFAULT_ZONAL_MAX_N,
    FORMULAS_MAX_N,
    EigTable,
    Partition,
    build_table_formulas,
    build_table_oracle,
    build_table_zonal,
    column_claim,
    derangement_spectrum,
    diameter,
    dim_hook,
    double_factorial,
    family_mu,
    family_second_eig,
    family_threshold,
    gap_scan,
    generate_partitions,
    intersection_matrix,
    trace_identity_check,
    valency,
    verify_column_orthogonality,
    verify_conjecture,
    verify_structure_constants,
)
from pmscheme import tables
from pmscheme.errors import (
    AmbiguousRowAssignment,
    GuardExceeded,
    IncompleteTable,
    SchemeError,
)

P = Partition
HERE = os.path.dirname(os.path.abspath(__file__))


def _golden_csv(n):
    with open(os.path.join(HERE, "golden", f"table_n{n}.csv")) as fh:
        return fh.read()


def test_oracle_matches_transcription(oracle_table):
    from golden_data import GOLDEN_TABLES

    for n in range(2, 6):
        table = oracle_table(n)
        spec = GOLDEN_TABLES[n]
        assert [str(mu) for mu in table.columns] == spec["columns"]
        for (label, values, dim), lam, got_dim, got_row in zip(
            spec["rows"], table.rows, table.dims, table.grid()
        ):
            assert str(lam) == label
            assert got_row == values
            assert got_dim == dim


def test_oracle_csv_bytes(oracle_table, idata):
    for n in range(2, 6):
        assert oracle_table(n).to_csv_text() == _golden_csv(n)
    for n in range(2, 8):
        for seed in (1, 2, 3):
            table = build_table_oracle(n, seed=seed, data=idata(n))
            assert table.to_csv_text() == _golden_csv(n), (n, seed)


def test_oracle_deterministic_and_seed_independent(idata):
    a = build_table_oracle(4, seed=0, data=idata(4))
    b = build_table_oracle(4, seed=0, data=idata(4))
    c = build_table_oracle(4, seed=12345, data=idata(4))
    assert a.to_csv_text() == b.to_csv_text() == c.to_csv_text()


def test_formula_table_partial_and_rows():
    t = build_table_formulas(9)
    assert not t.is_complete()
    top, second = P([9]), P([8, 1])
    for mu in t.columns:
        assert t.value(top, mu) == valency(mu)
        assert t.value(second, mu) is not None
    assert t.has_column(P([2] + [1] * 7))
    assert not t.has_column(P([9]))
    with pytest.raises(IncompleteTable):
        t.column(P([9]))
    with pytest.raises(IncompleteTable):
        verify_conjecture(t)
    t20 = build_table_formulas(20)
    assert t20.value(P([19, 1]), P([2] + [1] * 18)) == 341


def _assert_lookups_match_grid(table):
    grid = table.grid()
    for c, mu in enumerate(table.columns):
        col = [row[c] for row in grid]
        assert [table.value(lam, mu) for lam in table.rows] == col
        assert table.has_column(mu) == (None not in col)
        if None in col:
            with pytest.raises(IncompleteTable):
                table.column(mu)
        else:
            assert table.column(mu) == col
    assert table.is_complete() == all(None not in row for row in grid)


def test_grid_lookups_match_a_scan_of_the_grid():
    for n in range(2, 21):
        _assert_lookups_match_grid(build_table_formulas(n))
    zonal = build_table_zonal(6)
    assert zonal.is_complete()
    grid = zonal.grid()
    grid[3][5] = None
    holed = EigTable(6, grid, zonal.provenance)
    _assert_lookups_match_grid(holed)
    assert not holed.is_complete()
    assert not holed.has_column(holed.columns[5])
    assert holed.value(holed.rows[3], holed.columns[5]) is None
    assert zonal.value(zonal.rows[3], zonal.columns[5]) is not None


def test_table_refuses_a_grid_that_is_not_rows_by_columns():
    good = build_table_zonal(3).grid()
    for grid in (good[:-1], good + [good[0]], [good[0], good[1][:-1], good[2]]):
        with pytest.raises(SchemeError, match="not rows x columns"):
            EigTable(3, grid, {})


def test_table_refuses_a_small_n_or_a_wrong_size_before_its_frame():
    for n in (1, 0, -3):
        with pytest.raises(SchemeError, match="n >= 2"):
            EigTable(n, [[1]], {})
    obj = build_table_zonal(3).to_json_obj()
    misses = tables._frame.cache_info().misses
    for n in (200, 10**9):
        t0 = time.perf_counter()
        with pytest.raises(SchemeError, match="not rows x columns"):
            EigTable(n, [[1]], {})
        with pytest.raises(SchemeError, match="not rows x columns"):
            EigTable.from_json_obj({**obj, "n": n})
        assert time.perf_counter() - t0 < 0.1, n
    # p(4) = 5 rows, each of the wrong width
    with pytest.raises(SchemeError, match="not rows x columns"):
        EigTable(4, [[1]] * 5, {})
    assert tables._frame.cache_info().misses == misses


def test_table_refuses_an_n_or_cell_that_is_not_an_int():
    for bad in (True, 1.0):
        grid = build_table_zonal(3).grid()
        grid[1][0] = bad
        with pytest.raises(SchemeError, match="not an int"):
            EigTable(3, grid, {})
    with pytest.raises(SchemeError, match="must be an int"):
        EigTable(3.0, build_table_zonal(3).grid(), {})


def test_table_copies_and_checks_its_provenance():
    grid = build_table_zonal(3).grid()
    prov = {P([1, 1, 1]): "zonal"}
    table = EigTable(3, grid, prov)
    prov.clear()
    assert table.provenance == {P([1, 1, 1]): "zonal"}
    # interpolated: a tag no route wrote, dropped from the schema
    for bad in (
        {P([9]): "zonal"},
        {P([3]): 5},
        {P([2, 1]): "made-up"},
        {P([2, 1]): "interpolated"},
    ):
        with pytest.raises(SchemeError, match="bad provenance"):
            EigTable(3, grid, bad)
    obj = build_table_zonal(3).to_json_obj()
    obj["provenance"] = {"[9]": "zonal", "[3]": 5, "[2,1]": "made-up"}
    with pytest.raises(SchemeError, match="bad provenance"):
        EigTable.from_json_obj(obj)


# sha256 of build_table_zonal(n).to_csv_text() for the n past the goldens,
# as the capacity-recursion merge counts of commit 5f4d7b1 wrote them
ZONAL_CSV_SHA256 = {
    8: "30ac57a66832aaca179eac1f82d8431fdb1936044c5b5c3d17ca0bc41a295988",
    9: "ddc0fac99ea9ee61409ff143593884928b1b32bd11af7ce992cfd6c214c18056",
    10: "cfea49f1d24f6d19f13caaa109b714cc23ba69a98c867b856788147607d35ebb",
    11: "e69f0f75c8501240deca279e3c9e43a218739d01f188c2a2822a9cccd5a3ba43",
    12: "9ce75495328c419fd0005a0632fe1df40b9476f39e1d049c1868f28ece0fef65",
    13: "8920f2d92375c3acd0db6a1b09642cdb2d412e83c71410bee162f62da707853b",
    14: "e116e7e92d393d2952ca2abf2c859537b6ca09fac8a58bd04c625758a2ab7393",
}


def test_route_equivalence(oracle_table):
    # the closed-form cells (identity column, rows [n] and [n-1,1], catalog
    # columns) check the oracle up to n = 6 and the zonal engine up to 14;
    # past the goldens the zonal CSV keeps its bytes
    assert set(ZONAL_CSV_SHA256) == set(range(8, DEFAULT_ZONAL_MAX_N + 1))
    for n in range(2, DEFAULT_ZONAL_MAX_N + 1):
        formulas = build_table_formulas(n)
        zonal = build_table_zonal(n)
        if n in ZONAL_CSV_SHA256:
            digest = hashlib.sha256(zonal.to_csv_text().encode()).hexdigest()
            assert digest == ZONAL_CSV_SHA256[n], n
        routes = [zonal] + ([oracle_table(n)] if n <= 6 else [])
        for lam in formulas.rows:
            for mu in formulas.columns:
                v = formulas.value(lam, mu)
                if v is not None:
                    for table in routes:
                        assert v == table.value(lam, mu), (n, lam, mu)


def _claim(table, parts):
    mu = P(parts)
    return column_claim(mu, table.column(mu))


def test_column_claim_examples(oracle_table):
    # a tie at n = 6; [2,2,2] has no part 1, so the conjecture does not apply
    assert _claim(oracle_table(6), [2, 2, 2]) == (
        P([2, 2, 2]), 120, 30, (P([4, 2]), P([2, 2, 2])), 90, None
    )
    assert _claim(oracle_table(5), [2, 1, 1, 1]) == (
        P([2, 1, 1, 1]), 20, 11, (P([4, 1]),), 9, True
    )
    # the n = 4 exception peaks on [1^4]
    assert _claim(oracle_table(4), [3, 1]) == (
        P([3, 1]), 32, 8, (P([1, 1, 1, 1]),), 24, None
    )
    # gap 12 - 7 = 5, as `gap --mu [2,2]` reads it off the table
    assert _claim(oracle_table(4), [2, 2]) == (P([2, 2]), 12, 7, (P([2, 2]),), 5, None)
    # rows [3], [2,1], [1,1,1]: a column of [2,1] that peaks off [2,1] fails
    assert column_claim(P([2, 1]), [6, -3, 1]).holds is False


def test_column_claim_refuses_a_column_it_cannot_read():
    flip = P([2, 1, 1])
    with pytest.raises(SchemeError, match=r"^column \[2,1,1\] needs 5 values led by 12$"):
        column_claim(flip, [12, 5, 2, 0])
    with pytest.raises(SchemeError, match=r"needs 5 values led by 12"):
        column_claim(flip, [13, 5, 2, 0, -3])
    with pytest.raises(SchemeError, match="no second eigenvalue"):
        column_claim(P([1]), [1])


def test_column_claim_reads_the_six_families_past_the_zonal_guard():
    # each catalog family's formula column, from its threshold up to n = 20
    checked = 0
    for n in range(2, 21):
        table = build_table_formulas(n)
        for prefix in CATALOG_PREFIXES:
            if n < max(prefix.n, family_threshold(prefix)):
                continue
            claim = _claim(table, family_mu(prefix, n))
            assert (claim.second, claim.gap) == family_second_eig(prefix, n)
            assert claim.holds is True, (prefix, n)
            checked += 1
    assert checked == 93


def test_verify_conjecture(oracle_table):
    for n in range(4, 7):
        assert verify_conjecture(oracle_table(n)).overall
    verdict = verify_conjecture(oracle_table(4))
    by_mu = {claim.mu: claim for claim in verdict.claims}
    assert by_mu[P([3, 1])].holds is None  # the n = 4 exception
    assert by_mu[P([2, 1, 1])].holds is True
    assert by_mu[P([2, 2])].holds is None


def test_derangement_spectrum(oracle_table):
    assert derangement_spectrum(oracle_table(3)) == [8, -2, 2]
    assert derangement_spectrum(oracle_table(2)) == [2, -1]
    assert derangement_spectrum(oracle_table(4))[0] == 60


def test_trace_identity(oracle_table):
    for n in range(2, 7):
        table = oracle_table(n)
        for mu in table.columns:
            assert trace_identity_check(table, mu)


def test_structure_constants(oracle_table, idata):
    for n in range(2, 7):
        assert verify_structure_constants(oracle_table(n), idata(n))


def _doctored_n4_tables():
    """The n = 4 table with one cell raised by 1, for each of its 25 cells,
    built without ``_check_table`` so that the verifiers see them."""
    table = build_table_zonal(4)
    for r in range(len(table.rows)):
        for c in range(len(table.columns)):
            grid = table.grid()
            grid[r][c] += 1
            yield EigTable(4, grid, table.provenance)


def test_orthogonality(oracle_table):
    for n in range(2, 7):
        assert verify_column_orthogonality(oracle_table(n))
    doctored = list(_doctored_n4_tables())
    assert len(doctored) == 25
    for table in doctored:
        assert not verify_column_orthogonality(table)


def test_dims_sum():
    for n in range(2, DEFAULT_ZONAL_MAX_N + 1):
        width = len(generate_partitions(n))
        table = EigTable(n, [[None] * width] * width, {})
        assert sum(table.dims) == double_factorial(2 * n - 1)


def test_tables_of_one_n_share_the_frame_but_keep_their_own_lists():
    mutated = build_table_zonal(5)
    text = mutated.to_json_text()
    csv_text = mutated.to_csv_text()
    want = (list(mutated.rows), list(mutated.columns), list(mutated.dims))
    want_provenance = dict(mutated.provenance)
    other = build_table_zonal(5)
    assert other._frame is mutated._frame
    mutated.rows.reverse()
    mutated.columns.pop()
    mutated.dims[0] = 0
    mutated.provenance.clear()
    # the frame, not the table's own lists, labels and sizes every rendering
    assert mutated.to_csv_text() == csv_text
    loaded = EigTable.from_json_obj(json.loads(text))
    for table in (other, build_table_zonal(5), loaded):
        assert table._frame is mutated._frame
        assert (table.rows, table.columns, table.dims) == want
        assert table.provenance == want_provenance
        assert table.to_csv_text() == csv_text


def test_frame_cache_stays_bounded():
    # the formula builder serves 2..FORMULAS_MAX_N, the zonal one
    # 2..DEFAULT_ZONAL_MAX_N; the larger range covers both
    ns = range(2, max(FORMULAS_MAX_N, DEFAULT_ZONAL_MAX_N) + 1)
    for n in ns:
        tables._frame(n)
    info = tables._frame.cache_info()
    assert info.maxsize is not None
    assert len(ns) <= info.currsize <= info.maxsize
    # every frame is still kept: reading them all again misses none
    for n in ns:
        tables._frame(n)
    assert tables._frame.cache_info().misses == info.misses


def test_closed_forms_give_every_row_its_stratum_two_sum():
    # stratum 2 is the catalog columns [3,1^(n-3)] and [2,2,1^(n-4)], so
    # the closed forms alone hold every row to e_2 of its contents
    for n in range(6, FORMULAS_MAX_N + 1):
        table = build_table_formulas(n)
        threes = table.column(P([3] + [1] * (n - 3)))
        twos = table.column(P([2, 2] + [1] * (n - 4)))
        want = [strata[2] for strata in table._frame.strata]
        assert list(map(add, threes, twos)) == want, n


def test_json_roundtrip(oracle_table):
    for n in (3, 5):
        table = oracle_table(n)
        again = EigTable.from_json_obj(table.to_json_obj())
        assert again.to_csv_text() == table.to_csv_text()
        assert again.provenance == table.provenance
    partial = build_table_formulas(9)
    again = EigTable.from_json_obj(partial.to_json_obj())
    assert again.grid() == partial.grid()


def _n4_with_rows(order):
    """The n = 4 zonal table with its rows in the given order of labels,
    built without ``_check_table``."""
    table = build_table_zonal(4)
    grid = [table.grid()[table.rows.index(lam)] for lam in order]
    return EigTable(4, grid, table.provenance)


def test_row_assignment_ambiguity_is_hard_error(idata):
    rows = build_table_zonal(4).rows
    tables._check_characters(_n4_with_rows(rows), idata(4))
    # every other order of the same rows holds d distinct characters, so only
    # the labels can refuse it, and _check_table alone does so, at the first
    # wrong row
    for order in permutations(rows):
        if list(order) == rows:
            continue
        table = _n4_with_rows(order)
        lam = next(lam for lam, got in zip(rows, order) if lam != got)
        message = f"row {lam} has multiplicity"
        with pytest.raises(AmbiguousRowAssignment, match=re.escape(message)):
            tables._check_table(table)
        assert not verify_structure_constants(table, idata(4))


def test_row_assignment_refuses_a_wrong_flip_entry(idata, monkeypatch):
    # [2,2] and [1^4] both have dimension 14: only the strata tell them
    # apart, first the flip entry (stratum 1), and the swap keeps every
    # trace identity
    swapped = [P([4]), P([3, 1]), P([1, 1, 1, 1]), P([2, 1, 1]), P([2, 2])]
    table = _n4_with_rows(swapped)
    message = (
        "row [2,2] has multiplicity 14 and stratum 1 sum -6, but eigenspace"
        " [2,2] has dimension 14 and stratum 1 sum 2"
    )
    with pytest.raises(AmbiguousRowAssignment, match=re.escape(message)):
        tables._check_table(table)
    with pytest.raises(AmbiguousRowAssignment, match=re.escape(message)):
        tables._check_characters(table, idata(4))
    monkeypatch.setattr(tables, "_zonal_grid", lambda n: table.grid())
    with pytest.raises(AmbiguousRowAssignment):
        build_table_oracle(4, data=idata(4))


def test_character_check_refuses_a_traded_cell(idata, monkeypatch):
    # the [3,1] cells of [2,2] and [1^4] (-8 and 8): equal dimensions and
    # equal squares keep the trace identity, the multiplicities and the flip
    # entries, but not the stratum-2 sums of the two rows
    table = build_table_zonal(4)
    a, b = table.rows.index(P([2, 2])), table.rows.index(P([1, 1, 1, 1]))
    c = table.columns.index(P([3, 1]))
    grid = table.grid()
    assert (grid[a][c], grid[b][c]) == (-8, 8)
    grid[a][c], grid[b][c] = grid[b][c], grid[a][c]
    traded = EigTable(4, grid, table.provenance)
    message = (
        "row [2,2] has multiplicity 14 and stratum 2 sum 15, but eigenspace"
        " [2,2] has dimension 14 and stratum 2 sum -1"
    )
    with pytest.raises(AmbiguousRowAssignment, match=re.escape(message)):
        tables._check_table(traded)
    # the products refuse it on their own
    monkeypatch.setattr(tables, "_check_table", lambda table: None)
    with pytest.raises(SchemeError) as exc:
        tables._check_characters(traded, idata(4))
    assert type(exc.value) is SchemeError
    assert str(exc.value) == (
        "row [2,2] fails phi_i phi_j = sum_k p^k_ij phi_k at the pair"
        " ([2,1,1], [4])"
    )
    assert not verify_structure_constants(traded, idata(4))


def test_character_check_refuses_a_repeated_row_and_a_bad_identity(idata):
    table = build_table_zonal(4)
    grid = table.grid()
    grid[-1] = grid[-3]  # [1^4] repeats the [2,2] row, flip entry and all
    message = "row [1,1,1,1] has multiplicity 14 and stratum 1 sum 2"
    with pytest.raises(AmbiguousRowAssignment, match=re.escape(message)):
        tables._check_characters(EigTable(4, grid, {}), idata(4))
    grid = table.grid()
    grid[2][0] = 2
    message = "identity column must be all ones, bad at [2,2]"
    with pytest.raises(SchemeError, match=re.escape(message)):
        tables._check_characters(EigTable(4, grid, {}), idata(4))
    with pytest.raises(SchemeError, match="for n=5, not 4"):
        tables._check_characters(table, idata(5))


def test_character_check_refuses_the_doctored_n8_cache_table(idata):
    # the [2,2,1^4] cells of [4,4] and [1^8] (138 and 210), both of
    # dimension 1430, swapped: the trace identities all still hold, but the
    # multiplicity of [4,4] does not
    table = build_table_zonal(8)
    a, b = table.rows.index(P([4, 4])), table.rows.index(P([1] * 8))
    c = table.columns.index(P([2, 2, 1, 1, 1, 1]))
    grid = table.grid()
    assert (grid[a][c], grid[b][c]) == (138, 210)
    grid[a][c], grid[b][c] = grid[b][c], grid[a][c]
    doctored = EigTable(8, grid, table.provenance)
    message = "row [4,4] has multiplicity 15765750/11257 and stratum 2 sum 226"
    with pytest.raises(AmbiguousRowAssignment, match=re.escape(message)):
        tables._check_table(doctored)
    with pytest.raises(AmbiguousRowAssignment, match=re.escape(message)):
        tables._check_characters(doctored, idata(8))


def _check_every_product(table, data):
    """The reference: ``_check_table``, then phi_i phi_j = sum_k p^k_ij phi_k
    for every pair of non-identity relations i <= j."""
    tables._check_table(table)
    rels = data.relations
    pairs = [(i, j) for i in range(len(rels) - 1) for j in range(i, len(rels) - 1)]
    for lam, row in zip(table.rows, table.grid()):
        phi = row[::-1]
        for i, j in pairs:
            if phi[i] * phi[j] != sum(pk[i][j] * phi[k] for k, pk in enumerate(data.p)):
                raise SchemeError(f"row {lam} fails at the pair ({rels[i]}, {rels[j]})")


def _verdict(check, table, data):
    """None when check accepts, else the type of its refusal."""
    try:
        check(table, data)
    except SchemeError as exc:
        return type(exc)
    return None


def _doctored_tables(n):
    """Every two-cell trade within a column that changes the grid, and every
    +-1 edit of one cell, of the zonal table of n, built without
    ``_check_table``."""
    table = build_table_zonal(n)
    d = len(table.rows)
    for c in range(d):
        for a in range(d):
            for b in range(a + 1, d):
                grid = table.grid()
                if grid[a][c] != grid[b][c]:
                    grid[a][c], grid[b][c] = grid[b][c], grid[a][c]
                    yield EigTable(n, grid, {})
            for step in (1, -1):
                grid = table.grid()
                grid[a][c] += step
                yield EigTable(n, grid, {})


def test_character_check_agrees_with_every_product(idata):
    verdicts = []
    for n in (4, 5, 6):
        for table in _doctored_tables(n):
            verdict = _verdict(tables._check_characters, table, idata(n))
            assert verdict == _verdict(_check_every_product, table, idata(n))
            verdicts.append(verdict)
    # the zonal rows are the only characters in their order, so every
    # doctored table is refused
    assert len(verdicts) == 1082
    assert None not in verdicts
    for n in range(2, 9):
        table = build_table_zonal(n)
        assert _verdict(tables._check_characters, table, idata(n)) is None
        assert _verdict(_check_every_product, table, idata(n)) is None


def test_check_table_refuses_every_trade_and_every_edit():
    # the stratum sums refuse a trade within a column, which changes two
    # rows' sums in its stratum, as the multiplicity refuses a +-1 edit
    refused = 0
    for n in (4, 5, 6):
        for table in _doctored_tables(n):
            with pytest.raises(SchemeError):
                tables._check_table(table)
            refused += 1
    assert refused == 1082


def test_separating_set_is_the_flip_and_at_most_one_more_relation():
    # smallest class first: the flip, then [2,2,2] (120 matchings) at n = 6
    # and [3,1^(n-3)] (8 C(n,3)) past it
    for n in range(2, DEFAULT_ZONAL_MAX_N + 1):
        table = build_table_zonal(n)
        rels = generate_partitions(n)
        rows = [row[::-1] for row in table.grid()]
        got = [rels[g] for g in tables._separating_set(table.rows, rows)]
        flip = P([2] + [1] * (n - 2))
        if n in (2, 3, 4, 5, 7):
            assert got == [flip], n
        elif n == 6:
            assert got == [flip, P([2, 2, 2])], n
        else:
            assert got == [flip, P([3] + [1] * (n - 3))], n


def test_separating_set_refuses_two_equal_rows():
    table = build_table_zonal(4)
    rows = [row[::-1] for row in table.grid()]
    rows[-1] = rows[2]
    message = "rows [2,2] and [1,1,1,1] are equal on every relation but the identity"
    with pytest.raises(SchemeError, match=re.escape(message)):
        tables._separating_set(table.rows, rows)


def test_row_keys_are_distinct_and_give_the_flip_column():
    from pmscheme.partitions import eigenspace_dim, iter_partitions
    from pmscheme.symfunc import _flip_eigenvalue

    for n in range(2, DEFAULT_ZONAL_MAX_N + 1):
        table = build_table_zonal(n)
        keys = [(dim_hook(lam), _flip_eigenvalue(lam)) for lam in table.rows]
        assert len(set(keys)) == len(keys), n
        assert [flip for _, flip in keys] == table.column(P([2] + [1] * (n - 2)))
    # past the zonal guard, scanned without the caches: the keys stay
    # distinct through n = 22 and first coincide at n = 23
    for n in range(DEFAULT_ZONAL_MAX_N + 1, 24):
        seen = {}
        for lam in iter_partitions(n):
            seen.setdefault((eigenspace_dim(lam), _flip_eigenvalue(lam)), []).append(lam)
        shared = [lams for lams in seen.values() if len(lams) > 1]
        if n <= 22:
            assert shared == [], n
        else:
            assert shared == [[P([5, 5, 2, 2] + [1] * 9), P([3] * 6 + [2, 1, 1, 1])]]


def test_gap_scan_picks_flip_family(oracle_table):
    for n in (5, 6):
        gaps = {mu: claim.gap for mu, claim in gap_scan(oracle_table(n)).items()}
        flip = P([2] + [1] * (n - 2))
        assert gaps[flip] == 2 * n - 1
        assert min(gaps.values()) == gaps[flip]
        assert [m for m, g in gaps.items() if g == gaps[flip]] == [flip]


def test_zonal_csv_matches_goldens():
    for n in range(2, 8):
        assert build_table_zonal(n).to_csv_text() == _golden_csv(n)


def test_zonal_equals_oracle_n8(oracle_table):
    zonal, oracle = build_table_zonal(8), oracle_table(8)
    assert zonal.rows == oracle.rows
    assert zonal.grid() == oracle.grid()
    assert zonal.dims == oracle.dims


def test_zonal_beyond_oracle_is_complete_and_orthogonal():
    for n in (9, 11):
        table = build_table_zonal(n)
        assert table.is_complete()
        assert table.provenance == {mu: "zonal" for mu in table.columns}
        assert verify_column_orthogonality(table)
        assert verify_conjecture(table).overall


def test_zonal_guard_refuses_before_any_work(monkeypatch):
    from pmscheme import tables

    def fail(n):
        raise AssertionError("the zonal algebra ran past the guard")

    monkeypatch.setattr(tables, "zonal_rows", fail)
    with pytest.raises(GuardExceeded):
        build_table_zonal(DEFAULT_ZONAL_MAX_N + 1)
    with pytest.raises(GuardExceeded):
        build_table_zonal(1)


def test_formulas_guard_refuses_before_any_work(monkeypatch):
    from pmscheme import tables

    def fail(n):
        raise AssertionError("the closed-form grid was built past the guard")

    monkeypatch.setattr(tables, "generate_partitions", fail)
    with pytest.raises(GuardExceeded, match=f"n <= {FORMULAS_MAX_N} "):
        build_table_formulas(FORMULAS_MAX_N + 1)


_DOCTORED_CHECK = """
from pmscheme import EigTable
from pmscheme.errors import SchemeError
from pmscheme.tables import _check_table, build_table_zonal

# the [3,1] cell of row [2,2], sign flipped, and its [4] cell unfilled:
# the row keys skip the incomplete row, so only the trace identity of the
# complete column [3,1] refuses it
grid = build_table_zonal(4).grid()
grid[2][3] = -grid[2][3]
grid[2][-1] = None
try:
    _check_table(EigTable(4, grid, {}))
except SchemeError as exc:
    print("refused:", exc)
else:
    print("accepted")
"""


def test_check_table_refuses_under_python_O():
    # python -O strips assert statements; the table checks must still refuse.
    src = os.path.join(os.path.dirname(HERE), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", _DOCTORED_CHECK],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("refused: trace identity fails at [3,1]")


_FORMULA_CLASH = """
from pmscheme import Partition, build_table_formulas, e_catalog, tables
from pmscheme.errors import SchemeError

# the [2] family gets the [3] expression, which disagrees with the top rows
tables.e_catalog = lambda prefix: e_catalog(
    Partition([3]) if prefix == Partition([2]) else prefix
)
try:
    build_table_formulas(5)
except SchemeError as exc:
    print("refused:", exc)
else:
    print("accepted")
"""


def test_formula_clash_refused_under_python_O():
    # a catalog expression disagreeing with a filled cell must not overwrite
    # it, also when asserts are stripped
    src = os.path.join(os.path.dirname(HERE), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", _FORMULA_CLASH],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("refused: formula clash at ([5], [2,1,1,1])")


def test_intersection_matrix_matches_brute_force(idata):
    for n in range(2, 7):
        table = build_table_zonal(n)
        data = idata(n)
        for j, mu in enumerate(data.relations):
            assert intersection_matrix(table, mu) == data.b_matrix(j), (n, mu)


def test_relation_queries_refuse_a_partial_table():
    # the queries read the grid in place, so each must refuse the gaps
    # itself, worded as EigTable.column words them
    table = build_table_formulas(9)
    flip = P([2] + [1] * 7)
    assert table.has_column(flip) and not table.is_complete()
    with pytest.raises(IncompleteTable, match=r"^column \[2,2,2,1,1,1\] is not"):
        diameter(table, flip)
    with pytest.raises(IncompleteTable, match=r"^column \[9\] is not fully"):
        intersection_matrix(table, flip)
    with pytest.raises(IncompleteTable, match=r"^column \[3,2,2,2\] is not"):
        derangement_spectrum(table)
    for claims in (verify_conjecture, gap_scan):
        with pytest.raises(IncompleteTable, match=r"^column \[2,2,2,1,1,1\] is not"):
            claims(table)
    assert verify_column_orthogonality(table) is False


def test_intersection_matrix_refuses_a_changed_cell():
    for table in _doctored_n4_tables():
        with pytest.raises(SchemeError):
            intersection_matrix(table, P([2, 1, 1]))
        with pytest.raises(SchemeError):
            diameter(table, P([2, 1, 1]))
    # a top-row cell of 0 is a valency of 0: refused, not a division by zero
    grid = build_table_zonal(4).grid()
    grid[0][0] = 0
    zero = EigTable(4, grid, {})
    with pytest.raises(SchemeError):
        diameter(zero, P([2, 1, 1]))
    assert not verify_column_orthogonality(zero)
