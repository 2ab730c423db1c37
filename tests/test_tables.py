import os
import re
import subprocess
import sys
from itertools import permutations

import pytest

from pmscheme import (
    DEFAULT_ZONAL_MAX_N,
    FORMULAS_MAX_N,
    EigTable,
    Partition,
    build_table_formulas,
    build_table_oracle,
    build_table_zonal,
    derangement_spectrum,
    diameter,
    dim_hook,
    double_factorial,
    gap_scan,
    generate_partitions,
    intersection_matrix,
    second_largest,
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
    for bad in ({P([9]): "zonal"}, {P([3]): 5}, {P([2, 1]): "made-up"}):
        with pytest.raises(SchemeError, match="bad provenance"):
            EigTable(3, grid, bad)
    obj = build_table_zonal(3).to_json_obj()
    obj["provenance"] = {"[9]": "zonal", "[3]": 5, "[2,1]": "made-up"}
    with pytest.raises(SchemeError, match="bad provenance"):
        EigTable.from_json_obj(obj)


def test_route_equivalence(oracle_table):
    # the closed-form cells (identity column, rows [n] and [n-1,1], catalog
    # columns) check the oracle up to n = 6 and the zonal engine up to 14
    for n in range(2, DEFAULT_ZONAL_MAX_N + 1):
        formulas = build_table_formulas(n)
        routes = [build_table_zonal(n)] + ([oracle_table(n)] if n <= 6 else [])
        for lam in formulas.rows:
            for mu in formulas.columns:
                v = formulas.value(lam, mu)
                if v is not None:
                    for table in routes:
                        assert v == table.value(lam, mu), (n, lam, mu)


def test_second_largest_examples(oracle_table):
    assert second_largest(oracle_table(6), P([2, 2, 2])) == (
        30,
        [P([4, 2]), P([2, 2, 2])],
    )
    assert second_largest(oracle_table(5), P([2, 1, 1, 1])) == (11, [P([4, 1])])
    assert second_largest(oracle_table(4), P([3, 1])) == (8, [P([1, 1, 1, 1])])
    # gap 12 - 7 = 5, as `gap --mu [2,2]` reads it off the table
    assert second_largest(oracle_table(4), P([2, 2])) == (7, [P([2, 2])])


def test_verify_conjecture(oracle_table):
    for n in range(4, 7):
        assert verify_conjecture(oracle_table(n)).overall
    verdict = verify_conjecture(oracle_table(4))
    by_mu = {entry["mu"]: entry for entry in verdict.per_column}
    assert not by_mu[P([3, 1])]["applicable"]  # the n = 4 exception
    assert by_mu[P([2, 1, 1])]["applicable"]
    assert by_mu[P([2, 2])]["applicable"] is False


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
    # the labels can refuse it
    for order in permutations(rows):
        if list(order) == rows:
            continue
        table = _n4_with_rows(order)
        with pytest.raises(AmbiguousRowAssignment) as exc:
            tables._check_characters(table, idata(4))
        lam = next(lam for lam, got in zip(rows, order) if lam != got)
        assert exc.value.candidates == (lam,)
        assert f"row {lam} has multiplicity" in str(exc.value)
        assert not verify_structure_constants(table, idata(4))


def test_row_assignment_refuses_a_wrong_flip_entry(idata, monkeypatch):
    # [2,2] and [1^4] both have dimension 14: only the flip entry tells them
    # apart, and the swap keeps every trace identity
    swapped = [P([4]), P([3, 1]), P([1, 1, 1, 1]), P([2, 1, 1]), P([2, 2])]
    table = _n4_with_rows(swapped)
    tables._check_table(table)
    message = (
        "row [2,2] has multiplicity 14 and flip entry -6, but eigenspace [2,2]"
        " has dimension 14 and flip eigenvalue 2"
    )
    with pytest.raises(AmbiguousRowAssignment, match=re.escape(message)):
        tables._check_characters(table, idata(4))
    monkeypatch.setattr(tables, "_zonal_grid", lambda n: table.grid())
    with pytest.raises(AmbiguousRowAssignment):
        build_table_oracle(4, data=idata(4))


def test_character_check_refuses_a_traded_cell(idata):
    table = build_table_zonal(4)
    a, b = table.rows.index(P([2, 2])), table.rows.index(P([1, 1, 1, 1]))
    c = table.columns.index(P([4]))
    grid = table.grid()
    grid[a][c], grid[b][c] = grid[b][c], grid[a][c]
    traded = EigTable(4, grid, table.provenance)
    tables._check_table(traded)  # equal dimensions keep the trace identity
    with pytest.raises(SchemeError) as exc:
        tables._check_characters(traded, idata(4))
    assert type(exc.value) is SchemeError
    assert str(exc.value) == (
        "row [2,2] fails phi_i phi_j = sum_k p^k_ij phi_k at the pair ([4], [4])"
    )
    assert not verify_structure_constants(traded, idata(4))


def test_character_check_refuses_a_repeated_row_and_a_bad_identity(idata):
    table = build_table_zonal(4)
    grid = table.grid()
    grid[-1] = grid[-3]  # [1^4] repeats the [2,2] row
    with pytest.raises(SchemeError, match=re.escape("row [1,1,1,1] repeats")):
        tables._check_characters(EigTable(4, grid, {}), idata(4))
    grid = table.grid()
    grid[2][0] = 2
    with pytest.raises(SchemeError, match=re.escape("row [2,2] is not 1 at")):
        tables._check_characters(EigTable(4, grid, {}), idata(4))
    with pytest.raises(SchemeError, match="for n=5, not 4"):
        tables._check_characters(table, idata(5))


def test_character_check_refuses_the_doctored_n8_cache_table(idata):
    # the [2,2,1^4] cells of [4,4] and [1^8] (138 and 210), both of
    # dimension 1430, swapped: the trace identities all still hold
    table = build_table_zonal(8)
    a, b = table.rows.index(P([4, 4])), table.rows.index(P([1] * 8))
    c = table.columns.index(P([2, 2, 1, 1, 1, 1]))
    grid = table.grid()
    assert (grid[a][c], grid[b][c]) == (138, 210)
    grid[a][c], grid[b][c] = grid[b][c], grid[a][c]
    doctored = EigTable(8, grid, table.provenance)
    tables._check_table(doctored)
    message = "row [4,4] fails phi_i phi_j = sum_k p^k_ij phi_k at the pair ([8], [8])"
    with pytest.raises(SchemeError, match=re.escape(message)):
        tables._check_characters(doctored, idata(8))


def test_row_keys_are_distinct_and_give_the_flip_column():
    from pmscheme.tables import _flip_eigenvalue

    for n in range(2, DEFAULT_ZONAL_MAX_N + 1):
        table = build_table_zonal(n)
        keys = [(dim_hook(lam), _flip_eigenvalue(lam)) for lam in table.rows]
        assert len(set(keys)) == len(keys), n
        assert [flip for _, flip in keys] == table.column(P([2] + [1] * (n - 2)))


def test_gap_scan_picks_flip_family(oracle_table):
    for n in (5, 6):
        gaps = gap_scan(oracle_table(n))
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

    monkeypatch.setattr(tables, "zonal_power_sums", fail)
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
from pmscheme.tables import _check_table

# rows [2], [1,1]; columns [1,1], [2]
grid = [[1, 2], [1, 5]]
try:
    _check_table(EigTable(2, grid, {}))
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
    assert done.stdout.startswith("refused: trace identity fails at [2]")


_FORMULA_CLASH = """
from pmscheme import Partition, build_table_formulas, e_catalog
from pmscheme.errors import SchemeError

try:
    build_table_formulas(5, extra={Partition([2]): e_catalog(Partition([3]))})
except SchemeError as exc:
    print("refused:", exc)
else:
    print("accepted")
"""


def test_formula_clash_refused_under_python_O():
    # an extra expression disagreeing with a catalog column must not
    # overwrite it, also when asserts are stripped
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
