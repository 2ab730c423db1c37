import os
import subprocess
import sys

import pytest

from pmscheme import (
    DEFAULT_ZONAL_MAX_N,
    EigTable,
    Partition,
    build_table_formulas,
    build_table_oracle,
    build_table_zonal,
    derangement_spectrum,
    double_factorial,
    gap_scan,
    generate_partitions,
    second_largest,
    second_largest_abs,
    trace_identity_check,
    valency,
    verify_column_orthogonality,
    verify_conjecture,
    verify_structure_constants,
)
from pmscheme.errors import GuardExceeded, IncompleteTable

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


def test_oracle_csv_bytes(oracle_table):
    for n in range(2, 6):
        assert oracle_table(n).to_csv_text() == _golden_csv(n)


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


def test_route_equivalence(oracle_table):
    for n in range(2, 7):
        formulas = build_table_formulas(n)
        oracle = oracle_table(n)
        for lam in formulas.rows:
            for mu in formulas.columns:
                v = formulas.value(lam, mu)
                if v is not None:
                    assert v == oracle.value(lam, mu)


def test_second_largest_examples(oracle_table):
    assert second_largest(oracle_table(6), P([2, 2, 2])) == (
        30,
        [P([4, 2]), P([2, 2, 2])],
    )
    assert second_largest(oracle_table(5), P([2, 1, 1, 1])) == (11, [P([4, 1])])
    assert second_largest(oracle_table(4), P([3, 1])) == (8, [P([1, 1, 1, 1])])


def test_second_largest_abs_examples(oracle_table):
    value, rows = second_largest_abs(oracle_table(7), P([7]))
    assert value == 3840 and rows == [P([6, 1])]
    value, rows = second_largest_abs(oracle_table(6), P([3, 2, 1]))
    assert value == 120 and P([3, 3]) in rows
    value, rows = second_largest_abs(oracle_table(5), P([5]))
    assert value == 48 and rows == [P([4, 1])]


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
            assert trace_identity_check(n, mu, table)


def test_structure_constants(oracle_table, idata):
    for n in range(2, 7):
        assert verify_structure_constants(oracle_table(n), idata(n))


def test_orthogonality(oracle_table):
    for n in range(2, 7):
        assert verify_column_orthogonality(oracle_table(n))


def test_dims_sum(oracle_table):
    for n in range(2, 7):
        assert sum(oracle_table(n).dims) == double_factorial(2 * n - 1)


def test_json_roundtrip(oracle_table):
    for n in (3, 5):
        table = oracle_table(n)
        again = EigTable.from_json_obj(table.to_json_obj())
        assert again.to_csv_text() == table.to_csv_text()
        assert again.provenance == table.provenance
    partial = build_table_formulas(9)
    again = EigTable.from_json_obj(partial.to_json_obj())
    assert again.grid() == partial.grid()


def test_row_assignment_ambiguity_is_hard_error():
    from pmscheme.errors import AmbiguousRowAssignment
    from pmscheme.tables import _assign_rows

    rels = list(generate_partitions(2))
    # a multiplicity matching no eigenspace dimension of n = 2
    with pytest.raises(AmbiguousRowAssignment) as exc:
        _assign_rows(2, rels, [([1, 2], 7)])
    assert exc.value.candidates == ()
    # two rows claiming the same eigenspace index
    with pytest.raises(AmbiguousRowAssignment):
        _assign_rows(2, rels, [([1, 2], 1), ([1, 2], 1)])


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
    with pytest.raises(GuardExceeded):
        build_table_zonal(5, max_n=4)


_DOCTORED_CHECK = """
from pmscheme import EigTable, Partition
from pmscheme.errors import SchemeError
from pmscheme.tables import _check_table

P = Partition
values = {
    (P([2]), P([1, 1])): 1, (P([2]), P([2])): 2,
    (P([1, 1]), P([1, 1])): 1, (P([1, 1]), P([2])): 5,
}
try:
    _check_table(EigTable(2, values, {}))
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
