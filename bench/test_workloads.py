"""Checks of the benchmark's output checker, at tiny sizes.

    python3 -m pytest bench -q
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

import workloads  # noqa: E402
from pmscheme import Partition, matchings, tables  # noqa: E402


def with_output(op, edit):
    """The same op with its program output passed through ``edit``."""
    call = op.call
    return workloads.Op(op.label, lambda: edit(call()), op.check, op.known_defect)


def bump_first_cell(out):
    rc, text = out
    lines = text.splitlines(keepends=True)
    cells = lines[1].split(",")
    cells[1] = str(int(cells[1]) + 1)
    lines[1] = ",".join(cells)
    return rc, "".join(lines)


def bump_table_cell(table):
    obj = table.to_json_obj()
    obj["values"][1][1] += 1
    return tables.EigTable.from_json_obj(obj)


@pytest.fixture(scope="module")
def data3():
    return matchings.intersection_numbers(3)


@pytest.fixture
def ops(tmp_path, data3):
    goldens = workloads.load_goldens()
    return [
        workloads.table_csv_op(goldens[3], tmp_path),
        workloads.assembly_op(goldens[3], 5, data3),
        workloads.fit_op((2,), 2, 4, tmp_path),
        workloads.diameter_op(Partition((2, 1)), data3),
    ]


def test_reference_outputs_pass(ops):
    result = workloads.run_ops(ops)
    assert result.failed == []
    assert len(result.latencies) == len(ops)


def test_each_corruption_counts_as_a_failed_op(ops):
    edits = [
        bump_first_cell,
        bump_table_cell,
        lambda out: (out[0], out[1].replace("p[1]", "p[2]")),
        lambda out: (out[0], f"{int(out[1]) + 1}\n"),
    ]
    corrupted = [with_output(op, edit) for op, edit in zip(ops, edits)]
    result = workloads.run_ops(corrupted)
    assert result.failed == [op.label for op in ops]
    assert result.unexpected == result.failed


def test_known_defect_fails_but_only_its_documented_output_is_expected(tmp_path):
    goldens = workloads.load_goldens()
    op = workloads.gap_op("[3,1]", goldens[4].gaps()["[3,1]"], tmp_path)
    assert op.check((0, "24\n"))
    result = workloads.run_ops([op, with_output(op, lambda out: (0, "27\n"))])
    assert result.failed == [op.label, op.label]
    assert result.unexpected == [op.label]


def test_crashing_op_is_a_failed_op():
    def boom():
        raise RuntimeError("crash")

    op = workloads.Op("boom", boom, lambda out: True)
    result = workloads.run_ops([op])
    assert result.failed == ["boom"] and result.unexpected == ["boom"]
