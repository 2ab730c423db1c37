"""Checks that carry verdicts raise SchemeError; none is a bare assert.

``python -O`` strips assert statements, so a verdict resting on one would
silently pass there.
"""

import ast
import glob
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def test_no_assert_in_oracle_modules():
    paths = sorted(glob.glob(os.path.join(SRC, "pmscheme", "*.py")))
    names = {os.path.basename(path) for path in paths}
    assert {"exactalg.py", "matchings.py", "spectra.py", "tables.py"} <= names
    for path in paths:
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{path} has assert statements at lines {lines}"


_DOCTORED_VERDICTS = """
from fractions import Fraction

from pmscheme import Partition, matchings, partitions, spectra, tables
from pmscheme.errors import SchemeError
from pmscheme.exactalg import charpoly

P = Partition
real_representative = matchings.representative
data4 = matchings.intersection_numbers(4)
# the n = 4 zonal grid with one cell of [2,2] and [1^4] (both of dimension
# 14) traded in column [3,1]: every trace identity still holds
grid4 = tables.build_table_zonal(4).grid()
grid4[2][3], grid4[4][3] = grid4[4][3], grid4[2][3]
# the same grid in relation order with row [1^4] a copy of row [2,2]
twins4 = [row[::-1] for row in grid4]
twins4[4] = twins4[2]


def wrong_representative(mu):
    return real_representative(P([1] * mu.n) if mu.parts[0] > 1 else P([mu.n]))


def doctored_dim_hook(lam):
    # the hook length formula with (2n)! read as 1, which no hook product
    # above 1 divides
    real = partitions.factorial
    partitions.factorial = lambda m: 1
    try:
        return partitions.dim_hook(lam)
    finally:
        partitions.factorial = real


cases = [
    ("charpoly", lambda: charpoly([[Fraction(1, 2)]])),
    ("representative", lambda: matchings.intersection_numbers(3)),
    ("dim_hook", lambda: doctored_dim_hook(P([5, 3]))),
    ("family_second_eig", lambda: spectra.family_second_eig(P([2]), 9)),
    ("gap_report", lambda: spectra.GapReport(4, P([2, 1, 1]), 12, 5, 8, "t")),
    ("hook_gap", lambda: spectra.hook_gap(5, 2)),
    ("separating_set", lambda: tables._separating_set(data4.relations, twins4)),
    # a flip column whose top cell is not the valency 12
    ("column_claim", lambda: tables.column_claim(P([2, 1, 1]), [13, 5, 2, 0, -3])),
    ("oracle_check", lambda: tables.build_table_oracle(4, data=data4)),
]
matchings.representative = wrong_representative
spectra.phi_n11 = lambda mu: 0
tables._zonal_grid = lambda n: grid4
# the row strata refuse the trade first; without them a product refuses it
tables._check_table = lambda table: None
for name, call in cases:
    try:
        call()
    except SchemeError as exc:
        print(f"{name}: refused: {exc}")
    else:
        print(f"{name}: accepted")
"""


def test_verdicts_refuse_under_python_O():
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-O", "-c", _DOCTORED_VERDICTS],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "charpoly",
        "representative",
        "dim_hook",
        "family_second_eig",
        "gap_report",
        "hook_gap",
        "separating_set",
        "column_claim",
        "oracle_check",
    ]
    assert all(": refused: " in line for line in lines), lines
    assert "row [2,2] fails phi_i phi_j" in lines[-1], lines[-1]
