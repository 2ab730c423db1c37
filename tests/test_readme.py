"""The README's library quick start runs, and gives the values its comments
state."""

import ast
import os
import re

README = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md"
)

# expression statement of the quick start -> the value its comment states
STATED = {
    "verify_conjecture(table).overall": True,
    "build_table_oracle(5).grid() == table.grid()": True,
    "valency(mu), phi_n11(mu)": (20, 11),
    "column_claim(mu, table.column(mu)).gap": 9,
    "family_second_eig(Partition([2]), 5)": (11, 9),
    "hook_gap(5, 2)": 54,
    "diameter(table, Partition([2, 1, 1, 1])).diameter": 4,
    "fit_e_mu(Partition([3, 2]), cols) == e_catalog(Partition([3, 2]))": True,
}


def _quick_start() -> str:
    with open(README) as fh:
        text = fh.read()
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_values(capsys):
    source = _quick_start()
    namespace: dict = {}
    values = {}
    for stmt in ast.parse(source).body:
        segment = ast.get_source_segment(source, stmt)
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README", "eval")
            values[segment] = eval(code, namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    assert "lam\\mu" in capsys.readouterr().out  # the printed table
    assert {k: values.get(k) for k in STATED} == STATED
