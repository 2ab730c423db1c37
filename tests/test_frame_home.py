"""The facts of n alone have one home in ``tables``: only the frame's
builder ``_frame`` calls (or passes on) the functions that compute them, so
every table, check and rendering reads them from the shared frame."""

import ast
import os

import pmscheme

TABLES = os.path.join(os.path.dirname(os.path.abspath(pmscheme.__file__)), "tables.py")
PER_N = {
    "valency",
    "double_factorial",
    "dim_hook",
    "_content_strata",
    "conjecture_applies",
}


def _uses(node: ast.AST) -> list[tuple[str, int]]:
    """Each reference to a PER_N function under node, by name or attribute."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in PER_N:
            out.append((sub.id, sub.lineno))
        elif isinstance(sub, ast.Attribute) and sub.attr in PER_N:
            out.append((sub.attr, sub.lineno))
    return out


def test_only_the_frame_builder_derives_per_n_facts():
    with open(TABLES) as fh:
        tree = ast.parse(fh.read())
    (builder,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_frame"
    ]
    assert {name for name, _ in _uses(builder)} == PER_N
    elsewhere = [
        use for node in tree.body if node is not builder for use in _uses(node)
    ]
    assert elsewhere == []
