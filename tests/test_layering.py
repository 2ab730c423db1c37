"""Module layering: the closed-form layers never reach up into the table
layer or the command line, not even through an import inside a function."""

import ast
import os

import pmscheme

PACKAGE = os.path.dirname(os.path.abspath(pmscheme.__file__))
LOWER = ("partitions", "exactalg", "matchings", "symfunc", "spectra", "ratios")
UPPER = {"tables", "cli"}


def _imported_modules(source: str) -> set[str]:
    """Every pmscheme module the source imports, by ``import`` or
    ``from ... import`` at any depth."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "pmscheme":
                    out.update(parts[1:2])
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "pmscheme":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                out.add(parts[0])
            else:  # from . import x, or from pmscheme import x
                out.update(alias.name for alias in node.names)
    return out


def test_scan_sees_every_import_form():
    cases = {
        "import pmscheme.tables": {"tables"},
        "from . import tables": {"tables"},
        "from .tables import second_largest": {"tables"},
        "from pmscheme import cli": {"cli"},
        "from pmscheme.cli import main": {"cli"},
        "def f():\n    from .tables import gap_scan": {"tables"},
        "from fractions import Fraction": set(),
    }
    for source, want in cases.items():
        assert _imported_modules(source) == want, source


def test_lower_layers_never_import_tables_or_cli():
    reached = {}
    for name in LOWER:
        with open(os.path.join(PACKAGE, f"{name}.py")) as fh:
            reached[name] = _imported_modules(fh.read()) & UPPER
    assert reached == {name: set() for name in LOWER}
