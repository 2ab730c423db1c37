"""Every size limit is checked and worded in one place, ``errors.guard``:
no other module names ``int_text`` or holds the refusal text "guarded to",
not even inside an f-string or a docstring."""

import ast
import os

import pmscheme

PACKAGE = os.path.dirname(os.path.abspath(pmscheme.__file__))


def _guard_wording(source: str) -> list[str]:
    """Each use of ``int_text`` (as a name, an attribute or an import) and
    each string constant holding "guarded to", in source order."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "int_text":
            out.append(f"line {node.lineno}: int_text")
        elif isinstance(node, ast.Attribute) and node.attr == "int_text":
            out.append(f"line {node.lineno}: int_text")
        elif isinstance(node, ast.ImportFrom):
            if any(alias.name == "int_text" for alias in node.names):
                out.append(f"line {node.lineno}: import int_text")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if "guarded to" in node.value:
                out.append(f"line {node.lineno}: 'guarded to'")
    return out


def test_scan_sees_every_form():
    cases = {
        "x = int_text(n)": 1,
        "x = errors.int_text(n)": 1,
        "from .errors import int_text as t": 1,
        'raise E(f"table guarded to n <= {hi}")': 1,
        'def f():\n    """Refuses what is guarded to n <= 8."""': 1,
        "from .errors import guard\nguard('table', n, 8)": 0,
    }
    for source, want in cases.items():
        assert len(_guard_wording(source)) == want, source


def test_only_errors_words_a_guard():
    found = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py") and name != "errors.py":
            with open(os.path.join(PACKAGE, name)) as fh:
                if hits := _guard_wording(fh.read()):
                    found[name] = hits
    assert found == {}
