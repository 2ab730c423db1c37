"""The claim commands' output, pinned byte for byte: one sha256 over the
stdout, stderr and exit code of ``verify conjecture`` (text and --json) and
``scan`` for n = 2..14, ``scan --with-diameters`` for n = 2..8 and
``gap --mu mu --verbose`` for every mu of n <= 10, each run in process
against a fresh cache directory."""

import hashlib

from pmscheme import generate_partitions
from pmscheme.cli import main

PINNED = "bad9a7fa35bcd9e53f8b1c8b5f983d0e244add4028c5e31e3d01e5029ffe423d"


def _commands():
    for n in range(2, 15):
        yield ["verify", "conjecture", "--n", str(n)]
        yield ["verify", "conjecture", "--n", str(n), "--json"]
        yield ["scan", "--n", str(n)]
    for n in range(2, 9):
        yield ["scan", "--n", str(n), "--with-diameters"]
    for n in range(2, 11):
        for mu in generate_partitions(n):
            yield ["gap", "--mu", str(mu), "--verbose"]


def test_claim_outputs_are_pinned(tmp_path, capsys):
    digest = hashlib.sha256()
    for argv in _commands():
        code = main(["--data-dir", str(tmp_path), *argv])
        out = capsys.readouterr()
        digest.update(repr((argv, code, out.out, out.err)).encode())
    assert digest.hexdigest() == PINNED
