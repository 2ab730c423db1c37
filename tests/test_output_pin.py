"""The claim commands' output, pinned byte for byte: one sha256 over the
stdout, stderr and exit code of ``verify conjecture`` (text and --json) and
``scan`` for n = 2..14, ``scan --with-diameters`` for n = 2..8 and
``gap --mu mu --verbose`` for every mu of n <= 10, and another over
``verify ratios`` (text and --json) for n = -1..20 and 31, refusals
included, and a third over the oracle route, ``table --source oracle``
(--format csv and json) and ``verify scheme-axioms`` (text and --json) for
n = 2..8; each command runs in process against a fresh cache directory."""

import hashlib

from pmscheme import generate_partitions
from pmscheme.cli import main

PINNED = "bad9a7fa35bcd9e53f8b1c8b5f983d0e244add4028c5e31e3d01e5029ffe423d"
RATIOS_PINNED = "ac087330d02c35a4cb22d44221ae1df823e1676f69bf9c7cd368f4fb9e4d0e73"
ORACLE_PINNED = "0c71282dfbf95b3e80028bf5918fbc4be194f0e68de8c8acef209131ba49ddc1"


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


def _ratio_commands():
    for n in [*range(-1, 21), 31]:
        yield ["verify", "ratios", "--n", str(n)]
        yield ["verify", "ratios", "--n", str(n), "--json"]


def _oracle_commands():
    for n in range(2, 9):
        for fmt in ("csv", "json"):
            yield ["table", "--n", str(n), "--source", "oracle", "--format", fmt]
        yield ["verify", "scheme-axioms", "--n", str(n)]
        yield ["verify", "scheme-axioms", "--n", str(n), "--json"]


def _digest(commands, data_dir, capsys) -> str:
    digest = hashlib.sha256()
    for argv in commands:
        code = main(["--data-dir", str(data_dir), *argv])
        out = capsys.readouterr()
        digest.update(repr((argv, code, out.out, out.err)).encode())
    return digest.hexdigest()


def test_claim_outputs_are_pinned(tmp_path, capsys):
    assert _digest(_commands(), tmp_path, capsys) == PINNED


def test_ratio_outputs_are_pinned(tmp_path, capsys):
    assert _digest(_ratio_commands(), tmp_path, capsys) == RATIOS_PINNED


def test_oracle_outputs_are_pinned(tmp_path, capsys):
    assert _digest(_oracle_commands(), tmp_path, capsys) == ORACLE_PINNED
