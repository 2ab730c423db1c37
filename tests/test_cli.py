import json
import os

import pytest

from pmscheme import DEFAULT_ZONAL_MAX_N, __version__
from pmscheme.cli import main


@pytest.fixture()
def run(tmp_path, capsys):
    data_dir = str(tmp_path / "cache")

    def invoke(*argv):
        code = main(["--data-dir", data_dir, *argv])
        out = capsys.readouterr()
        return code, out.out, out.err

    invoke.data_dir = data_dir
    return invoke


def _golden(n):
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "golden", f"table_n{n}.csv")) as fh:
        return fh.read()


def test_table_pretty_n2(run):
    code, out, _ = run("table", "--n", "2", "--format", "pretty")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["lam\\mu", "[1,1]", "[2]", "Dim"]
    assert lines[1].split() == ["[2]", "1", "2", "1"]
    assert lines[2].split() == ["[1,1]", "1", "-1", "2"]


def test_table_csv_matches_golden(run):
    code, out, _ = run("table", "--n", "5", "--format", "csv")
    assert code == 0
    assert out == _golden(5)


def test_table_out_file_and_cache_reuse(run, tmp_path):
    target = tmp_path / "t4.csv"
    code, _, _ = run("table", "--n", "4", "--format", "csv", "--out", str(target))
    assert code == 0
    first = target.read_text()
    assert first == _golden(4)
    cache_files = os.listdir(run.data_dir)
    assert any(f.startswith("table_n4") for f in cache_files)
    # second run hits the cache and emits identical bytes
    code, out, _ = run("table", "--n", "4", "--format", "csv")
    assert code == 0 and out == first


def test_table_guard_exit_2(run):
    code, _, err = run("table", "--n", "12", "--source", "oracle")
    assert code == 2
    assert "guard" in err


def test_table_formulas_partial_note(run):
    code, out, err = run("table", "--n", "9", "--source", "formulas", "--format", "json")
    assert code == 0
    assert "partial" in err
    payload = json.loads(out)
    assert payload["n"] == 9
    assert payload["provenance"]["[2,1,1,1,1,1,1,1]"] == "closed-form"


def test_verify_conjecture(run):
    code, out, _ = run("verify", "conjecture", "--n", "5")
    assert code == 0
    assert "PASS" in out
    code, out, _ = run("verify", "conjecture", "--n", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["overall"] is True


def test_verify_trace(run):
    code, out, _ = run("verify", "trace", "--n", "4")
    assert code == 0 and "PASS" in out


def test_verify_induction(run):
    code, out, _ = run("verify", "induction", "--family", "3,2", "--n", "15")
    assert code == 0 and "PASS" in out
    code, _, err = run("verify", "induction", "--n", "15")
    assert code == 2


def test_verify_ratios_notes_discrepancy(run):
    code, out, _ = run("verify", "ratios", "--n", "5")
    assert code == 0
    assert "PASS" in out and "NOTE" in out


def test_verify_scheme_axioms(run):
    code, out, _ = run("verify", "scheme-axioms", "--n", "4")
    assert code == 0 and "PASS" in out


def test_gap_command(run):
    code, out, _ = run("gap", "--mu", "[2,1^4]", "--n", "6")
    assert code == 0 and out.strip() == "11"
    # hook head outside the catalog: 13*10*8*6*4, equal to 26880 - 1920
    code, out, _ = run("gap", "--mu", "[6,1]")
    assert code == 0 and out.strip() == "24960"
    code, _, err = run("gap", "--mu", "[2,1")
    assert code == 2
    code, _, err = run("gap", "--mu", "[2,1^4]", "--n", "7")
    assert code == 2 and "disagrees" in err


def test_diameter_command(run):
    code, out, _ = run("diameter", "--mu", "[2,1^3]")
    assert code == 0 and out.strip() == "4"
    code, out, _ = run("diameter", "--mu", "[1^4]")
    assert code == 0 and out.startswith("disconnected")
    code, _, err = run("diameter", "--mu", "[2,1^9]")
    assert code == 2


def test_fit_command(run):
    code, out, _ = run("fit", "--prefix", "2", "--n-range", "3:4")
    assert code == 0
    assert out.strip() == "(1/2)*p[1] + (-1/4*t)*p[]"
    code, _, err = run("fit", "--prefix", "2", "--n-range", "4")
    assert code == 2


def test_scan_command(run):
    code, out, _ = run("scan", "--n", "5")
    assert code == 0
    assert "smallest gap: [2,1,1,1] (9)" in out


def test_scan_with_diameters(run):
    code, out, _ = run("scan", "--n", "4", "--with-diameters")
    assert code == 0
    assert "largest diameter: [2,1,1], [2,2] (3)" in out
    code, out, _ = run("scan", "--n", "5", "--with-diameters")
    assert code == 0
    assert "largest diameter: [2,1,1,1] (4)" in out


def test_byte_identical_runs(run):
    code1, out1, _ = run("table", "--n", "3", "--format", "json")
    code2, out2, _ = run("table", "--n", "3", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_conjecture_failure_exits_1(run, monkeypatch):
    # a doctored 3-partition table whose [2,1] column peaks off [2,1]
    from pmscheme import EigTable, Partition
    from pmscheme import cli as climod

    P = Partition
    values = {}
    fake_rows = {
        P([3]): [1, 6, 8],
        P([2, 1]): [1, -3, -2],  # swapped with the bottom row
        P([1, 1, 1]): [1, 1, 2],
    }
    for lam, row in fake_rows.items():
        for mu, v in zip([P([1, 1, 1]), P([2, 1]), P([3])], row):
            values[(lam, mu)] = v
    doctored = EigTable(3, values, {})
    monkeypatch.setattr(climod, "oracle_table_cached", lambda cfg, n: doctored)
    code = main(["verify", "conjecture", "--n", "3"])
    assert code == 1


def test_ambiguity_exits_3(run, monkeypatch):
    from pmscheme import cli as climod
    from pmscheme.errors import AmbiguousRowAssignment

    def boom(*a, **k):
        raise AmbiguousRowAssignment("synthetic tie", candidates=())

    monkeypatch.setattr(climod, "_build_table", boom)
    code, _, err = run("table", "--n", "4")
    assert code == 3 and "synthetic tie" in err


def test_bad_guard_config_exits_2(capsys):
    code = main(["--max-oracle-n", "1", "table", "--n", "2"])
    assert code == 2
    assert "guards" in capsys.readouterr().err


def test_env_guard_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PMSCHEME_MAX_ORACLE_N", "3")
    monkeypatch.setenv("PMSCHEME_DATA_DIR", str(tmp_path / "c2"))
    code = main(["table", "--n", "4", "--source", "oracle"])
    err = capsys.readouterr().err
    assert code == 2 and "guard" in err


def test_gap_hook_exception_reads_the_table(run):
    # n = 4 is the conjecture's exception: the hook product would say 28
    code, out, err = run("gap", "--mu", "[3,1]", "--verbose")
    assert code == 0 and out == "24\n"
    assert "source: table" in err


def test_table_sources_zonal_and_oracle(run):
    code, out, _ = run("table", "--n", "6", "--source", "zonal", "--format", "csv")
    assert code == 0 and out == _golden(6)
    code, out, _ = run(
        "--seed", "7", "table", "--n", "4", "--source", "oracle", "--format", "csv"
    )
    assert code == 0 and out == _golden(4)
    # the oracle route is uncached; only the zonal table for n = 6 is on disk
    assert os.listdir(run.data_dir) == ["table_n6_v" + __version__ + ".json"]


def test_table_n8_auto_is_complete(run):
    code, out, err = run("table", "--n", "8", "--format", "json")
    assert code == 0
    assert "partial" not in err
    payload = json.loads(out)
    assert all(v is not None for row in payload["values"] for v in row)
    assert set(payload["provenance"].values()) == {"zonal"}
    assert len(payload["provenance"]) == len(payload["columns"]) == 22


def test_table_auto_above_zonal_guard_exits_2(run):
    code, out, err = run("table", "--n", str(DEFAULT_ZONAL_MAX_N + 1))
    assert code == 2 and out == ""
    assert "guard" in err and "--source formulas" in err


def test_verify_scheme_axioms_n5(run):
    code, out, _ = run("verify", "scheme-axioms", "--n", "5")
    assert code == 0
    assert out.startswith("scheme axioms n=5: PASS (structure constants ok")
