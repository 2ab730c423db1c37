import json
import os
import shutil
import signal
import stat
import subprocess
import sys
import time

import pytest

import pmscheme
from pmscheme import (
    CATALOG_PREFIXES,
    DEFAULT_ZONAL_MAX_N,
    FORMULAS_MAX_N,
    Partition,
    __version__,
    all_merges,
    build_table_zonal,
    e_catalog,
    gap_ratio_report,
    generate_partitions,
    hook_gap,
)
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
    # the oracle commands run up to the zonal guard; past it, raising
    # --max-oracle-n cannot help, so the refusal does not suggest it
    code, _, err = run("table", "--n", "15", "--source", "oracle")
    assert code == 2
    assert err == (
        "error: intersection numbers guarded to n <= 14 (asked 15)"
        " (6190283353629375 matchings x 176 relations);"
        " --source formulas prints the closed-form cells\n"
    )
    # the same guard without a hint: the estimate still follows the message
    code, _, err = run("verify", "scheme-axioms", "--n", "15")
    assert code == 2
    assert err == (
        "error: intersection numbers guarded to n <= 14 (asked 15)"
        " (6190283353629375 matchings x 176 relations)\n"
    )
    # a raised oracle guard meets the zonal guard, and the refusal names it
    code, _, err = run("--max-oracle-n", "20", "table", "--n", "15", "--source", "oracle")
    assert code == 2
    assert err == (
        "error: zonal table guarded to n <= 14 (asked 15);"
        " --source formulas prints the closed-form cells\n"
    )
    code, _, err = run("--max-oracle-n", "20", "verify", "scheme-axioms", "--n", "15")
    assert (code, err) == (2, "error: zonal table guarded to n <= 14 (asked 15)\n")


def test_oracle_table_past_the_library_guard_is_the_zonal_table(run):
    # n = 9 is past DEFAULT_ORACLE_MAX_N, which still guards the library
    code, oracle, err = run("table", "--n", "9", "--source", "oracle", "--format", "csv")
    assert (code, err) == (0, "")
    assert run("table", "--n", "9", "--format", "csv") == (0, oracle, "")


def _cli_process(tmp_path, *argv, timeout=60):
    """Run ``python -m pmscheme.cli`` (its ``main_entry``) on the package
    source, with its cache under tmp_path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(pmscheme.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "pmscheme.cli", "--data-dir", str(tmp_path), *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=timeout,
    )


def test_guard_refusal_at_huge_n_is_one_short_line(tmp_path):
    # the estimate gives each long count as a power of ten: neither
    # (2n-1)!! nor p(n) is built, and no count exceeds the int-to-str limit
    start = time.perf_counter()
    done = _cli_process(
        tmp_path, "verify", "scheme-axioms", "--n", "100000", timeout=30
    )
    elapsed = time.perf_counter() - start
    assert done.returncode == 2 and done.stdout == ""
    prefix = "error: intersection numbers guarded to n <= 14 (asked 100000) ("
    assert done.stderr.startswith(prefix) and done.stderr.endswith(")\n")
    assert done.stderr.count("\n") == 1 and len(done.stderr) < 200
    assert elapsed < 1.0


def test_guard_refusal_past_the_float_range(run):
    # n is sized without converting it to a float
    huge = "1" + "0" * 310
    code, out, err = run("verify", "scheme-axioms", "--n", huge)
    assert code == 2 and out == ""
    prefix = f"error: intersection numbers guarded to n <= 14 (asked {huge}) (about 10^"
    assert err.startswith(prefix) and err.endswith(" relations)\n")
    assert err.count("\n") == 1


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


def _ratio_recount(n):
    """verify ratios' --json fields, recounted one merge at a time through
    gap_ratio_report over the same heads and merges."""
    merges, failed, constant_matches = 0, [], True
    for mu in generate_partitions(n):
        if mu[-1] != 1:
            continue
        for spec in all_merges(mu):
            report = gap_ratio_report(spec)
            merges += 1
            tr = report.tau_ratio
            if tr is not None and report.valency_ratio != tr:
                failed.append(f"{spec.mu} parts {spec.i},{spec.j}")
            constant_matches = constant_matches and report.matches_formula
    return {"merges": merges, "failed": failed, "merge_constant_matches": constant_matches}


def _ratio_fields(run, n):
    code, out, _ = run("verify", "ratios", "--n", str(n), "--json")
    obj = json.loads(out)
    return code, {key: obj[key] for key in ("merges", "failed", "merge_constant_matches")}


def test_verify_ratios_matches_the_one_merge_reports(run):
    for n in range(2, 17):
        assert _ratio_fields(run, n) == (0, _ratio_recount(n)), n


def test_verify_ratios_fails_a_doctored_merge(run, monkeypatch):
    from pmscheme import cli, ratios

    real = ratios.phi_n11

    def doctored(mu):
        return real(mu) + (mu == Partition([4, 1, 1]))

    # both routes read phi_n11 off their own module
    monkeypatch.setattr(cli, "phi_n11", doctored)
    monkeypatch.setattr(ratios, "phi_n11", doctored)
    code, fields = _ratio_fields(run, 6)
    assert fields == _ratio_recount(6)
    assert code == 1 and fields["failed"] == ["[2,2,1,1] parts 1,2"]
    code, out, _ = run("verify", "ratios", "--n", "6")
    assert (code, out) == (1, "ratio laws n=6: FAIL (1 merges disagree)\n")


def test_verify_ratios_reads_a_merge_constant_that_matches(run, monkeypatch):
    from pmscheme import cli, ratios

    real = ratios.merge_constant

    def doubled(spec):
        # the measured valency ratio on every merge
        return 2 * real(spec)

    monkeypatch.setattr(cli, "merge_constant", doubled)
    monkeypatch.setattr(ratios, "merge_constant", doubled)
    for n in (5, 9):
        code, fields = _ratio_fields(run, n)
        assert (code, fields) == (0, _ratio_recount(n))
        assert fields["merge_constant_matches"]
        code, out, _ = run("verify", "ratios", "--n", str(n))
        assert code == 0 and "NOTE" not in out


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


def test_gap_below_family_threshold_reads_the_table(run):
    for mu, gap in (("[2,2]", 5), ("[3,2,1]", 840), ("[5]", 360)):
        code, out, err = run("gap", "--mu", mu, "--verbose")
        assert code == 0 and out == f"{gap}\n", mu
        assert "source: table" in err
    code, _, _ = run("gap", "--mu", "[2,2]", "--force")
    assert code == 2


def test_diameter_command(run):
    code, out, _ = run("diameter", "--mu", "[2,1^3]")
    assert code == 0 and out.strip() == "4"
    code, out, _ = run("diameter", "--mu", "[1^4]")
    assert code == 0 and out == "disconnected (reached 1 of 105)\n"
    code, out, _ = run("diameter", "--mu", "[2,1^9]")
    assert code == 0 and out.strip() == "10"
    code, out, err = run("diameter", "--mu", "[2,1^13]")
    assert code == 2 and out == ""
    assert "guard" in err and "()" not in err
    code, _, _ = run("diameter", "--mu", "[1]")
    assert code == 2


def test_fit_command(run):
    code, out, _ = run("fit", "--prefix", "2", "--n-range", "3:4")
    assert code == 0
    assert out.strip() == "(1/2)*p[1] + (-1/4*t)*p[]"
    code, _, err = run("fit", "--prefix", "2", "--n-range", "4")
    assert code == 2


def test_fit_on_an_empty_cache_climbs_one_chain(run, monkeypatch):
    # the tables of n = 5..9 are built in order, each from the one before,
    # so the command runs the steps to 2..9 once: 8 steps, not 4 + 5 + 6 +
    # 7 + 8
    from pmscheme import symfunc

    steps = []
    real = symfunc._chain_step

    def step(plan, prev, lams):
        steps.append(lams[0].n)
        return real(plan, prev, lams)

    monkeypatch.setattr(symfunc, "_last", symfunc._T1)
    monkeypatch.setattr(symfunc, "_chain_step", step)
    code, out, err = run("fit", "--prefix", "3", "--n-range", "5:9")
    assert (code, err) == (0, "")
    assert out == e_catalog(Partition([3])).to_text() + "\n"
    assert steps == list(range(2, 10))


@pytest.mark.parametrize("prefix", CATALOG_PREFIXES, ids=str)
def test_fit_prints_each_family_as_its_catalog_text(run, prefix):
    # the catalog is written as the text fit prints: four consecutive n
    # from the family's first table recover it byte for byte
    lo = max(prefix.n, 2)
    family = ",".join(map(str, prefix.parts))
    code, out, err = run("fit", "--prefix", family, "--n-range", f"{lo}:{lo + 3}")
    assert (code, err) == (0, "")
    assert out == e_catalog(prefix).to_text() + "\n"


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
    code, out, err = run("scan", "--n", "6", "--with-diameters")
    assert code == 0 and err == ""
    assert "largest diameter: [2,1,1,1,1] (5)" in out


def test_byte_identical_runs(run):
    code1, out1, _ = run("table", "--n", "3", "--format", "json")
    code2, out2, _ = run("table", "--n", "3", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_conjecture_failure_exits_1(run, monkeypatch):
    # a doctored 3-partition table whose [2,1] column peaks off [2,1]
    from pmscheme import EigTable
    from pmscheme import cli as climod

    # rows [3], [2,1], [1,1,1]; columns [1,1,1], [2,1], [3]
    grid = [
        [1, 6, 8],
        [1, -3, -2],  # swapped with the bottom row
        [1, 1, 2],
    ]
    doctored = EigTable(3, grid, {})
    monkeypatch.setattr(climod, "oracle_table_cached", lambda cfg, n: doctored)
    code = main(["verify", "conjecture", "--n", "3"])
    assert code == 1


def test_ambiguity_exits_3(run, monkeypatch):
    from pmscheme import cli as climod
    from pmscheme.errors import AmbiguousRowAssignment

    def boom(*a, **k):
        raise AmbiguousRowAssignment("synthetic tie")

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


def test_oracle_guard_flag_reaches_the_intersection_numbers(run):
    oracle = ["--max-oracle-n", "3", "table", "--source", "oracle", "--format", "csv"]
    code, out, err = run(*oracle, "--n", "4")
    assert code == 2 and out == ""
    assert err == (
        "error: intersection numbers guarded to n <= 3 (asked 4)"
        " (105 matchings x 5 relations); raise --max-oracle-n to override\n"
    )
    assert run(*oracle, "--n", "3") == (0, _golden(3), "")


def test_bad_env_guard_names_the_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PMSCHEME_MAX_ORACLE_N", "x")
    monkeypatch.setenv("PMSCHEME_DATA_DIR", str(tmp_path / "c3"))
    code = main(["table", "--n", "3"])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err == "error: bad PMSCHEME_MAX_ORACLE_N 'x': want an integer\n"


def test_empty_env_guard_means_the_default(tmp_path, capsys, monkeypatch):
    # gap never reads the oracle, so an empty variable must not stop it;
    # the oracle commands default to the zonal guard, and the library keeps
    # its own guard
    from pmscheme.cli import Config
    from pmscheme.matchings import DEFAULT_ORACLE_MAX_N, intersection_numbers

    monkeypatch.setenv("PMSCHEME_MAX_ORACLE_N", "")
    monkeypatch.setenv("PMSCHEME_DATA_DIR", str(tmp_path / "c4"))
    assert Config().max_oracle_n == DEFAULT_ZONAL_MAX_N
    assert DEFAULT_ORACLE_MAX_N == 8
    refusal = r"^intersection numbers guarded to n <= 8 \(asked 9\)"
    with pytest.raises(pmscheme.GuardExceeded, match=refusal):
        intersection_numbers(9)
    assert main(["gap", "--mu", "[2,1]"]) == 0
    assert capsys.readouterr() == ("5\n", "")


def test_gap_hook_exception_reads_the_table(run):
    # n = 4 is the conjecture's exception: the hook product would say 28
    code, out, err = run("gap", "--mu", "[3,1]", "--verbose")
    assert code == 0 and out == "24\n"
    assert "source: table" in err


def test_gap_prints_an_answer_of_any_length(tmp_path):
    # 6338 digits: past Python's default int-to-str limit of 4300
    done = _cli_process(tmp_path, "gap", "--mu", "[2000,1]", "--verbose")
    assert done.returncode == 0, done.stderr
    assert done.stderr == "source: conjectured-hook\n"
    limit = getattr(sys, "get_int_max_str_digits", None)
    if limit is not None:
        saved = limit()
        sys.set_int_max_str_digits(0)
    try:
        assert done.stdout == f"{hook_gap(2001, 1)}\n"
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(saved)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit to lift"
)
def test_main_prints_an_answer_of_any_length_and_restores_the_limit(run):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        code, out, err = run("gap", "--mu", "[2000,1]")
        assert sys.get_int_max_str_digits() == 5000
        sys.set_int_max_str_digits(0)
        expected = f"{hook_gap(2001, 1)}\n"
    finally:
        sys.set_int_max_str_digits(saved)
    assert (code, err) == (0, "")
    assert out == expected


def test_table_sources_zonal_and_oracle(run):
    code, out, _ = run("table", "--n", "6", "--source", "zonal", "--format", "csv")
    assert code == 0 and out == _golden(6)
    code, out, _ = run(
        "--seed", "7", "table", "--n", "4", "--source", "oracle", "--format", "csv"
    )
    assert code == 0 and out == _golden(4)
    # the oracle route is uncached; only the zonal table for n = 6 is on disk
    assert os.listdir(run.data_dir) == ["table_n6_v" + __version__ + ".json"]


def test_oracle_product_failure_exits_1_with_one_error_line(run, monkeypatch):
    # the [3,1] cells of [2,2] and [1^4] (-8 and 8) traded: the row strata
    # of _check_table refuse it (exit 3), so with that check stubbed out
    # only a product refuses, as a plain SchemeError
    from pmscheme import Partition, tables

    table = build_table_zonal(4)
    a = table.rows.index(Partition([2, 2]))
    b = table.rows.index(Partition([1, 1, 1, 1]))
    c = table.columns.index(Partition([3, 1]))
    grid = table.grid()
    grid[a][c], grid[b][c] = grid[b][c], grid[a][c]
    monkeypatch.setattr(tables, "_zonal_grid", lambda n: grid)
    monkeypatch.setattr(tables, "_check_table", lambda table: None)
    code, out, err = run("table", "--n", "4", "--source", "oracle")
    assert (code, out) == (1, "")
    assert err == (
        "error: row [2,2] fails phi_i phi_j = sum_k p^k_ij phi_k at the pair"
        " ([2,1,1], [4])\n"
    )


def test_oracle_route_at_its_guard(run):
    code, oracle, err = run("table", "--n", "8", "--source", "oracle", "--format", "csv")
    assert (code, err) == (0, "")
    assert run("table", "--n", "8", "--format", "csv") == (0, oracle, "")
    code, out, _ = run("verify", "scheme-axioms", "--n", "8")
    assert code == 0
    assert out == (
        "scheme axioms n=8: PASS (structure constants ok, orthogonality ok,"
        " trace ok)\n"
    )


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


def test_verify_scheme_axioms_rebuilds_cached_rows_swapped(run):
    # [2,2] and [1^4] both have dimension 14, so the swap keeps every trace
    # identity and the column orthogonality; the flip entries refuse it
    path, good = _doctor_cache(run, 4, _swap_rows("[2,2]", "[1,1,1,1]"))
    code, out, err = run("verify", "scheme-axioms", "--n", "4")
    assert code == 0
    assert out == (
        "scheme axioms n=4: PASS (structure constants ok, orthogonality ok,"
        " trace ok)\n"
    )
    assert err.count("note: rebuilding unreadable cache") == 1
    assert "row [2,2] has multiplicity 14" in err
    assert _read(path) == good


def test_unwritable_data_dir_answers_from_built_table(tmp_path, capsys):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("")
    code = main(["--data-dir", str(blocker), "table", "--n", "4", "--format", "csv"])
    out = capsys.readouterr()
    assert code == 0 and out.out == _golden(4)
    assert out.err.startswith("note: table for n=4 not cached")


def test_directory_at_the_cache_path_is_noted_not_skipped(run):
    # a directory is not a missing file: the open fails with a note, the
    # table is built and printed, and the write over the directory fails
    path = os.path.join(run.data_dir, f"table_n4_v{__version__}.json")
    os.makedirs(path)
    code, out, err = run("table", "--n", "4", "--format", "csv")
    assert code == 0 and out == _golden(4)
    lines = err.splitlines()
    assert len(lines) == 2
    assert sum(l.startswith("note: rebuilding unreadable cache") for l in lines) == 1
    assert sum(l.startswith("note: table for n=4 not cached") for l in lines) == 1


def test_empty_data_dir_env_means_the_default_cache(tmp_path, capsys, monkeypatch):
    from pmscheme import cli as climod

    monkeypatch.setenv("PMSCHEME_DATA_DIR", "")
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    argv = ["table", "--n", "3", "--format", "csv"]
    assert main(argv) == 0
    assert capsys.readouterr() == (_golden(3), "")
    cached = tmp_path / ".cache" / "pmscheme" / f"table_n3_v{__version__}.json"
    assert cached.is_file()

    def boom(n):
        raise AssertionError("the second run must read the cache file")

    monkeypatch.setattr(climod, "build_table_zonal", boom)
    assert main(argv) == 0
    assert capsys.readouterr() == (_golden(3), "")


def test_empty_data_dir_config_means_the_default_cache(tmp_path, capsys, monkeypatch):
    from pmscheme import cli as climod

    monkeypatch.delenv("PMSCHEME_DATA_DIR", raising=False)
    monkeypatch.setenv("HOME", str(tmp_path))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    config = climod.Config(data_dir="")
    table = climod.oracle_table_cached(config, 3)
    cached = tmp_path / ".cache" / "pmscheme" / f"table_n3_v{__version__}.json"
    assert cached.read_text() == table.to_json_text()

    def boom(n):
        raise AssertionError("the second call must read the cache file")

    monkeypatch.setattr(climod, "build_table_zonal", boom)
    assert climod.oracle_table_cached(config, 3).grid() == table.grid()
    assert capsys.readouterr() == ("", "")
    assert os.listdir(work) == []


def test_unwritable_out_exits_2(run, tmp_path):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("")
    code, out, err = run("table", "--n", "3", "--out", str(blocker / "t3.csv"))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write --out")


def _cache_file(run, n):
    return os.path.join(run.data_dir, f"table_n{n}_v{__version__}.json")


def _read(path):
    with open(path) as fh:
        return fh.read()


def _edit_values(edit):
    """Damage that applies edit(values grid) to the cached n = 4 table."""

    def damage(text):
        obj = json.loads(text)
        edit(obj["values"])
        return json.dumps(obj, indent=2) + "\n"

    return damage


def _cut_two_cells(values):
    # the row [2,1,1] of the n = 4 table loses its last two cells
    values[3] = values[3][:-2]


def _null_cell(values):
    values[2][1] = None


@pytest.mark.parametrize(
    "damage",
    [
        lambda text: text[: len(text) // 2],
        lambda text: text.replace('"values"', '"valeus"'),
        _edit_values(_cut_two_cells),
        _edit_values(_null_cell),
    ],
    ids=["truncated", "missing-key", "short-row", "null-cell"],
)
def test_unparsable_cache_is_rebuilt(run, damage):
    code, _, _ = run("table", "--n", "4", "--format", "csv")
    path = os.path.join(run.data_dir, f"table_n4_v{__version__}.json")
    with open(path) as fh:
        good = fh.read()
    with open(path, "w") as fh:
        fh.write(damage(good))
    code, out, err = run("table", "--n", "4", "--format", "csv")
    assert code == 0 and out == _golden(4)
    assert err.startswith("note: rebuilding unreadable cache")
    with open(path) as fh:
        assert fh.read() == good


def _doctor_cache(run, n, edit):
    """Fill the cache for n, then apply edit(table_obj) to the cached file."""
    run("table", "--n", str(n), "--format", "csv")
    path = _cache_file(run, n)
    good = _read(path)
    obj = json.loads(good)
    edit(obj)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path, good


def _bump(row_label, column_label):
    def edit(obj):
        r = obj["rows"].index(row_label)
        c = obj["columns"].index(column_label)
        obj["values"][r][c] += 1

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _bump("[2,1,1,1,1,1]", "[3,2,1,1]"),
        _bump("[7]", "[3,2,1,1]"),
        _bump("[4,3]", "[1,1,1,1,1,1,1]"),
    ],
    ids=["inner-cell", "top-row", "identity-column"],
)
def test_doctored_cache_cell_is_rebuilt(run, edit):
    path, good = _doctor_cache(run, 7, edit)
    code, out, err = run("table", "--n", "7", "--format", "csv")
    assert code == 0 and out == _golden(7)
    assert err.startswith("note: rebuilding unreadable cache")
    with open(path) as fh:
        assert fh.read() == good
    code, out, err = run("gap", "--mu", "[3,2,1,1]")
    assert code == 0 and err == ""


def _swap_rows(a, b):
    def edit(obj):
        values, rows = obj["values"], obj["rows"]
        i, j = rows.index(a), rows.index(b)
        values[i], values[j] = values[j], values[i]

    return edit


def test_cached_rows_swapped_are_rebuilt(run):
    path, good = _doctor_cache(run, 4, _swap_rows("[2,2]", "[1,1,1,1]"))
    code, out, err = run("table", "--n", "4", "--format", "csv")
    assert code == 0 and out == _golden(4)
    assert err.count("\n") == 1 and err.startswith("note: rebuilding unreadable")
    assert "AmbiguousRowAssignment('row [2,2] has multiplicity" in err
    assert _read(path) == good


def test_second_load_of_unchanged_bytes_is_not_parsed_or_checked_again(
    run, monkeypatch
):
    from pmscheme import EigTable
    from pmscheme import cli as climod

    climod._checked_table.cache_clear()
    config = climod.Config(data_dir=run.data_dir)
    climod.oracle_table_cached(config, 5)  # builds and writes the file
    calls = []
    real_loads, real_from_json_obj = json.loads, EigTable.from_json_obj

    def loads(text, **kw):
        calls.append("loads")
        return real_loads(text, **kw)

    def from_json_obj(obj):
        calls.append("from_json_obj")
        return real_from_json_obj(obj)

    monkeypatch.setattr(climod.json, "loads", loads)
    monkeypatch.setattr(EigTable, "from_json_obj", from_json_obj)
    first = climod.oracle_table_cached(config, 5)
    assert calls == ["loads", "from_json_obj"]
    second = climod.oracle_table_cached(config, 5)
    assert calls == ["loads", "from_json_obj"]
    assert second is first
    assert second.to_csv_text() == _golden(5)


@pytest.mark.parametrize(
    "edit",
    [_bump("[2,1,1]", "[2,2]"), _swap_rows("[2,2]", "[1,1,1,1]")],
    ids=["cell-plus-one", "rows-swapped"],
)
def test_file_doctored_after_a_good_load_is_checked_and_rebuilt(run, edit):
    run("table", "--n", "4", "--format", "csv")  # builds and writes the file
    path, good = _doctor_cache(run, 4, edit)  # its load checks the good bytes
    code, out, err = run("table", "--n", "4", "--format", "csv")
    assert code == 0 and out == _golden(4)
    assert err.count("\n") == 1
    assert err.startswith("note: rebuilding unreadable cache")
    assert _read(path) == good
    code, out, err = run("table", "--n", "4", "--format", "csv")
    assert code == 0 and out == _golden(4) and err == ""


def test_unparsable_cache_is_refused_on_every_load(run):
    run("table", "--n", "4", "--format", "csv")
    path = _cache_file(run, 4)
    good = _read(path)
    for _ in range(2):
        with open(path, "w") as fh:
            fh.write(good[: len(good) // 2])
        code, out, err = run("table", "--n", "4", "--format", "csv")
        assert code == 0 and out == _golden(4)
        assert err.count("\n") == 1
        assert err.startswith("note: rebuilding unreadable cache")
        assert _read(path) == good


def test_checked_table_memo_is_bounded(run):
    from pmscheme import cli as climod

    climod._checked_table.cache_clear()
    config = climod.Config(data_dir=run.data_dir)
    ns = range(2, DEFAULT_ZONAL_MAX_N + 1)
    for n in ns:
        climod.oracle_table_cached(config, n)  # builds and writes the file
    for n in ns:
        climod.oracle_table_cached(config, n)  # checks and keeps its text
    info = climod._checked_table.cache_info()
    assert info.maxsize is not None
    assert info.currsize == len(ns) <= info.maxsize
    # a third load of every file is a hit: no n pushed another one out
    for n in ns:
        climod.oracle_table_cached(config, n)
    assert climod._checked_table.cache_info().misses == info.misses


def test_zonal_plan_cache_holds_every_step_of_the_largest_chain():
    # the chain to n reads the plans of k = 2..n in order, so a bounded
    # cache smaller than that chain would miss on every step of every build;
    # 18 is past the guard and past the 16 plans an earlier bound kept.  The
    # kept table is dropped first, so the first call reads every plan
    from pmscheme import symfunc

    symfunc._plan.cache_clear()
    symfunc._last = symfunc._T1
    symfunc.zonal_rows(18)
    symfunc.zonal_rows(18)
    info = symfunc._plan.cache_info()
    assert (info.misses, info.hits) == (17, 17)


def test_cached_cells_traded_between_rows_of_one_dimension_are_rebuilt(run):
    # the [2,2,1^4] cells of [4,4] and [1^8] (138 and 210), both rows of
    # dimension 1430: every trace identity holds, the multiplicity does not
    def trade(obj):
        r, s = obj["rows"].index("[4,4]"), obj["rows"].index("[1,1,1,1,1,1,1,1]")
        c = obj["columns"].index("[2,2,1,1,1,1]")
        values = obj["values"]
        assert (values[r][c], values[s][c]) == (138, 210)
        values[r][c], values[s][c] = values[s][c], values[r][c]

    path, good = _doctor_cache(run, 8, trade)
    code, out, err = run("table", "--n", "8", "--format", "csv")
    assert code == 0 and out == build_table_zonal(8).to_csv_text()
    assert err.count("\n") == 1 and err.startswith("note: rebuilding unreadable")
    assert "row [4,4] has multiplicity" in err
    assert _read(path) == good
    code, out, err = run("verify", "conjecture", "--n", "8")
    assert code == 0 and err == ""


def test_cache_row_label_in_exponent_form_is_rebuilt(run):
    # "[2,1^2]" parses to the canonical row [2,1,1] but is not how the
    # cache spells it, so the file is not one this code wrote; the column
    # labels follow the same rule, and two of them swapped over values left
    # in place put every cell of those columns under the wrong relation
    def respell(key):
        def edit(obj):
            obj[key][obj[key].index("[2,1,1]")] = "[2,1^2]"

        return edit

    def swap_columns(obj):
        columns = obj["columns"]
        i, j = columns.index("[2,1,1]"), columns.index("[2,2]")
        columns[i], columns[j] = columns[j], columns[i]

    for edit in (respell("rows"), respell("columns"), swap_columns):
        path, good = _doctor_cache(run, 4, edit)
        code, out, err = run("table", "--n", "4", "--format", "csv")
        assert code == 0 and out == _golden(4)
        assert err.count("\n") == 1
        assert err.startswith("note: rebuilding unreadable cache")
        assert "not in canonical order" in err
        assert _read(path) == good


def test_cache_provenance_key_in_exponent_form_is_rebuilt(run):
    # provenance keys follow the rule for row labels: "[2,1^2]" names the
    # column [2,1,1] but is not how the cache spells it
    def respell(obj):
        obj["provenance"] = {
            "[2,1^2]" if key == "[2,1,1]" else key: tag
            for key, tag in obj["provenance"].items()
        }

    path, good = _doctor_cache(run, 4, respell)
    assert "[2,1^2]" in _read(path)
    code, out, err = run("table", "--n", "4", "--format", "csv")
    assert code == 0 and out == _golden(4)
    assert err.startswith("note: rebuilding unreadable cache")
    assert _read(path) == good


def test_cache_cell_that_is_not_an_int_is_rebuilt(run):
    # true for the identity-column 1 and 5.0 for a 5 compare equal to the
    # ints but are not what this code writes
    def retype(obj):
        values = obj["values"]
        values[1][0] = True
        r, c = next(
            (r, c) for r, row in enumerate(values) for c, v in enumerate(row) if v == 5
        )
        values[r][c] = 5.0

    path, good = _doctor_cache(run, 4, retype)
    assert "true" in _read(path) and "5.0" in _read(path)
    code, out, err = run("table", "--n", "4", "--format", "csv")
    assert code == 0 and out == _golden(4)
    assert err.startswith("note: rebuilding unreadable cache")
    assert _read(path) == good


@pytest.mark.parametrize(
    "relabel",
    [
        {"[1,1,1,1]": 5, "[4]": ["oracle"]},
        {"[2,2]": "closed-form"},
        {"[3,1]": None},
    ],
    ids=["not-a-tag", "closed-form", "missing"],
)
def test_cache_provenance_other_than_zonal_is_rebuilt(run, relabel):
    # only the zonal route writes the cache, so any other provenance means
    # the file is not one this code wrote
    def edit(obj):
        for column, tag in relabel.items():
            if tag is None:
                del obj["provenance"][column]
            else:
                obj["provenance"][column] = tag

    path, good = _doctor_cache(run, 4, edit)
    code, out, err = run("table", "--n", "4", "--format", "json")
    assert code == 0 and out == good
    assert err.startswith("note: rebuilding unreadable cache")
    assert _read(path) == good


@pytest.mark.parametrize(
    "umask, mode", [(0o022, 0o644), (0o002, 0o664)], ids=["umask022", "umask002"]
)
def test_written_files_take_the_umask(run, tmp_path, umask, mode):
    target = tmp_path / "o.csv"
    old = os.umask(umask)
    try:
        code, _, _ = run("table", "--n", "4", "--format", "csv", "--out", str(target))
    finally:
        os.umask(old)
    assert code == 0
    assert stat.S_IMODE(os.stat(target).st_mode) == mode
    assert stat.S_IMODE(os.stat(_cache_file(run, 4)).st_mode) == mode
    assert os.listdir(run.data_dir) == [os.path.basename(_cache_file(run, 4))]


def test_out_is_written_in_place_like_a_redirect(run, tmp_path):
    # an existing --out keeps its mode and its hard links, as with `> o.csv`
    target, link = tmp_path / "o.csv", tmp_path / "link.csv"
    target.write_text("")
    os.chmod(target, 0o600)
    os.link(target, link)
    old = os.umask(0o022)
    try:
        code, _, _ = run("table", "--n", "3", "--format", "csv", "--out", str(target))
    finally:
        os.umask(old)
    assert code == 0
    assert stat.S_IMODE(os.stat(target).st_mode) == 0o600
    assert os.stat(target).st_nlink == 2
    assert link.read_text() == target.read_text() == _golden(3)
    # a missing parent directory is still created
    nested = tmp_path / "new" / "dir" / "t3.csv"
    assert run("table", "--n", "3", "--format", "csv", "--out", str(nested))[0] == 0
    assert nested.read_text() == _golden(3)


@pytest.mark.parametrize(
    "argv, want",
    [
        (["table", "--n", "4", "--format", "csv"], _golden(4)),
        (
            ["verify", "conjecture", "--n", "4"],
            "  [1,1,1,1]: second largest on {[3,1], [2,2], [2,1,1], [1,1,1,1]} [ok]\n"
            "  [2,1,1]: second largest on {[3,1]} [ok]\n"
            "conjecture n=4: PASS\n",
        ),
        (["gap", "--mu", "[3,1]"], "24\n"),
        (["diameter", "--mu", "[2,1,1]"], "3\n"),
    ],
    ids=["table", "verify-conjecture", "gap", "diameter"],
)
def test_cache_file_holding_another_n_is_rebuilt(run, argv, want):
    # a valid n = 5 table stored as the n = 4 file answers nothing for n = 4
    assert run(*argv) == (0, want, "")
    path = _cache_file(run, 4)
    good = _read(path)
    run("table", "--n", "5", "--format", "csv")
    shutil.copyfile(_cache_file(run, 5), path)
    code, out, err = run(*argv)
    assert code == 0 and out == want
    assert err.startswith("note: rebuilding unreadable cache")
    assert _read(path) == good


def test_cache_file_is_the_table_json_output(run):
    for n in range(2, 9):
        code, out, _ = run("table", "--n", str(n), "--format", "json")
        assert code == 0 and _read(_cache_file(run, n)) == out


def test_table_json_out_is_a_cache_file(run, tmp_path):
    path = _cache_file(run, 6)
    other = str(tmp_path / "other")
    argv = ["--data-dir", other, "table", "--n", "6", "--format", "json"]
    assert main(argv + ["--out", path]) == 0
    written = _read(path)
    code, out, err = run("table", "--n", "6", "--format", "csv")
    assert code == 0 and out == _golden(6) and err == ""
    assert _read(path) == written


def test_table_json_is_one_compact_line(run):
    for n in range(2, 9):
        code, out, _ = run("table", "--n", str(n), "--format", "json")
        assert code == 0
        assert out == json.dumps(json.loads(out), separators=(",", ":")) + "\n"
        assert json.loads(out) == build_table_zonal(n).to_json_obj()


def test_indented_cache_file_is_served_as_it_is(run):
    # the layout before the compact one: the same document, indent=2
    path = _cache_file(run, 5)
    os.makedirs(run.data_dir)
    indented = json.dumps(build_table_zonal(5).to_json_obj(), indent=2) + "\n"
    with open(path, "w") as fh:
        fh.write(indented)
    code, out, err = run("table", "--n", "5", "--format", "csv")
    assert (code, out, err) == (0, _golden(5), "")
    assert _read(path) == indented


def test_missing_data_dir_parents_are_made_on_first_write(tmp_path, capsys):
    data_dir = tmp_path / "missing" / "deeper" / "cache"
    argv = ["--data-dir", str(data_dir), "table", "--n", "4", "--format", "csv"]
    assert main(argv) == 0
    assert capsys.readouterr() == (_golden(4), "")
    assert (data_dir / f"table_n4_v{__version__}.json").is_file()


@pytest.mark.parametrize(
    "argv, option",
    [
        (["verify", "induction", "--family", "7", "--n", "9"], None),
        (["verify", "induction", "--family", "3,x", "--n", "9"], "--family"),
        (["verify", "induction", "--family", "3,2", "--n", "3"], None),
        (["verify", "ratios", "--n", "-1"], None),
        (["verify", "ratios", "--n", "0"], None),
        (["verify", "ratios", "--n", "1"], None),
        (["fit", "--prefix", "1", "--n-range", "2:3"], None),
        (["fit", "--prefix", "[3,x]", "--n-range", "3:4"], "--prefix"),
        (["verify", "induction", "--family", "2,3", "--n", "9"], "--family"),
        (["fit", "--prefix", "x", "--n-range", "3:4"], "--prefix"),
    ],
    ids=["family-not-in-catalog", "family-unparsable", "n-below-family",
         "negative-n", "ratios-n0", "ratios-n1", "prefix-with-part-1",
         "prefix-bad-token", "family-not-decreasing", "prefix-unparsable"],
)
def test_bad_arguments_exit_2(run, argv, option):
    code, out, err = run(*argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if option is not None:
        bad = argv[argv.index(option) + 1]
        assert err == f"error: bad {option} {bad!r}: want parts like 3,2 or [3,2]\n"


def test_fit_refuses_prefix_before_reading_tables(run):
    code, out, err = run("fit", "--prefix", "1", "--n-range", "2:5")
    assert code == 2 and out == ""
    assert err == "error: family prefix needs all parts >= 2\n"
    assert not os.path.exists(run.data_dir) or os.listdir(run.data_dir) == []


def test_fit_refuses_range_above_zonal_guard_before_reading_tables(run):
    hi = DEFAULT_ZONAL_MAX_N + 1
    code, out, err = run("fit", "--prefix", "2", "--n-range", f"2:{hi}")
    assert code == 2 and out == ""
    assert err == (
        f"error: zonal table guarded to n <= {DEFAULT_ZONAL_MAX_N} (asked {hi})\n"
    )
    assert not os.path.exists(run.data_dir) or os.listdir(run.data_dir) == []


@pytest.mark.parametrize("kind", ["induction", "ratios"])
def test_verify_guard_refuses_before_enumerating(run, monkeypatch, kind):
    from pmscheme import cli, spectra
    from pmscheme.ratios import RATIOS_MAX_N
    from pmscheme.spectra import INDUCTION_MAX_N

    # the README's induction example (n = 40) and verify ratios to n = 12 pass
    assert INDUCTION_MAX_N >= 40 and RATIOS_MAX_N >= 12

    def enumerate_partitions(n):
        raise AssertionError(f"partitions of {n} enumerated past the guard")

    monkeypatch.setattr(spectra, "generate_partitions", enumerate_partitions)
    monkeypatch.setattr(cli, "generate_partitions", enumerate_partitions)
    if kind == "induction":
        n, what = INDUCTION_MAX_N + 1, "induction step"
        argv = ["verify", "induction", "--family", "5", "--n", str(n)]
    else:
        n, what = RATIOS_MAX_N + 1, "ratio laws"
        argv = ["verify", "ratios", "--n", str(n)]
    for extra in ([], ["--json"]):
        code, out, err = run(*argv, *extra)
        assert code == 2 and out == ""
        assert err == f"error: {what} guarded to n <= {n - 1} (asked {n})\n"


def test_table_formulas_guard(run):
    code, out, err = run("table", "--n", "20", "--source", "formulas", "--format", "csv")
    assert code == 0 and out.startswith("lambda\\mu,")
    code, out, err = run("table", "--n", str(FORMULAS_MAX_N + 1), "--source", "formulas")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "guard" in err and "--source formulas" not in err


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE here")
def test_closed_stdout_ends_quietly_by_sigpipe(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(pmscheme.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader: the first write raises SIGPIPE
    try:
        proc = subprocess.run(
            [
                sys.executable, "-c",
                "from pmscheme.cli import main_entry; main_entry()",
                "--data-dir", str(tmp_path), "table", "--n", "3", "--format", "csv",
            ],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == -signal.SIGPIPE
    assert proc.stderr == b""


def test_cached_parser_keeps_no_state(tmp_path, capsys, monkeypatch):
    from pmscheme import cli as climod

    seen = []
    build = climod._build_table

    def spy(config, n, source):
        seen.append((config.seed, config.data_dir))
        return build(config, n, source)

    monkeypatch.setattr(climod, "_build_table", spy)
    dir_a, dir_b = str(tmp_path / "a"), str(tmp_path / "b")
    argv_a = ["--seed", "7", "--data-dir", dir_a, "table", "--n", "4"]
    assert main(argv_a + ["--format", "csv"]) == 0
    assert capsys.readouterr().out == _golden(4)
    assert main(["--data-dir", dir_b, "table", "--n", "3", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 3
    assert main(["--data-dir", dir_b, "table", "--n", "3"]) == 0
    assert capsys.readouterr().out.split()[0] == "lam\\mu"
    assert seen == [(7, dir_a), (0, dir_b), (0, dir_b)]
    assert os.listdir(dir_a) == [f"table_n4_v{__version__}.json"]
    assert os.listdir(dir_b) == [f"table_n3_v{__version__}.json"]

    assert main(["--data-dir", dir_b, "table", "--n", "3", "--format", "xml"]) == 2
    assert "invalid choice" in capsys.readouterr().err
    assert main(["--data-dir", dir_b, "gap", "--mu", "[2,1]"]) == 0
    assert capsys.readouterr().out == "5\n"

    helps = []
    for _ in range(2):
        assert main(["--help"]) == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1] and helps[0].startswith("usage: pmscheme")
    assert climod.build_parser() is climod.build_parser()


@pytest.mark.parametrize(
    "argv, fields",
    [
        (["conjecture", "--n", "5"], {"columns"}),
        (["trace", "--n", "5"], {"columns", "failed"}),
        (
            ["induction", "--family", "3,2", "--n", "15"],
            {"family", "rhs", "min_slack", "witness"},
        ),
        (["ratios", "--n", "6"], {"merges", "failed", "merge_constant_matches"}),
        (
            ["scheme-axioms", "--n", "4"],
            {"structure_constants", "orthogonality", "trace"},
        ),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else "",
)
def test_verify_json_every_kind(run, argv, fields):
    code, text, _ = run("verify", *argv)
    code_json, out, _ = run("verify", *argv, "--json")
    assert code == code_json == 0
    payload = json.loads(out)
    assert payload["kind"] == argv[0]
    assert payload["n"] == int(argv[argv.index("--n") + 1])
    assert payload["overall"] is True
    assert set(payload) == {"kind", "n", "overall"} | fields
    assert not text.startswith("{") and ": PASS" in text


def test_verify_induction_json_fields(run):
    code, out, _ = run("verify", "induction", "--family", "3,2", "--n", "15", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "[3,2]"
    assert payload["min_slack"] == "0"
    assert payload["witness"] == {"lam": "[14,1]", "row": 1}
    code, out, _ = run("verify", "induction", "--family", "2,2", "--n", "4", "--json")
    payload = json.loads(out)
    assert code == 1 and payload["overall"] is False
