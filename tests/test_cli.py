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
    __version__,
    e_catalog,
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
    code, _, err = run("table", "--n", "12", "--source", "oracle")
    assert code == 2
    assert err == (
        "error: intersection numbers guarded to n <= 8 (asked 12)"
        " (316234143225 matchings x 77 relations);"
        " raise --max-oracle-n to override\n"
    )
    # the same guard without a hint: the estimate still follows the message
    code, _, err = run("verify", "scheme-axioms", "--n", "9")
    assert code == 2
    assert err == (
        "error: intersection numbers guarded to n <= 8 (asked 9)"
        " (34459425 matchings x 30 relations)\n"
    )


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
    prefix = "error: intersection numbers guarded to n <= 8 (asked 100000) ("
    assert done.stderr.startswith(prefix) and done.stderr.endswith(")\n")
    assert done.stderr.count("\n") == 1 and len(done.stderr) < 200
    assert elapsed < 1.0


def test_guard_refusal_past_the_float_range(run):
    # n is sized without converting it to a float
    huge = "1" + "0" * 310
    code, out, err = run("verify", "scheme-axioms", "--n", huge)
    assert code == 2 and out == ""
    prefix = f"error: intersection numbers guarded to n <= 8 (asked {huge}) (about 10^"
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


def test_verify_scheme_axioms_fails_on_cached_rows_swapped(run):
    # [2,2] and [1^4] both have dimension 14, so the swap keeps every trace
    # identity and the column orthogonality; only the row labels are wrong
    assert run("table", "--n", "4")[0] == 0
    path = os.path.join(run.data_dir, f"table_n4_v{__version__}.json")
    with open(path) as fh:
        obj = json.load(fh)
    values = obj["values"]
    a, b = obj["rows"].index("[2,2]"), obj["rows"].index("[1,1,1,1]")
    values[a], values[b] = values[b], values[a]
    with open(path, "w") as fh:
        json.dump(obj, fh)
    code, out, _ = run("verify", "scheme-axioms", "--n", "4")
    assert code == 1
    assert out == (
        "scheme axioms n=4: FAIL (structure constants FAIL, orthogonality ok,"
        " trace ok)\n"
    )


def test_unwritable_data_dir_answers_from_built_table(tmp_path, capsys):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("")
    code = main(["--data-dir", str(blocker), "table", "--n", "4", "--format", "csv"])
    out = capsys.readouterr()
    assert code == 0 and out.out == _golden(4)
    assert out.err.startswith("note: table for n=4 not cached")


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


def test_cache_row_label_in_exponent_form_is_rebuilt(run):
    # "[2,1^2]" parses to the canonical row [2,1,1] but is not how the
    # cache spells it, so the file is not one this code wrote
    def respell(obj):
        obj["rows"][obj["rows"].index("[2,1,1]")] = "[2,1^2]"

    path, good = _doctor_cache(run, 4, respell)
    code, out, err = run("table", "--n", "4", "--format", "csv")
    assert code == 0 and out == _golden(4)
    assert err.startswith("note: rebuilding unreadable cache")
    with open(path) as fh:
        assert fh.read() == good


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
