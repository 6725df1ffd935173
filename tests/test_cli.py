import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from cellred import audit, klcells, sl3lab, uniptables
from cellred.cli import _sl3_entry, main

from conftest import TYPE_NAMES, deadline


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_audit_single_type(capsys):
    code, out, _ = run(capsys, "audit", "--type", "B2")
    assert code == 0
    payload = json.loads(out)
    assert payload["type"] == "B2"
    assert {c["id"] for c in payload["checks"]} == {
        "bookkeeping", "duality", "a_values", "centrality", "j_criterion", "proximity",
    }
    assert all(c["status"] == "pass" for c in payload["checks"])


def test_audit_all(capsys):
    code, out, _ = run(capsys, "audit", "--all")
    assert code == 0
    payload = json.loads(out)
    assert [r["type"] for r in payload] == list(TYPE_NAMES)
    partial = next(r for r in payload if r["type"] == "A4")
    skipped = {c["id"] for c in partial["checks"] if c["status"] == "skipped"}
    assert skipped == {"bookkeeping", "duality", "a_values", "proximity"}


def assert_usage_error(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("cellred: ")
    return err


def test_audit_unsupported_type_is_usage_error(capsys):
    assert_usage_error(capsys, "audit", "--type", "E8")
    assert_usage_error(capsys, "audit", "--type", "X9")
    # a rank that str.isdigit takes but int does not read: '²'
    assert "cannot parse" in assert_usage_error(capsys, "audit", "--type", "A\u00b2")
    assert "cannot parse" in assert_usage_error(
        capsys, "tables", "dump", "--what", "cells", "--type", "B\u00b2")


def test_a_relative_data_dir_is_read_against_each_working_directory(
        tmp_path, monkeypatch, capsys):
    shipped = Path(uniptables.__file__).with_name("data")
    for name in ("a", "b"):
        (tmp_path / name / "data").mkdir(parents=True)
        text = (shipped / "B2.json").read_text(encoding="utf-8")
        (tmp_path / name / "data" / "B2.json").write_text(text, encoding="utf-8")
    bad = tmp_path / "b" / "data" / "B2.json"
    raw = json.loads(bad.read_text(encoding="utf-8"))
    raw["unipotent"][1]["degree"] = "t/0"
    bad.write_text(json.dumps(raw), encoding="utf-8")
    monkeypatch.setenv("CELLRED_DATA_DIR", "data")
    monkeypatch.chdir(tmp_path / "a")
    assert run(capsys, "audit", "--type", "B2")[0] == 0
    monkeypatch.chdir(tmp_path / "b")  # a fresh process here exits 3
    assert run(capsys, "audit", "--type", "B2")[0] == 3


def test_audit_markdown(capsys):
    code, out, _ = run(capsys, "audit", "--type", "A1", "--format", "md")
    assert code == 0
    assert out.startswith("## A1")


def test_audit_output_file_atomic(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "audit", "--type", "A2", "-o", str(target))
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    assert payload["type"] == "A2"
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".cellred-")]
    assert not leftovers


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_audit_output_file_mode_follows_umask(tmp_path, capsys, umask, mode):
    target = tmp_path / "report.json"
    old = os.umask(umask)
    try:
        code, _, _ = run(capsys, "audit", "--type", "A1", "-o", str(target))
    finally:
        os.umask(old)
    assert code == 0
    assert stat.S_IMODE(target.stat().st_mode) == mode


def test_output_into_missing_directory_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    err = assert_usage_error(capsys, "audit", "--type", "A1", "-o", str(target))
    assert "cannot write" in err
    assert list(tmp_path.iterdir()) == []
    # a path naming a directory: the temporary file is written next to it
    # and cannot replace it
    target = tmp_path / "report.json"
    target.mkdir()
    err = assert_usage_error(capsys, "audit", "--type", "A1", "-o", str(target))
    assert "cannot write" in err and "Is a directory" in err
    assert list(tmp_path.iterdir()) == [target]
    assert list(target.iterdir()) == []


def test_corrupt_data_file_fails_only_its_type(data_copy, capsys):
    raw = json.loads((data_copy / "B2.json").read_text(encoding="utf-8"))
    raw["duality"]["e"] = "1"  # while "1" still pairs with "2"
    (data_copy / "B2.json").write_text(json.dumps(raw), encoding="utf-8")
    code, out, _ = run(capsys, "audit", "--all")
    assert code == 3
    payload = json.loads(out)
    assert [r["type"] for r in payload] == list(TYPE_NAMES)
    for r in payload:
        if r["type"] == "B2":
            assert len(r["checks"]) == 6
            for c in r["checks"]:
                assert c["status"] == "fail"
                assert c["details"].startswith("internal error: DataIntegrityFailure: ")
                assert "not involutive" in c["details"]
        else:
            assert all(c["status"] != "fail" for c in r["checks"])


def test_missing_table_key_fails_every_row_with_its_name(data_copy, capsys):
    raw = json.loads((data_copy / "B2.json").read_text(encoding="utf-8"))
    del raw["duality"]
    (data_copy / "B2.json").write_text(json.dumps(raw), encoding="utf-8")
    code, out, _ = run(capsys, "audit", "--type", "B2")
    assert code == 3
    rows = json.loads(out)["checks"]
    assert len(rows) == 6
    for row in rows:
        assert row["details"].startswith("internal error: DataIntegrityFailure: B2 tables, duality")
        assert row["details"].endswith(": missing")


def test_exit_code_separates_crashed_from_failed_checks(monkeypatch, capsys):
    def crash(ctx):
        raise KeyError("boom")

    def fail(ctx):
        return audit.CheckResult("duality", audit._REFS["duality"], "fail", "mismatch")

    monkeypatch.setitem(audit._CHECKS, "duality", fail)
    assert run(capsys, "audit", "--type", "B2")[0] == 1
    monkeypatch.setitem(audit._CHECKS, "duality", crash)
    assert run(capsys, "audit", "--type", "B2")[0] == 3


def test_audit_deterministic_output(capsys):
    _, first, _ = run(capsys, "audit", "--all")
    _, second, _ = run(capsys, "audit", "--all")
    assert first == second


def test_sl3_single_prime_with_orbits(capsys):
    code, out, _ = run(capsys, "sl3", "--p", "5", "--orbits")
    assert code == 0
    payload = json.loads(out)
    (entry,) = payload["results"]
    assert entry["p"] == 5
    assert entry["lines"] == 31
    assert entry["kernel"]["dim_ker_tau"] == 15
    assert entry["kernel"]["ker_tau_eq_im_tau_prime"]
    totals = {o["total"] for o in entry["orbits"]}
    assert totals == {186}


def test_sl3_orbit_entries_hold_plain_ints_and_bools(capsys):
    # written from the orbit arrays, with each residue its own lift; no numpy
    # scalar reaches the encoder
    entry = _sl3_entry(7, True)
    assert json.loads(run(capsys, "sl3", "--p", "7", "--orbits")[1])["results"] == [entry]
    assert entry["orbits"] and entry["ok"] is True
    for o in entry["orbits"]:
        assert list(o) == ["rep", "lifts", "dims", "total", "expected", "ok"]
        assert o["rep"] == o["lifts"][0] and o["total"] == sum(o["dims"]) == o["expected"]
        ints = o["rep"] + [c for z in o["lifts"] for c in z] + o["dims"] + [o["total"], o["expected"]]
        assert all(type(c) is int for c in ints), o
        assert o["ok"] is True


def test_sl3_default_primes(capsys):
    code, out, _ = run(capsys, "sl3")
    assert code == 0
    payload = json.loads(out)
    assert [e["p"] for e in payload["results"]] == [2, 3, 5, 7, 11]
    assert all(e["ok"] for e in payload["results"])


def test_sl3_rejects_composite(capsys):
    assert_usage_error(capsys, "sl3", "--p", "6")


def test_sl3_rejects_too_large_prime(capsys):
    assert_usage_error(capsys, "sl3", "--p", "2", "--p", "101")


def test_sl3_refuses_a_huge_p_before_testing_it_for_primality(capsys):
    # sqrt(p) is beyond float range, and trial division up to it would not end
    code, out, err = run(capsys, "sl3", "--p", str(10**400 + 1))
    assert (code, out) == (2, "")
    assert err.startswith("cellred: ") and "exceeds bound" in err


def test_sl3_stage_failure_is_an_entry_and_exit_3(monkeypatch, capsys):
    clean = json.loads(run(capsys, "sl3", "--p", "5")[1])["results"][0]
    analyse = sl3lab.kernel_analysis

    def kernel_analysis(space):
        if space.p == 7:
            raise AssertionError("rank guard tripped")
        return analyse(space)

    monkeypatch.setattr(sl3lab, "kernel_analysis", kernel_analysis)
    code, out, err = run(capsys, "sl3", "--p", "5", "--p", "7")
    assert (code, err) == (3, "")
    five, seven = json.loads(out)["results"]
    assert five == clean
    assert seven == {"p": 7, "ok": False,
                     "error": "kernel_analysis: AssertionError: rank guard tripped"}
    # a usage error still ends the command before any output
    assert_usage_error(capsys, "sl3", "--p", "4")
    assert_usage_error(capsys, "sl3", "--p", "7", "--p", "101")


def test_sl3_orbits_skip_below_five(capsys):
    code, out, _ = run(capsys, "sl3", "--orbits")
    assert code == 0
    payload = json.loads(out)
    small = {e["p"]: e for e in payload["results"] if e["p"] < 5}
    assert all(e["orbits"] is None and "orbits_note" in e for e in small.values())
    big = {e["p"]: e for e in payload["results"] if e["p"] >= 5}
    assert all(e["orbits"] for e in big.values())


def test_tables_dump_delta_g2(capsys):
    code, out, _ = run(capsys, "tables", "dump", "--what", "delta", "--type", "G2")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 8
    row = payload["rows"]["121212"]
    assert row["pi"] == "t^6"
    assert row["partner"] == "e" and row["sign"] == "+"


def test_tables_dump_over_a_corrupt_data_file_is_exit_3(data_copy, capsys):
    raw = json.loads((data_copy / "B2.json").read_text(encoding="utf-8"))
    raw["unipotent"][1]["degree"] = "t/0"
    (data_copy / "B2.json").write_text(json.dumps(raw), encoding="utf-8")
    code, out, err = run(capsys, "tables", "dump", "--what", "delta", "--type", "B2")
    assert (code, out) == (3, "")
    assert err.startswith("cellred: B2 tables, unipotent (ref 1.3): ")
    assert "cannot parse 't/0'" in err and "Traceback" not in err


def test_a_non_ascii_digit_in_a_data_file_degree_fails_its_type(data_copy, capsys):
    # str.isdigit read t(t+1)^\u0662/\u0662 as the shipped t(t+1)^2/2: exit 0
    raw = json.loads((data_copy / "B2.json").read_text(encoding="utf-8"))
    raw["unipotent"][1]["degree"] = "t(t+1)^\u0662/\u0662"
    (data_copy / "B2.json").write_text(json.dumps(raw), encoding="utf-8")
    code, out, _ = run(capsys, "audit", "--type", "B2")
    assert code == 3
    rows = json.loads(out)["checks"]
    assert len(rows) == 6
    for row in rows:
        assert row["details"].startswith(
            "internal error: DataIntegrityFailure: B2 tables, unipotent (ref 1.3): r: ")
        assert "bad polynomial" in row["details"]


@pytest.mark.parametrize("degree", ["(t+1)^100000", "((((2^4)^4)^4)^4)^4"])
def test_a_huge_power_in_a_data_file_fails_its_type_at_once(data_copy, capsys, degree):
    # the reader multiplied every power out: (t+1)^20000 held the audit for
    # minutes; now a degree above B2's nu = 4, or a number at the magnitude
    # guard, is refused as it is read
    raw = json.loads((data_copy / "B2.json").read_text(encoding="utf-8"))
    raw["unipotent"][1]["degree"] = degree
    (data_copy / "B2.json").write_text(json.dumps(raw), encoding="utf-8")
    with deadline(1):
        code, out, _ = run(capsys, "audit", "--type", "B2")
    assert code == 3
    rows = json.loads(out)["checks"]
    assert len(rows) == 6
    for row in rows:
        assert row["details"].startswith(
            "internal error: DataIntegrityFailure: B2 tables, unipotent (ref 1.3): r: ")
        assert "bad polynomial" in row["details"]


def test_an_unreadable_data_file_is_exit_3_naming_its_header(data_copy, capsys):
    path = data_copy / "B2.json"
    path.write_bytes(path.read_bytes()[:500])  # cut short
    label = "B2 tables, header: cannot read B2.json: JSONDecodeError: "
    code, out, _ = run(capsys, "audit", "--type", "B2")
    assert code == 3
    rows = json.loads(out)["checks"]
    assert len(rows) == 6
    for row in rows:
        assert row["details"].startswith(f"internal error: DataIntegrityFailure: {label}")
    code, out, err = run(capsys, "tables", "dump", "--what", "delta", "--type", "B2")
    assert (code, out) == (3, "")
    assert err.startswith(f"cellred: {label}") and err.count("\n") == 1


def test_a_repeated_key_in_a_data_file_is_exit_3_naming_its_header(data_copy, capsys):
    # json.load kept the last value of a repeated key, so a wrong first row
    # under the same word passed the audit with exit 0
    path = data_copy / "B2.json"
    text = path.read_text(encoding="utf-8")
    at = text.index('"121"', text.index('"delta": {'))
    path.write_text(f'{text[:at]}"121": "t^3 + 999", {text[at:]}', encoding="utf-8")
    label = "B2 tables, header: cannot read B2.json: ValueError: duplicate key '121'"
    code, out, _ = run(capsys, "audit", "--type", "B2")
    assert code == 3
    rows = json.loads(out)["checks"]
    assert len(rows) == 6
    for row in rows:
        assert row["details"] == f"internal error: DataIntegrityFailure: {label}"
    code, out, err = run(capsys, "tables", "dump", "--what", "delta", "--type", "B2")
    assert (code, out, err) == (3, "", f"cellred: {label}\n")


def test_tables_dump_internal_failure_is_one_line_and_exit_3(data_copy, monkeypatch, capsys):
    def compute_kl(group):
        raise RuntimeError("kl broke")

    monkeypatch.setattr(klcells, "compute_kl", compute_kl)
    # fresh context: a new data directory
    for what in ("klpoly", "cells", "gamma"):
        code, out, err = run(capsys, "tables", "dump", "--what", what, "--type", "A3")
        assert (code, out) == (3, "")
        assert err == "cellred: internal error: RuntimeError: kl broke\n"
    # a labelled data failure, a usage error and a bad -o keep their own lines
    raw = json.loads((data_copy / "B2.json").read_text(encoding="utf-8"))
    raw["m_w"]["1"][0].pop("coef")
    (data_copy / "B2.json").write_text(json.dumps(raw), encoding="utf-8")
    code, out, err = run(capsys, "tables", "dump", "--what", "delta", "--type", "B2")
    assert (code, out) == (3, "")
    assert err == "cellred: B2 tables, m_w (ref 2.1): row '1': KeyError: 'coef'\n"
    assert_usage_error(capsys, "tables", "dump", "--what", "delta", "--type", "A4")
    assert_usage_error(capsys, "tables", "dump", "--what", "delta", "--type", "G2",
                       "-o", str(data_copy))


def test_tables_dump_delta_a4_fails_cleanly(capsys):
    assert_usage_error(capsys, "tables", "dump", "--what", "delta", "--type", "A4")


def test_tables_dump_klpoly(capsys):
    code, out, _ = run(capsys, "tables", "dump", "--what", "klpoly", "--type", "A3")
    payload = json.loads(out)
    nontrivial = [e for e in payload["entries"] if e["coeffs"] != {"0": 1}]
    assert {"y": "2", "w": "2132", "coeffs": {"0": 1, "1": 1}} in nontrivial


def test_tables_dump_cells(capsys):
    code, out, _ = run(capsys, "tables", "dump", "--what", "cells", "--type", "B2")
    payload = json.loads(out)
    assert sorted(len(c["members"]) for c in payload["two_sided_cells"]) == [1, 1, 6]
    assert {c["a"] for c in payload["two_sided_cells"]} == {0, 1, 4}


def test_tables_dump_gamma_and_cwe(capsys):
    code, out, _ = run(capsys, "tables", "dump", "--what", "gamma", "--type", "A1")
    payload = json.loads(out)
    assert {"x": "1", "y": "1", "z": "1", "value": 1} in payload["entries"]
    code, out, _ = run(capsys, "tables", "dump", "--what", "cwe", "--type", "A2")
    payload = json.loads(out)
    assert payload["rows"]["e"] == {"3": 1}
    assert payload["rows"]["1"] == {"21": 1}


def test_usage_error_on_missing_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("form, full", [
    ("audit --type=A1", "audit --type A1"),
    ("audit --ty A1 --form md", "audit --type A1 --format md"),
    ("audit --type A1 --format json --format md", "audit --type A1 --format md"),
    ("sl3 --orb --p 5", "sl3 --orbits --p 5"),
    ("sl3 --p=5", "sl3 --p 5"),
])
def test_a_short_form_reads_as_its_full_spelling(capsys, form, full):
    assert run(capsys, *form.split()) == run(capsys, *full.split())


def test_repeated_type_and_p_collect_every_value_in_order(capsys):
    code, out, _ = run(capsys, "audit", "--type", "B2", "--type=A1")
    assert code == 0
    assert json.loads(out) == [json.loads(run(capsys, "audit", "--type", t)[1]) for t in ("B2", "A1")]
    code, out, _ = run(capsys, "sl3", "--p", "7", "--p=5")
    assert code == 0
    assert json.loads(out)["results"] == [
        json.loads(run(capsys, "sl3", "--p", p)[1])["results"][0] for p in ("7", "5")]


def assert_bad_command_line(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    assert (exc.value.code, out.out) == (2, "")
    assert out.err.startswith("usage: cellred ") and "error: " in out.err


@pytest.mark.parametrize("argv", [
    "", "audit --bogus", "audit A1", "audit --all=yes", "sl3 --p", "sl3 --o", "sl3 --p 5 --o x",
    "audit --format xml", "tables dump --type A1", "tables dump --what cells", "tables",
    "tables list",
])
def test_a_bad_command_line_prints_the_usage_and_exits_2(capsys, argv):
    assert_bad_command_line(capsys, *argv.split())


def test_p_takes_only_ascii_digits(capsys):
    # int() reads '\u0667' as 7, '1_3' as 13, ' 7' and '+5', and refuses
    # more digits than its limit with a ValueError of its own
    for p in ("\u0667", "1_3", " 7", "+5", "-5", "", "9" * 5000):
        assert_bad_command_line(capsys, "sl3", "--p", p)


@pytest.mark.parametrize("argv", ["--help", "-h", "audit --help", "sl3 --p 5 --he",
                                  "tables dump --what cells -h", "tables --help"])
def test_help_prints_the_usage_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    out = capsys.readouterr()
    assert (exc.value.code, out.err) == (0, "")
    assert out.out.startswith("usage: cellred ")


def cli_env():
    """The environment of a fresh ``python -m cellred.cli`` on this checkout."""
    return dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))


def test_second_main_call_keeps_nothing_of_the_first(tmp_path, capsys):
    # every main call reads its command line into new arguments: the first
    # call's --type values and -o path must not reach the second
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "audit", "--type", "A1", "--type", "B2", "-o", str(target))
    assert code == 0 and out == ""
    assert [r["type"] for r in json.loads(target.read_text())] == ["A1", "B2"]
    code, out, _ = run(capsys, "audit", "--format", "md")
    fresh = subprocess.run(
        [sys.executable, "-m", "cellred.cli", "audit", "--format", "md"],
        capture_output=True, text=True, env=cli_env(), timeout=120,
    )
    assert (code, out) == (fresh.returncode, fresh.stdout)
    assert out.count("## ") == len(TYPE_NAMES)


def test_closed_stdout_exits_141_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "cellred.cli",
         "tables", "dump", "--what", "klpoly", "--type", "A3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env(),
    )
    proc.stdout.close()  # before the dump is written: every write fails
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""


def _fresh_python(code, env):
    """stdout of ``python -c code`` in a fresh interpreter with ``env``."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_a_fresh_cli_process_runs_on_one_thread():
    # numpy's OpenBLAS starts one worker per further core at import unless
    # OPENBLAS_NUM_THREADS is set; no command calls BLAS
    env = cli_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    out = _fresh_python(
        "import contextlib, io, os\n"
        "from cellred.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['sl3']) == 0 and main(['audit', '--type', 'A2']) == 0\n"
        "print(len(os.listdir('/proc/self/task')))\n",
        env,
    )
    assert out == "1\n"


def test_the_callers_blas_thread_count_wins():
    out = _fresh_python(
        "import os, cellred.cli\nprint(os.environ['OPENBLAS_NUM_THREADS'])\n",
        dict(cli_env(), OPENBLAS_NUM_THREADS="2"),
    )
    assert out == "2\n"


def test_a_fresh_cli_process_loads_no_argparse():
    # building argparse's parsers loads gettext and locale: some 2.5 ms a command
    out = _fresh_python(
        "import contextlib, io, sys\n"
        "from cellred.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['sl3']) == 0\n"
        "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n",
        cli_env(),
    )
    assert out == "[]\n"


def test_a_fresh_cli_process_loads_no_fractions_and_freezes_its_import():
    # dimension polynomials hold integer numerators over one denominator;
    # fractions, which loads decimal, cost each command some 1.6 ms and
    # 0.5 MB.  The frozen import keeps a collection over its young objects
    # out of the first command that allocates enough
    out = _fresh_python(
        "import contextlib, gc, io, sys\n"
        "import cellred.cli\n"
        "print(gc.get_freeze_count() > 0)\n"
        "from cellred.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['audit', '--all'], ['sl3', '--orbits'],\n"
        "                 ['tables', 'dump', '--what', 'delta', '--type', 'G2'],\n"
        "                 ['tables', 'dump', '--what', 'klpoly', '--type', 'G2']):\n"
        "        assert main(argv) == 0, argv\n"
        "print(sorted({'fractions', 'decimal'} & set(sys.modules)))\n",
        cli_env(),
    )
    assert out == "True\n[]\n"


def test_import_cellred_loads_no_numpy():
    # so that cellred.cli can set the BLAS thread count before numpy loads
    out = _fresh_python("import sys, cellred\nprint('numpy' in sys.modules)\n", cli_env())
    assert out == "False\n"
