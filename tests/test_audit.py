import json
import traceback
import tracemalloc
from pathlib import Path

import pytest

from cellred import audit, heckechar, klcells, uniptables, weylmod
from cellred.audit import (
    get_context,
    reports_to_markdown,
    run_all,
    run_checks,
)
from cellred.cli import main
from cellred.coxeter import WeylGroup
from cellred.rootdata import CartanType

from conftest import DATA_TYPE_NAMES, TYPE_NAMES

CHECK_IDS = ("bookkeeping", "duality", "a_values", "centrality", "j_criterion", "proximity")


@pytest.fixture(scope="module")
def all_reports():
    return {r.type_name: r for r in run_all()}


def test_every_type_reports_every_check_once(all_reports):
    assert set(all_reports) == set(TYPE_NAMES)
    for r in all_reports.values():
        assert tuple(c.id for c in r.checks) == CHECK_IDS
        for c in r.checks:
            assert c.paper_ref  # every check cites its source location
            assert c.status in ("pass", "fail", "skipped")
            if c.status == "skipped":
                assert c.details  # a stated reason


@pytest.mark.parametrize("name", DATA_TYPE_NAMES)
def test_full_types_all_pass(name, all_reports):
    r = all_reports[name]
    assert not r.failed
    assert all(c.status == "pass" for c in r.checks)


def test_a4_partial_report(all_reports):
    r = all_reports["A4"]
    by_id = {c.id: c for c in r.checks}
    for cid in ("bookkeeping", "duality", "a_values", "proximity"):
        assert by_id[cid].status == "skipped"
    assert by_id["centrality"].status == "pass"
    assert "derived" in by_id["centrality"].details
    assert by_id["j_criterion"].status == "pass"
    assert not r.failed


def test_b2_report_contents(all_reports):
    r = all_reports["B2"]
    by_id = {c.id: c for c in r.checks}
    assert by_id["bookkeeping"].details == "6/6 unipotent characters"
    assert by_id["duality"].artifacts["signs"] == {
        "e": "+", "1": "+", "2": "+", "121": "+", "212": "+", "1212": "+",
    }
    assert "[0, 1, 1, 1, 1, 4]" in by_id["a_values"].details


def test_g2_j_criterion_notes_involutions(all_reports):
    c = {c.id: c for c in all_reports["G2"].checks}["j_criterion"]
    assert "equals the involution set" in c.details


def test_json_and_markdown_renderers(all_reports):
    reports = [all_reports["A1"], all_reports["B2"]]
    md = reports_to_markdown(reports)
    assert "## B2" in md and "| bookkeeping |" in md


def test_run_checks_is_deterministic():
    a = run_checks(CartanType.parse("A2"))
    b = run_checks(CartanType.parse("A2"))
    assert a == b


def test_empty_type_list():
    assert run_all(()) == []


def test_context_reuses_cached_instances():
    c1 = get_context(CartanType.parse("B2"))
    c2 = get_context(CartanType.parse("B2"))
    assert c1 is c2


def test_crashing_check_becomes_a_fail_row_naming_the_exception(monkeypatch):
    def crash(ctx):
        raise KeyError("boom")

    monkeypatch.setitem(audit._CHECKS, "duality", crash)
    by_id = {c.id: c for c in run_checks(CartanType.parse("B2")).checks}
    assert by_id["duality"].status == "fail"
    assert by_id["duality"].details == "internal error: KeyError: 'boom'"
    assert by_id["bookkeeping"].status == "pass"


def test_a_check_that_reads_the_2_1_tables_is_not_called_without_them(monkeypatch):
    calls = []
    monkeypatch.setitem(audit._CHECKS, "duality", calls.append)
    row = {c.id: c for c in run_checks(CartanType.parse("A4")).checks}["duality"]
    assert calls == []
    assert (row.status, row.details) == ("skipped", "no transcribed 2.1 tables for this type")


def test_a_check_with_two_failures_yields_one_fail_row_joining_them(monkeypatch):
    def two_failures(ctx):
        return audit._row("duality", ["first", "second"], "unused")

    monkeypatch.setitem(audit._CHECKS, "duality", two_failures)
    row = {c.id: c for c in run_checks(CartanType.parse("B2")).checks}["duality"]
    assert (row.status, row.details) == ("fail", "first; second")


def test_context_builds_the_character_table_once(data_copy, monkeypatch):
    calls = []
    build = heckechar.w_character_table

    def counted(g):
        calls.append(g)
        return build(g)

    monkeypatch.setattr(heckechar, "w_character_table", counted)
    get_context(CartanType.parse("B2")).leading  # fresh: a new data directory
    assert len(calls) == 1


def non_involutive_copy(directory: Path) -> Path:
    """A copy of the shipped data whose B2 duality is not an involution."""
    shipped = Path(uniptables.__file__).with_name("data")
    directory.mkdir(exist_ok=True)
    for src in shipped.glob("*.json"):
        (directory / src.name).write_text(src.read_text(encoding="utf-8"), encoding="utf-8")
    raw = json.loads((directory / "B2.json").read_text(encoding="utf-8"))
    raw["duality"]["e"] = "1"  # while "1" still pairs with "2"
    (directory / "B2.json").write_text(json.dumps(raw), encoding="utf-8")
    return directory


def test_caches_are_keyed_by_the_data_directory(monkeypatch, tmp_path):
    b2 = CartanType.parse("B2")
    get_context(b2).tables
    get_context(b2).deltas
    monkeypatch.setenv("CELLRED_DATA_DIR", str(non_involutive_copy(tmp_path)))
    with pytest.raises(uniptables.DataIntegrityFailure, match="not involutive"):
        get_context(b2).tables
    with pytest.raises(uniptables.DataIntegrityFailure, match="not involutive"):
        get_context(b2).deltas


def test_context_keeps_the_data_directory_it_was_built_for(data_copy, monkeypatch, tmp_path):
    b2 = CartanType.parse("B2")
    want = uniptables.load_tables(b2)
    ctx = get_context(b2)  # fresh: keyed by the pristine copy
    monkeypatch.setenv("CELLRED_DATA_DIR", str(non_involutive_copy(tmp_path / "bad")))
    assert ctx.tables.duality == want.duality
    assert weylmod.find_duality(ctx.group, ctx.deltas, ctx.tables.words).ok
    assert set(ctx.deltas) == set(want.delta)
    with pytest.raises(uniptables.DataIntegrityFailure, match="not involutive"):
        get_context(b2).tables  # a new directory gets a new context


def count_calls(monkeypatch, module, name, calls):
    build = getattr(module, name)

    def counted(*args):
        calls[name] = calls.get(name, 0) + 1
        return build(*args)

    monkeypatch.setattr(module, name, counted)


def test_klpoly_dump_never_runs_the_structure_constant_pass(data_copy, monkeypatch, capsys):
    calls = {}
    count_calls(monkeypatch, klcells, "compute_kl", calls)
    count_calls(monkeypatch, klcells, "_compute_top", calls)
    # fresh context: a new data directory
    assert main(["tables", "dump", "--what", "klpoly", "--type", "A3"]) == 0
    assert json.loads(capsys.readouterr().out)["entries"]
    assert calls == {"compute_kl": 1}


def test_no_command_builds_the_kl_polynomial_dict(data_copy, capsys):
    # fresh context: a new data directory; the klpoly dump reads p_terms
    assert main(["audit", "--type", "A3"]) == 0
    kl = get_context(CartanType.parse("A3")).kl
    for what in ("klpoly", "cells", "gamma", "cwe", "delta"):
        assert main(["tables", "dump", "--what", what, "--type", "A3"]) == 0
    capsys.readouterr()
    assert get_context(CartanType.parse("A3")).kl is kl
    assert "_P_kept" not in vars(kl) and "_mu_kept" not in vars(kl)
    kl.P
    kl.mu
    assert "_P_kept" in vars(kl) and "_mu_kept" in vars(kl)  # the keys of the P and mu stages


@pytest.mark.parametrize("argv", [
    ["audit", "--type", "A4"],
    ["tables", "dump", "--what", "gamma", "--type", "A4"],
], ids=("audit", "gamma-dump"))
def test_commands_never_build_the_dense_gamma(data_copy, monkeypatch, capsys, argv):
    calls = {}
    count_calls(monkeypatch, klcells.KLData, "gamma_tensor", calls)
    assert main(argv) == 0  # fresh context: a new data directory
    capsys.readouterr()
    assert calls == {}
    get_context(CartanType.parse("A4")).kl.gamma_tensor()  # the counter counts
    assert calls == {"gamma_tensor": 1}


def _stage_peaks_mb(ctx, names, held_mb=None) -> dict[str, float]:
    """The ``tracemalloc`` peak of each stage build, in MB over its start;
    ``held_mb``, if given, gets what each build still holds after it."""
    peak_mb = {}
    tracemalloc.start()
    try:
        for name in names:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            getattr(ctx, name)
            now, peak = tracemalloc.get_traced_memory()
            peak_mb[name] = (peak - base) / 2**20
            if held_mb is not None:
                held_mb[name] = (now - base) / 2**20
    finally:
        tracemalloc.stop()
    return peak_mb


def test_a4_cells_and_gamma_stages_peak_under_20_mb(data_copy):
    ctx = get_context(CartanType.parse("A4"))  # fresh: a new data directory
    ctx.kl
    peak_mb = _stage_peaks_mb(ctx, ("cells", "gamma"))  # cells runs the structure-constant pass
    assert max(peak_mb.values()) < 20, peak_mb


def test_a4_kl_stage_peaks_under_3_75_mb_and_cells_under_2_mb(data_copy):
    # the canonical basis on degrees -off..+1, and the structure-constant
    # state freed before the gamma gather (4.50 and 2.31 MB with the full
    # window and the state held)
    ctx = get_context(CartanType.parse("A4"))  # fresh: a new data directory
    ctx.group
    peak_mb = _stage_peaks_mb(ctx, ("kl", "cells"))
    assert peak_mb["kl"] < 3.75 and peak_mb["cells"] < 2.0, peak_mb


def test_a4_kl_stage_peaks_under_2_75_mb_and_kl_data_holds_under_1_mb(data_copy):
    # cs in one degree slot, the (v + v^-1) diagonal read from the left
    # descents (3.28 MB peak and 1.51 MB held with three slots)
    ctx = get_context(CartanType.parse("A4"))  # fresh: a new data directory
    ctx.group
    held_mb = {}
    peak_mb = _stage_peaks_mb(ctx, ("kl",), held_mb)
    assert peak_mb["kl"] < 2.75 and held_mb["kl"] < 1.0, (peak_mb, held_mb)
    assert ctx.kl.cs.shape == (ctx.group.rank, ctx.group.size, ctx.group.size)


def test_a4_kl_stage_peaks_under_2_mb_and_cells_under_1_5_mb(data_copy):
    # the canonical basis and the structure-constant state each in one degree
    # parity (2.42 and 1.77 MB with every degree slot)
    ctx = get_context(CartanType.parse("A4"))  # fresh: a new data directory
    ctx.group
    peak_mb = _stage_peaks_mb(ctx, ("kl", "cells"))
    assert peak_mb["kl"] < 2.0 and peak_mb["cells"] < 1.5, peak_mb


def test_a4_cells_stage_peaks_under_1_25_mb(data_copy):
    # gamma expanded from the nonzero entries of the representative pairs
    # (1.33 MB with the (n, 120) lead gathered to all 596 pairs)
    ctx = get_context(CartanType.parse("A4"))  # fresh: a new data directory
    ctx.kl
    peak_mb = _stage_peaks_mb(ctx, ("cells",))
    assert peak_mb["cells"] < 1.25, peak_mb


def test_audit_builds_each_stage_once(data_copy, monkeypatch, capsys):
    builders = (
        (klcells, "compute_kl"), (klcells, "_compute_top"),
        (klcells, "compute_cells"), (klcells, "j_ring"),
        (heckechar, "w_character_table"), (heckechar, "build_hecke_modules"),
        (heckechar, "leading_data"),
    )
    calls = {}
    for module, name in builders:
        count_calls(monkeypatch, module, name, calls)
    assert main(["audit", "--type", "B2"]) == 0
    capsys.readouterr()
    assert calls == {name: 1 for _, name in builders}


def test_audit_and_delta_dump_find_each_duality_once(data_copy, monkeypatch, capsys):
    calls = {}
    count_calls(monkeypatch, weylmod, "find_duality", calls)
    # fresh contexts: a new data directory
    assert main(["audit", "--type", "B2", "--type", "G2"]) == 0
    for t in ("B2", "G2"):
        assert main(["tables", "dump", "--what", "delta", "--type", t]) == 0
    capsys.readouterr()
    assert calls == {"find_duality": 2}


def test_only_load_tables_parses_words_once_per_shipped_row(data_copy, monkeypatch, capsys):
    parse_word = WeylGroup.parse_word
    parsed = []

    def recorded(self, text):
        in_loader = any(
            f.name == "load_tables" and Path(f.filename).name == "uniptables.py"
            for f in traceback.extract_stack()
        )
        parsed.append((self.type.name, text, in_loader))
        return parse_word(self, text)

    monkeypatch.setattr(WeylGroup, "parse_word", recorded)
    # fresh contexts: a new data directory
    assert main(["audit", "--all"]) == 0
    for name in DATA_TYPE_NAMES:
        assert main(["tables", "dump", "--what", "delta", "--type", name]) == 0
    capsys.readouterr()
    shipped = [
        (name, word) for name in DATA_TYPE_NAMES
        for word in json.loads((data_copy / f"{name}.json").read_text(encoding="utf-8"))["r_alpha"]
    ]
    assert len(shipped) == 30
    assert sorted(parsed) == sorted((name, word, True) for name, word in shipped)


@pytest.mark.parametrize("module, name, reader", [
    (klcells, "j_ring", "centrality"),
    (heckechar, "build_hecke_modules", "j_criterion"),
], ids=("j_ring", "build_hecke_modules"))
def test_failing_stage_fails_only_the_rows_that_read_it(
    data_copy, monkeypatch, capsys, module, name, reader
):
    def broken(*args):
        raise RuntimeError("stage broke")

    monkeypatch.setattr(module, name, broken)
    assert main(["audit", "--type", "B2"]) == 3
    rows = {c["id"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    row = rows.pop(reader)
    assert row["status"] == "fail"
    assert row["details"] == "internal error: RuntimeError: stage broke"
    assert [c["status"] for c in rows.values()] == ["pass"] * 5


def test_a_raising_structure_constant_pass_runs_once(data_copy, monkeypatch):
    calls = []

    def broken(*args):
        calls.append(args)
        raise RuntimeError("top broke")

    monkeypatch.setattr(klcells, "_compute_top", broken)
    rows = {c.id: c for c in run_checks(CartanType.parse("A3")).checks}  # fresh context
    assert len(calls) == 1
    for cid in ("a_values", "centrality", "j_criterion"):
        assert rows[cid].details == "internal error: RuntimeError: top broke"
    for cid in ("bookkeeping", "duality", "proximity"):
        assert rows[cid].status == "pass"


def test_a_corrupt_data_file_is_loaded_once(data_copy, monkeypatch):
    path = data_copy / "B2.json"
    raw = json.loads(path.read_text(encoding="utf-8"))
    raw["unipotent"][0]["degree"] = "2"
    path.write_text(json.dumps(raw), encoding="utf-8")
    calls = {}
    count_calls(monkeypatch, uniptables, "load_tables", calls)
    checks = run_checks(CartanType.parse("B2")).checks
    assert calls == {"load_tables": 1}
    assert [c.details for c in checks] == [
        "internal error: DataIntegrityFailure: "
        "B2 tables, unipotent (ref 1.3): degree of '1' is not 1"
    ] * 6
