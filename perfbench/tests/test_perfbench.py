"""Self-tests of the benchmark harness; they need neither cellred nor timing."""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _row(cid: str, status: str = "pass", details: str = "ok") -> dict:
    return {"id": cid, "paper_ref": "2.3", "status": status, "details": details}


def _audit_text(rows: list[dict], single: bool = False) -> str:
    report = {"type": "B2", "checks": rows, "notes": ["prime fields only"]}
    return json.dumps(report if single else [report], indent=2)


BASE_ROWS = [_row("bookkeeping"), _row("duality", details="4 rows paired")]
AUDIT = ["audit", "--type", "B2"]


def test_gate_accepts_identical_output():
    text = _audit_text(BASE_ROWS)
    assert gate.check_output(0, text, gate.reference_entry(AUDIT, text)) == []


def test_gate_flags_corrupted_dump():
    argv = ["tables", "dump", "--what", "gamma", "--type", "A2"]
    text = json.dumps({"entries": [{"x": "1", "value": 1}]}, indent=2)
    ref = gate.reference_entry(argv, text)
    assert gate.check_output(0, text, ref) == []
    assert gate.check_output(0, text.replace('"value": 1', '"value": 2'), ref)
    assert gate.check_output(0, text + "\n", ref)


def test_gate_flags_nonzero_exit_and_missing_reference():
    text = _audit_text(BASE_ROWS)
    assert gate.check_output(1, text, gate.reference_entry(AUDIT, text)) == ["exit status 1"]
    assert gate.check_output(0, text, None) == ["no reference output recorded"]


def test_gate_flags_changed_audit_row():
    ref = gate.reference_entry(AUDIT, _audit_text(BASE_ROWS))
    changed = [BASE_ROWS[0], _row("duality", details="3 rows paired")]
    assert gate.check_output(0, _audit_text(changed), ref) == ["report 0: row duality changed"]
    assert gate.check_output(0, _audit_text(BASE_ROWS[:1]), ref) == [
        "report 0: row duality missing"
    ]


def test_gate_accepts_added_passing_row_only():
    for single in (False, True):
        ref = gate.reference_entry(AUDIT, _audit_text(BASE_ROWS, single))
        added = _audit_text(BASE_ROWS + [_row("lusztig_p")], single)
        assert gate.check_output(0, added, ref) == []
        failing = _audit_text(BASE_ROWS + [_row("lusztig_p", "fail")], single)
        assert gate.check_output(0, failing, ref) == [
            "report 0: new row lusztig_p has status 'fail'"
        ]


def test_gate_flags_changed_notes():
    ref = gate.reference_entry(AUDIT, _audit_text(BASE_ROWS))
    text = _audit_text(BASE_ROWS + [_row("lusztig_p")]).replace("prime fields", "all fields")
    assert gate.check_output(0, text, ref) == ["report 0: type or notes changed"]


def _span(sid, start, end, parent=None, name="f"):
    return spans.Span(sid, name, start, end, parent, 0)


def test_self_time_subtracts_covered_child_time():
    tree = [
        _span(0, 0, 100, name="root"),
        _span(1, 10, 40, 0, name="a"),
        _span(2, 15, 25, 1, name="leaf"),
        _span(3, 50, 90, 0, name="b"),
        _span(4, 55, 70, 3, name="leaf"),
        _span(5, 60, 80, 3, name="leaf"),  # overlaps its sibling: covered once
    ]
    assert spans.self_times_ns(tree) == {0: 30, 1: 20, 2: 10, 3: 15, 4: 15, 5: 20}
    totals = spans.layer_totals(tree)
    assert totals["leaf"] == (45 / 1e6, 3)
    assert totals["root"] == (30 / 1e6, 1)
    assert totals["klcells.compute_kl"] == (0.0, 0)


def test_tracer_records_nesting_and_command():
    tracer = spans.Tracer()
    inner = tracer.wrap("klcells.compute_cells", lambda x: x + 1)
    outer = tracer.wrap("klcells.j_ring", lambda x: inner(x) * 2)
    tracer.command = 7
    assert outer(1) == 4
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["klcells.compute_cells"].parent == by_name["klcells.j_ring"].id
    assert by_name["klcells.j_ring"].parent is None
    assert {s.command for s in tracer.spans} == {7}
    assert list(tracer.returned["klcells.j_ring"].values()) == [4]


def test_small_mix_seed_only_reorders():
    a, b = workloads.commands("small_mix", 1), workloads.commands("small_mix", 2)
    assert len(a) == 27 and a == workloads.commands("small_mix", 1)
    assert a != b and sorted(a) == sorted(b)
    assert workloads.commands("audit_all", 1) == workloads.commands("audit_all", 2)


def test_reference_covers_every_command():
    ref = gate.load_reference()
    assert {gate.command_key(argv) for argv in workloads.all_commands()} <= set(ref)


def test_benchmark_json_matches_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.per_layer_metrics()
