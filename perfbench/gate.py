"""Output gate: compare each command's stdout with a recorded reference.

A dump or ``sl3`` report must match its reference byte for byte.  An
``audit`` report is held to a looser rule so that a later check can be added
without re-recording: every reference row must still appear unchanged, any
new row must have status ``pass``, and everything outside the rows (type,
notes) must be unchanged.

Run ``python3 perfbench/gate.py`` from the repository root to record
``reference.json`` from the current source tree.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import workloads

REFERENCE = Path(__file__).with_name("reference.json")


def command_key(argv: list[str]) -> str:
    return " ".join(argv)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical_sha(obj) -> str:
    return _sha(json.dumps(obj, sort_keys=True))


def _audit_reports(text: str) -> list[dict]:
    """Parsed audit JSON; a single-type report is one object, not a list."""
    raw = json.loads(text)
    return raw if isinstance(raw, list) else [raw]


def reference_entry(argv: list[str], text: str) -> dict:
    """The digests recorded for one command's stdout."""
    entry = {"sha256": _sha(text), "bytes": len(text.encode("utf-8"))}
    if argv[0] == "audit":
        entry["reports"] = [
            {
                "head": _canonical_sha({k: v for k, v in r.items() if k != "checks"}),
                "rows": [[c["id"], _canonical_sha(c)] for c in r["checks"]],
            }
            for r in _audit_reports(text)
        ]
    return entry


def check_output(rc, text: str, ref: dict | None) -> list[str]:
    """Problems with one command's result; empty when it passes the gate."""
    problems = [] if rc == 0 else [f"exit status {rc!r}"]
    if ref is None:
        return problems + ["no reference output recorded"]
    if _sha(text) == ref["sha256"]:
        return problems
    if "reports" not in ref:
        return problems + ["output differs from the reference"]
    try:
        reports = _audit_reports(text)
    except json.JSONDecodeError:
        return problems + ["audit output is not JSON"]
    if len(reports) != len(ref["reports"]):
        return problems + [f"{len(reports)} reports, reference has {len(ref['reports'])}"]
    for k, (got, want) in enumerate(zip(reports, ref["reports"])):
        head = {key: v for key, v in got.items() if key != "checks"}
        if _canonical_sha(head) != want["head"]:
            problems.append(f"report {k}: type or notes changed")
        rows = {c.get("id"): c for c in got.get("checks", [])}
        known = {cid for cid, _ in want["rows"]}
        for cid, digest in want["rows"]:
            if cid not in rows:
                problems.append(f"report {k}: row {cid} missing")
            elif _canonical_sha(rows[cid]) != digest:
                problems.append(f"report {k}: row {cid} changed")
        for cid, row in rows.items():
            if cid not in known and row.get("status") != "pass":
                problems.append(f"report {k}: new row {cid} has status {row.get('status')!r}")
    return problems


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def record() -> int:
    """Run every distinct workload command once and write the reference."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from cellred import cli

    entries = {}
    for argv in workloads.all_commands():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        if rc != 0:
            print(f"gate: {command_key(argv)} exited {rc}", file=sys.stderr)
            return 1
        entries[command_key(argv)] = reference_entry(argv, buf.getvalue())
    REFERENCE.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"gate: recorded {len(entries)} commands in {REFERENCE.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(record())
