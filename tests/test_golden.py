"""Golden outputs: every audit, dump and sl3 report, byte for byte.

``golden/digests.json`` holds, per command, the sha256 and byte count of its
stdout and its exit code.  A refactor must leave all three unchanged.

Run ``python tests/test_golden.py --record`` from the repository root to
re-record the digests from the current source tree.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

DIGESTS = Path(__file__).with_name("golden") / "digests.json"

TYPES = ("A1", "A2", "A3", "A4", "B2", "G2")
TABLES = ("klpoly", "cells", "gamma", "cwe", "delta")


def commands() -> list[list[str]]:
    out = []
    for t in TYPES:
        for fmt in ("json", "md"):
            out.append(["audit", "--type", t, "--format", fmt])
    for what in TABLES:
        for t in TYPES:
            out.append(["tables", "dump", "--what", what, "--type", t])
    out.append(["sl3"])
    out.append(["sl3", "--orbits"])
    for p in ("31", "61", "97"):  # where the Singer rank does most of its work
        out.append(["sl3", "--p", p])
    out.append(["sl3", "--orbits", "--p", "97"])  # 1488 orbit entries
    # the other accepted primes in one command; p = 89 tries the most cubics
    rest = (13, 17, 19, 23, 29, 37, 41, 43, 47, 53, 59, 67, 71, 73, 79, 83, 89)
    out.append(["sl3", *(arg for p in rest for arg in ("--p", str(p)))])
    return out


def run(argv: list[str]) -> dict:
    """Exit code, sha256 and byte count of one in-process CLI run."""
    from cellred import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    if code is None:
        code = 0
    elif not isinstance(code, int):
        code = 1  # the interpreter's exit status for a message
    data = out.getvalue().encode("utf-8")
    return {"exit": code, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def record() -> int:
    entries = {" ".join(argv): run(argv) for argv in commands()}
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(entries)} commands in {DIGESTS}")
    return 0


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_golden_covers_every_command(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in commands())


@pytest.mark.parametrize("argv", commands(), ids=" ".join)
def test_output_matches_golden(argv, golden):
    assert run(argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(record())
