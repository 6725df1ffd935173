"""One workload in one fresh interpreter, as a CLI user would run it.

Usage: ``python3 perfbench/child.py WORKLOAD SEED TRACE`` from the repository
root, or ``python3 perfbench/child.py --setup-only``.  Imports ``cellred.cli``
from ``src/``, runs the workload's commands through ``cellred.cli.main`` with
stdout captured in memory, checks every output against the reference and
writes one JSON object to the real stdout.  ``run.py`` starts it.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from cellred import cli  # noqa: E402  (the import is what setup_s measures)

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import gate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run(name: str, seed: int, trace: bool) -> dict:
    cmds = workloads.commands(name, seed)
    tracer = None
    if trace:
        tracer = spans.Tracer()
        tracer.install()
    outputs = []
    cpu0 = _cpu_s()
    t0 = time.perf_counter_ns()
    for i, argv in enumerate(cmds):
        if tracer is not None:
            tracer.command = i
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except SystemExit as exc:  # usage errors; SystemExit(None) is success
            rc = 0 if exc.code is None else exc.code
        except Exception:  # a crashing command is a failed command, not a crashed run
            traceback.print_exc()
            rc = "exception"
        outputs.append((argv, rc, buf.getvalue()))
    wall_ns = time.perf_counter_ns() - t0
    cpu_s = _cpu_s() - cpu0
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    ref = gate.load_reference()
    commands = []
    for argv, rc, text in outputs:
        problems = gate.check_output(rc, text, ref.get(gate.command_key(argv)))
        commands.append({"argv": argv, "problems": problems})
        for msg in problems:
            print(f"perfbench: {gate.command_key(argv)}: {msg}", file=sys.stderr)
    result = {
        "ready": READY,
        "wall_s": wall_ns / 1e9,
        "cpu_s": cpu_s,
        "maxrss_kb": maxrss_kb,
        "commands": commands,
    }
    if tracer is not None:
        layers = spans.layer_totals(tracer.spans)
        counts = tracer.counts()
        counts["cli.out_bytes"] = sum(len(text.encode("utf-8")) for _, _, text in outputs)
        result["layers"] = layers
        result["counts"] = counts
        result["unattributed_ms"] = wall_ns / 1e6 - sum(ms for ms, _ in layers.values())
        result["spans"] = [
            [s.name, s.start_ns - t0, s.end_ns - t0, s.id, s.parent, s.command]
            for s in tracer.spans
        ]
    return result


def main(argv: list[str]) -> int:
    if argv == ["--setup-only"]:
        result = {"ready": READY}
    else:
        name, seed, trace = argv
        result = run(name, int(seed), trace == "1")
    sys.stdout.write(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
