"""cellred benchmark: fixed CLI workloads, each run in fresh interpreters.

Usage, from the repository root::

    python3 perfbench/run.py --workload audit_all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload in turn

For ``--seconds`` seconds the harness starts one child interpreter at a time
(``child.py``), each running the workload's whole command list through
``cellred.cli.main``, and checks every output against ``reference.json``.
It also starts a few children that only import ``cellred.cli``, so that
``setup_s`` has enough samples on the slow workloads.

End-to-end metrics (``--trace 0``), medians over the children:

* ``wall_s``: wall time of the command list, excluding import;
* ``setup_s``: from spawning the child until ``cellred.cli`` is imported;
* ``cpu_s``: user plus system CPU time of the child over the command list;
* ``peak_rss_mb``: the child's ``ru_maxrss``;
* ``ok_frac``: commands that exited 0 with correct output, over commands
  attempted (one minus the failed fraction, which the result line carries
  as ``failed`` / ``attempted``).

With ``--trace 1`` it alternates untraced and traced children and reports
the per-layer metrics of ``spans.per_layer_metrics()``: self time and call
count of each wrapped public function, counts read from returned objects,
and the tracing overhead (traced minus untraced wall time).

Each run writes its record (environment, every sample, and the spans of the
traced children) to ``perfbench/results/``.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit status is nonzero when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
RESULTS = HERE / "results"

SETUP_SPAWNS = 10      # import-only children per run, for setup_s
MIN_CHILDREN = 3       # workload children per run, however long each takes
RUN_BUDGET_S = 170     # a run ends within this, whatever --seconds says

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "fraction"),
)


class HarnessError(RuntimeError):
    pass


def _spawn(args: list[str], deadline: float) -> dict:
    """Run one child to completion; its record plus setup_s."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), *args], cwd=ROOT, capture_output=True,
            text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise HarnessError(f"child {args} did not finish within the run budget") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise HarnessError(f"child {args} exited {proc.returncode}")
    rec = json.loads(proc.stdout)
    rec["setup_s"] = rec.pop("ready") - t0
    return rec


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        # unset means the library default: OpenBLAS uses one thread per core
        "blas_threads": {
            var: os.environ.get(var, "unset")
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "children_at_once": 1,
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for about ``seconds``; the run record."""
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    setups = [_spawn(["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_SPAWNS)]
    plain: list[dict] = []
    traced: list[dict] = []
    step = 0.0
    while len(plain) < MIN_CHILDREN or time.monotonic() - start + step <= seconds:
        t = time.monotonic()
        plain.append(_spawn([name, str(seed), "0"], deadline))
        if trace:
            traced.append(_spawn([name, str(seed), "1"], deadline))
        step = time.monotonic() - t
    children = plain + traced
    attempted = sum(len(c["commands"]) for c in children)
    failed = sum(1 for c in children for cmd in c["commands"] if cmd["problems"])

    med = statistics.median
    if trace:
        metrics = {}
        for fn in spans.LAYERS:
            metrics[f"{fn}.self_ms"] = med(c["layers"][fn][0] for c in traced)
            metrics[f"{fn}.calls"] = med(c["layers"][fn][1] for c in traced)
        for key in spans.COUNTS:
            metrics[key] = med(c["counts"][key] for c in traced)
        wall_t = med(c["wall_s"] for c in traced) * 1e3
        wall_u = med(c["wall_s"] for c in plain) * 1e3
        metrics["trace.wall_ms"] = wall_t
        metrics["trace.untraced_wall_ms"] = wall_u
        metrics["trace.overhead_ms"] = wall_t - wall_u
        metrics["trace.unattributed_ms"] = med(c["unattributed_ms"] for c in traced)
        units = dict(spans.per_layer_metrics())
    else:
        metrics = {
            "wall_s": med(c["wall_s"] for c in plain),
            "setup_s": med(setups + [c["setup_s"] for c in plain]),
            "cpu_s": med(c["cpu_s"] for c in plain),
            "peak_rss_mb": med(c["maxrss_kb"] / 1024 for c in plain),
            "ok_frac": (attempted - failed) / attempted,
        }
        units = dict(END_TO_END)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "setup_samples_s": setups,
        "children": plain,
        "traced_children": traced,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }


def _summary(rec: dict) -> list[str]:
    res = rec["result"]
    plain = rec["children"]
    lines = [
        f"perfbench: workload={rec['workload']} seed={rec['seed']} trace={rec['trace']} "
        f"children={len(plain)}+{len(rec['traced_children'])} traced "
        f"setup_only={len(rec['setup_samples_s'])}",
        "  environment: " + json.dumps(rec["environment"], sort_keys=True),
    ]
    samples = {
        "wall_s": [c["wall_s"] for c in plain],
        "setup_s": rec["setup_samples_s"] + [c["setup_s"] for c in plain],
        "cpu_s": [c["cpu_s"] for c in plain],
        "peak_rss_mb": [c["maxrss_kb"] / 1024 for c in plain],
    }
    for name, m in res["metrics"].items():
        line = f"  {name:<40} {m['value']:>14.6g} {m['unit']}"
        if name in samples:
            q1, _, q3 = _quartiles(samples[name])
            line += f"  (median of {len(samples[name])}; q1 {q1:.6g}, q3 {q3:.6g})"
        lines.append(line)
    frac = res["failed"] / res["attempted"]
    lines.append(f"  {'failed_frac':<40} {frac:>14.6g} fraction  "
                 f"({res['failed']} of {res['attempted']} commands)")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cellred" / "cli.py").is_file():
        print(f"perfbench: no cellred source tree under {ROOT}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    RESULTS.mkdir(exist_ok=True)
    for name in names:
        try:
            rec = measure(name, args.seed, args.seconds, bool(args.trace))
        except HarnessError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        out = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(rec) + "\n", encoding="utf-8")
        print("\n".join(_summary(rec)))
        print(json.dumps(rec["result"]), flush=True)
        ok = ok and rec["result"]["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
