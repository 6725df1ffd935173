"""Traced mode: spans around cellred's public functions, recorded from outside.

:meth:`Tracer.install` replaces each function named in ``LAYERS`` by a
recording wrapper everywhere cellred refers to it: the module attribute,
every ``from .x import f`` copy in other cellred modules, and module-level
dispatch tables such as ``audit._CHECKS``.  The real call path
``cli.main -> audit.get_context -> klcells/heckechar/...`` runs unchanged
while spans are kept in memory.  No file under ``src/`` is touched.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

# Each wrapped function, with the end-to-end metrics its self time should
# move and the workloads it should move them on.  ``poly`` has no entry point
# worth timing alone; its cost shows in the self time of its callers.
LAYERS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "cli.main": (("wall_s",), ("small_mix",)),
    "audit.get_context": (("wall_s",), ("audit_all", "small_mix")),
    **{
        f"audit.check_{cid}": (("wall_s",), ("audit_all", "small_mix"))
        for cid in ("bookkeeping", "duality", "a_values", "centrality",
                    "j_criterion", "proximity")
    },
    "coxeter.generate": (("wall_s",), ("small_mix", "audit_all")),
    "rootdata.build_root_system": (("wall_s",), ("small_mix", "audit_all")),
    "rootdata.weyl_dim": (("wall_s",), ("small_mix",)),
    "uniptables.load_tables": (("wall_s",), ("small_mix", "audit_all")),
    "klcells.compute_kl": (("wall_s", "cpu_s", "peak_rss_mb"), ("audit_all",)),
    "klcells.compute_cells": (("wall_s",), ("audit_all", "small_mix")),
    "klcells.j_ring": (("wall_s",), ("audit_all", "small_mix")),
    "klcells.is_central": (("wall_s",), ("audit_all", "small_mix")),
    "heckechar.w_character_table": (("wall_s",), ("audit_all", "small_mix")),
    "heckechar.build_hecke_modules": (("wall_s",), ("audit_all", "small_mix")),
    "heckechar.leading_data": (("wall_s",), ("audit_all", "small_mix")),
    "weylmod.delta_table": (("wall_s",), ("small_mix", "audit_all")),
    "weylmod.find_duality": (("wall_s",), ("small_mix", "audit_all")),
    "sl3lab.build_incidence": (("wall_s",), ("small_mix",)),
    "sl3lab.tau_maps": (("wall_s",), ("small_mix",)),
    "sl3lab.kernel_analysis": (("wall_s", "cpu_s", "peak_rss_mb"), ("sl3_large",)),
    "sl3lab.rank_mod": (("wall_s", "cpu_s", "peak_rss_mb"), ("sl3_large",)),
    "sl3lab.equivariance_spot_check": (("wall_s",), ("small_mix", "sl3_large")),
    "sl3lab.principal_series_check": (("wall_s",), ("small_mix",)),
}

# Counts read from returned objects; context for ratios, on every workload.
COUNTS = (
    "coxeter.W_size",
    "klcells.P_entries",
    "klcells.mu_entries",
    "klcells.gamma_nnz",
    "klcells.left_cells",
    "klcells.two_sided_cells",
    "sl3lab.n",
    "sl3lab.dim_ker_tau",
    "sl3lab.matrix_bytes_computed",
    "cli.out_bytes",
)

# Whole-run figures of the traced mode.
TRACE_TOTALS = (
    "trace.wall_ms",
    "trace.untraced_wall_ms",
    "trace.overhead_ms",
    "trace.unattributed_ms",
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every metric the traced mode reports."""
    out = []
    for fn in LAYERS:
        out += [(f"{fn}.self_ms", "ms"), (f"{fn}.calls", "count")]
    out += [(name, "count") for name in COUNTS]
    out += [(name, "ms") for name in TRACE_TOTALS]
    return out


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    command: int | None


class Tracer:
    """Spans and returned objects of one process, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.command: int | None = None
        self.returned: dict[str, dict[int, object]] = {fn: {} for fn in LAYERS}
        self.eliminated_bytes = 0
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name: str, fn):
        keep = self.returned[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append(Span(sid, name, start, end, parent, self.command))
            keep.setdefault(id(result), result)
            if name == "sl3lab.rank_mod":
                self.eliminated_bytes += args[0].size * 8  # int64 working copy
            return result

        return traced

    def install(self) -> None:
        """Route every cellred reference to a LAYERS function through a wrapper."""
        swap = {}
        for name in LAYERS:
            mod, attr = name.split(".")
            fn = getattr(importlib.import_module(f"cellred.{mod}"), attr)
            swap[id(fn)] = (fn, self.wrap(name, fn))

        def wrapper_for(value):
            hit = swap.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else None

        for modname, module in list(sys.modules.items()):
            if modname != "cellred" and not modname.startswith("cellred."):
                continue
            for attr, value in list(vars(module).items()):
                if wrapper_for(value) is not None:
                    setattr(module, attr, wrapper_for(value))
                elif isinstance(value, dict):
                    for key, item in value.items():
                        if wrapper_for(item) is not None:
                            value[key] = wrapper_for(item)

    def counts(self) -> dict[str, int]:
        """Per-layer counts from the distinct objects the functions returned."""
        r = {fn: list(objs.values()) for fn, objs in self.returned.items()}
        # compute_cells can run more than once per group; count each group once
        cells = {id(c.group): c for c in r["klcells.compute_cells"]}.values()
        return {
            "coxeter.W_size": sum(g.size for g in r["coxeter.generate"]),
            "klcells.P_entries": sum(len(kl.P) for kl in r["klcells.compute_kl"]),
            "klcells.mu_entries": sum(len(kl.mu) for kl in r["klcells.compute_kl"]),
            "klcells.gamma_nnz": sum(
                int((kl.gamma_tensor() != 0).sum()) for kl in r["klcells.compute_kl"]
            ),
            "klcells.left_cells": sum(len(c.left_cells) for c in cells),
            "klcells.two_sided_cells": sum(len(c.two_sided_cells) for c in cells),
            "sl3lab.n": sum(s.n_points for s in r["sl3lab.build_incidence"]),
            "sl3lab.dim_ker_tau": sum(k.dim_ker_tau for k in r["sl3lab.kernel_analysis"]),
            "sl3lab.matrix_bytes_computed": self.eliminated_bytes + sum(
                m.tau.size * 8 + m.tau_prime.size * 8 for m in r["sl3lab.tau_maps"]
            ),
        }


def self_times_ns(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start_ns, s.end_ns))
    out = {}
    for s in spans:
        covered = 0
        reach = s.start_ns
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, reach), min(b, s.end_ns)
            if b > a:
                covered += b - a
                reach = b
        out[s.id] = (s.end_ns - s.start_ns) - covered
    return out


def layer_totals(spans: list[Span]) -> dict[str, tuple[float, int]]:
    """Function name -> (summed self time in ms, number of calls)."""
    selfs = self_times_ns(spans)
    out = {fn: [0, 0] for fn in LAYERS}
    for s in spans:
        acc = out.setdefault(s.name, [0, 0])
        acc[0] += selfs[s.id]
        acc[1] += 1
    return {fn: (ns / 1e6, calls) for fn, (ns, calls) in out.items()}
