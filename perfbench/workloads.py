"""The three fixed ``cellred`` command lists the benchmark runs.

Each workload is a list of argv lists for ``cellred.cli.main``, run in order
inside one fresh interpreter.  The inputs are fixed; the seed only shuffles
the order of the ``small_mix`` commands, which changes which command builds
each cached per-type context first but not the total work.
"""

from __future__ import annotations

import random

SMALL_TYPES = ("A1", "A2", "A3", "B2", "G2")
DUMP_TABLES = ("klpoly", "cells", "gamma", "cwe", "delta")

WORKLOADS: dict[str, tuple[tuple[str, ...], ...]] = {
    # Flagship run: the A4 canonical basis and structure constants dominate;
    # sl3lab does nothing, so this is the control for sl3 changes.
    "audit_all": (("audit", "--all"),),
    # Largest practical prime (n = 993): dense elimination mod p dominates;
    # klcells does nothing, so this is the control for klcells changes.
    "sl3_large": (("sl3", "--p", "31"),),
    # The same layers at small sizes, where per-call overhead and fixed
    # set-up dominate; the dumps read contexts that the audit builds.
    "small_mix": (
        ("audit",) + tuple(a for t in SMALL_TYPES for a in ("--type", t)),
        *(("tables", "dump", "--what", what, "--type", t)
          for what in DUMP_TABLES for t in SMALL_TYPES),
        ("sl3", "--orbits"),
    ),
}


def commands(name: str, seed: int) -> list[list[str]]:
    """The workload's argv lists in the order the seed gives."""
    cmds = [list(argv) for argv in WORKLOADS[name]]
    if name == "small_mix":
        random.Random(seed).shuffle(cmds)
    return cmds


def all_commands() -> list[list[str]]:
    """Every distinct command of every workload, in definition order."""
    return [list(argv) for cmds in WORKLOADS.values() for argv in cmds]
