"""Correctness checks the benchmark applies to every output it measures.

Each check returns ``None`` when the output is correct and a one-line
description of the defect otherwise; the caller counts every defect as a
failed operation.
"""

from __future__ import annotations

import os
from typing import List, Optional, Set

from repro.core.plan import Plan
from repro.core.query import QueryInfo

_SEGMENT_PREFIX = "repro_mc_"
_SHM = "/dev/shm"


def check_plan(query: QueryInfo, plan: Plan, cost: float) -> Optional[str]:
    """Covers every relation once, joins only connected inputs, and its
    replay through ``query.join`` reproduces ``cost`` bit for bit."""
    leaves = sorted(leaf.relation_index for leaf in plan.iter_leaves())
    if leaves != list(range(query.n_relations)):
        return f"{query.name}: plan leaves {leaves} do not cover each relation once"
    try:
        plan.validate()
    except ValueError as error:
        return f"{query.name}: malformed plan: {error}"
    for node in plan.iter_joins():
        if not query.graph.is_connected_to(node.left.relations,
                                           node.right.relations):
            return f"{query.name}: plan contains a cross product"
    if plan.cost != cost:
        return f"{query.name}: reported cost {cost!r} != plan cost {plan.cost!r}"
    replayed = query.recost(plan).cost
    if replayed != cost:
        return (f"{query.name}: replayed cost {replayed!r} != reported "
                f"cost {cost!r}")
    return None


def check_same(label: str, reference, outcome) -> Optional[str]:
    """Two planning outcomes are bit-identical (algorithm, cost, plan)."""
    if outcome.algorithm != reference.algorithm:
        return (f"{label}: algorithm {outcome.algorithm} != reference "
                f"{reference.algorithm}")
    if outcome.cost != reference.cost:
        return f"{label}: cost {outcome.cost!r} != reference {reference.cost!r}"
    # ``Plan`` is a frozen dataclass: ``!=`` compares every node's fields.
    if outcome.plan != reference.plan:
        return f"{label}: plan differs from the reference plan"
    return None


def shm_segments() -> Set[str]:
    """Names of the multicore backend's shared-memory segments."""
    try:
        return {name for name in os.listdir(_SHM)
                if name.startswith(_SEGMENT_PREFIX)}
    except FileNotFoundError:
        return set()


def live_children() -> List[int]:
    """Pids of this process's children that are still running.

    The ``multiprocessing`` resource tracker, which the first shared-memory
    segment starts and which lives as long as this process, is not counted.
    """
    me = str(os.getpid())
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
            with open(f"/proc/{entry}/cmdline", "rb") as cmdline:
                command = cmdline.read()
        except OSError:
            continue
        if (fields[1] == me and fields[0] != "Z"
                and b"resource_tracker" not in command):
            found.append(int(entry))
    return found


def check_leaks(segments_before: Set[str]) -> List[str]:
    """After the worker pools shut down: no new segment, no live child."""
    defects = [f"leaked shared-memory segment {name}"
               for name in sorted(shm_segments() - segments_before)]
    defects += [f"orphan worker process {pid}" for pid in live_children()]
    return defects
