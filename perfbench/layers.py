"""Per-layer metrics from a traced window, and the trace file.

Every metric is printed on every workload.  Self times are reported as a
share (``%``) of the traced requests' total latency, so a layer a workload
never reaches reads 0 % rather than a made-up time; per-call times (``us``)
are kept for the entry points every request passes through.
"""

from __future__ import annotations

import collections
import json
from pathlib import Path
from typing import Dict, List

from spans import END, NAME, PARENT, START, self_times

#: Ladder rungs: optimizer class -> rung label (the registry's key, with
#: ``:`` spelled ``_`` to fit metric names).
RUNGS = {"MPDP": "MPDP", "MPDPTree": "MPDP_Tree", "IDP2": "IDP2",
         "AdaptiveLinDP": "LinDP", "GOO": "GOO"}
#: Optimizer classes whose own (self) time is reported.
OPTIMIZERS = ("MPDP", "MPDPTree", "IDP2", "AdaptiveLinDP", "LinearizedDP",
           "GOO")
_DECISION_RUNG = {"MPDP": "MPDP", "MPDP:Tree": "MPDP_Tree", "IDP2": "IDP2",
                  "LinDP": "LinDP", "GOO": "GOO"}

#: The per-layer metrics, in print order: (name, unit).
PER_LAYER = (
    [("classifier.classify_us", "us"), ("classifier.signature_us", "us"),
     ("cache.get_us", "us"), ("cache.hit_ratio", "ratio"),
     ("cache.evictions", "count"), ("cache.coalesced", "count"),
     ("requests.repeated_object_ratio", "ratio"),
     ("request.wait_pct", "%"), ("planner.plan.self_pct", "%"),
     ("classifier.self_pct", "%"), ("cache.self_pct", "%"),
     ("server.submit.self_pct", "%"), ("sql.parse.self_pct", "%")]
    + [(f"rung.{rung}.pct", "%") for rung in RUNGS.values()]
    + [(f"rung.{rung}.count", "count") for rung in RUNGS.values()]
    + [(f"opt.{name}.self_pct", "%") for name in OPTIMIZERS]
    + [("idp2.fragments", "count")]
    + [(f"kernel.{backend}.{kind}.self_pct", "%")
       for backend in ("scalar", "vectorized", "multicore")
       for kind in ("block", "tree")]
    + [("kernel.levels", "count"), ("kernel.ccp_ratio", "ratio"),
       ("multicore.levels_dispatched", "count"),
       ("multicore.levels_in_process", "count"),
       ("cost.batch.self_pct", "%"), ("cost.pairs", "count"),
       ("cardinality.rows_calls", "count"), ("cardinality.rows.pct", "%"),
       ("cardinality.rows_batch.self_pct", "%"),
       ("heuristic_kernels.lindp_merge.self_pct", "%"),
       ("heuristic_kernels.greedy_union_partition.self_pct", "%"),
       ("heuristic_kernels.pair_rows.self_pct", "%"),
       ("enumeration.find_blocks_calls", "count"),
       ("enumeration.find_blocks.pct", "%"),
       ("arena.record_level.self_pct", "%"), ("trace.overhead", "ratio")])


def _dispatched(info: Dict) -> int:
    return sum(pool["levels_dispatched"] for pool in info["pools"].values())


def layer_metrics(tracer, traced, untraced, pools_before: Dict,
                  pools_after: Dict) -> Dict[str, Dict[str, object]]:
    """The :data:`PER_LAYER` metrics of the traced window ``traced``."""
    table, by_id = self_times(tracer.spans)
    leaf = tracer.leaf_totals()
    counters = tracer.counter_totals()
    total = table["request"][1] or 1.0

    def pct(seconds: float) -> float:
        return 100.0 * seconds / total

    def self_pct(*names: str) -> float:
        return pct(sum(table[name][2] for name in names if name in table))

    def mean_us(name: str) -> float:
        count, duration = table[name][0], table[name][1]
        return 1e6 * duration / count if count else 0.0

    rung_seconds: Dict[str, float] = collections.defaultdict(float)
    fragments = in_process = levels = 0
    for span in tracer.spans:
        parent = by_id.get(span[PARENT])
        parent_name = parent[NAME] if parent is not None else ""
        name = span[NAME]
        if name.startswith("opt.") and parent_name == "planner.plan":
            rung = RUNGS.get(name[4:])
            if rung is not None:
                rung_seconds[rung] += span[END] - span[START]
        elif name in ("opt.MPDP", "opt.MPDPTree") and parent_name == "opt.IDP2":
            fragments += 1
        if name.startswith("kernel."):
            if parent_name.startswith("kernel.multicore."):
                in_process += 1
            else:
                levels += 1

    planned = traced.planned
    rung_counts: Dict[str, int] = collections.defaultdict(int)
    pairs = ccp = 0
    for outcome in planned:
        rung_counts[_DECISION_RUNG.get(outcome.algorithm, outcome.algorithm)] += 1
        pairs += outcome.stats.evaluated_pairs
        ccp += outcome.stats.ccp_pairs

    before, after = traced.cache_before, traced.cache_after
    hits = after.get("hits", 0) - before.get("hits", 0)
    lookups = hits + after.get("misses", 0) - before.get("misses", 0)
    values = {
        "classifier.classify_us": mean_us("classifier.classify"),
        "classifier.signature_us": mean_us("classifier.signature"),
        "cache.get_us": mean_us("cache.get"),
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.evictions": after.get("evictions", 0)
        - before.get("evictions", 0),
        "cache.coalesced": traced.coalesced,
        "requests.repeated_object_ratio":
            traced.repeated_objects / max(traced.count, 1),
        "request.wait_pct": self_pct("request"),
        "planner.plan.self_pct": self_pct("planner.plan"),
        "classifier.self_pct": self_pct("classifier.classify",
                                        "classifier.signature"),
        "cache.self_pct": self_pct("cache.get", "cache.peek", "cache.put"),
        "server.submit.self_pct": self_pct("server.submit"),
        "sql.parse.self_pct": self_pct("sql.parse"),
        "idp2.fragments": fragments,
        "kernel.levels": levels,
        "kernel.ccp_ratio": ccp / pairs if pairs else 0.0,
        "multicore.levels_dispatched":
            _dispatched(pools_after) - _dispatched(pools_before),
        "multicore.levels_in_process": in_process,
        "cost.batch.self_pct": self_pct("cost.batch"),
        "cost.pairs": counters.get("cost.pairs", 0),
        "cardinality.rows_calls": leaf["cardinality.rows"][0],
        "cardinality.rows.pct": pct(leaf["cardinality.rows"][1]),
        "cardinality.rows_batch.self_pct": self_pct("cardinality.rows_batch"),
        "enumeration.find_blocks_calls": leaf["enumeration.find_blocks"][0],
        "enumeration.find_blocks.pct": pct(leaf["enumeration.find_blocks"][1]),
        "arena.record_level.self_pct": self_pct("arena.record_level"),
        "trace.overhead": traced.elapsed / untraced.elapsed,
    }
    for rung in RUNGS.values():
        values[f"rung.{rung}.pct"] = pct(rung_seconds[rung])
        values[f"rung.{rung}.count"] = rung_counts[rung]
    for name in OPTIMIZERS:
        values[f"opt.{name}.self_pct"] = self_pct(f"opt.{name}")
    for backend in ("scalar", "vectorized", "multicore"):
        for kind in ("block", "tree"):
            values[f"kernel.{backend}.{kind}.self_pct"] = self_pct(
                f"kernel.{backend}.{kind}")
    for kernel in ("lindp_merge", "greedy_union_partition", "pair_rows"):
        values[f"heuristic_kernels.{kernel}.self_pct"] = self_pct(
            f"heuristic_kernels.{kernel}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}


def layer_table(tracer) -> List[str]:
    """Readable per-span-name table: calls, total and self seconds."""
    table, _ = self_times(tracer.spans)
    leaf = tracer.leaf_totals()
    counters = tracer.counter_totals()
    lines = [f"  {'layer':<44} {'calls':>9} {'total s':>10} {'self s':>10}"]
    for name, (count, duration, own) in sorted(
            table.items(), key=lambda item: -item[1][2]):
        lines.append(f"  {name:<44} {count:>9} {duration:>10.4f} {own:>10.4f}")
    for name, (count, seconds) in sorted(leaf.items()):
        lines.append(f"  {name + ' (leaf)':<44} {count:>9} {seconds:>10.4f} "
                     f"{seconds:>10.4f}")
    pairs = counters.get("cost.pairs", 0)
    if pairs:
        lines.append(f"  cost.batch: {pairs} pairs, "
                     f"{1e9 * table['cost.batch'][2] / pairs:.1f} ns per pair")
    return lines


def write_trace(directory: Path, workload: str, seed: int, machine: Dict,
                tracer, metrics: Dict) -> Path:
    """Write machine shape, metrics, the layer table and every span."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{workload}.trace.json"
    table, _ = self_times(tracer.spans)
    with open(path, "w") as handle:
        json.dump({
            "workload": workload,
            "seed": seed,
            "machine": machine,
            "metrics": metrics,
            "layers": {name: {"calls": row[0], "total_s": row[1],
                              "self_s": row[2]}
                       for name, row in table.items()},
            "leaf_timers": {name: {"calls": row[0], "seconds": row[1]}
                            for name, row in tracer.leaf_totals().items()},
            "span_fields": ["name", "start", "end", "parent", "request",
                            "span", "leaf_covered_s"],
            "spans": tracer.spans,
        }, handle, separators=(",", ":"))
    return path
