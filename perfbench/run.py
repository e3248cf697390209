"""The planner's benchmark: one command, four workloads, a per-layer trace.

Run from the repository root::

    python3 perfbench/run.py --workload exact-dp --seed 1 --seconds 20 --trace 0

It builds its inputs from ``--seed``, measures for ``--seconds``, checks
every output, prints a readable summary and, as the last line of standard
output, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
requests twice, untraced and then traced (fresh inputs, fresh planner), and
reports the per-layer metrics, the tracing overhead, and whether the traced
plans equal the untraced ones.  See ``perfbench/README.md`` for the
workloads, the metrics and the layer -> metric -> workload map.

Every workload uses the planner's defaults: ``AdaptivePlanner()`` with its
ladder and plan cache, ``backend="auto"``, ``workers=None``, no time budget,
and the generators' default ``PostgresCostModel``.  Load comes from this one
process with at most ``nproc`` client threads.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
import weakref
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from layers import layer_metrics, layer_table, write_trace  # noqa: E402
from repro import workloads  # noqa: E402
from repro.exec import resolve_backend  # noqa: E402
from repro.exec.multicore import (  # noqa: E402
    POOL_REGISTRY, MulticoreBackend, available_workers, pool_registry_info,
    shutdown_worker_pools)
from repro.heuristics import GOO  # noqa: E402
from repro.optimizers import DPCcp  # noqa: E402
from repro.planner import AdaptivePlanner, PlanCache, PlannerService  # noqa: E402
from repro.sql import parser as sql_parser  # noqa: E402

WORKLOADS = ("exact-dp", "heuristic-large", "service-prepared",
             "service-adhoc-sql")

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

_clock = time.perf_counter
_NO_SPAN = contextlib.nullcontext()

_IMPORT_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import numpy, repro.planner, repro.workloads, repro.sql, "
    "repro.heuristics, repro.optimizers, repro.exec.vectorized, "
    "repro.exec.multicore\n"
    "print(time.perf_counter() - start)\n")


def import_seconds() -> float:
    """Import time of the planner's modules in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.split()[-1])


def cpus() -> int:
    return len(os.sched_getaffinity(0))


def percentile_ms(latencies: List[float], q: float) -> float:
    return float(np.percentile(latencies, q)) * 1e3


def gmean(values: List[float]) -> float:
    return math.exp(statistics.fmean(math.log(value) for value in values))


def cost_vs_goo(query, outcome) -> float:
    """The chosen plan's cost over GOO's plan cost for the same query.

    A ratio cancels most of what the seeded statistics do to absolute costs,
    so it compares across seeds; it rises when plans get worse.  Queries the
    ladder routes to GOO count as 1.
    """
    if outcome.algorithm == "GOO":
        return 1.0
    return outcome.cost / GOO().optimize(query).cost


@dataclass
class Window:
    """What one measured window produced."""

    #: Per client, the stream indices it sent, in order.
    sequences: List[List[int]]
    #: Per client, seconds from send to reply of each request.
    latencies: List[List[float]]
    #: Cold: the outcome (or exception) of each request, in order.  Service:
    #: per client, ``{(index, id(result) or status): [reply, count]}`` --
    #: replies are tallied, not kept, so memory does not grow with the rate.
    results: list
    #: Seconds the window took (cold: the sum of the planning latencies).
    elapsed: float
    #: ``req_per_s``, ``req_p50_ms`` and ``req_p90_ms`` at the reference
    #: speed (see ``speed.py``), and as the clock read them.
    timings: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    raw_timings: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    cache_before: Dict[str, float] = field(default_factory=dict)
    cache_after: Dict[str, float] = field(default_factory=dict)
    coalesced: int = 0
    repeated_objects: int = 0
    #: Requests planned and checked outside the window.
    extra: int = 0
    #: Outcomes the planner produced (not cache hits) during the window.
    planned: list = field(default_factory=list)
    #: Service replies' queue and plan seconds.
    queue_seconds: List[float] = field(default_factory=list)
    plan_seconds: List[float] = field(default_factory=list)

    @property
    def count(self) -> int:
        return sum(len(seq) for seq in self.sequences)

    def all_latencies(self) -> List[float]:
        return [value for chunk in self.latencies for value in chunk]


class Failures:
    """Counts failed operations and keeps the first few descriptions."""

    def __init__(self) -> None:
        self.count = 0
        self.examples: List[str] = []

    def add(self, description: str, operations: int = 1) -> None:
        self.count += operations
        if len(self.examples) < 10:
            self.examples.append(description)


# --------------------------------------------------------------------------- #
# Cold workloads: one closed-loop caller planning distinct queries
# --------------------------------------------------------------------------- #
class ColdWorkload:
    def __init__(self, name: str, schedule, length: int, quality_prefix: int,
                 warm_up, exact_sample: int):
        self.name = name
        self.schedule = schedule
        self.length = length
        #: ``plan_cost_vs_goo`` covers exactly this stream prefix, planned
        #: after the window if the window ended sooner, so it does not depend
        #: on how fast the run was.
        self.quality_prefix = quality_prefix
        self.warm_up = warm_up
        self.exact_sample = exact_sample

    def setup(self, seed: int):
        specs = inputs.cold_stream(self.schedule, seed, self.length)
        queries = [spec.build() for spec in specs]
        # One-time costs (lazy imports, first numpy calls, the multicore
        # worker pool) belong to set-up, not to the first measured request.
        warm = AdaptivePlanner()
        for index, (shape, n) in enumerate(self.warm_up):
            query = inputs.QuerySpec(shape, n, -1 - index, seed).build()
            warm.plan(query)
            if isinstance(resolve_backend("auto", query), MulticoreBackend):
                shutdown_worker_pools()
                POOL_REGISTRY.lease(available_workers(None))
        return {"specs": specs, "queries": queries,
                "planner": AdaptivePlanner()}

    def close(self, state) -> None:
        pass

    def run(self, state, seconds: float, tracer=None,
            replay: Optional[List[List[int]]] = None,
            min_requests: int = 0) -> Window:
        """Whole passes over the schedule until ``seconds`` have passed and
        at least ``min_requests`` were planned (or the ``replay`` ends)."""
        planner = state["planner"]
        queries = state["queries"]
        cycle = len(self.schedule)
        limit = len(replay[0]) if replay is not None else len(queries)
        sequence: List[int] = []
        latencies: List[float] = []
        results: list = []
        deadline = _clock() + seconds
        # One pass is one segment; each request is scaled by the mean of the
        # speed probes on either side of it.
        raw: List[Tuple[float, List[float]]] = []
        scaled: List[Tuple[float, List[float]]] = []
        probe = speed.probe()
        while len(sequence) + cycle <= limit:
            if replay is None and _clock() >= deadline \
                    and len(sequence) >= min_requests:
                break
            raw_pass: List[float] = []
            scaled_pass: List[float] = []
            for index in range(len(sequence), len(sequence) + cycle):
                span = (tracer.request(index) if tracer is not None
                        else _NO_SPAN)
                begin = _clock()
                try:
                    with span:
                        outcome = planner.plan(queries[index])
                except Exception as error:  # counted as a failed request
                    outcome = error
                latency = _clock() - begin
                before, probe = probe, speed.probe()
                raw_pass.append(latency)
                scaled_pass.append(latency * speed.REFERENCE_S * 2
                                   / (before + probe))
                # Drop the query: its graph's enumeration caches would keep
                # peak memory growing with the number of passes.
                queries[index] = None
                sequence.append(index)
                results.append(outcome)
            latencies.extend(raw_pass)
            raw.append((sum(raw_pass), raw_pass))
            scaled.append((sum(scaled_pass), scaled_pass))
        window = Window([sequence], [latencies], [results], sum(latencies),
                        speed.segment_timings(scaled),
                        speed.segment_timings(raw))
        window.planned = [outcome for outcome in results
                          if not isinstance(outcome, Exception)]
        return window

    def finish(self, state, window: Window, failures: Failures, seed: int,
               quality: bool = True) -> float:
        """Check every output; with ``quality``, complete the quality prefix
        outside the window (those requests are checked and counted as
        attempted too) and return its ``plan_cost_vs_goo``."""
        planner, queries = state["planner"], state["queries"]
        outcomes = list(window.results[0])
        while quality and len(outcomes) < min(self.quality_prefix,
                                              len(queries)):
            try:
                outcomes.append(planner.plan(queries[len(outcomes)]))
            except Exception as error:
                outcomes.append(error)
        window.extra = len(outcomes) - window.count
        ratios = []
        for index, outcome in enumerate(outcomes):
            query = state["specs"][index].build()  # the same query, afresh
            if isinstance(outcome, Exception):
                failures.add(f"{query.name}: {outcome!r}")
                continue
            defect = checks.check_plan(query, outcome.plan, outcome.cost)
            if defect:
                failures.add(defect)
            elif quality and index < self.quality_prefix:
                ratios.append(cost_vs_goo(query, outcome))
        planned = [index for index, outcome in enumerate(outcomes)
                   if not isinstance(outcome, Exception)]
        self._check_optimum(state, outcomes, planned, failures, seed)
        return gmean(ratios) if ratios else float("nan")

    def _check_optimum(self, state, outcomes, planned, failures,
                       seed: int) -> None:
        """A seeded sample of exact plans against DPccp's optimum."""
        candidates = [index for index in planned
                      if state["specs"][index].n <= 12]
        rng = random.Random(seed)
        for index in rng.sample(candidates,
                                min(self.exact_sample, len(candidates))):
            # The window dropped the query it planned; rebuild it.
            query = state["specs"][index].build()
            reference = DPCcp().optimize(query)
            if reference.cost != outcomes[index].cost:
                failures.add(
                    f"{query.name}: cost {outcomes[index].cost!r} != DPccp "
                    f"optimum {reference.cost!r}")

    @staticmethod
    def same_plans(window_a: Window, window_b: Window) -> List[str]:
        defects = []
        for index, (a, b) in enumerate(zip(window_a.results[0],
                                           window_b.results[0])):
            if isinstance(a, Exception) or isinstance(b, Exception):
                continue
            defect = checks.check_same(f"request {index}", a, b)
            if defect:
                defects.append(defect)
        return defects


# --------------------------------------------------------------------------- #
# Service workloads: nproc closed-loop clients against a PlannerService
# --------------------------------------------------------------------------- #
class ServiceWorkload:
    #: Zipf exponent of the request mix.
    ZIPF_S = 1.1
    #: service-prepared: distinct prepared queries (the cache holds all).
    PREPARED = 48
    #: service-adhoc-sql: statement pool, and the smaller plan cache.
    POOL = 600
    CACHE = 128

    def __init__(self, name: str, adhoc: bool):
        self.name = name
        self.adhoc = adhoc

    @staticmethod
    def _parser():
        """A parse function over its own catalogs (parsing may register
        columns in a catalog, so clients do not share them)."""
        catalogs = {"imdb": workloads.build_imdb_catalog(),
                    "tpch": workloads.build_tpch_catalog()}

        def parse(catalog: str, sql: str):
            # Through the module, so the tracer's wrapper is seen.
            return sql_parser.parse_join_query(sql, catalogs[catalog]).query
        return parse

    def setup(self, seed: int):
        clients = cpus()
        sent: "weakref.WeakSet" = weakref.WeakSet()
        if self.adhoc:
            parse = self._parser()
            pool = inputs.sql_pool(seed, self.POOL, parse)
            planner = AdaptivePlanner(cache=PlanCache(max_entries=self.CACHE))
            warm = range(self.CACHE)
            outcomes = {index: planner.plan(parse(*pool[index]))
                        for index in warm}
            state = {"pool": pool, "parsers": [self._parser()
                                               for _ in range(clients)]}
        else:
            queries = inputs.prepared_queries(seed, self.PREPARED)
            planner = AdaptivePlanner()
            outcomes = {index: planner.plan(query)
                        for index, query in enumerate(queries)}
            sent.update(queries)
            state = {"queries": queries}
        state.update(planner=planner, outcomes=outcomes, sent=sent,
                     clients=clients,
                     service=PlannerService(planner, workers=clients))
        return state

    def close(self, state) -> None:
        state["service"].close(save=False)

    def run(self, state, seconds: float, tracer=None,
            replay: Optional[List[List[int]]] = None,
            min_requests: int = 0) -> Window:
        service, planner, sent = state["service"], state["planner"], state["sent"]
        clients = state["clients"]
        size = self.POOL if self.adhoc else self.PREPARED
        sequences: List[List[int]] = [[] for _ in range(clients)]
        latencies: List[List[float]] = [[] for _ in range(clients)]
        results: List[dict] = [{} for _ in range(clients)]
        planned: List[list] = [[] for _ in range(clients)]
        queue_seconds: List[List[float]] = [[] for _ in range(clients)]
        plan_seconds: List[List[float]] = [[] for _ in range(clients)]
        repeated = [0] * clients
        done: List[List[float]] = [[] for _ in range(clients)]
        errors: List[BaseException] = []
        start_gate = threading.Barrier(clients + 1)
        gate = speed.ProbeGate()
        seed = state.get("seed", 0)

        def client(number: int) -> None:
            try:
                zipf = inputs.Zipf(size, self.ZIPF_S, seed * 7919 + number)
                script = replay[number] if replay is not None else None
                parse = state["parsers"][number] if self.adhoc else None
                sequence, lat, tally = (sequences[number], latencies[number],
                                        results[number])
                start_gate.wait()
                deadline = _clock() + seconds
                while True:
                    if script is None:
                        if _clock() >= deadline:
                            break
                        index = zipf.draw()
                    else:
                        if len(sequence) >= len(script):
                            break
                        index = script[len(sequence)]
                    span = (tracer.request((number << 32) | len(sequence))
                            if tracer is not None else _NO_SPAN)
                    with gate.request():
                        begin = _clock()
                        with span:
                            query = (parse(*state["pool"][index]) if parse
                                     else state["queries"][index])
                            reply = service.submit(query).result()
                        end = _clock()
                    lat.append(end - begin)
                    done[number].append(end)
                    if query in sent:
                        repeated[number] += 1
                    else:
                        sent.add(query)
                    sequence.append(index)
                    queue_seconds[number].append(reply.queue_seconds)
                    plan_seconds[number].append(reply.plan_seconds)
                    if reply.status == "ok":
                        key = (index, id(reply.outcome.result))
                        if not reply.outcome.decision.cache_hit:
                            planned[number].append(reply.outcome)
                    else:
                        key = (index, reply.status)
                    entry = tally.get(key)
                    if entry is None:
                        tally[key] = [reply, 1]
                    else:
                        entry[1] += 1
            except BaseException as error:  # surfaced after join
                errors.append(error)
                raise

        threads = [threading.Thread(target=client, args=(number,),
                                    name=f"perfbench-client-{number}")
                   for number in range(clients)]
        cache_before = planner.cache_info()
        coalesced = planner.coalesced_plans
        for thread in threads:
            thread.start()
        start_gate.wait()
        start = _clock()
        probes: List[Tuple[float, float]] = []
        running = threads
        while running:
            probes.append((_clock() - start, gate.probe()))
            running[0].join(speed.PROBE_PERIOD_S)
            running = [thread for thread in running if thread.is_alive()]
        if errors:
            raise errors[0]
        finished = sorted((end - start, latency)
                          for ends, lats in zip(done, latencies)
                          for end, latency in zip(ends, lats))
        elapsed = finished[-1][0] if finished else _clock() - start
        # About one second's worth of consecutive replies per segment, scaled
        # by the median of the speed probes taken during it.
        pieces = max(1, int(elapsed))
        marks = [len(finished) * piece // pieces for piece in range(pieces + 1)]
        raw, scaled = [], []
        for low, high in zip(marks, marks[1:]):
            if high <= low:
                continue
            begin = finished[low - 1][0] if low else 0.0
            end = finished[high - 1][0]
            inside = [value for at, value in probes if begin <= at <= end]
            if not inside:  # the probe nearest to the segment
                inside = [min(probes, key=lambda item: abs(item[0] - end))[1]]
            scale = speed.REFERENCE_S / statistics.median(inside)
            segment = [latency for _, latency in finished[low:high]]
            raw.append((end - begin, segment))
            scaled.append(((end - begin) * scale,
                           [latency * scale for latency in segment]))
        timings = speed.segment_timings(scaled)
        window = Window(sequences, latencies, results, elapsed, timings,
                        speed.segment_timings(raw))
        window.cache_before = cache_before
        window.cache_after = planner.cache_info()
        window.coalesced = planner.coalesced_plans - coalesced
        window.repeated_objects = sum(repeated)
        window.planned = [outcome for chunk in planned for outcome in chunk]
        window.queue_seconds = [value for chunk in queue_seconds
                                for value in chunk]
        window.plan_seconds = [value for chunk in plan_seconds
                               for value in chunk]
        return window

    def finish(self, state, window: Window, failures: Failures, seed: int,
               quality: bool = True) -> float:
        """Check every reply; returns ``plan_cost_vs_goo`` over the distinct
        queries answered."""
        references = state["reference"]
        by_result: Dict[tuple, List] = {}
        for tally in window.results:
            for key, (reply, count) in tally.items():
                if reply.status != "ok":
                    failures.add(f"request for query {key[0]}: "
                                 f"{reply.status} {reply.error or ''}", count)
                    continue
                by_result.setdefault(key, [reply.outcome, 0])[1] += count
        ratios: Dict[int, float] = {}
        serial = AdaptivePlanner()
        parse = self._parser()
        for (index, _), (outcome, replies) in by_result.items():
            query = (parse(*state["pool"][index]) if self.adhoc
                     else state["queries"][index])
            if index not in references:  # an ad-hoc statement planned cold
                references[index] = serial.plan(parse(*state["pool"][index]))
            defect = (checks.check_same(f"reply for query {index}",
                                        references[index], outcome)
                      or checks.check_plan(query, outcome.plan, outcome.cost))
            if defect:
                failures.add(defect, replies)
            elif quality and index not in ratios:
                ratios[index] = cost_vs_goo(query, outcome)
        return gmean(list(ratios.values())) if ratios else float("nan")

    @staticmethod
    def same_plans(window_a: Window, window_b: Window) -> List[str]:
        first: Dict[int, object] = {}
        for tally in window_a.results:
            for (index, _), (reply, _count) in tally.items():
                if reply.status == "ok":
                    first.setdefault(index, reply.outcome)
        defects = []
        for tally in window_b.results:
            for (index, _), (reply, _count) in tally.items():
                if reply.status == "ok" and index in first:
                    defect = checks.check_same(f"query {index}", first[index],
                                               reply.outcome)
                    if defect:
                        defects.append(defect)
        return defects


def make_workload(name: str):
    if name == "exact-dp":
        return ColdWorkload(name, inputs.EXACT_SCHEDULE,
                            length=16 * len(inputs.EXACT_SCHEDULE),
                            quality_prefix=100,
                            warm_up=(("random", 14), ("snowflake", 16),
                                     ("clique", 8)),
                            exact_sample=3)
    if name == "heuristic-large":
        return ColdWorkload(name, inputs.HEURISTIC_SCHEDULE,
                            length=8 * len(inputs.HEURISTIC_SCHEDULE),
                            quality_prefix=100,
                            warm_up=(("snowflake", 30), ("chain", 120),
                                     ("chain", 305)),
                            exact_sample=0)
    return ServiceWorkload(name, adhoc=(name == "service-adhoc-sql"))


# --------------------------------------------------------------------------- #
# Reporting
# --------------------------------------------------------------------------- #
def machine_shape() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "auto_backend_n12": resolve_backend(
            "auto", workloads.random_connected_query(12, seed=0)).name,
        "auto_backend_n14": resolve_backend(
            "auto", workloads.random_connected_query(14, seed=0)).name,
    }


def end_to_end(window: Window, cost_ratio: float, setup_s: float
               ) -> Dict[str, Dict[str, object]]:
    per_s, p50_ms, p90_ms = window.timings
    values = {
        "req_per_s": (per_s, "1/s"),
        "req_p50_ms": (p50_ms, "ms"),
        "req_p90_ms": (p90_ms, "ms"),
        "plan_cost_vs_goo": (cost_ratio, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


def summary_lines(workload, window: Window) -> List[str]:
    latencies = window.all_latencies()
    per_s, p50_ms, p90_ms = window.raw_timings
    lines = [f"requests {window.count} in {window.elapsed:.3f} s, "
             f"p99 {percentile_ms(latencies, 99):.3f} ms",
             f"unscaled: req_per_s {per_s:.4g}, req_p50_ms {p50_ms:.4g}, "
             f"req_p90_ms {p90_ms:.4g} (scaled by {speed.REFERENCE_S:g} s "
             f"over the speed probe's time, see speed.py)"]
    if isinstance(workload, ServiceWorkload):
        queue, plan = window.queue_seconds, window.plan_seconds
        before, after = window.cache_before, window.cache_after
        lookups = (after["hits"] - before["hits"]
                   + after["misses"] - before["misses"])
        lines.append(
            f"server queue wait p50 {percentile_ms(queue, 50):.3f} ms, "
            f"p99 {percentile_ms(queue, 99):.3f} ms; server plan p50 "
            f"{percentile_ms(plan, 50):.3f} ms")
        lines.append(
            f"cache hit share {(after['hits'] - before['hits']) / max(lookups, 1):.4f}, "
            f"repeated-object share {window.repeated_objects / max(window.count, 1):.4f}, "
            f"evictions {after['evictions'] - before['evictions']}, "
            f"coalesced {window.coalesced}")
    rungs: Dict[str, int] = {}
    for outcome in window.planned:
        rungs[outcome.algorithm] = rungs.get(outcome.algorithm, 0) + 1
    lines.append("rungs planned: " + ", ".join(
        f"{rung} {count}" for rung, count in sorted(rungs.items())))
    return lines


# --------------------------------------------------------------------------- #
def measure_setup(workload, seed: int):
    """Set up ``SETUP_REPEATS`` times; keep the last state, and the first
    repetition's outcomes as the serial reference for service replies.

    Each state is closed and dropped before the next is built, so
    ``peak_rss_mb`` covers one set-up plus the window, not several set-ups.
    Returns the median set-up time at the reference speed (each repetition
    scaled by the speed probes on either side of it), the unscaled median,
    and the state.
    """
    times: List[float] = []
    scaled: List[float] = []
    reference = None
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            workload.close(state)
            state = None
            gc.collect()
        before = speed.probe()
        imports = import_seconds()
        start = _clock()
        state = workload.setup(seed)
        times.append(imports + _clock() - start)
        scaled.append(times[-1] * speed.REFERENCE_S * 2
                      / (before + speed.probe()))
        if reference is None:
            reference = dict(state.get("outcomes", {}))
    state["seed"] = seed
    state["reference"] = reference
    return statistics.median(scaled), statistics.median(times), state


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        return run_workload(args)
    finally:
        release_processes()


def release_processes() -> None:
    """Stop every process the run started and wait for each to exit.

    The worker pools are shut down (idempotent), then the ``multiprocessing``
    resource tracker, which the first shared-memory segment starts and which
    would otherwise outlive this process by a moment, is stopped and reaped.
    """
    shutdown_worker_pools()
    resource_tracker._resource_tracker._stop()


def run_workload(args) -> int:
    workload = make_workload(args.workload)
    segments_before = checks.shm_segments()
    setup_s, unscaled_setup_s, state = measure_setup(workload, args.seed)
    failures = Failures()
    shape = machine_shape()
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine " + json.dumps(shape))

    if args.trace:
        half = args.seconds / 2
        window = workload.run(state, half)
        fresh = workload.setup(args.seed)
        fresh["seed"] = args.seed
        tracer = spans.Tracer()
        pools_before = pool_registry_info()
        tracer.install()
        try:
            traced = workload.run(fresh, half, tracer=tracer,
                                  replay=window.sequences)
        finally:
            tracer.uninstall()
        workload.close(fresh)
        for defect in workload.same_plans(window, traced):
            failures.add(f"traced run differs: {defect}")
        metrics = layer_metrics(tracer, traced, window,
                                pools_before, pool_registry_info())
        for line in layer_table(tracer):
            print(line)
        path = write_trace(OUT, args.workload, args.seed, shape, tracer,
                           metrics)
        print(f"trace written to {path.relative_to(ROOT)}")
    else:
        window = workload.run(state, args.seconds, min_requests=100)
        metrics = None

    cost_ratio = workload.finish(state, window, failures, args.seed,
                                 quality=not args.trace)
    workload.close(state)
    shutdown_worker_pools()
    for defect in checks.check_leaks(segments_before):
        failures.add(defect)
    attempted = max(window.count + window.extra, 1)
    if metrics is None:
        metrics = end_to_end(window, cost_ratio, setup_s)
    print(f"set-up median {unscaled_setup_s:.4g} s unscaled")
    for line in summary_lines(workload, window):
        print(line)
    for example in failures.examples:
        print(f"FAILED: {example}")
    print(f"error_rate {failures.count / attempted:.6f} "
          f"({failures.count} of {attempted})")
    for name, metric in metrics.items():
        print(f"  {name:<48} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"correct": failures.count == 0, "attempted": attempted,
                      "failed": failures.count, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
