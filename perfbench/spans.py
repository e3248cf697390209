"""In-memory span tracing of the planner's layers, installed at run time.

The benchmark never edits ``src/``: :meth:`Tracer.install` replaces the
public entry points of each ``repro`` layer with timing wrappers and
:meth:`Tracer.uninstall` puts the originals back.  Two kinds of wrapper:

* **spans** record ``[name, start, end, parent span id, request id, span id,
  covered]`` for calls that happen at most a few times per DP level (requests,
  routing, rungs, kernel levels, ``cost_batch``, ``record_level``);
* **leaf timers** only count calls and add their time to the enclosing span's
  ``covered`` field, for entry points called up to millions of times per
  query (``CardinalityEstimator.rows``, ``EnumerationContext.find_blocks``).

A layer's self time is its span's duration minus the time its child spans
(clipped to the span) and leaf timers cover.  Spans of one request share the
request id; a planner call on a ``PlannerService`` worker thread is parented
to the client's request span through the submitted ``QueryInfo`` object.

Out of scope: spans inside multicore worker processes.  Those levels are
measured from the parent side (the ``kernel.multicore.*`` spans include
publishing, dispatch, the wait for the workers and the gather).
"""

from __future__ import annotations

import collections
import importlib
import itertools
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

_clock = time.perf_counter

# Field positions of a span record.
NAME, START, END, PARENT, REQUEST, SID, COVERED = range(7)

#: Kernel level entry points, per backend class.
_LEVEL_METHODS = ("run_subset_level", "run_block_level", "run_tree_level",
                  "run_size_level")
_BACKENDS = (("repro.exec.backend", "ScalarBackend", "scalar"),
             ("repro.exec.vectorized", "VectorizedBackend", "vectorized"),
             ("repro.exec.multicore", "MulticoreBackend", "multicore"))

#: (module, attribute path, span name) of every span entry point.
SPAN_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.planner.service", "AdaptivePlanner.plan", "planner.plan"),
    ("repro.planner.classifier", "QueryClassifier.classify",
     "classifier.classify"),
    ("repro.planner.classifier", "structural_signature",
     "classifier.signature"),
    ("repro.planner.cache", "PlanCache.get", "cache.get"),
    ("repro.planner.cache", "PlanCache.peek", "cache.peek"),
    ("repro.planner.cache", "PlanCache.put", "cache.put"),
    ("repro.planner.server", "PlannerService.submit", "server.submit"),
    ("repro.sql.parser", "parse_join_query", "sql.parse"),
    ("repro.cost.base", "CostModel.cost_batch", "cost.batch"),
    ("repro.cost.cout", "CoutCostModel.cost_batch", "cost.batch"),
    ("repro.cost.cardinality", "CardinalityEstimator.rows_batch",
     "cardinality.rows_batch"),
    ("repro.core.arena", "PlanArena.record_level", "arena.record_level"),
    ("repro.exec.heuristic_kernels", "lindp_merge",
     "heuristic_kernels.lindp_merge"),
    ("repro.exec.heuristic_kernels", "greedy_union_partition",
     "heuristic_kernels.greedy_union_partition"),
    ("repro.exec.heuristic_kernels", "pair_rows",
     "heuristic_kernels.pair_rows"),
) + tuple((module, f"{cls}.{method}",
           f"kernel.{backend}.{method[len('run_'):-len('_level')]}")
          for module, cls, backend in _BACKENDS for method in _LEVEL_METHODS)

#: Leaf timers: counted and timed, no span per call.
LEAF_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.cost.cardinality", "CardinalityEstimator.rows", "cardinality.rows"),
    ("repro.core.enumeration", "EnumerationContext.find_blocks",
     "enumeration.find_blocks"),
)

#: ``JoinOrderOptimizer.optimize`` is wrapped once; its spans are named
#: ``opt.<optimizer class>`` so every rung, fragment DP and initial GOO run
#: shows up under its own algorithm.
OPTIMIZE_POINT = ("repro.optimizers.base", "JoinOrderOptimizer.optimize")


class _ThreadState:
    __slots__ = ("stack", "in_leaf", "leaf", "counters")

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.in_leaf = False
        self.leaf: Dict[str, List[float]] = collections.defaultdict(
            lambda: [0, 0.0])
        self.counters: Dict[str, int] = collections.defaultdict(int)


class Tracer:
    """Span recorder; install() patches the layers, uninstall() restores."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._handoff: Dict[int, collections.deque] = {}
        self._handoff_lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
        return state

    def request(self, request_id: int) -> "_RequestSpan":
        """Context manager for one request's root span."""
        return _RequestSpan(self, request_id)

    # ------------------------------------------------------------------ #
    def _span_wrapper(self, fn, name: Optional[str], give: bool = False,
                      take: bool = False, pairs: bool = False):
        tracer = self
        spans = self.spans
        ids = self._ids

        def traced(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            if stack:
                parent = stack[-1]
                parent_id, request_id = parent[SID], parent[REQUEST]
            elif take:
                parent_id, request_id = tracer._take(args[1])
            else:
                parent_id, request_id = 0, 0
            if name is None:
                label = "opt." + type(args[0]).__name__
            else:
                label = name
                if pairs:
                    state.counters["cost.pairs"] += len(args[1])
            if give:
                tracer._give(args[1], parent_id, request_id)
            frame = [label, 0.0, 0.0, parent_id, request_id, next(ids), 0.0]
            stack.append(frame)
            frame[START] = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                frame[END] = _clock()
                stack.pop()
                spans.append(frame)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _leaf_wrapper(self, fn, name: str):
        tracer = self

        def timed(*args, **kwargs):
            state = tracer._state()
            if state.in_leaf:
                return fn(*args, **kwargs)
            state.in_leaf = True
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                state.in_leaf = False
                slot = state.leaf[name]
                slot[0] += 1
                slot[1] += elapsed
                if state.stack:
                    state.stack[-1][COVERED] += elapsed

        timed.__wrapped__ = fn  # type: ignore[attr-defined]
        return timed

    # Cross-thread parenting: PlannerService.submit hands the span it was
    # called from (the client's request) to whichever worker thread plans the
    # same query object.  Two in-flight requests for one object may swap
    # parents; both are open at the time, so the clipping in self_times
    # keeps the error to their overlap.
    def _give(self, query, parent_id: int, request_id: int) -> None:
        with self._handoff_lock:
            self._handoff.setdefault(id(query), collections.deque()).append(
                (parent_id, request_id))

    def _take(self, query) -> Tuple[int, int]:
        with self._handoff_lock:
            waiting = self._handoff.get(id(query))
            if not waiting:
                return 0, 0
            context = waiting.popleft()
            if not waiting:
                del self._handoff[id(query)]
            return context

    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Wrap every entry point (idempotent per tracer)."""
        if self._patches:
            return
        for module, path, name in SPAN_POINTS:
            self._patch(module, path, lambda fn, name=name: self._span_wrapper(
                fn, name, give=(name == "server.submit"),
                take=(name == "planner.plan"), pairs=(name == "cost.batch")))
        for module, path, name in LEAF_POINTS:
            self._patch(module, path,
                        lambda fn, name=name: self._leaf_wrapper(fn, name))
        self._patch(*OPTIMIZE_POINT, lambda fn: self._span_wrapper(fn, None))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def _patch(self, module_name: str, path: str, make) -> None:
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, attribute = path.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[attribute]
            self._patches.append((owner, attribute, original))
            setattr(owner, attribute, make(original))
            return
        # A module-level function: rebind it in every repro module that
        # imported it by name, not only where it is defined.
        original = getattr(module, path)
        wrapped = make(original)
        for loaded_name, loaded in list(sys.modules.items()):
            if (loaded_name.split(".")[0] == "repro"
                    and getattr(loaded, path, None) is original):
                self._patches.append((loaded, path, original))
                setattr(loaded, path, wrapped)

    # ------------------------------------------------------------------ #
    def leaf_totals(self) -> Dict[str, List[float]]:
        totals: Dict[str, List[float]] = collections.defaultdict(
            lambda: [0, 0.0])
        for state in self._states:
            for name, (calls, seconds) in list(state.leaf.items()):
                totals[name][0] += calls
                totals[name][1] += seconds
        return totals

    def counter_totals(self) -> Dict[str, int]:
        totals: Dict[str, int] = collections.defaultdict(int)
        for state in self._states:
            for name, value in list(state.counters.items()):
                totals[name] += value
        return totals


class _RequestSpan:
    def __init__(self, tracer: Tracer, request_id: int):
        self.tracer = tracer
        self.frame = ["request", 0.0, 0.0, 0, request_id,
                      next(tracer._ids), 0.0]

    def __enter__(self) -> "_RequestSpan":
        self.tracer._state().stack.append(self.frame)
        self.frame[START] = _clock()
        return self

    def __exit__(self, *_exc) -> None:
        self.frame[END] = _clock()
        self.tracer._state().stack.pop()
        self.tracer.spans.append(self.frame)


def self_times(spans: List[list]) -> Tuple[Dict[str, List[float]],
                                           Dict[int, list]]:
    """Per span name: ``[count, total duration, total self time]``.

    Also returns the span-id index, for callers that walk parents.
    """
    by_id = {span[SID]: span for span in spans}
    children: Dict[int, List[list]] = collections.defaultdict(list)
    for span in spans:
        if span[PARENT] in by_id:
            children[span[PARENT]].append(span)
    table: Dict[str, List[float]] = collections.defaultdict(
        lambda: [0, 0.0, 0.0])
    for span in spans:
        start, end = span[START], span[END]
        covered = span[COVERED]
        cursor = start
        for child in sorted(children.get(span[SID], ()),
                            key=lambda c: c[START]):
            low, high = max(child[START], cursor), min(child[END], end)
            if high > low:
                covered += high - low
                cursor = high
        row = table[span[NAME]]
        row[0] += 1
        row[1] += end - start
        row[2] += max(0.0, end - start - covered)
    return table, by_id
