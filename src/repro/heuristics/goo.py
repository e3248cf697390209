"""GOO — Greedy Operator Ordering (Fegaras 1998).

GOO builds a bushy join tree bottom-up: at every step it joins the pair of
current subtrees whose join produces the *smallest intermediate result*, among
pairs connected by at least one join edge (no cross products).  It is the
cheapest-to-compute heuristic in the paper's comparison and also the
"initial join order" component the paper plugs into IDP2 (Section 7.3: "For
all IDP2 variants, we use GOO for the heuristic step").

The implementation runs in ``O(E log E)`` by keeping the candidate joins in a
heap keyed on estimated output cardinality and lazily discarding entries that
became stale after a merge, so it comfortably handles the 1000-relation
queries of Table 1.  With ``backend != "scalar"`` two estimate loops run
as batches: the initial min-edge scan (one pair estimate per join edge,
through :func:`~repro.exec.heuristic_kernels.pair_rows`) and, after every
merge, the refresh of the merged group's candidates against each
neighbouring group (one :meth:`~repro.core.query.QueryInfo.rows_batch`
call, an exact vectorized fold of the scalar log-space sum).  The batches
are pushed in the scalar loop's order with the same tie-breakers, and the
greedy merge itself is inherently sequential, so plans are bit-identical
across backends.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from ..core import bitmapset as bms
from ..core.counters import OptimizerStats
from ..core.memo import MemoTable
from ..core.plan import Plan
from ..core.query import QueryInfo
from ..optimizers.base import JoinOrderOptimizer
from .common import HeuristicBackendMixin

__all__ = ["GOO"]


class GOO(HeuristicBackendMixin, JoinOrderOptimizer):
    """Greedy Operator Ordering: repeatedly join the smallest-result pair."""

    name = "GOO"
    parallelizability = "sequential"
    exact = False
    execution_style = "sequential"

    def __init__(self, backend: str = "scalar", workers: Optional[int] = None):
        self._init_backend(backend, workers)

    def _run(self, query: QueryInfo, subset: int,
             memo: MemoTable, stats: OptimizerStats) -> Plan:
        graph = query.graph

        # Current forest: representative vertex -> (vertex mask, plan).
        groups: Dict[int, Tuple[int, Plan]] = {}
        representative: Dict[int, int] = {}
        for vertex in bms.iter_bits(subset):
            groups[vertex] = (bms.bit(vertex), query.leaf_plan(vertex))
            representative[vertex] = vertex

        def find(vertex: int) -> int:
            root = vertex
            while representative[root] != root:
                root = representative[root]
            while representative[vertex] != root:
                representative[vertex], vertex = root, representative[vertex]
            return root

        # Candidate heap keyed on estimated join output cardinality.
        # Entries are (rows, tie_breaker, left_vertex, right_vertex).
        heap: List[Tuple[float, int, int, int]] = []
        edges = graph.edges_within(subset)
        if self._use_heuristic_kernels(len(edges)):
            # Batched min-edge scan: gather every edge's pair estimate in
            # one pass (the estimates and the (rows, counter) heap order are
            # identical to the scalar loop, so plans are unchanged).
            from ..exec import pair_rows

            estimates = pair_rows(query, [(e.left, e.right) for e in edges])
            heap = [(float(rows), index, edge.left, edge.right)
                    for index, (rows, edge) in enumerate(zip(estimates, edges))]
        else:
            for edge in edges:
                rows = query.rows(bms.bit(edge.left) | bms.bit(edge.right))
                heap.append((rows, len(heap), edge.left, edge.right))
        counter = len(heap)
        heapq.heapify(heap)

        remaining = len(groups)
        while remaining > 1:
            if not heap:
                raise RuntimeError("GOO ran out of connected candidate pairs")
            rows, _, left_vertex, right_vertex = heapq.heappop(heap)
            left_root = find(left_vertex)
            right_root = find(right_vertex)
            if left_root == right_root:
                continue
            left_mask, left_plan = groups[left_root]
            right_mask, right_plan = groups[right_root]
            current_rows = query.rows(left_mask | right_mask)
            if current_rows > rows * (1 + 1e-9):
                # Stale entry: one of the groups has grown since it was pushed.
                heapq.heappush(heap, (current_rows, counter, left_vertex, right_vertex))
                counter += 1
                continue
            stats.record_pair(bms.popcount(left_mask | right_mask), is_ccp=True)
            plan = query.join(left_mask, right_mask, left_plan, right_plan)
            merged_mask = left_mask | right_mask
            representative[right_root] = left_root
            groups[left_root] = (merged_mask, plan)
            del groups[right_root]
            memo.put(merged_mask, plan)
            remaining -= 1
            # Push refreshed candidates for every edge leaving the merged group.
            neighbours = graph.neighbours_of_set(merged_mask) & subset
            targets: List[int] = []
            masks: List[int] = []
            for neighbour in bms.iter_bits(neighbours):
                neighbour_root = find(neighbour)
                if neighbour_root == left_root:
                    continue
                neighbour_mask, _ = groups[neighbour_root]
                targets.append(neighbour)
                masks.append(merged_mask | neighbour_mask)
            if self._use_heuristic_kernels(len(masks)):
                refreshed = query.rows_batch(masks).tolist()
            else:
                refreshed = [query.rows(mask) for mask in masks]
            for neighbour, candidate_rows in zip(targets, refreshed):
                heapq.heappush(heap, (candidate_rows, counter, left_vertex, neighbour))
                counter += 1

        final_root = find(bms.lowest_bit_index(subset))
        return groups[final_root][1]
