"""PostgreSQL-like cost model.

The paper replaces PostgreSQL's full cost model with a simplified one that
"returns nearly the same cost as PostgreSQL (within 5% in the worst case)" for
the inner equi-join queries it considers (Section 7.1).  This module follows
the same approach: it keeps PostgreSQL's cost *structure* and default
constants (``seq_page_cost``, ``cpu_tuple_cost``, ``cpu_operator_cost``, ...)
for sequential scans and for the three join operators PostgreSQL picks from —
hash join, nested-loop join and sort-merge join — but only for inner
equi-joins with no parallel workers.

The model is deliberately deterministic and monotone in its inputs so that
optimizers disagree only when their search spaces genuinely differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..core.plan import JoinMethod, Plan, join_plan, scan_plan
from .base import CostModel

__all__ = ["PostgresCostParameters", "PostgresCostModel"]


class _SideStats(NamedTuple):
    """The two statistics the private join-cost formulas read from a plan."""

    rows: float
    cost: float


@dataclass(frozen=True)
class PostgresCostParameters:
    """Cost constants, defaulting to PostgreSQL 12's planner defaults."""

    seq_page_cost: float = 1.0
    cpu_tuple_cost: float = 0.01
    cpu_operator_cost: float = 0.0025
    cpu_index_tuple_cost: float = 0.005
    #: Tuples assumed to fit on one heap page when the catalog gives no pages.
    tuples_per_page: float = 100.0
    #: Work-mem driven multiplier applied when a hash build side is huge and
    #: would spill to disk; keeps hash joins from being a universal winner.
    hash_spill_threshold: float = 1e7
    hash_spill_penalty: float = 2.0


class PostgresCostModel(CostModel):
    """Cost model mimicking PostgreSQL's planner for inner equi-joins."""

    name = "postgres"

    def __init__(self, parameters: PostgresCostParameters | None = None):
        self.parameters = parameters or PostgresCostParameters()

    # ------------------------------------------------------------------ #
    # Scans
    # ------------------------------------------------------------------ #
    def scan(self, relation_index: int, rows: float) -> Plan:
        """Sequential scan: page I/O plus per-tuple CPU cost."""
        p = self.parameters
        pages = max(1.0, rows / p.tuples_per_page)
        cost = pages * p.seq_page_cost + rows * p.cpu_tuple_cost
        return scan_plan(relation_index, rows, cost)

    # ------------------------------------------------------------------ #
    # Joins
    # ------------------------------------------------------------------ #
    def join(self, left: Plan, right: Plan, output_rows: float) -> Plan:
        """Return the cheapest of hash, nested-loop and merge join."""
        best_cost, best_method = self._best_join(left, right, output_rows)
        return join_plan(left, right, output_rows, best_cost, best_method)

    def join_cost_from_stats(self, left_rows: float, left_cost: float,
                             right_rows: float, right_cost: float,
                             output_rows: float) -> float:
        """Scalar oracle for :meth:`cost_batch`: no ``Plan`` objects allocated.

        The formulas only read ``rows``/``cost`` from the operands, so a
        lightweight stats tuple feeds the exact code path ``join`` uses —
        the costs are bit-identical by construction.  The array kernel
        :meth:`cost_batch` is tested lane-for-lane against this method.
        """
        left = _SideStats(left_rows, left_cost)
        right = _SideStats(right_rows, right_cost)
        return self._best_join(left, right, output_rows)[0]

    def cost_batch(self, left_rows, left_costs, right_rows, right_costs,
                   output_rows):
        """Array kernel: the three operator costs elementwise, then the min.

        Every lane performs :meth:`_best_join`'s IEEE-754 operations in the
        same order, so each result is bit-identical to :meth:`join`'s cost
        (the :class:`~repro.core.arena.PlanArena` contract).  The selection
        keeps the scalar strict-``<`` scan from ``+inf`` in hash,
        nested-loop, merge order, which also preserves its NaN behaviour.

        The merge join's ``log2`` factor is the one transcendental term.
        It is computed with :func:`math.log2` (numpy's ``log2`` may round
        differently), once per distinct operand row count, and only on the
        lanes where the merge join can win.  Every other lane is decided by
        a lower bound: ``rows = m * 2**e`` with ``m`` in ``[0.5, 1)`` gives
        ``log2(rows) >= e - 1`` exactly, and rounding is monotone, so a
        merge cost built from ``max(1, e - 1)`` never exceeds the exact one.
        Where that bound already exceeds the hash/nested-loop minimum, the
        merge join loses and the minimum stands.
        """
        p = self.parameters
        lr = np.asarray(left_rows, dtype=np.float64)
        lc = np.asarray(left_costs, dtype=np.float64)
        rr = np.asarray(right_rows, dtype=np.float64)
        rc = np.asarray(right_costs, dtype=np.float64)
        out = np.asarray(output_rows, dtype=np.float64)
        n = len(lr)
        op = p.cpu_operator_cost
        startup = lc + rc
        output_cost = out * p.cpu_tuple_cost
        # Hash build side and nested-loop outer side: the smaller input,
        # the right one when ``left.rows <= right.rows`` is false (NaN too).
        left_smaller = lr <= rr
        small = np.where(left_smaller, lr, rr)
        large = np.where(left_smaller, rr, lr)

        hash_cost = ((startup + small * (op + p.cpu_tuple_cost))
                     + large * op) + output_cost
        hash_cost = np.where(small > p.hash_spill_threshold,
                             hash_cost * p.hash_spill_penalty, hash_cost)
        nested_cost = (startup + small * (large * op)) + output_cost
        best = np.full(n, np.inf)
        for cost in (hash_cost, nested_cost):
            best = np.where(cost < best, cost, best)

        def merge_cost(lanes, left_factor, right_factor):
            sort_cost = ((0.0 + (lr[lanes] * left_factor) * op)
                         + (rr[lanes] * right_factor) * op)
            return (((startup[lanes] + sort_cost) + (lr[lanes] + rr[lanes]) * op)
                    + output_cost[lanes])

        # ``max(rows, 2.0)``; the ``np.where`` forms keep Python ``max``'s
        # NaN handling.
        both = np.concatenate((lr, rr))
        clamped = np.where(2.0 > both, 2.0, both)
        if op >= 0.0:  # the bound is monotone only for a non-negative op
            bound = np.maximum(np.frexp(clamped)[1] - 1, 1).astype(np.float64)
            lanes = np.flatnonzero(
                ~(merge_cost(slice(None), bound[:n], bound[n:]) > best))
        else:
            lanes = np.arange(n)
        if len(lanes):
            distinct, inverse = np.unique(
                np.concatenate((clamped[lanes], clamped[n + lanes])),
                return_inverse=True)
            logs = np.array(list(map(math.log2, distinct.tolist())),
                            dtype=np.float64)
            factors = np.where(logs > 1.0, logs, 1.0)[inverse.reshape(-1)]
            merge = merge_cost(lanes, factors[:len(lanes)],
                               factors[len(lanes):])
            best[lanes] = np.where(merge < best[lanes], merge, best[lanes])
        return best

    def _best_join(self, left, right, output_rows: float):
        """Cheapest ``(cost, method)`` over the three physical operators."""
        best_cost = math.inf
        best_method = JoinMethod.HASH_JOIN
        for method, cost in (
            (JoinMethod.HASH_JOIN, self._hash_join_cost(left, right, output_rows)),
            (JoinMethod.NESTED_LOOP, self._nested_loop_cost(left, right, output_rows)),
            (JoinMethod.MERGE_JOIN, self._merge_join_cost(left, right, output_rows)),
        ):
            if cost < best_cost:
                best_cost = cost
                best_method = method
        return best_cost, best_method

    def _hash_join_cost(self, left: Plan, right: Plan, output_rows: float) -> float:
        """Hash join: build the smaller side, probe with the larger."""
        p = self.parameters
        build, probe = (left, right) if left.rows <= right.rows else (right, left)
        build_cost = build.rows * (p.cpu_operator_cost + p.cpu_tuple_cost)
        probe_cost = probe.rows * p.cpu_operator_cost
        output_cost = output_rows * p.cpu_tuple_cost
        startup = left.cost + right.cost
        total = startup + build_cost + probe_cost + output_cost
        if build.rows > p.hash_spill_threshold:
            total *= p.hash_spill_penalty
        return total

    def _nested_loop_cost(self, left: Plan, right: Plan, output_rows: float) -> float:
        """Nested loop: rescan the inner side once per outer tuple.

        The inner rescan is charged at CPU cost only (PostgreSQL would use a
        materialised inner or an index; we model the materialised case).
        """
        p = self.parameters
        outer, inner = (left, right) if left.rows <= right.rows else (right, left)
        rescan_cost = inner.rows * p.cpu_operator_cost
        total = (
            left.cost
            + right.cost
            + outer.rows * rescan_cost
            + output_rows * p.cpu_tuple_cost
        )
        return total

    def _merge_join_cost(self, left: Plan, right: Plan, output_rows: float) -> float:
        """Sort-merge join: sort both inputs then a linear merge."""
        p = self.parameters
        sort_cost = 0.0
        for side in (left, right):
            comparisons = side.rows * max(1.0, math.log2(max(side.rows, 2.0)))
            sort_cost += comparisons * p.cpu_operator_cost
        merge_cost = (left.rows + right.rows) * p.cpu_operator_cost
        output_cost = output_rows * p.cpu_tuple_cost
        return left.cost + right.cost + sort_cost + merge_cost + output_cost
