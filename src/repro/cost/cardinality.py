"""System-R style cardinality estimation over the join graph.

The estimated cardinality of the join of a relation set ``S`` is

    |S| = (product of base-relation cardinalities in S)
          * (product of the selectivities of every join edge inside S)

which is the textbook independence-assumption estimator and the one the
paper's simplified cost model relies on.  Base cardinalities can be scaled
per-relation to model selections pushed below the join (the star-schema
workload in Table 2 "generates queries with selections so that different join
orders would result in different costs").

Estimates are memoised per relation set because every DP algorithm asks for
the same sets over and over while evaluating alternative splits.  The memo
is dropped when the graph's edges change (:attr:`JoinGraph.edit_count`).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

from ..core import bitmapset as bms
from ..core.joingraph import JoinGraph

__all__ = ["CardinalityEstimator", "estimator_overrides_rows"]


def estimator_overrides_rows(estimator: "CardinalityEstimator") -> bool:
    """True when a subclass replaced :meth:`CardinalityEstimator.rows`.

    The vectorized fold paths (:meth:`CardinalityEstimator.rows_batch`,
    :meth:`repro.core.query.QueryInfo.rows_batch` on contracted
    queries, :func:`repro.exec.heuristic_kernels.lindp_merge`'s interval fold)
    reconstruct estimates directly from base cardinalities and edge
    selectivities — bit-identical to the *base* scalar path, but blind to any
    subclass override such as :class:`repro.execution.perturb.PerturbedEstimator`.
    Every fold entry point consults this predicate and falls back to per-mask
    ``rows()`` calls for overriding estimators, so custom estimation is never
    silently bypassed by a kernel backend.
    """
    return type(estimator).rows is not CardinalityEstimator.rows


#: A fold chunk's ``(rows, steps)`` float64 term matrix holds at most this
#: many terms (2 MB).
_FOLD_CHUNK_FLOATS = 1 << 18


def fold_chunk_rows(n_steps: int) -> int:
    """Rows per chunk for a fold over ``n_steps`` terms."""
    return max(1, _FOLD_CHUNK_FLOATS // max(1, n_steps))


def fold_log_terms(selected, values):
    """Per row, the scalar-order sum of the ``values`` it selects.

    ``selected`` is a ``(rows, steps)`` bool matrix and ``values`` the
    ``steps`` log10 terms in the order the scalar estimator adds them.
    Unselected terms become ``+0.0`` and each row is summed by a
    sequential ``cumsum`` (``add.accumulate`` never reorders, unlike the
    pairwise ``np.sum``).  Adding ``+0.0`` leaves a partial sum unchanged
    (and ``log10`` of a positive value is never ``-0.0``), so every row
    gets exactly the IEEE-754 additions of the scalar loop over its own
    terms, starting from ``0.0``.
    """
    import numpy as np

    if selected.shape[1] == 0:
        return np.zeros(len(selected), dtype=np.float64)
    terms = np.where(selected, values, 0.0)
    np.cumsum(terms, axis=1, out=terms)
    return terms[:, -1]


def fold_packed_terms(rows, selectors, values):
    """:func:`fold_log_terms` for packed rows against packed step selectors.

    Step ``j`` fires for a row when the row holds every bit of selector
    ``j``; only words where some selector is nonzero are tested.  Chunked
    over rows per :func:`fold_chunk_rows`.
    """
    import numpy as np

    words = np.flatnonzero(selectors.any(axis=0)).tolist()
    n_steps = len(values)
    out = np.empty(len(rows), dtype=np.float64)
    chunk = fold_chunk_rows(n_steps)
    for start in range(0, len(rows), chunk):
        block = rows[start:start + chunk]
        selected = np.ones((len(block), n_steps), dtype=bool)
        for word in words:
            sel_word = selectors[:, word]
            selected &= ((block[:, word][:, None] & sel_word[None, :])
                         == sel_word[None, :])
        out[start:start + chunk] = fold_log_terms(selected, values)
    return out


class CardinalityEstimator:
    """Estimates the output cardinality of joining any subset of relations."""

    def __init__(self, graph: JoinGraph, base_cardinalities: Sequence[float],
                 min_rows: float = 1.0):
        if len(base_cardinalities) != graph.n_relations:
            raise ValueError("need one base cardinality per relation")
        for rows in base_cardinalities:
            if rows <= 0:
                raise ValueError("base cardinalities must be positive")
        self.graph = graph
        self.base_cardinalities = list(base_cardinalities)
        self.min_rows = min_rows
        self._cache: Dict[int, float] = {}
        #: Per-scope fold schedules for :meth:`rows_batch`'s remap path,
        #: keyed by the run's bit-remap spec (see
        #: :func:`repro.core.widebitmap.view_for`).
        self._fold_steps: Dict[tuple, tuple] = {}
        #: The full-width fold's columns (see :meth:`_log_terms`).
        self._log_columns: Optional[tuple] = None
        #: ``graph.edit_count`` the three caches above were derived under;
        #: a later graph edit drops them (see :meth:`invalidate`).
        self._graph_edits = graph.edit_count

    def base_rows(self, relation: int) -> float:
        """Cardinality of a single base relation (after pushed-down selections)."""
        return self.base_cardinalities[relation]

    def cache_key(self) -> str:
        """Stable identifier of the estimator's *configuration*.

        Folded into the planner's structural signature alongside the
        per-vertex base cardinalities and edge selectivities (which the
        signature hashes separately).  Subclasses that add estimation
        parameters beyond ``min_rows`` must extend this, or structurally
        identical queries under differently-configured estimators would
        share cached plans.
        """
        return f"{type(self).__name__}|min_rows={self.min_rows!r}"

    #: Estimates are capped here so that queries whose true estimate exceeds
    #: the double-precision range (e.g. near-cross-products over hundreds of
    #: relations) still produce finite, comparable costs.
    MAX_ROWS = 1e300

    def rows(self, relations: int) -> float:
        """Estimated cardinality of the join of the relation set ``relations``.

        The product of base cardinalities over hundreds of relations overflows
        IEEE doubles long before the selectivities bring it back down, so the
        estimate is accumulated in log space and only exponentiated at the
        end (capped at :data:`MAX_ROWS`).
        """
        if relations == 0:
            raise ValueError("cannot estimate cardinality of the empty set")
        if self._graph_edits != self.graph.edit_count:
            self.invalidate()
        cached = self._cache.get(relations)
        if cached is not None:
            return cached
        log_estimate = 0.0
        rest = relations & (relations - 1)
        if rest != 0 and rest & (rest - 1) == 0:
            # Two-relation fast path: at most one edge can lie inside the
            # pair (duplicate predicates merge on insertion), so the O(|E|)
            # edges_within scan reduces to one edge_between lookup.  The
            # log-space accumulation order is unchanged (vertices ascending,
            # then the edge), keeping the estimate bit-identical.  The greedy
            # heuristics (GOO's candidate scan, IDP1's seed edge, UnionDP's
            # edge weighting) estimate every edge's pair, which made this
            # path quadratic in edges on clique-shaped 1000-relation queries.
            left = bms.lowest_bit_index(relations)
            right = rest.bit_length() - 1
            log_estimate += math.log10(self.base_cardinalities[left])
            log_estimate += math.log10(self.base_cardinalities[right])
            edge = self.graph.edge_between(left, right)
            if edge is not None:
                log_estimate += math.log10(edge.selectivity)
        else:
            for relation in bms.iter_bits(relations):
                log_estimate += math.log10(self.base_cardinalities[relation])
            for edge in self.graph.edges_within(relations):
                log_estimate += math.log10(edge.selectivity)
        estimate = self.from_log10(log_estimate)
        self._cache[relations] = estimate
        return estimate

    def from_log10(self, log_estimate: float) -> float:
        """Exponentiate and clamp a log-space estimate, exactly as
        :meth:`rows` does.

        The single home of the overflow-cap / ``min_rows`` tail: the
        vectorized log-space folds (:meth:`repro.core.query.QueryInfo.rows_batch`
        on contracted queries, :func:`repro.exec.heuristic_kernels.lindp_merge`'s
        interval fold) finish their accumulators through this method, so the
        scalar/kernel bit-identity contract cannot drift on a one-sided
        clamp change.
        """
        estimate = (self.MAX_ROWS if log_estimate >= 300.0
                    else 10.0 ** log_estimate)
        return max(estimate, self.min_rows)

    def rows_batch(self, masks, spec=None):
        """Estimates for a whole batch of relation sets, as a float64 array.

        The batched entry point of the kernel backends and of GOO's
        candidate refresh: the batch is deduplicated (DP levels ask for the
        same target set once per candidate pair), each distinct set that
        misses the memo is estimated once, and the results are gathered
        back.  Misses are estimated by an exact vectorized fold of the
        scalar log-space sum (:meth:`_fold_masks`): every set gets the
        identical IEEE-754 addition sequence :meth:`rows` runs and is
        finished through :meth:`from_log10`, and the results feed the
        shared memo, so a set estimated by either path is a cache hit for
        the other.  An estimator that overrides :meth:`rows` sees every
        distinct set through it instead.

        ``masks`` is either a sequence of Python-int bitmaps or an
        already-packed ``(m, words)`` uint64 column
        (:mod:`repro.core.widebitmap`); wide sets dedup on the packed
        column's sort keys, so no mask ever has to squeeze into one int64
        lane.  A packed column may carry the run's bit-remap ``spec``
        (:func:`~repro.core.widebitmap.view_for`): scope-restricted batches
        then fold the log terms lane-wise in the compact layout
        (:meth:`_rows_fold`) instead of walking the memo per set, which is
        what keeps subset-scoped fragment runs on wide graphs free of
        per-mask bigint work.
        """
        import numpy as np

        from ..core import widebitmap as wb

        if self._graph_edits != self.graph.edit_count:
            self.invalidate()
        overridden = estimator_overrides_rows(self)
        if isinstance(masks, np.ndarray) and masks.ndim == 2:
            _, first_index, inverse = np.unique(wb.sort_keys(masks),
                                                return_index=True,
                                                return_inverse=True)
            distinct_rows = masks[first_index]
            if (spec is not None and not isinstance(spec, int)
                    and len(first_index) and not overridden):
                return self._rows_fold(distinct_rows, spec)[inverse]
            distinct = wb.unpack(distinct_rows, spec)
        else:
            position: Dict[int, int] = {}
            inverse = np.array([position.setdefault(int(mask), len(position))
                                for mask in masks], dtype=np.intp)
            distinct = list(position)
        if overridden:
            estimates = [self.rows(mask) for mask in distinct]
        else:
            cache = self._cache
            missing = [mask for mask in distinct if mask not in cache]
            if missing:
                self._fold_masks(missing)
            estimates = [cache[mask] for mask in distinct]
        return np.array(estimates, dtype=np.float64)[inverse]

    def _log_terms(self):
        """The full-width fold's columns, rebuilt after every graph edit.

        ``(log10 base cardinality per vertex, log10 selectivity per edge in
        graph order, edge left endpoints, edge right endpoints)`` — the
        terms :meth:`rows` adds, as arrays.
        """
        cached = self._log_columns
        if cached is None:
            import numpy as np

            edges = self.graph.edges
            cached = (
                np.array([math.log10(rows) for rows in self.base_cardinalities],
                         dtype=np.float64),
                np.array([math.log10(edge.selectivity) for edge in edges],
                         dtype=np.float64),
                np.array([edge.left for edge in edges], dtype=np.intp),
                np.array([edge.right for edge in edges], dtype=np.intp))
            self._log_columns = cached
        return cached

    def _fold_masks(self, masks) -> None:
        """Vectorized :meth:`rows` over distinct full-width masks, into the memo.

        The masks become a bit matrix, and each term of the scalar sum
        takes its scalar position: every vertex's ``log10`` base
        cardinality in ascending order, then every edge's ``log10``
        selectivity in graph order, with ``+0.0`` where the vertex or edge
        is not in the mask (:func:`fold_log_terms`).  The two-relation fast
        path of :meth:`rows` adds the same sequence.  Columns outside the
        batch's union can never fire and are dropped without reordering
        the rest.
        """
        import numpy as np

        if 0 in masks:
            raise ValueError("cannot estimate cardinality of the empty set")
        vertex_logs, edge_logs, edge_left, edge_right = self._log_terms()
        n_bits = len(vertex_logs)
        n_bytes = (n_bits + 7) // 8

        def bit_matrix(chunk_masks):
            raw = np.frombuffer(b"".join(mask.to_bytes(n_bytes, "little")
                                         for mask in chunk_masks),
                                dtype=np.uint8)
            return np.unpackbits(raw.reshape(len(chunk_masks), n_bytes),
                                 axis=1, count=n_bits,
                                 bitorder="little").view(bool)

        union_mask = 0
        for mask in masks:
            union_mask |= mask
        union = bit_matrix([union_mask])[0]
        vertices = np.flatnonzero(union)
        edges = np.flatnonzero(union[edge_left] & union[edge_right])
        left, right = edge_left[edges], edge_right[edges]
        values = np.concatenate([vertex_logs[vertices], edge_logs[edges]])
        log_estimates = np.empty(len(masks), dtype=np.float64)
        chunk = fold_chunk_rows(len(values))
        for start in range(0, len(masks), chunk):
            block = bit_matrix(masks[start:start + chunk])
            selected = np.concatenate(
                [block[:, vertices], block[:, left] & block[:, right]], axis=1)
            log_estimates[start:start + chunk] = fold_log_terms(selected, values)
        cache = self._cache
        for mask, log_estimate in zip(masks, log_estimates.tolist()):
            cache[mask] = self.from_log10(log_estimate)

    def _fold_steps_for_spec(self, spec):
        """The scope's log-fold schedule: ``(log10 terms, selector column)``.

        One step per scope member (ascending bit position, selector = the
        member's packed bit) followed by one per edge inside the scope
        (graph edge order, selector = the edge's packed endpoint pair) —
        exactly the terms :meth:`rows`'s scalar loop adds for any mask of
        the scope, in the same order (the two-relation fast path adds
        vertices-ascending-then-the-edge, which is the same sequence).
        Selectors live in the spec's compact layout.  Cached per spec.
        """
        cached = self._fold_steps.get(spec)
        if cached is not None:
            return cached
        import numpy as np

        from ..core import widebitmap as wb

        values = []
        selectors = []
        for index, position in enumerate(spec):
            values.append(math.log10(self.base_cardinalities[position]))
            selectors.append(1 << index)
        scope_mask = 0
        for position in spec:
            scope_mask |= 1 << position
        for edge in self.graph.edges_within(scope_mask):
            values.append(math.log10(edge.selectivity))
            selectors.append(wb.compact(edge.mask, spec))
        steps = (np.array(values, dtype=np.float64),
                 wb.pack(selectors, wb.spec_words(spec)))
        if len(self._fold_steps) >= 256:
            self._fold_steps.clear()
        self._fold_steps[spec] = steps
        return steps

    def _rows_fold(self, rows, spec):
        """Vectorized :meth:`rows` over deduplicated compact-layout rows.

        Performs, for every row at once, the identical IEEE-754 log10
        addition sequence the scalar path runs for that mask — steps whose
        selector is not contained in the batch union can never fire and are
        dropped without reordering the survivors — then exponentiates
        through :meth:`from_log10` and feeds the shared memo.
        """
        import numpy as np

        from ..core import widebitmap as wb

        values, selectors = self._fold_steps_for_spec(spec)
        union = np.bitwise_or.reduce(rows, axis=0)
        keep = ((selectors & ~union[None, :]) == 0).all(axis=1)
        if not keep.all():
            values = values[keep]
            selectors = selectors[keep]
        estimates = [self.from_log10(log_estimate) for log_estimate
                     in fold_packed_terms(rows, selectors, values).tolist()]
        cache = self._cache
        for mask, estimate in zip(wb.unpack(rows, spec), estimates):
            cache[mask] = estimate
        return np.array(estimates, dtype=np.float64)

    def join_rows(self, left: int, right: int) -> float:
        """Cardinality of joining two disjoint relation sets.

        Equivalent to ``rows(left | right)`` but kept as a separate entry
        point because cost models conceptually ask for the output of a join.
        """
        if left & right:
            raise ValueError("join inputs must be disjoint")
        return self.rows(left | right)

    def selectivity_between(self, left: int, right: int) -> float:
        """Combined selectivity of every edge crossing two disjoint sets."""
        selectivity = 1.0
        for edge in self.graph.edges_between(left, right):
            selectivity *= edge.selectivity
        return selectivity

    def invalidate(self) -> None:
        """Drop the memoised estimates and fold schedules.

        Runs by itself on the next estimate after an edit of the graph's
        edge set (:attr:`JoinGraph.edit_count`); call it by hand after
        changing base cardinalities in place.
        """
        self._cache.clear()
        self._fold_steps.clear()
        self._log_columns = None
        self._graph_edits = self.graph.edit_count
