"""Query information: the single input object shared by every optimizer.

A :class:`QueryInfo` bundles everything a join-order optimizer needs:

* the join graph (``QI`` in the paper's pseudo-code),
* a cardinality estimator for arbitrary relation subsets,
* a cost model that builds scan and join plans,
* per-vertex *leaf plans*.

For an ordinary query each graph vertex is one base relation and the leaf
plans are sequential scans.  The heuristic algorithms (IDP2, UnionDP, LinDP)
additionally need to treat an already-optimized subtree as a single
"temporary table" and keep optimizing on a *contracted* graph; to support
that, every vertex carries the bitmap of original relations it stands for and
an optional pre-built leaf plan.  :meth:`QueryInfo.contract` produces such a
contracted query while keeping cardinalities consistent with the original
estimator, so costs remain comparable across recursion levels.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from . import bitmapset as bms
from .joingraph import JoinGraph
from .plan import Plan
from ..cost.base import CostModel
from ..cost.cardinality import (
    CardinalityEstimator,
    estimator_overrides_rows,
    fold_packed_terms,
)
from ..cost.postgres import PostgresCostModel

__all__ = ["QueryInfo"]


class QueryInfo:
    """Everything an optimizer needs to know about one query."""

    def __init__(
        self,
        graph: JoinGraph,
        base_cardinalities: Optional[Sequence[float]] = None,
        cost_model: Optional[CostModel] = None,
        name: str = "",
        cardinality: Optional[CardinalityEstimator] = None,
        vertex_masks: Optional[Sequence[int]] = None,
        leaf_plans: Optional[Sequence[Optional[Plan]]] = None,
        root: Optional["QueryInfo"] = None,
    ):
        self.graph = graph
        self.name = name
        self.cost_model = cost_model or PostgresCostModel()
        if cardinality is None:
            if base_cardinalities is None:
                raise ValueError("provide either base_cardinalities or a CardinalityEstimator")
            cardinality = CardinalityEstimator(graph, base_cardinalities)
        self.cardinality = cardinality
        #: Root query of a contraction chain; ``self`` when not contracted.
        self.root: "QueryInfo" = root if root is not None else self
        if vertex_masks is None:
            vertex_masks = [bms.bit(i) for i in range(graph.n_relations)]
        if len(vertex_masks) != graph.n_relations:
            raise ValueError("vertex_masks must have one entry per graph vertex")
        #: Per graph vertex: the bitmap of *root* relations the vertex stands for.
        self.vertex_masks: List[int] = list(vertex_masks)
        if leaf_plans is None:
            leaf_plans = [None] * graph.n_relations
        if len(leaf_plans) != graph.n_relations:
            raise ValueError("leaf_plans must have one entry per graph vertex")
        self._leaf_plans: List[Optional[Plan]] = list(leaf_plans)
        self._scan_cache: Dict[int, Plan] = {}
        #: Contracted/extracted queries memoize estimates per *local* vertex
        #: mask: the root estimator already memoizes per root mask, but the
        #: local-to-root translation itself (``root_mask_of``) is O(vertices)
        #: and DP inner loops ask for the same local mask once per candidate
        #: pair.
        self._rows_cache: Dict[int, float] = {}

    # ------------------------------------------------------------------ #
    # Basic shape
    # ------------------------------------------------------------------ #
    @property
    def n_relations(self) -> int:
        """Number of graph vertices (base relations or composites)."""
        return self.graph.n_relations

    @property
    def all_relations_mask(self) -> int:
        """Vertex bitmap containing every vertex of the query."""
        return self.graph.all_relations_mask

    @property
    def is_contracted(self) -> bool:
        """True if vertices stand for groups of original relations."""
        return self.root is not self

    @property
    def has_custom_leaf_plans(self) -> bool:
        """True when any vertex carries a pre-built (non-scan) leaf plan.

        Such plans carry cost state that is not derivable from the graph and
        base cardinalities, so e.g. the planner's structural signature cannot
        cover them.
        """
        return any(plan is not None for plan in self._leaf_plans)

    def root_mask_of(self, vertex_mask: int) -> int:
        """Translate a vertex bitmap into the bitmap of root relations."""
        result = 0
        for vertex in bms.iter_bits(vertex_mask):
            result |= self.vertex_masks[vertex]
        return result

    def vertices_covering(self, root_relations_mask: int) -> Optional[int]:
        """Vertex bitmap whose members exactly tile ``root_relations_mask``.

        Returns None when the root-relation set cuts through a composite
        vertex (i.e. it cannot be expressed as a union of whole vertices).
        Plans produced at this query's level always map cleanly; plans nested
        inside a composite leaf do not, which is how callers such as IDP2
        distinguish current-level join nodes from the interior of an
        already-frozen temporary table.
        """
        result = 0
        remaining = root_relations_mask
        for vertex, vertex_mask in enumerate(self.vertex_masks):
            if vertex_mask & root_relations_mask:
                if vertex_mask & ~root_relations_mask:
                    return None
                result |= bms.bit(vertex)
                remaining &= ~vertex_mask
        return result if remaining == 0 else None

    # ------------------------------------------------------------------ #
    # Cardinality and plan construction
    # ------------------------------------------------------------------ #
    def rows(self, vertex_mask: int) -> float:
        """Estimated cardinality of joining the vertices in ``vertex_mask``.

        For contracted queries the estimate is computed by the *root*
        estimator over the union of the underlying relations, so edges hidden
        inside a composite vertex and edges crossing composites all contribute
        their selectivities exactly once.
        """
        if not self.is_contracted:
            return self.cardinality.rows(vertex_mask)
        cached = self._rows_cache.get(vertex_mask)
        if cached is None:
            cached = self.root.cardinality.rows(self.root_mask_of(vertex_mask))
            self._rows_cache[vertex_mask] = cached
        return cached

    def with_estimator(self, estimator: CardinalityEstimator,
                       name: Optional[str] = None) -> "QueryInfo":
        """A copy of this query planning under a different estimator.

        The copy shares the join graph and cost model objects; leaf plans are
        rebuilt from the new estimator's base cardinalities.  This is the
        injection point for estimation-robustness studies (e.g.
        :class:`~repro.execution.perturb.PerturbedEstimator`): the planning
        problem is identical except for what the optimizer *believes* about
        intermediate sizes.

        Only root queries without custom leaf plans can be re-estimated —
        contracted queries' vertex cardinalities were derived from the old
        estimator and would silently disagree with the new one.
        """
        if self.is_contracted or self.has_custom_leaf_plans:
            raise ValueError(
                "with_estimator() requires a root query without custom leaf "
                "plans; re-derive the contraction from the re-estimated root "
                "query instead")
        if estimator.graph is not self.graph:
            raise ValueError(
                "the replacement estimator must be built over this query's "
                "join graph object")
        return QueryInfo(
            graph=self.graph,
            cost_model=self.cost_model,
            name=name if name is not None else self.name,
            cardinality=estimator,
        )

    def rows_batch(self, vertex_masks, spec=None):
        """Batched :meth:`rows` over a batch of vertex bitmaps (float64).

        ``vertex_masks`` is either a sequence of Python-int bitmaps or an
        already-packed ``(m, words)`` uint64 column
        (:mod:`repro.core.widebitmap`) — the kernels hand over whichever
        they hold.  A packed column may come with its run's ``spec``
        (identity word count or bit remap, see
        :func:`repro.core.widebitmap.view_for`); a remap column is folded
        *in its own compact layout* against per-spec cached selectors, so a
        scoped fragment run on a wide contracted query never round-trips
        its batch through full-width packing.  Ordinary queries delegate to
        the estimator's deduplicating batch entry point.  Contracted
        queries run a *vectorized log-space fold* (see
        :meth:`_log_fold_steps`): the root estimator's scalar path
        accumulates ``log10`` terms in a fixed order (root vertices
        ascending, then root edges in graph order), and a zero-filled
        sequential ``cumsum`` over those same terms
        (:func:`~repro.cost.cardinality.fold_log_terms`) performs the
        identical IEEE-754 addition sequence for every mask at
        once — bit-identical to :meth:`rows`, without the per-mask Python
        translation walk that used to dominate kernelized fragment DP time
        on 100-1000-relation queries.  The selectors are multi-word columns
        themselves, so the fold runs natively at any graph width.
        """
        remapped = spec is not None and not isinstance(spec, int)
        if not self.is_contracted:
            if remapped:
                return self.cardinality.rows_batch(vertex_masks, spec)
            return self.cardinality.rows_batch(vertex_masks)
        import numpy as np

        from . import widebitmap as wb

        if isinstance(vertex_masks, np.ndarray) and vertex_masks.ndim == 2:
            packed = vertex_masks
            mask_list = wb.unpack(packed, spec)
        else:
            mask_list = [int(mask) for mask in vertex_masks]
            packed = wb.pack(mask_list, wb.words_for(self.graph.n_relations))
            remapped = False
        if estimator_overrides_rows(self.root.cardinality):
            # A custom estimator (e.g. a q-error PerturbedEstimator) must
            # observe every mask through rows(); the log-space fold below
            # reconstructs estimates from base cardinalities and would
            # silently bypass the override.
            return np.array([self.rows(mask) for mask in mask_list],
                            dtype=np.float64)
        if remapped:
            values, selectors = self._fold_steps_for_spec(spec)
        else:
            values, selectors = self._log_fold_steps()
        # Steps whose selector is not contained in the batch's mask union
        # can never fire for any mask of the batch; dropping them leaves the
        # surviving additions in the same order, so the IEEE-754 sequence
        # each mask sees is unchanged (bit-identity holds).  A fragment DP
        # batch on a wide contracted query keeps ~fragment-size steps out of
        # hundreds.
        if len(mask_list):
            union = np.bitwise_or.reduce(packed, axis=0)
            keep = ((selectors & ~union[None, :]) == 0).all(axis=1)
            if not keep.all():
                values = values[keep]
                selectors = selectors[keep]
        # Words where every (surviving) selector is zero test trivially true
        # for every mask — skip them.  After the union filter above, a
        # fragment batch on a wide graph typically leaves one active word;
        # when the survivors straddle words, remap the fold onto the
        # selectors' active *bits* (containment only inspects bits a
        # selector sets, and per-step selection — hence the addition
        # sequence — is invariant under the bit permutation).
        active_words = np.flatnonzero(selectors.any(axis=0)).tolist()
        fold_selectors = selectors
        fold_packed = packed
        if len(active_words) > 1:
            union_row = np.bitwise_or.reduce(selectors, axis=0)
            positions: List[int] = []
            for word in active_words:
                word_value = int(union_row[word])
                base = wb.WORD_BITS * word
                while word_value:
                    low = word_value & -word_value
                    positions.append(base + low.bit_length() - 1)
                    word_value ^= low
            if wb.words_for(len(positions)) < len(active_words):
                fold_selectors = wb.gather_bits(selectors, positions)
                fold_packed = wb.gather_bits(packed, positions)
        acc = fold_packed_terms(fold_packed, fold_selectors, values)
        estimator = self.root.cardinality
        # Final exponentiation stays on Python's ``**`` (inside the
        # estimator's shared clamp helper) so the rounding is literally
        # the scalar path's; results feed the local memo so later
        # scalar rows() calls on the same masks are cache hits.
        estimates = [estimator.from_log10(log_estimate)
                     for log_estimate in acc.tolist()]
        cache = self._rows_cache
        for mask, estimate in zip(mask_list, estimates):
            cache[mask] = estimate
        return np.array(estimates, dtype=np.float64)

    def _log_fold_steps(self):
        """The contracted query's log-space accumulation schedule.

        One ``(log10 term, local selector mask)`` pair per root vertex of
        the query's span (ascending root index, selector = the composite
        vertex's local bit) followed by one per root edge inside the span
        (graph edge order, selector = both endpoints' composite bits) —
        exactly the term sequence the root estimator's scalar loop adds for
        any mask, restricted lane-wise by the selectors.  Selectors are a
        packed ``(steps, words)`` uint64 column so the fold works at any
        local width.  Built once per query object.
        """
        import math

        import numpy as np

        from . import widebitmap as wb

        cached = getattr(self, "_fold_steps", None)
        if cached is not None:
            return cached
        root = self.root
        composite_bit: Dict[int, int] = {}
        span = 0
        for local_index, vertex_mask in enumerate(self.vertex_masks):
            span |= vertex_mask
            for root_vertex in bms.iter_bits(vertex_mask):
                composite_bit[root_vertex] = bms.bit(local_index)
        values: List[float] = []
        selectors: List[int] = []
        base = root.cardinality.base_cardinalities
        for root_vertex in bms.iter_bits(span):
            values.append(math.log10(base[root_vertex]))
            selectors.append(composite_bit[root_vertex])
        for edge in root.graph.edges_within(span):
            values.append(math.log10(edge.selectivity))
            selectors.append(composite_bit[edge.left] | composite_bit[edge.right])
        steps = (np.array(values, dtype=np.float64),
                 wb.pack(selectors, wb.words_for(self.graph.n_relations)))
        self._fold_steps = steps
        return steps

    def _fold_steps_for_spec(self, spec):
        """:meth:`_log_fold_steps` restricted and remapped to a run's spec.

        Keeps exactly the steps whose selector lies inside the spec's scope
        (in the full schedule's order) and gathers their selectors into the
        spec's compact layout, so a scoped kernel run folds its own packed
        column directly.  Dropped steps could never fire for a mask of the
        scope, and the survivors keep their relative order, so the IEEE-754
        addition sequence any in-scope mask sees is unchanged (bit-identity
        with :meth:`rows` holds).  Cached per spec: one fragment
        re-optimization asks for the same spec once per DP level.
        """
        cache = getattr(self, "_fold_spec_steps", None)
        if cache is None:
            cache = self._fold_spec_steps = {}
        cached = cache.get(spec)
        if cached is not None:
            return cached
        from . import widebitmap as wb

        values, selectors = self._log_fold_steps()
        scope_row = wb.pack_one(sum(1 << position for position in spec),
                                selectors.shape[1])
        keep = ((selectors & ~scope_row[None, :]) == 0).all(axis=1)
        steps = (values[keep], wb.gather_bits(selectors[keep], spec))
        cache[spec] = steps
        return steps

    def leaf_plan(self, vertex: int) -> Plan:
        """Access plan for one vertex (a scan, or a pre-built composite plan)."""
        cached = self._scan_cache.get(vertex)
        if cached is not None:
            return cached
        provided = self._leaf_plans[vertex]
        if provided is not None:
            plan = provided
        else:
            plan = self.cost_model.scan(vertex, self.cardinality.base_rows(vertex))
        self._scan_cache[vertex] = plan
        return plan

    def join(self, left_vertex_mask: int, right_vertex_mask: int,
             left_plan: Plan, right_plan: Plan) -> Plan:
        """Build the cheapest join of two disjoint vertex sets' plans."""
        if left_vertex_mask & right_vertex_mask:
            raise ValueError("join inputs must cover disjoint vertex sets")
        output_rows = self.rows(left_vertex_mask | right_vertex_mask)
        return self.cost_model.join(left_plan, right_plan, output_rows)

    def plan_cost(self, plan: Plan) -> float:
        """Re-cost an existing plan tree bottom-up under this query's model.

        Used when comparing plans produced under different cost models (e.g.
        IKKBZ optimizes under ``C_out`` but the evaluation compares final
        plans under the PostgreSQL-like model, as in Section 7.3).
        """
        rebuilt = self.recost(plan)
        return rebuilt.cost

    def recost(self, plan: Plan) -> Plan:
        """Rebuild ``plan`` with this query's cost model and cardinalities.

        The plan must be expressed over this query's vertex space (leaf
        ``relation_index`` values are vertex indices).
        """
        if plan.is_leaf:
            return self.leaf_plan(plan.relation_index)
        left = self.recost(plan.left)
        right = self.recost(plan.right)
        left_mask = self._vertex_mask_of_plan(plan.left)
        right_mask = self._vertex_mask_of_plan(plan.right)
        return self.join(left_mask, right_mask, left, right)

    def _vertex_mask_of_plan(self, plan: Plan) -> int:
        return bms.from_indices(leaf.relation_index for leaf in plan.iter_leaves())

    # ------------------------------------------------------------------ #
    # Edge weights (used by UnionDP and the workload tooling)
    # ------------------------------------------------------------------ #
    def edge_weight(self, left_vertex: int, right_vertex: int) -> float:
        """Cost-model weight of joining the two endpoint vertices directly.

        UnionDP assigns each edge the cost of joining the relations across it
        (Section 4.2, requirement 2); we use the cost of the cheapest join of
        the two leaf plans under the query's cost model.
        """
        left_plan = self.leaf_plan(left_vertex)
        right_plan = self.leaf_plan(right_vertex)
        return self.join(bms.bit(left_vertex), bms.bit(right_vertex), left_plan, right_plan).cost

    # ------------------------------------------------------------------ #
    # Contraction (composite vertices for the heuristics)
    # ------------------------------------------------------------------ #
    def contract(self, partitions: Sequence[int], partition_plans: Sequence[Plan],
                 name: Optional[str] = None) -> "QueryInfo":
        """Build a contracted query whose vertices are the given partitions.

        Args:
            partitions: disjoint vertex bitmaps (in *this* query's vertex
                space) covering all vertices; each becomes one new vertex.
            partition_plans: the plan chosen for each partition; it becomes
                the new vertex's leaf plan.
            name: optional name of the contracted query.

        Returns:
            A new :class:`QueryInfo` over ``len(partitions)`` vertices whose
            cardinalities are still computed by the root estimator.
        """
        if len(partitions) != len(partition_plans):
            raise ValueError("need exactly one plan per partition")
        covered = 0
        for partition in partitions:
            if partition == 0:
                raise ValueError("partitions must be non-empty")
            if partition & covered:
                raise ValueError("partitions must be disjoint")
            covered |= partition
        if covered != self.all_relations_mask:
            raise ValueError("partitions must cover every vertex of the query")

        n_new = len(partitions)
        new_names = []
        for index, partition in enumerate(partitions):
            members = [self.graph.relation_names[v] for v in bms.iter_bits(partition)]
            new_names.append(members[0] if len(members) == 1 else f"part{index}({'+'.join(members)})")
        new_graph = JoinGraph(n_new, new_names)
        # Aggregate crossing edges with a single scan over the edge list
        # instead of one edges_between() pass per partition pair (quadratic in
        # partitions x edges, which dominated contraction on 1000-relation
        # queries).  Selectivities multiply in graph edge order and merged
        # edges are added in (i, j)-lexicographic order — exactly what the
        # nested edges_between loop produced, so contracted graphs (and every
        # cost downstream) are bit-identical.
        partition_of: Dict[int, int] = {}
        for index, partition in enumerate(partitions):
            for vertex in bms.iter_bits(partition):
                partition_of[vertex] = index
        merged: Dict[tuple, List] = {}
        for edge in self.graph.edges:
            i = partition_of[edge.left]
            j = partition_of[edge.right]
            if i == j:
                continue
            key = (i, j) if i < j else (j, i)
            entry = merged.get(key)
            if entry is None:
                merged[key] = [edge.selectivity, edge.is_pk_fk]
            else:
                entry[0] *= edge.selectivity
                entry[1] = entry[1] or edge.is_pk_fk
        for (i, j) in sorted(merged):
            selectivity, is_pk_fk = merged[(i, j)]
            new_graph.add_edge(i, j, max(min(selectivity, 1.0), 1e-300),
                               predicate="contracted", is_pk_fk=is_pk_fk)

        new_vertex_masks = [self.root_mask_of(partition) for partition in partitions]
        new_base_cards = [self.rows(partition) for partition in partitions]
        return QueryInfo(
            graph=new_graph,
            base_cardinalities=new_base_cards,
            cost_model=self.cost_model,
            name=name or f"{self.name}/contracted",
            vertex_masks=new_vertex_masks,
            leaf_plans=list(partition_plans),
            root=self.root,
        )

    # ------------------------------------------------------------------ #
    # Extraction (compact fragment sub-queries for the heuristic drivers)
    # ------------------------------------------------------------------ #
    def extract(self, subset: int, name: Optional[str] = None) -> "QueryInfo":
        """Standalone sub-query over the subgraph induced by ``subset``.

        The fragment's vertices are renumbered to ``0..k-1`` (ascending
        original index) and its edges are the induced edges in original
        graph order, so enumeration over the fragment is order-isomorphic to
        ``optimize(self, subset=...)`` on this query.  Everything that feeds
        cost arithmetic is *shared*, not copied:

        * leaf plans are this query's leaf plans (same objects, so plan leaf
          indices stay in the root vertex space),
        * cardinalities route through the root estimator via the preserved
          ``vertex_masks``/``root`` chain (sharing its per-mask memo),

        which makes plans produced over the extracted fragment bit-identical
        to plans produced by subset-scoped optimization on this query.

        Extraction is the *numpy-less fallback* for the large-query
        heuristics (IDP2, UnionDP), which optimize fragments of at most
        ``k`` relations inside 100-1000-relation graphs: the kernel
        backends carry multi-word bitmap columns
        (:mod:`repro.core.widebitmap`) and run wide fragments natively,
        subset-scoped, but without numpy the compact renumbering keeps the
        scalar loops' Python bigints small.  It also remains the explicitly
        requestable legacy route
        (:data:`repro.heuristics.common.FRAGMENT_DISPATCH`) that the
        native-vs-extract benchmark compares against.
        """
        if subset == 0:
            raise ValueError("cannot extract an empty set of relations")
        if not bms.is_subset(subset, self.all_relations_mask):
            raise ValueError("subset contains vertices outside the query")
        vertices = list(bms.iter_bits(subset))
        index_of = {vertex: index for index, vertex in enumerate(vertices)}
        new_graph = JoinGraph(len(vertices),
                              [self.graph.relation_names[v] for v in vertices])
        for edge in self.graph.edges_within(subset):
            new_graph.add_edge(index_of[edge.left], index_of[edge.right],
                               edge.selectivity, edge.predicate, edge.is_pk_fk)
        leaf_plans = [self.leaf_plan(vertex) for vertex in vertices]
        return QueryInfo(
            graph=new_graph,
            base_cardinalities=[max(plan.rows, 1e-300) for plan in leaf_plans],
            cost_model=self.cost_model,
            name=name or f"{self.name}/fragment",
            vertex_masks=[self.vertex_masks[v] for v in vertices],
            leaf_plans=leaf_plans,
            root=self.root,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueryInfo(name={self.name!r}, n_relations={self.n_relations}, "
            f"n_edges={self.graph.n_edges}, cost_model={self.cost_model.name})"
        )
