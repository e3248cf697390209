"""Kernelized heuristic ladder (ISSUE 5): fragment extraction, batched
kernels, shared inner-optimizer reuse and the cache-reuse contracts.

Complements the cross-backend fuzz band in ``test_fuzz_differential.py``
with targeted unit coverage:

* ``QueryInfo.extract`` — bit-identity with subset-scoped optimization
  (same plans, costs, counters), leaf-plan sharing, root-chain routing;
* the batched heuristic kernels — ``lindp_merge``'s interval DP,
  ``greedy_union_partition``'s union rounds and ``pair_rows`` against
  their scalar reference loops;
* the vectorized log-space cardinality folds (``rows_batch`` on contracted
  queries and the full-width fold of ordinary ones) — bit-for-bit equality
  with the scalar estimator walk, the shared memo, ``rows()`` overrides,
  and the memo following graph edits;
* GOO's batched candidate refresh — identical plans, costs and stats
  across backends, and its perf-smoke floor;
* driver plumbing — one shared inner exact optimizer per driver (never one
  per fragment), bounded ``EnumerationContext.of`` traffic, backend knob
  validation;
* the scaled MusicBrainz workload generator.
"""

from __future__ import annotations

import dataclasses
import random
import struct
import time

import numpy as np
import pytest

from repro.core import bitmapset as bms
from repro.core import widebitmap as wb
from repro.core.enumeration import EnumerationContext
from repro.core.joingraph import JoinGraph
from repro.core.query import QueryInfo
from repro.core.unionfind import UnionFind
from repro.cost.cardinality import CardinalityEstimator
from repro.cost.cout import CoutCostModel
from repro.exec import greedy_union_partition, lindp_merge, pair_rows
from repro.execution.perturb import PerturbedEstimator, perturbed_query
from repro.heuristics import GOO, IDP1, IDP2, AdaptiveLinDP, LinearizedDP, UnionDP
from repro.heuristics.common import optimize_fragment
from repro.heuristics.ikkbz import IKKBZ
from repro.optimizers.mpdp import MPDP
from repro.workloads import (
    chain_query,
    clique_query,
    cycle_query,
    random_connected_query,
    scaled_musicbrainz_query,
    snowflake_query,
    star_query,
)

COUNTER_FIELDS = ("evaluated_pairs", "ccp_pairs", "level_pairs", "level_ccp",
                  "connected_sets", "memo_entries")


def assert_results_identical(reference, other, context=""):
    assert other.cost == reference.cost, context
    assert other.plan == reference.plan, context
    for field in COUNTER_FIELDS:
        assert getattr(other.stats, field) == \
            getattr(reference.stats, field), f"{context}: {field}"


def connected_fragment(query, size, start=0):
    """Grow a connected vertex set of ``size`` from ``start``."""
    context = EnumerationContext.of(query.graph)
    fragment = bms.bit(start)
    while bms.popcount(fragment) < size:
        neighbours = context.neighbours_of_set(fragment)
        if neighbours == 0:
            break
        fragment |= neighbours & -neighbours
    return fragment


# --------------------------------------------------------------------- #
# QueryInfo.extract
# --------------------------------------------------------------------- #
class TestExtract:
    @pytest.mark.parametrize("n,extra", [(20, 0.2), (70, 0.05), (90, 0.02)])
    def test_extracted_fragment_optimizes_bit_identically(self, n, extra):
        query = random_connected_query(n, extra_edge_probability=extra, seed=9)
        fragment = connected_fragment(query, 9)
        direct = MPDP().optimize(query, subset=fragment)
        extracted = MPDP().optimize(query.extract(fragment))
        assert_results_identical(direct, extracted, f"extract n={n}")

    def test_extracted_leaf_plans_are_shared_objects(self):
        query = chain_query(12, seed=0)
        fragment = bms.from_indices([2, 3, 4, 5])
        sub = query.extract(fragment)
        for local, original in enumerate(bms.iter_bits(fragment)):
            assert sub.leaf_plan(local) is query.leaf_plan(original)

    def test_extracted_rows_route_through_root_estimator(self):
        query = chain_query(15, seed=1)
        fragment = bms.from_indices([4, 5, 6, 7])
        sub = query.extract(fragment)
        assert sub.is_contracted and sub.root is query
        # Local mask {0, 1} of the fragment == root mask {4, 5}.
        assert sub.rows(0b11) == query.rows(bms.from_indices([4, 5]))

    def test_extract_of_contracted_query_chains_to_the_same_root(self):
        query = chain_query(12, seed=2)
        goo = GOO().optimize(query)
        partitions = [bms.from_indices([0, 1, 2])] + [
            bms.bit(v) for v in range(3, 12)]
        plans = [MPDP().optimize(query, subset=partitions[0]).plan] + [
            query.leaf_plan(v) for v in range(3, 12)]
        contracted = query.contract(partitions, plans)
        sub = contracted.extract(bms.from_indices([0, 1, 2]))
        assert sub.root is query
        assert sub.rows(0b1) == contracted.rows(0b1)
        del goo

    def test_extract_rejects_bad_subsets(self):
        query = chain_query(6, seed=0)
        with pytest.raises(ValueError):
            query.extract(0)
        with pytest.raises(ValueError):
            query.extract(bms.bit(6))

    def test_wide_graph_fragments_dispatch_natively(self, monkeypatch):
        """optimize_fragment keeps >62-relation fragments subset-scoped on
        the full-width graph (multi-word kernel columns make extraction
        unnecessary); the extract route only fires when explicitly
        requested via FRAGMENT_DISPATCH (the numpy-less fallback path)."""
        import repro.heuristics.common as common_module

        calls = {"extract": 0}
        original = type(chain_query(4, seed=0)).extract

        def counting(self, subset, name=None):
            calls["extract"] += 1
            return original(self, subset, name)

        monkeypatch.setattr("repro.core.query.QueryInfo.extract", counting)
        wide = chain_query(70, seed=0)
        native = optimize_fragment(MPDP(), wide, connected_fragment(wide, 6))
        assert calls["extract"] == 0
        narrow = chain_query(30, seed=0)
        optimize_fragment(MPDP(), narrow, connected_fragment(narrow, 6))
        assert calls["extract"] == 0
        # The legacy route stays available (and bit-identical) on request.
        monkeypatch.setattr(common_module, "FRAGMENT_DISPATCH", "extract")
        extracted = optimize_fragment(MPDP(), wide,
                                      connected_fragment(wide, 6))
        assert calls["extract"] == 1
        assert extracted.cost == native.cost
        assert str(extracted.plan) == str(native.plan)


# --------------------------------------------------------------------- #
# Batched kernels vs their scalar reference loops
# --------------------------------------------------------------------- #
class TestLinDPKernel:
    @pytest.mark.parametrize("make_query", [
        lambda: chain_query(30, seed=3),
        lambda: star_query(30, seed=3),
        lambda: snowflake_query(40, seed=4),
        lambda: random_connected_query(80, extra_edge_probability=0.04,
                                       seed=5),
        lambda: snowflake_query(25, seed=6, cost_model=CoutCostModel()),
    ])
    def test_kernel_matches_scalar_merge(self, make_query):
        scalar = LinearizedDP(backend="scalar").optimize(make_query())
        kernel = LinearizedDP(backend="vectorized").optimize(make_query())
        assert_results_identical(scalar, kernel)

    def test_kernel_on_extracted_wide_fragment(self):
        query = random_connected_query(75, extra_edge_probability=0.04, seed=8)
        sub = query.extract(connected_fragment(query, 20))
        scalar = LinearizedDP(backend="scalar").optimize(sub)
        kernel = LinearizedDP(backend="vectorized").optimize(sub)
        assert_results_identical(scalar, kernel)

    def test_single_relation_order(self):
        query = chain_query(2, seed=0)
        order = IKKBZ().linear_order(query, query.all_relations_mask)
        from repro.core.counters import OptimizerStats

        plan = lindp_merge(query, order, OptimizerStats(algorithm="t"))
        assert plan is not None and plan.cost > 0


class TestGreedyUnionPartitionKernel:
    @pytest.mark.parametrize("make_query,k", [
        (lambda: chain_query(40, seed=1), 7),
        (lambda: star_query(40, seed=1), 7),
        (lambda: clique_query(12, seed=1), 5),
        (lambda: random_connected_query(60, extra_edge_probability=0.1,
                                        seed=2), 9),
        (lambda: scaled_musicbrainz_query(120, seed=2), 12),
    ])
    def test_matches_scalar_scan(self, make_query, k):
        query = make_query()
        weighted = [(query.rows(bms.bit(e.left) | bms.bit(e.right)),
                     e.left, e.right) for e in query.graph.edges]

        scalar_uf = UnionFind(query.n_relations)
        active = list(weighted)
        while True:
            best_key = None
            best_index = -1
            for index, (weight, left, right) in enumerate(active):
                if scalar_uf.connected(left, right):
                    continue
                combined = scalar_uf.set_size(left) + scalar_uf.set_size(right)
                if combined > k:
                    continue
                key = (combined, weight)
                if best_key is None or key < best_key:
                    best_key = key
                    best_index = index
            if best_index < 0:
                break
            _, left, right = active.pop(best_index)
            scalar_uf.union(left, right)

        kernel_uf = UnionFind(query.n_relations)
        greedy_union_partition(kernel_uf, k, weighted)
        assert kernel_uf.sets() == scalar_uf.sets()

    def test_empty_edge_list_is_a_noop(self):
        uf = UnionFind(3)
        greedy_union_partition(uf, 5, [])
        assert uf.n_sets == 3


class TestPairRowsKernel:
    def test_matches_scalar_pair_estimates(self):
        query = scaled_musicbrainz_query(150, seed=7)
        pairs = [(e.left, e.right) for e in query.graph.edges]
        batched = pair_rows(query, pairs)
        for estimate, (a, b) in zip(batched, pairs):
            assert float(estimate) == query.rows(bms.bit(a) | bms.bit(b))


class TestCardinalityFold:
    """rows_batch's vectorized log-space fold == the scalar estimator walk."""

    def _random_masks(self, n, count, seed):
        rng = random.Random(seed)
        return [rng.randrange(1, 1 << n) for _ in range(count)]

    @pytest.mark.parametrize("make_query", [
        lambda: random_connected_query(70, extra_edge_probability=0.05, seed=3),
        lambda: scaled_musicbrainz_query(100, seed=4),
        lambda: clique_query(10, seed=5),
    ])
    def test_fold_equals_scalar_rows_on_extracted_fragments(self, make_query):
        query = make_query()
        size = min(10, query.n_relations - 1)
        sub = query.extract(connected_fragment(query, size))
        masks = self._random_masks(sub.n_relations, 200, seed=11)
        batched = sub.rows_batch(masks)
        for estimate, mask in zip(batched, masks):
            assert float(estimate) == sub.rows(mask), bin(mask)

    def test_fold_on_contracted_query_with_composites(self):
        query = snowflake_query(20, seed=6)
        partitions = [connected_fragment(query, 5)]
        rest = query.all_relations_mask & ~partitions[0]
        partitions += [bms.bit(v) for v in bms.iter_bits(rest)]
        plans = [MPDP().optimize(query, subset=partitions[0]).plan] + [
            query.leaf_plan(v) for v in bms.iter_bits(rest)]
        contracted = query.contract(partitions, plans)
        masks = self._random_masks(contracted.n_relations, 100, seed=12)
        batched = contracted.rows_batch(masks)
        for estimate, mask in zip(batched, masks):
            assert float(estimate) == contracted.rows(mask)


class TestFullWidthFold:
    """rows_batch without a spec: the exact full-width fold == rows(),
    bit for bit, and the memo it leaves == the one rows() leaves."""

    WIDTHS = (1, 2, 3, 7, 31, 63, 64, 65, 127, 128, 129, 300, 1000)

    @staticmethod
    def _query(n, seed=0):
        return random_connected_query(
            n, extra_edge_probability=min(0.2, 4.0 / n), seed=seed)

    @staticmethod
    def _unclamped_query(n, seed=0):
        """Terms of mixed sign and size near 1, so that even dense sets on
        1000 relations keep their log sum far from both clamps and any
        change to the addition order shows in the last bits."""
        rng = random.Random(seed)
        graph = JoinGraph(n)
        for vertex in range(1, n):
            graph.add_edge(rng.randrange(vertex), vertex,
                           selectivity=10 ** rng.uniform(-0.6, 0.0))
        for _ in range(2 * n):
            left, right = rng.randrange(n), rng.randrange(n)
            if left != right:
                graph.add_edge(left, right,
                               selectivity=10 ** rng.uniform(-0.6, 0.0))
        base = [10 ** rng.uniform(0.0, 1.0) for _ in range(n)]
        return QueryInfo(graph, cardinality=CardinalityEstimator(
            graph, base, min_rows=1e-300))

    @staticmethod
    def _fresh(query):
        return CardinalityEstimator(query.graph,
                                    query.cardinality.base_cardinalities,
                                    min_rows=query.cardinality.min_rows)

    @staticmethod
    def _masks(query, count, seed):
        """Dense and sparse random sets, singletons, edge pairs, non-edge
        pairs and connected fragments, with duplicates."""
        n = query.n_relations
        rng = random.Random(seed)
        masks = [rng.randrange(1, 1 << n) for _ in range(count)]
        for _ in range(count):
            mask = 0
            while mask == 0:
                mask = sum(1 << v for v in range(n) if rng.random() < 4.0 / n)
            masks.append(mask)
        masks += [bms.bit(rng.randrange(n)) for _ in range(count // 4)]
        masks += [edge.mask for edge in query.graph.edges[:count // 4]]
        if n > 2:
            masks += [bms.bit(0) | bms.bit(rng.randrange(1, n))
                      for _ in range(count // 4)]
        masks += [connected_fragment(query, size, start=rng.randrange(n))
                  for size in (2, 5, 40)]
        return masks + masks[:count // 2]

    @staticmethod
    def _bits(value):
        return struct.pack("d", float(value))

    @pytest.mark.parametrize("unclamped", (False, True))
    @pytest.mark.parametrize("n", WIDTHS)
    def test_fold_matches_scalar_rows_bit_for_bit(self, n, unclamped):
        query = (self._unclamped_query if unclamped else self._query)(n, seed=n)
        masks = self._masks(query, 60, seed=n)
        batched, scalar = self._fresh(query), self._fresh(query)
        estimates = batched.rows_batch(masks)
        assert estimates.dtype == np.float64 and len(estimates) == len(masks)
        for estimate, mask in zip(estimates, masks):
            assert self._bits(estimate) == self._bits(scalar.rows(mask)), \
                bin(mask)
        assert batched._cache.keys() == scalar._cache.keys()
        for mask, estimate in scalar._cache.items():
            assert self._bits(batched._cache[mask]) == self._bits(estimate)

    @pytest.mark.parametrize("n", (5, 64, 300))
    def test_packed_identity_column_matches_list_input(self, n):
        query = self._query(n, seed=1)
        masks = self._masks(query, 40, seed=2)
        column = wb.pack(masks, wb.words_for(n))
        from_list = self._fresh(query).rows_batch(masks)
        from_column = self._fresh(query).rows_batch(column, wb.words_for(n))
        assert [self._bits(v) for v in from_list] == \
            [self._bits(v) for v in from_column]

    def test_small_sets_duplicates_and_memo_hits(self, monkeypatch):
        query = self._query(90, seed=5)
        estimator = self._fresh(query)
        edge = query.graph.edges[3]
        single, pair, wide = bms.bit(7), edge.mask, (1 << 90) - 1
        memoised = bms.bit(11) | bms.bit(12) | bms.bit(40)
        estimator.rows(memoised)
        folded = []
        original = CardinalityEstimator._fold_masks

        def recording(self, masks):
            folded.extend(masks)
            return original(self, masks)

        monkeypatch.setattr(CardinalityEstimator, "_fold_masks", recording)
        masks = [single, pair, memoised, pair, wide, single, memoised]
        estimates = estimator.rows_batch(masks)
        # Each distinct miss is folded once; memo hits are not re-folded.
        assert sorted(folded) == sorted({single, pair, wide})
        reference = self._fresh(query)
        assert [self._bits(v) for v in estimates] == \
            [self._bits(reference.rows(mask)) for mask in masks]
        folded.clear()
        estimator.rows_batch(masks)
        assert folded == []

    def test_empty_batch_and_empty_set(self):
        estimator = self._fresh(self._query(10))
        assert len(estimator.rows_batch([])) == 0
        with pytest.raises(ValueError):
            estimator.rows_batch([0b11, 0])

    def test_perturbed_estimator_sees_every_set_through_rows(
            self, monkeypatch):
        query = self._query(70, seed=6)
        perturbed = PerturbedEstimator(query.cardinality, q=4.0, seed=3)
        seen = []
        original_rows = perturbed.rows

        def recording_rows(mask):
            seen.append(mask)
            return original_rows(mask)

        def no_fold(self, masks):
            raise AssertionError("the fold bypassed a rows() override")

        monkeypatch.setattr(perturbed, "rows", recording_rows)
        monkeypatch.setattr(CardinalityEstimator, "_fold_masks", no_fold)
        masks = self._masks(query, 30, seed=7)
        estimates = perturbed.rows_batch(masks)
        assert sorted(seen) == sorted(set(masks))
        reference = PerturbedEstimator(query.cardinality, q=4.0, seed=3)
        assert estimates.tolist() == [reference.rows(mask) for mask in masks]

    def test_perturbed_estimator_on_scoped_fragment_runs(self):
        """Regression: with a rows() override, a packed column carrying a
        remap spec must be unpacked through that spec before rows()."""
        results = {}
        for backend in ("scalar", "vectorized"):
            query = perturbed_query(snowflake_query(70, seed=2), 4.0, seed=1)
            results[backend] = IDP2(k=10, backend=backend,
                                    max_iterations=1).optimize(query)
        assert_results_identical(results["scalar"], results["vectorized"])


class TestEstimatorFollowsGraphEdits:
    """The memo and fold columns are dropped when the graph's edges change."""

    def test_new_edge(self):
        query = chain_query(4, seed=1)
        mask = 0b1101
        stale = query.rows(mask)
        assert query.rows_batch([mask]).tolist() == [stale]
        query.graph.add_edge(0, 2, selectivity=0.001)
        fresh = CardinalityEstimator(query.graph,
                                     query.cardinality.base_cardinalities)
        assert query.rows(mask) == fresh.rows(mask) != stale
        assert query.rows_batch([mask, 0b0111]).tolist() == \
            [fresh.rows(mask), fresh.rows(0b0111)]

    def test_merged_predicate(self):
        query = chain_query(4, seed=1)
        mask = 0b0111
        stale_batch = query.rows_batch([mask]).tolist()
        stale = query.rows(0b0011)
        edge = query.graph.edge_between(0, 1)
        query.graph.add_edge(0, 1, selectivity=edge.selectivity / 100.0)
        fresh = CardinalityEstimator(query.graph,
                                     query.cardinality.base_cardinalities)
        assert query.rows(0b0011) == fresh.rows(0b0011) != stale
        assert query.rows_batch([mask]).tolist() == [fresh.rows(mask)] \
            != stale_batch

    def test_perturbed_estimator_memo(self):
        query = chain_query(4, seed=1)
        perturbed = PerturbedEstimator(query.cardinality, q=2.0, seed=1)
        stale = perturbed.rows(0b1101)
        query.graph.add_edge(0, 2, selectivity=0.001)
        fresh = PerturbedEstimator(
            CardinalityEstimator(query.graph,
                                 query.cardinality.base_cardinalities),
            q=2.0, seed=1)
        assert perturbed.rows(0b1101) == fresh.rows(0b1101) != stale


# --------------------------------------------------------------------- #
# GOO: the batched candidate refresh
# --------------------------------------------------------------------- #
BACKENDS = ("scalar", "vectorized", "auto")


def assert_goo_identical(reference, other, context=""):
    assert other.cost == reference.cost, context
    assert other.plan == reference.plan, context
    assert repr(other.plan) == repr(reference.plan), context
    assert dataclasses.replace(other.stats, wall_time_seconds=0.0) == \
        dataclasses.replace(reference.stats, wall_time_seconds=0.0), context


class TestGOOBackends:
    @pytest.mark.parametrize("make_query", [
        snowflake_query, star_query, chain_query, cycle_query])
    @pytest.mark.parametrize("n", (20, 65, 305))
    def test_plan_cost_and_stats_identical(self, make_query, n):
        results = {backend: GOO(backend=backend).optimize(make_query(n, seed=2))
                   for backend in BACKENDS}
        for backend in BACKENDS[1:]:
            assert_goo_identical(results["scalar"], results[backend],
                                 f"{make_query.__name__}-{n} {backend}")

    def test_contracted_queries_from_idp2(self):
        """GOO runs on each contracted query IDP2 builds; every one of those
        runs is identical across backends."""
        runs = {}
        for backend in BACKENDS:
            calls = []

            class RecordingGOO(GOO):
                def optimize(self, query, subset=None):
                    result = super().optimize(query, subset)
                    calls.append((query.is_contracted, query.n_relations,
                                  result))
                    return result

            IDP2(k=10, backend=backend,
                 initial_heuristic=RecordingGOO(backend=backend)).optimize(
                     snowflake_query(120, seed=4))
            runs[backend] = calls
        scalar = runs["scalar"]
        assert sum(contracted for contracted, _, _ in scalar) >= 5
        for backend in BACKENDS[1:]:
            assert [shape[:2] for shape in runs[backend]] == \
                [shape[:2] for shape in scalar]
            for index, ((_, n, reference), (_, _, other)) in enumerate(
                    zip(scalar, runs[backend])):
                assert_goo_identical(reference, other,
                                     f"iteration {index} n={n} {backend}")


@pytest.mark.perf_smoke
class TestGOOPerfSmoke:
    def test_vectorized_refresh_beats_scalar_on_snowflake_305(self):
        """The batched refresh runs GOO about 10x faster than the scalar
        loop on a 305-relation snowflake (2-CPU x86 box); the floor is a
        ratio, so a slow runner does not fail it."""
        timings, results = {}, {}
        for backend in ("scalar", "vectorized"):
            query = snowflake_query(305, seed=3)
            start = time.perf_counter()
            results[backend] = GOO(backend=backend).optimize(query)
            timings[backend] = time.perf_counter() - start
        assert_goo_identical(results["scalar"], results["vectorized"])
        assert timings["scalar"] / timings["vectorized"] >= 5.0


# --------------------------------------------------------------------- #
# Driver plumbing: shared inner optimizer, bounded context traffic
# --------------------------------------------------------------------- #
class TestSharedInnerOptimizer:
    @pytest.mark.parametrize("driver_factory", [
        lambda factory: IDP2(k=5, exact_factory=factory),
        lambda factory: IDP1(k=5, exact_factory=factory),
        lambda factory: UnionDP(k=5, exact_factory=factory),
    ])
    def test_exact_factory_called_once_per_driver(self, driver_factory):
        """Regression: the seed code called exact_factory() once per
        fragment, discarding warm caches; now one shared instance serves
        every fragment of every optimize() call."""
        calls = {"count": 0}

        def counting_factory(**kwargs):
            calls["count"] += 1
            return MPDP(**kwargs)

        driver = driver_factory(counting_factory)
        assert calls["count"] == 1
        query = random_connected_query(30, extra_edge_probability=0.08, seed=3)
        driver.optimize(query)
        driver.optimize(random_connected_query(25, extra_edge_probability=0.1,
                                               seed=4))
        assert calls["count"] == 1

    def test_legacy_zero_argument_factories_still_work(self):
        driver = IDP2(k=5, exact_factory=lambda: MPDP())
        assert driver.exact_optimizer.backend == "scalar"
        result = driver.optimize(chain_query(12, seed=1))
        assert result.cost == IDP2(k=5).optimize(chain_query(12, seed=1)).cost

    def test_partial_signature_factory_still_gets_the_backend(self):
        """A factory accepting backend but not workers must still receive
        the backend — dropping the whole knob on a partial signature would
        reintroduce the silent-scalar bug."""
        captured = {}

        def factory(backend="scalar"):
            captured["backend"] = backend
            return MPDP(backend=backend)

        driver = IDP2(k=5, exact_factory=factory, backend="vectorized")
        assert captured["backend"] == "vectorized"
        assert driver.exact_optimizer.backend == "vectorized"

    def test_partial_factory_preconfiguration_wins(self):
        """A functools.partial with its own backend binding must keep it —
        the driver's default never overrides explicit user configuration."""
        import functools

        driver = IDP2(k=5,
                      exact_factory=functools.partial(MPDP,
                                                      backend="vectorized"))
        assert driver.exact_optimizer.backend == "vectorized"

    def test_backend_knob_reaches_the_shared_instance(self):
        driver = IDP2(k=5, backend="multicore", workers=3)
        assert driver.exact_optimizer.backend == "multicore"
        assert driver.exact_optimizer.workers == 3
        assert driver.initial_heuristic.backend == "multicore"

    def test_adaptive_lindp_reuses_rung_instances(self):
        driver = AdaptiveLinDP(backend="vectorized")
        first_linearized = driver._linearized_inner
        driver.optimize(chain_query(30, seed=2))
        driver.optimize(chain_query(40, seed=3))
        assert driver._linearized_inner is first_linearized

    @pytest.mark.parametrize("cls", [GOO, IDP1, IDP2, UnionDP, LinearizedDP,
                                     AdaptiveLinDP])
    def test_backend_validation(self, cls):
        with pytest.raises(ValueError):
            cls(backend="warp-drive")
        with pytest.raises(ValueError):
            cls(backend="multicore", workers=0)


class TestEnumerationContextTraffic:
    @pytest.mark.parametrize("driver_factory", [
        lambda: UnionDP(k=8),
        lambda: IDP2(k=8),
    ])
    def test_of_calls_bounded_per_optimize(self, driver_factory, monkeypatch):
        """The drivers and their shared inner optimizer resolve the
        enumeration context O(fragments + levels) times — never O(pairs)
        (PR 3's `_edge_splits` hoist, extended to the heuristic tier)."""
        query = random_connected_query(30, extra_edge_probability=0.08, seed=6)
        EnumerationContext.of(query.graph)  # pre-create outside the count
        counts = {"of": 0}
        original = EnumerationContext.of.__func__

        def counting_of(cls, graph):
            counts["of"] += 1
            return original(cls, graph)

        monkeypatch.setattr(EnumerationContext, "of", classmethod(counting_of))
        result = driver_factory().optimize(query)
        assert result.stats.evaluated_pairs > 200
        # Loose ceiling: a handful of resolutions per fragment/round, far
        # below one per evaluated pair.
        assert counts["of"] <= 6 * query.n_relations
        assert counts["of"] < result.stats.evaluated_pairs


# --------------------------------------------------------------------- #
# Scaled MusicBrainz workload
# --------------------------------------------------------------------- #
class TestScaledMusicBrainz:
    def test_deterministic_and_connected(self):
        first = scaled_musicbrainz_query(130, seed=5)
        second = scaled_musicbrainz_query(130, seed=5)
        assert first.graph.n_edges == second.graph.n_edges
        assert [e.endpoints for e in first.graph.edges] == \
            [e.endpoints for e in second.graph.edges]
        assert EnumerationContext.of(first.graph).is_connected(
            first.all_relations_mask)

    def test_scales_past_the_56_table_schema(self):
        query = scaled_musicbrainz_query(300, seed=1)
        assert query.n_relations == 300
        assert query.graph.n_edges >= 299
        shard_names = {name.rsplit("__s", 1)[0]
                       for name in query.graph.relation_names}
        assert len(shard_names) <= 56

    def test_rejects_tiny_sizes(self):
        with pytest.raises(ValueError):
            scaled_musicbrainz_query(1)
