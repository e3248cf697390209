"""Seeded inputs for the four benchmark workloads.

Everything here is set-up: it runs before the measured window, and the same
``seed`` always yields the same queries and statements.  The planner under
test only ever sees the generated ``QueryInfo`` objects or SQL text.

The cold streams repeat a fixed schedule of ``(shape, n)`` slots; one pass
over the schedule is the unit the benchmark measures.  A query's join-graph
topology depends only on its slot; the seed and the query's position draw
its statistics (base cardinalities and selectivities, each scaled by a
seeded factor between 1/2 and 2).  Planning work is set by the topology, so
every pass and every seed asks the planner for the same work on different
numbers, and no two queries of a stream are the same.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro import workloads
from repro.catalog import Catalog
from repro.core.joingraph import JoinGraph
from repro.core.query import QueryInfo
from repro.planner import QueryClassifier, structural_signature
from repro.workloads.job import IMDB_FOREIGN_KEYS
from repro.workloads.tpch import TPCH_FOREIGN_KEYS

_CLASSIFIER = QueryClassifier()


def _is_acyclic(query: QueryInfo) -> bool:
    return _CLASSIFIER.classify(query).is_acyclic


def _first(make: Callable[[int], QueryInfo], seed: int,
           want_acyclic: bool) -> QueryInfo:
    """The first query of a seeded retry sequence with the wanted cyclicity.

    The exact rungs route on cyclicity (cyclic -> MPDP, acyclic ->
    MPDP:Tree), so a slot that names a rung must hold a query of that kind.
    """
    for attempt in range(200):
        query = make(seed * 211 + attempt)
        if _is_acyclic(query) == want_acyclic:
            return query
    raise RuntimeError("no query of the wanted cyclicity in 200 attempts")


def _random_cyclic(n: int, seed: int) -> QueryInfo:
    # A sparse random graph: a spanning tree plus a few chords.  Denser
    # graphs make single n=13-14 queries run for seconds and dominate the
    # stream.
    return _first(lambda s: workloads.random_connected_query(
        n, extra_edge_probability=0.08, seed=s), seed, want_acyclic=False)


def _musicbrainz_acyclic(n: int, seed: int) -> QueryInfo:
    return _first(lambda s: workloads.musicbrainz_query(n, seed=s), seed,
                  want_acyclic=True)


_SHAPES: Dict[str, Callable[[int, int], QueryInfo]] = {
    "random": _random_cyclic,
    "cycle": lambda n, s: workloads.cycle_query(n, seed=s),
    "clique": lambda n, s: workloads.clique_query(n, seed=s),
    "snowflake": lambda n, s: workloads.snowflake_query(n, seed=s),
    "musicbrainz": _musicbrainz_acyclic,
    "star": lambda n, s: workloads.star_query(n, seed=s),
    "chain": lambda n, s: workloads.chain_query(n, seed=s),
    "scaled_musicbrainz": lambda n, s: workloads.scaled_musicbrainz_query(
        n, seed=s),
}

#: exact-dp: cyclic n 10-14 (MPDP) and acyclic n 12-16 (MPDP:Tree).  The
#: n=14 cyclic slots run on the multicore backend under ``backend="auto"``
#: on a machine with two or more CPUs.
EXACT_SCHEDULE: Tuple[Tuple[str, int], ...] = (
    ("random", 10), ("snowflake", 12), ("random", 11), ("musicbrainz", 12),
    ("cycle", 10), ("random", 12), ("snowflake", 13), ("clique", 9),
    ("random", 13), ("musicbrainz", 13), ("cycle", 12), ("random", 14),
    ("snowflake", 14), ("clique", 10), ("musicbrainz", 14), ("cycle", 14),
    ("snowflake", 15), ("random", 14), ("musicbrainz", 15), ("snowflake", 16),
)

#: heuristic-large: n 20-100 routes to IDP2, 101-300 to LinDP, > 300 to GOO.
#: Many small IDP2 queries, fewer LinDP ones and one or two GOO queries per
#: cycle give each rung a real share of the run's time.
HEURISTIC_SCHEDULE: Tuple[Tuple[str, int], ...] = (
    ("snowflake", 20), ("chain", 40), ("scaled_musicbrainz", 24),
    ("star", 20), ("snowflake", 30), ("scaled_musicbrainz", 110),
    ("chain", 60), ("snowflake", 40), ("star", 28), ("scaled_musicbrainz", 32),
    ("snowflake", 120), ("chain", 80), ("snowflake", 24), ("star", 24),
    ("scaled_musicbrainz", 40), ("chain", 320), ("snowflake", 50),
    ("chain", 130), ("scaled_musicbrainz", 28), ("star", 32),
    ("snowflake", 36), ("chain", 100), ("star", 110), ("snowflake", 305),
    ("chain", 20),
)


def _restat(query: QueryInfo, rng: random.Random) -> QueryInfo:
    """``query``'s join graph with seeded statistics, as a new query."""
    graph = JoinGraph(query.n_relations, query.graph.relation_names)
    for edge in query.graph.edges:
        graph.add_edge(edge.left, edge.right,
                       selectivity=min(1.0, edge.selectivity
                                       * 2.0 ** rng.uniform(-1.0, 1.0)),
                       predicate=edge.predicate, is_pk_fk=edge.is_pk_fk)
    rows = [max(1.0, value * 2.0 ** rng.uniform(-1.0, 1.0))
            for value in query.cardinality.base_cardinalities]
    return QueryInfo(graph, rows, query.cost_model, name=query.name)


@dataclass(frozen=True)
class QuerySpec:
    """One request of a stream: enough to rebuild the query afresh."""

    shape: str
    n: int
    #: Picks the join-graph topology (the schedule slot).
    topology: int
    #: Picks the statistics (from the run's seed and the stream position).
    stats: int

    def build(self) -> QueryInfo:
        query = _SHAPES[self.shape](self.n, self.topology)
        return _restat(query, random.Random(self.stats))


def cold_stream(schedule: Sequence[Tuple[str, int]], seed: int,
                length: int) -> List[QuerySpec]:
    """``length`` distinct query specs cycling through ``schedule``."""
    return [QuerySpec(*schedule[index % len(schedule)],
                      index % len(schedule), seed * 1_000_003 + index)
            for index in range(length)]


#: service-prepared: mixed shapes at n 6-13, all planned exactly (n <= 13
#: keeps the n=14 multicore escalation out of the service workloads).
_PREPARED_SHAPES: Tuple[Tuple[str, int], ...] = (
    ("star", 8), ("snowflake", 10), ("chain", 12), ("cycle", 9),
    ("random", 10), ("musicbrainz", 11), ("clique", 6), ("snowflake", 13),
    ("star", 12), ("chain", 7), ("random", 8), ("musicbrainz", 13),
)


def prepared_queries(seed: int, count: int) -> List[QueryInfo]:
    """``count`` prepared queries (new objects on every call)."""
    specs = cold_stream(_PREPARED_SHAPES, seed, count)
    return [spec.build() for spec in specs]


# --------------------------------------------------------------------------- #
# SQL statements for service-adhoc-sql
# --------------------------------------------------------------------------- #
#: (child, column, parent, parent column) for both catalogs.
_FOREIGN_KEYS = {
    "imdb": tuple((child, column, parent, "id")
                  for child, column, parent in IMDB_FOREIGN_KEYS),
    "tpch": tuple(TPCH_FOREIGN_KEYS),
}


def _render_statement(catalog_name: str, catalog: Catalog, n: int,
                      walk: random.Random, rng: random.Random) -> str:
    """One inner equi-join over ``n`` tables of ``catalog`` as SQL text.

    Tables come from a random walk over the foreign-key graph; every foreign
    key between two chosen tables becomes a join predicate, and about half of
    the tables get a filter on a column the catalog already knows.
    """
    keys = _FOREIGN_KEYS[catalog_name]
    tables = [walk.choice(sorted({key[0] for key in keys}))]
    while len(tables) < n:
        chosen = set(tables)
        frontier = sorted({key[2] if key[0] in chosen else key[0]
                           for key in keys
                           if (key[0] in chosen) != (key[2] in chosen)})
        if not frontier:
            break
        tables.append(walk.choice(frontier))
    alias = {table: f"t{index}" for index, table in enumerate(tables)}
    joins = [f"{alias[child]}.{column} = {alias[parent]}.{parent_column}"
             for child, column, parent, parent_column in keys
             if child in alias and parent in alias]
    filters = []
    for table in tables:
        if rng.random() < 0.5:
            columns = sorted(catalog.table(table).columns)
            column = rng.choice(columns)
            if rng.random() < 0.5:
                filters.append(f"{alias[table]}.{column} = {rng.randrange(1, 999)}")
            else:
                filters.append(f"{alias[table]}.{column} < {rng.randrange(1, 999)}")
    from_clause = ", ".join(f"{table} {alias[table]}" for table in tables)
    return (f"SELECT * FROM {from_clause} WHERE "
            + " AND ".join(joins + filters))


def sql_pool(seed: int, size: int,
             parse: Callable[[str, str], QueryInfo]) -> List[Tuple[str, str]]:
    """``size`` statements with pairwise distinct structural signatures.

    Returns ``(catalog name, sql)`` pairs, hottest Zipf rank first.  ``parse``
    turns one pair into a ``QueryInfo`` so duplicates can be dropped by the
    planner's own cache key.  A rank's catalog and table count are fixed
    (seven in ten ranks are IMDB statements over 3-12 tables, the rest TPC-H
    over 3-8) and so are its tables and joins; the seed picks the filters.
    The planning work of a run therefore does not depend on the seed, while
    every seed still gives new statements.
    """
    catalogs = {"imdb": workloads.build_imdb_catalog(),
                "tpch": workloads.build_tpch_catalog()}
    rng = random.Random(seed)
    pool: List[Tuple[str, str]] = []
    seen = set()
    per_catalog = {"imdb": 0, "tpch": 0}
    while len(pool) < size:
        name = "imdb" if len(pool) % 10 < 7 else "tpch"
        n = 3 + per_catalog[name] * 7 % (10 if name == "imdb" else 6)
        # The rank alone fixes the tables and joins; the seed draws the
        # filters, so a rank's planning work is the same for every seed.
        sql = _render_statement(name, catalogs[name], n,
                                random.Random(len(pool)), rng)
        signature = structural_signature(parse(name, sql))
        if signature in seen:
            continue
        seen.add(signature)
        per_catalog[name] += 1
        pool.append((name, sql))
    return pool


class Zipf:
    """Seeded Zipf(s) draws over ranks ``0..n-1`` (rank 0 hottest)."""

    def __init__(self, n: int, s: float, seed: int):
        total = 0.0
        self._cumulative = []
        for rank in range(1, n + 1):
            total += 1.0 / rank ** s
            self._cumulative.append(total)
        self._total = total
        self._rng = random.Random(seed)

    def draw(self) -> int:
        return bisect.bisect_left(self._cumulative,
                                  self._rng.random() * self._total)
