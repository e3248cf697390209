"""Vectorized-kernel benchmark: batched numpy DP levels vs the scalar loops.

Times full MPDP optimizations (and DPsub where its size ceiling allows) on
the paper's topologies two ways:

* **scalar** — ``backend="scalar"``, the reference per-pair Python loops of
  :class:`repro.exec.backend.ScalarBackend`;
* **vectorized** — ``backend="vectorized"``, one batched array kernel per DP
  level (:class:`repro.exec.vectorized.VectorizedBackend`): dense-matrix
  split unranking, searchsorted CCP mask-filters over the arena's
  connectivity columns, one ``cost_batch`` evaluation, scatter-min winners.

Every run uses a fresh query (cold enumeration caches).  The sweep runs
under the ``C_out`` cost model, plus Postgres columns for clique n=12 and
MusicBrainz n=18 under the default PostgreSQL-like model — the one every
workload generator uses.  Both models cost a level with a real array kernel
(``cost_batch``).  Plans and counters are asserted identical per config —
the backends must agree bit-for-bit before a timing is recorded.

Medians are written to ``BENCH_vectorized.json`` at the repository root,
with the machine shape; the acceptance bar is a >= 3x median speedup on
clique n>=14 and MusicBrainz n>=18 level sweeps under ``C_out``, and >= 5x
on clique n=12 under Postgres.  A lighter ``perf_smoke`` guard runs in tier-1
(``tests/test_exec_backends.py``).

Run standalone (writes the JSON):

    PYTHONPATH=src python benchmarks/bench_vectorized_kernels.py

or through pytest (same sweep, same JSON, plus assertions):

    PYTHONPATH=src python -m pytest benchmarks/bench_vectorized_kernels.py -s
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

from repro.cost.cout import CoutCostModel
from repro.cost.postgres import PostgresCostModel
from repro.optimizers import DPSub, MPDP
from repro.workloads import clique_query, musicbrainz_query, snowflake_query, star_query

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_vectorized.json"

TOPOLOGIES = {
    "star": star_query,
    "snowflake": snowflake_query,
    "clique": clique_query,
    "musicbrainz": musicbrainz_query,
}

COST_MODELS = {
    "cout": CoutCostModel,
    "postgres": PostgresCostModel,
}

#: (topology, algorithm, sizes, repeats, cost model) sweep grid.  DPsub
#: walks the whole powerset per set, so it stops at its practical ceiling;
#: the clique n=14 scalar MPDP run costs ~20s, hence the single repeat.
CONFIGS = [
    ("star", "MPDP", [12, 16], 3, "cout"),
    ("snowflake", "MPDP", [12, 16], 3, "cout"),
    ("clique", "MPDP", [12, 14], 1, "cout"),
    ("clique", "DPsub", [12, 14], 1, "cout"),
    ("musicbrainz", "MPDP", [14, 18, 20], 2, "cout"),
    ("musicbrainz", "DPsub", [14], 2, "cout"),
    ("clique", "MPDP", [12], 1, "postgres"),
    ("musicbrainz", "MPDP", [18], 2, "postgres"),
]

ALGORITHMS = {
    "MPDP": MPDP,
    "DPsub": DPSub,
}


def _run_once(topology: str, algorithm: str, n: int, backend: str,
              cost_model: str):
    # Fresh query per run: timings must cover cold enumeration-context and
    # arena state, not cache warm-up from the other backend's run.
    query = TOPOLOGIES[topology](n, seed=0, cost_model=COST_MODELS[cost_model]())
    optimizer = ALGORITHMS[algorithm](backend=backend)
    start = time.perf_counter()
    result = optimizer.optimize(query)
    elapsed = time.perf_counter() - start
    return elapsed, result


def run_config(topology: str, algorithm: str, n: int, repeats: int,
               cost_model: str) -> dict:
    scalar_times, vectorized_times = [], []
    for _ in range(repeats):
        scalar_elapsed, scalar_result = _run_once(
            topology, algorithm, n, "scalar", cost_model)
        scalar_times.append(scalar_elapsed)
        vectorized_elapsed, vectorized_result = _run_once(
            topology, algorithm, n, "vectorized", cost_model)
        vectorized_times.append(vectorized_elapsed)
        if (scalar_result.cost != vectorized_result.cost
                or scalar_result.plan != vectorized_result.plan
                or scalar_result.stats.level_pairs != vectorized_result.stats.level_pairs
                or scalar_result.stats.level_ccp != vectorized_result.stats.level_ccp):
            raise AssertionError(
                f"{topology}/{algorithm} n={n} ({cost_model}): backends "
                "disagree — bit-identity contract broken")
    scalar_median = statistics.median(scalar_times)
    vectorized_median = statistics.median(vectorized_times)
    return {
        "topology": topology,
        "algorithm": algorithm,
        "cost_model": cost_model,
        "n": n,
        "repeats": repeats,
        "evaluated_pairs": scalar_result.stats.evaluated_pairs,
        "ccp_pairs": scalar_result.stats.ccp_pairs,
        "scalar_median_s": scalar_median,
        "vectorized_median_s": vectorized_median,
        "speedup": (scalar_median / vectorized_median
                    if vectorized_median > 0 else float("inf")),
    }


def run_sweep(verbose: bool = True) -> dict:
    rows = []
    for topology, algorithm, sizes, repeats, cost_model in CONFIGS:
        for n in sizes:
            row = run_config(topology, algorithm, n, repeats, cost_model)
            rows.append(row)
            if verbose:
                print(
                    f"{topology:>12s} {algorithm:>5s} {cost_model:>8s} "
                    f"n={n:>2d}: "
                    f"scalar={row['scalar_median_s'] * 1e3:9.1f}ms "
                    f"vectorized={row['vectorized_median_s'] * 1e3:8.1f}ms "
                    f"speedup={row['speedup']:5.1f}x "
                    f"({row['evaluated_pairs']} pairs)"
                )
    report = {
        "benchmark": "vectorized_kernels",
        "description": "full optimizations, scalar loops vs batched numpy "
                       "level kernels under C_out and the default Postgres "
                       "model (medians in seconds; backends asserted "
                       "bit-identical per config)",
        "machine": {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "configs": rows,
    }
    OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    if verbose:
        print(f"wrote {OUTPUT_PATH}")
    return report


def _config(report: dict, topology: str, algorithm: str, n: int,
            cost_model: str = "cout") -> dict:
    return next(c for c in report["configs"]
                if c["topology"] == topology and c["n"] == n
                and c["algorithm"] == algorithm
                and c["cost_model"] == cost_model)


def test_vectorized_kernel_speedup(benchmark):
    report = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    # Acceptance bar: >= 3x medians on the adversarial dense case and on the
    # MusicBrainz-like graphs at large sizes.
    assert _config(report, "clique", "MPDP", 14)["speedup"] >= 3.0
    assert _config(report, "musicbrainz", "MPDP", 18)["speedup"] >= 3.0
    assert _config(report, "musicbrainz", "MPDP", 20)["speedup"] >= 3.0
    # The default cost model's array kernel: >= 5x on the dense case.
    assert _config(report, "clique", "MPDP", 12, "postgres")["speedup"] >= 5.0
    for config in report["configs"]:
        assert config["evaluated_pairs"] > 0


if __name__ == "__main__":
    run_sweep()
