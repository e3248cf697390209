"""The benchmark's own tests.

Run from the repository root (they are not part of the ``tests/`` suite)::

    python3 -m pytest -q perfbench/selftest.py

* a tiny-scale run of each workload prints every metric ``BENCHMARK.json``
  names, with its unit, and reports no failure;
* a corrupted plan or service reply is caught by the correctness checks and
  counted as a failure;
* the leak check reports a new ``repro_mc_`` segment and a live child;
* the run stops the resource tracker, so no process outlives it.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from repro import workloads  # noqa: E402
from repro.core.plan import Plan  # noqa: E402
from repro.heuristics import GOO  # noqa: E402
from repro.planner import AdaptivePlanner, ServiceReply  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace, section):
    result = _run(workload, trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {metric["name"]: metric["unit"]
                for metric in BENCHMARK[section]}
    assert {name: metric["unit"] for name, metric in
            result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def _corrupt_cost(plan: Plan) -> Plan:
    return dataclasses.replace(plan, cost=plan.cost * (1 + 1e-12))


def _cross_product(query) -> Plan:
    """A plan for a 4-chain that joins relations 0 and 2 first."""
    q = query
    p02 = q.join(0b0001, 0b0100, q.leaf_plan(0), q.leaf_plan(2))
    p13 = q.join(0b0010, 0b1000, q.leaf_plan(1), q.leaf_plan(3))
    return q.join(0b0101, 0b1010, p02, p13)


def test_check_plan_catches_corruption():
    query = workloads.chain_query(4, seed=1)
    outcome = AdaptivePlanner().plan(query)
    assert checks.check_plan(query, outcome.plan, outcome.cost) is None
    bad = _corrupt_cost(outcome.plan)
    assert "cost" in checks.check_plan(query, bad, bad.cost)
    assert "cost" in checks.check_plan(query, outcome.plan,
                                       outcome.cost * 2)
    crossed = _cross_product(query)
    assert "cross product" in checks.check_plan(query, crossed, crossed.cost)
    leaf = dataclasses.replace(outcome.plan.left, relations=0)
    broken = dataclasses.replace(outcome.plan, left=leaf)
    assert checks.check_plan(query, broken, broken.cost) is not None


def test_cold_workload_counts_a_corrupted_plan():
    workload = run.make_workload("exact-dp")
    workload.quality_prefix = 3
    workload.exact_sample = 1
    state = workload.setup(seed=5)
    try:
        window = workload.run(state, seconds=0.0, replay=[list(range(20))])
    finally:
        run.shutdown_worker_pools()
    outcome = window.results[0][1]
    corrupted = dataclasses.replace(
        outcome, result=dataclasses.replace(
            outcome.result, plan=_corrupt_cost(outcome.plan)))
    window.results[0][1] = corrupted
    failures = run.Failures()
    workload.finish(state, window, failures, seed=5)
    assert failures.count == 1


def test_cold_workload_counts_a_plan_that_is_not_optimal():
    workload = run.make_workload("exact-dp")
    workload.quality_prefix = 0
    state = workload.setup(seed=5)
    try:
        window = workload.run(state, seconds=0.0, replay=[list(range(20))])
    finally:
        run.shutdown_worker_pools()
    candidates = [index for index, spec in enumerate(state["specs"][:20])
                  if spec.n <= 12]
    workload.exact_sample = len(candidates)
    # A valid plan (it replays to its cost) that is not the optimum.
    index = candidates[0]
    goo = GOO().optimize(state["specs"][index].build())
    outcome = window.results[0][index]
    assert goo.cost != outcome.cost
    window.results[0][index] = dataclasses.replace(
        outcome, result=dataclasses.replace(outcome.result, plan=goo.plan,
                                            cost=goo.cost))
    failures = run.Failures()
    workload.finish(state, window, failures, seed=5, quality=False)
    assert failures.count == 1
    assert "DPccp optimum" in failures.examples[0]


def test_service_workload_counts_a_corrupted_reply():
    workload = run.make_workload("service-prepared")
    workload.PREPARED = 6
    _, _, state = run.measure_setup(workload, seed=2)
    try:
        window = workload.run(state, seconds=0.2)
    finally:
        workload.close(state)
    clean = run.Failures()
    workload.finish(state, window, clean, seed=2)
    assert clean.count == 0
    tally = window.results[0]
    (index, _), (reply, _count) = next(iter(tally.items()))
    outcome = reply.outcome
    wrong = dataclasses.replace(outcome, result=dataclasses.replace(
        outcome.result, cost=outcome.cost * 2))
    tally[(index, id(wrong.result))] = [
        ServiceReply(status="ok", outcome=wrong), 3]
    tally[(index, "expired")] = [ServiceReply(status="expired"), 1]
    failures = run.Failures()
    workload.finish(state, window, failures, seed=2)
    assert failures.count == 4


def test_leak_check_reports_new_segments_and_live_children(tmp_path,
                                                            monkeypatch):
    monkeypatch.setattr(checks, "_SHM", str(tmp_path))
    before = checks.shm_segments()
    (tmp_path / "repro_mc_dead_beef").write_bytes(b"")
    child = subprocess.Popen([sys.executable, "-c",
                              "import time; time.sleep(60)"])
    try:
        defects = checks.check_leaks(before)
    finally:
        child.kill()
        child.wait(timeout=10)
    assert "leaked shared-memory segment repro_mc_dead_beef" in defects
    assert f"orphan worker process {child.pid}" in defects
    assert f"orphan worker process {child.pid}" not in checks.check_leaks(
        before)


def test_release_processes_stops_the_resource_tracker():
    from multiprocessing import resource_tracker, shared_memory

    segment = shared_memory.SharedMemory(create=True, size=16)
    segment.close()
    segment.unlink()
    tracker = resource_tracker._resource_tracker._pid
    assert tracker is not None
    run.release_processes()
    assert resource_tracker._resource_tracker._pid is None
    assert not Path(f"/proc/{tracker}").exists()
