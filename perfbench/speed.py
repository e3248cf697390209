"""Timings at a fixed reference speed, from a speed probe run beside the work.

On a shared virtual machine the same code runs up to half again slower for
seconds at a time, in CPU time as much as in wall time, as other tenants
come and go.  The benchmark therefore times a fixed probe -- interpreter
arithmetic, small-object work and tiny numpy calls, the three kinds of work
the planner does -- next to the requests it measures, and scales every
timing by ``REFERENCE_S / probe``: the time the machine would have shown had
the probe taken ``REFERENCE_S``.  The probe does not touch the planner, so a
change to the planner moves the scaled timings exactly as it moves the raw
ones; the raw timings are printed in the run's summary.

The probe runs only while no request is in flight, so the planner's own
threads do not slow it.  The cold workloads probe between consecutive
requests and scale each request by the mean of the probes on either side of
it.  The service workloads probe from the main thread every
``PROBE_PERIOD_S``, holding new requests back while it runs (a
``ProbeGate``), and scale each one-second segment by the median of its
probes.  Set-up is scaled by the probes before and after it.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import threading
import time
from typing import Iterator, List, Sequence, Tuple

import numpy as np

#: The probe's CPU time at the reference speed (about its best on a
#: two-CPU x86-64 virtual machine with Python 3.11 and numpy 2.4).
REFERENCE_S = 0.0009
#: How often the service workloads probe while their clients run.
PROBE_PERIOD_S = 0.25

_SMALL = np.arange(64, dtype=np.int64)


class _Node:
    __slots__ = ("key", "pair")

    def __init__(self, key: int, pair: Tuple[int, int]):
        self.key = key
        self.pair = pair


def _arithmetic() -> None:
    total = 0
    for value in range(20000):
        total += value * value


def _objects() -> None:
    table = {}
    for value in range(1000):
        node = _Node(value, (value, value + 1))
        table[value & 255] = node
        sorted((node.pair[1], node.key, value % 7))


def _small_numpy() -> None:
    array = _SMALL
    for _ in range(300):
        array = np.bitwise_or(array, 1)
        array[array > 3].sum()


_PARTS = (_arithmetic, _objects, _small_numpy)


def probe() -> float:
    """The geometric mean of the three parts' CPU seconds (this thread's)."""
    logs = 0.0
    for part in _PARTS:
        start = time.thread_time()
        part()
        logs += math.log(max(time.thread_time() - start, 1e-9))
    return math.exp(logs / len(_PARTS))


class ProbeGate:
    """Runs the probe between requests of concurrent clients.

    Clients wrap each request in :meth:`request`; :meth:`probe` waits until
    no request is in flight, holds new ones back while the probe runs, then
    lets them go.  The wait happens before a client starts its latency clock.
    """

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._paused = False
        self._active = 0

    @contextlib.contextmanager
    def request(self) -> Iterator[None]:
        with self._condition:
            while self._paused:
                self._condition.wait()
            self._active += 1
        try:
            yield
        finally:
            with self._condition:
                self._active -= 1
                if not self._active:
                    self._condition.notify_all()

    def probe(self) -> float:
        with self._condition:
            self._paused = True
            while self._active:
                self._condition.wait()
        try:
            return probe()
        finally:
            with self._condition:
                self._paused = False
                self._condition.notify_all()


def segment_timings(segments: Sequence[Tuple[float, List[float]]]
                    ) -> Tuple[float, float, float]:
    """``req_per_s``, ``req_p50_ms`` and ``req_p90_ms`` from segments.

    Each segment is ``(seconds, latencies)``: the time it spans and the
    latency of each request in it.  Every timing is taken per segment, and
    the median over the segments is returned, so one slow stretch of the
    machine moves it little.
    """
    segments = [(seconds, latencies) for seconds, latencies in segments
                if latencies]
    if not segments:
        return (0.0, 0.0, 0.0)
    return (statistics.median(len(latencies) / seconds
                              for seconds, latencies in segments),
            statistics.median(float(np.percentile(latencies, 50)) * 1e3
                              for _, latencies in segments),
            statistics.median(float(np.percentile(latencies, 90)) * 1e3
                              for _, latencies in segments))
