"""The speed of the host while a run measures, from a reference loop.

The benchmark runs on a few cores of a shared host, and what the
neighbours do moves the speed of those cores by a third for minutes at a
time: the same code and seed gave 33,000 to 65,000 events/s on
``gossip1k`` within one hour, with nothing else running here.  No run
length the time budget allows averages that out, and no estimator over the
slices of one run can, because the whole run sits in one such period.

So every run times a fixed piece of work — heap pushes and pops, dict
updates and integer arithmetic, the operations the simulator's own hot
path is made of — between its measured slices, about once per 100 ms of
measured time (3% of it), and reports its clock-dependent end-to-end
metrics at the speed of the quiet host: rates are divided by, durations
multiplied by,

    speed = NOMINAL_S / mean(reference samples of this run)

On a quiet host ``speed`` is 1 and the metrics are what the clock said; a
run in a slow period reads what it would have read on the quiet host.
Over ten seeds this brings the spread of ``events_per_s`` / ``msgs_per_s``
from 17-45% in a noisy hour down to 8-19%, and from 7-15% in a quiet one
to 4-12% (README.md, *Why the metrics are calibrated*).
The reference does not touch the program under test, so a change to the
program moves the metrics exactly as it moves the clock.  Every record
keeps the uncalibrated values (``raw``) and the speed (``host_speed``).
"""

from __future__ import annotations

import gc
import heapq
import time

__all__ = ["NOMINAL_S", "PERIOD_S", "reference", "sample", "speed"]

NOMINAL_S = 0.0023
"""One pass of the reference on this box (2 cores of a Firecracker guest,
Python 3.11) when the host is quiet: the 5th percentile of 3,700 passes."""

PERIOD_S = 0.1  # one pass per this much measured time


def reference() -> float:
    """One pass of the reference work; returns its wall seconds."""
    enabled = gc.isenabled()
    gc.disable()  # its tuples must not set off a collection of the world's heap
    try:
        started = time.perf_counter()
        heap: list = []
        counts: dict[int, int] = {}
        push, pop = heapq.heappush, heapq.heappop
        for i in range(1500):
            push(heap, ((i * 7919) % 1009, i, (i, None)))
            counts[i & 255] = counts.get(i & 255, 0) + 1
        while heap:
            pop(heap)
        x = 0
        for i in range(20000):
            x += i * i % 7
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def sample(samples: list[float], covered_s: float = PERIOD_S) -> None:
    """Append one reference pass per ``PERIOD_S`` of ``covered_s`` (at least one)."""
    for _ in range(max(1, round(covered_s / PERIOD_S))):
        samples.append(reference())


def speed(samples: list[float]) -> float:
    """Host speed over ``samples`` relative to the quiet host (1.0 = quiet)."""
    return NOMINAL_S * len(samples) / sum(samples)
