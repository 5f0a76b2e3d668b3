"""Discrete-event simulation engine.

The engine is the substrate replacing the SPLAY deployment framework used by
the WHISPER paper: every protocol layer (Nylon PSS, WCL, PPSS, T-Chord) is
driven by events scheduled on a single simulated clock.  Determinism is a
design goal — given the same seed, a simulation replays identically, which
makes experiments and tests reproducible.

Events fire in (time, priority, sequence) order.  The sequence number breaks
ties deterministically: two events scheduled for the same instant fire in
scheduling order.

Performance notes: the heap holds ``(time, priority, seq, event)`` tuples so
that ``heapq`` orders entries by comparing plain numbers — the ``seq``
component is unique, so two ``Event`` objects are never compared and the
event type has no ordering protocol.  ``run()`` is the one event loop; it
batches its telemetry counter updates, flushing once per ``run()`` rather
than once per event.
"""

from __future__ import annotations

import gc
import heapq
import itertools
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Iterator

from ..telemetry import NULL_TELEMETRY

if TYPE_CHECKING:
    from ..telemetry import Telemetry

__all__ = ["Event", "EventHeap", "Simulator", "SimulationError",
           "bulk_build", "collector_paused"]


@contextmanager
def collector_paused() -> Iterator[bool]:
    """Keep the cyclic collector off for the block; yields whether it was
    on.  A pause that finds it off restores nothing, so pauses nest."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield was_enabled
    finally:
        if was_enabled:
            gc.enable()


@contextmanager
def bulk_build() -> Iterator[None]:
    """Decorates a world-building method (``@bulk_build()``): the collector
    is paused, then one young collection (``gc.collect(1)``) takes what the
    build made if it was on.  DESIGN.md "Collector policy" says why."""
    with collector_paused() as was_enabled:
        yield
        if was_enabled:
            gc.collect(1)


class SimulationError(RuntimeError):
    """Raised on misuse of the simulation engine (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.

    Events fire in ``(time, priority, seq)`` order (the heap entry's key),
    so the run is deterministic.  ``cancelled`` events stay in the heap but
    are skipped when popped (lazy deletion), which keeps cancellation O(1);
    the owning :class:`EventHeap` is notified of live cancellations so it
    can account queue depth accurately and compact when lazily-deleted
    entries pile up.
    """

    __slots__ = ("time", "priority", "seq", "callback", "cancelled", "_sim", "_done")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[[], Any],
        cancelled: bool = False,
        sim: "EventHeap | None" = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.cancelled = cancelled
        self._sim = sim
        self._done = False  # popped for firing (cancel() after this is a no-op)

    def cancel(self) -> None:
        """Mark the event so it will not fire."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None and not self._done:
            sim._note_cancel()

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time}, prio={self.priority}, seq={self.seq}{state})"


class EventHeap:
    """A heap of ``(time, priority, seq, Event)`` entries with lazy cancellation.

    The discrete-event :class:`Simulator` and the live
    :class:`~repro.runtime.clock.AsyncioScheduler` both keep one; this base
    holds what they share: live-entry accounting and the compaction rule a
    cancelled :class:`Event` reports to.  Subclasses own ``_queue`` and
    ``_cancelled_in_queue`` and do the pushing and popping.
    """

    _queue: list[tuple[float, int, int, Event]]
    _cancelled_in_queue: int  # lazily-deleted entries still heaped

    def pending(self) -> int:
        """Number of *live* events still queued (O(1)).

        Cancelled events awaiting lazy deletion are excluded: callers (and
        the ``sim.pending`` telemetry gauge) want actual scheduled work, not
        heap occupancy.  An earlier revision returned ``len(self._queue)``,
        overstating queue depth after cancellation storms.
        """
        return len(self._queue) - self._cancelled_in_queue

    def _note_cancel(self) -> None:
        """A queued event was cancelled; account for the lazy deletion.

        When cancelled entries dominate the heap, compact it: drop them all
        and re-heapify the survivors.  This bounds both memory and the
        per-pop cost of skipping tombstones after cancellation storms.
        Compaction drops tombstones without counting them:
        ``sim.cancelled_skipped`` counts only those ``Simulator.run()`` pops.

        The trigger floor scales with queue size: a fixed floor would make
        a deep queue (100k-node runs hold hundreds of thousands of pending
        timers) compact — an O(queue) rebuild — on a trickle of
        cancellations that is negligible relative to the heap.  Tombstones
        must both exceed the proportional floor *and* outnumber live
        entries, so each O(n) rebuild is paid for by Ω(n) cancellations
        and the amortized cost per cancel stays O(1) at any depth.
        """
        self._cancelled_in_queue += 1
        queue_len = len(self._queue)
        if (
            self._cancelled_in_queue > 64 + (queue_len >> 3)
            and self._cancelled_in_queue * 2 > queue_len
        ):
            # In-place rebuild: the popping loop holds a direct reference
            # to the queue list, so its identity must survive compaction.
            queue = self._queue
            queue[:] = [e for e in queue if not e[3].cancelled]
            heapq.heapify(queue)
            self._cancelled_in_queue = 0


class Simulator(EventHeap):
    """A deterministic discrete-event scheduler with a simulated clock.

    Typical usage::

        sim = Simulator()
        sim.schedule(10.0, lambda: print("at t=10"))
        sim.run(until=60.0)

    Time is expressed in seconds (floats).  The simulator never advances past
    the time of the last event unless ``run(until=...)`` asks it to.
    """

    def __init__(
        self, start_time: float = 0.0, telemetry: "Telemetry | None" = None
    ) -> None:
        self.now = float(start_time)
        # Heap of (time, priority, seq, event); seq is unique so the event
        # object itself is never compared.
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = itertools.count()
        self._running = False
        self._events_processed = 0
        self._cancelled_in_queue = 0  # lazily-deleted entries still heaped
        self._sched_delta = 0  # schedules not yet flushed to telemetry
        self.bind_telemetry(telemetry if telemetry is not None else NULL_TELEMETRY)

    def bind_telemetry(self, telemetry: "Telemetry") -> None:
        """Attach a telemetry sink for event-loop statistics.

        Instruments are cached here so the per-event cost with telemetry
        disabled is one no-op method call on a shared singleton.
        """
        self._telemetry = telemetry
        self._tel_fired = telemetry.counter("sim.events", layer="sim")
        self._tel_scheduled = telemetry.counter("sim.scheduled", layer="sim")
        self._tel_skipped = telemetry.counter("sim.cancelled_skipped", layer="sim")
        self._tel_pending = telemetry.gauge("sim.pending", layer="sim")
        self._tel_now = telemetry.gauge("sim.now", layer="sim")

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    # ``now`` is a plain attribute (set in __init__, advanced by the run
    # loop): it is read millions of times per run, and a property's
    # descriptor dispatch is measurable at that volume.  Treat it as
    # read-only from the outside.

    @property
    def events_processed(self) -> int:
        """Number of events that have fired so far."""
        return self._events_processed

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, callback: Callable[[], Any], priority: int = 0
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        Returns the :class:`Event`, which can be cancelled.  A negative delay
        is an error: the simulated past is immutable.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        time = self.now + delay
        seq = next(self._seq)
        event = Event(time, priority, seq, callback, False, self)
        heapq.heappush(self._queue, (time, priority, seq, event))
        self._sched_delta += 1
        return event

    def schedule_at(
        self, time: float, callback: Callable[[], Any], priority: int = 0
    ) -> Event:
        """Schedule ``callback`` at an absolute simulated time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        seq = next(self._seq)
        event = Event(time, priority, seq, callback, False, self)
        heapq.heappush(self._queue, (time, priority, seq, event))
        self._sched_delta += 1
        return event

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> None:
        """Run until the queue drains or ``until`` is reached.

        When ``until`` is given the clock is advanced to exactly ``until`` at
        the end of the run even if the last event fired earlier — matching the
        intuition of "simulate one hour".
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        self._running = True
        queue = self._queue
        heappop = heapq.heappop
        fired = 0
        skipped = 0  # cancelled entries popped off the top
        try:
            with collector_paused():  # events make no cycles: test_gc_contract
                while queue:
                    entry = queue[0]
                    event = entry[3]
                    if event.cancelled:
                        # Lazily-deleted entry reached the top: drop it.
                        heappop(queue)
                        self._cancelled_in_queue -= 1
                        skipped += 1
                        continue
                    if until is not None and entry[0] > until:
                        break
                    heappop(queue)
                    event._done = True
                    self.now = entry[0]
                    self._events_processed += 1
                    fired += 1
                    event.callback()
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False
            if fired:
                self._tel_fired.inc(fired)
            if skipped:
                self._tel_skipped.inc(skipped)
            self._flush_scheduled()
            self._tel_pending.set(self.pending())
            self._tel_now.set(self.now)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _flush_scheduled(self) -> None:
        """Push batched schedule counts out to the telemetry counter."""
        if self._sched_delta:
            self._tel_scheduled.inc(self._sched_delta)
            self._sched_delta = 0
