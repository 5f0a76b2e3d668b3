"""An asyncio-backed implementation of the :class:`~repro.sim.clock.Clock` surface.

The protocol layers (PSS cycles, keepalive probes, PPSS timers, backoffs)
only ever call ``now`` / ``schedule`` / ``schedule_at`` and cancel the
handles they get back.  :class:`AsyncioScheduler` serves them with the
simulator's own discipline, on the loop's monotonic clock:

- ``now`` is ``loop.time()`` rebased to 0 at construction, so protocol code
  sees the same "time since boot" frame the simulator provides;
- callbacks wait in one :class:`~repro.sim.engine.EventHeap` of
  ``(time, priority, seq, Event)`` entries; the handle is the simulator's
  :class:`~repro.sim.engine.Event`, and cancellation is lazy and compacted
  by the simulator's rule.  ``seq`` numbers every timer in scheduling order;
- at most one asyncio timer is armed, for the earliest entry.  When it
  fires, one dispatch pops every entry due at that instant in
  ``(time, priority, seq)`` order — same-instant callbacks fire in
  scheduling order and priorities are honoured, as in the simulator — and
  re-arms once at the end;
- time stands still inside a callback.  A dispatch freezes ``now`` at the
  instant it began, and :meth:`freeze` / :meth:`thaw` do the same around a
  callback the loop runs itself (the live fabric's socket reader); what
  such a callback schedules arms at most one timer, at :meth:`thaw`.
  Outside callbacks ``now`` reads the loop clock.

A callback's exception goes to ``loop.call_exception_handler`` and the
dispatch carries on with the next entry, as asyncio does for its own
handles.  Like the simulator, negative delays are rejected loudly — a
negative timeout is always a protocol bug, and the live runtime should fail
the same way the deterministic one does.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import math
from typing import Any, Callable

from ..sim.engine import Event, EventHeap

__all__ = ["AsyncioScheduler"]


class AsyncioScheduler(EventHeap):
    """``Clock`` implementation driving callbacks from an asyncio loop."""

    def __init__(self, loop: asyncio.AbstractEventLoop | None = None) -> None:
        self._loop = loop if loop is not None else asyncio.new_event_loop()
        self._t0 = self._loop.time()
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = itertools.count()
        self._cancelled_in_queue = 0
        self._frozen: float | None = None  # ``now`` inside a callback
        self._timer: asyncio.TimerHandle | None = None  # the one armed timer
        self._timer_at = math.inf  # scheduler time ``_timer`` fires at

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        return self._loop

    @property
    def now(self) -> float:
        """Seconds since this scheduler was created (monotonic).

        Constant for the whole of a callback; the loop clock otherwise.
        """
        frozen = self._frozen
        if frozen is None:
            return self._loop.time() - self._t0
        return frozen

    def schedule(
        self, delay: float, callback: Callable[[], Any], priority: int = 0
    ) -> Event:
        """Run ``callback`` ``delay`` seconds from ``now``.

        Entries due at the same instant fire by ``priority``, then in
        scheduling order, as in the simulator.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule {delay:.6f}s in the past")
        return self._push(self.now + delay, callback, priority)

    def schedule_at(
        self, time: float, callback: Callable[[], Any], priority: int = 0
    ) -> Event:
        """Run ``callback`` at absolute scheduler time ``time``."""
        now = self.now
        if time < now:
            raise ValueError(f"cannot schedule at {time:.6f}, now is {now:.6f}")
        return self._push(time, callback, priority)

    def _push(self, time: float, callback: Callable[[], Any], priority: int) -> Event:
        seq = next(self._seq)
        event = Event(time, priority, seq, callback, False, self)
        heapq.heappush(self._queue, (time, priority, seq, event))
        # Inside a callback, arming waits for thaw(): one arm per callback.
        if time < self._timer_at and self._frozen is None:
            self._arm(time)
        return event

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def freeze(self) -> None:
        """Stop ``now`` at the loop clock and hold arming until :meth:`thaw`."""
        self._frozen = self._loop.time() - self._t0

    def thaw(self) -> None:
        """Let ``now`` follow the loop clock again; arm for the earliest entry."""
        self._frozen = None
        queue = self._queue
        if queue and queue[0][0] < self._timer_at:
            self._arm(queue[0][0])

    def _arm(self, time: float) -> None:
        if self._timer is not None:
            self._timer.cancel()
        self._timer = self._loop.call_at(self._t0 + time, self._dispatch)
        self._timer_at = time

    def _dispatch(self) -> None:
        """The armed timer fired: run every entry due now, then re-arm once."""
        self._timer = None
        self._timer_at = math.inf
        self.freeze()
        instant = self._frozen
        queue = self._queue
        heappop = heapq.heappop
        try:
            while queue:
                entry = queue[0]
                event = entry[3]
                if event.cancelled:
                    heappop(queue)
                    self._cancelled_in_queue -= 1
                    continue
                if entry[0] > instant:
                    break
                heappop(queue)
                event._done = True
                try:
                    event.callback()
                except Exception as exc:
                    self._loop.call_exception_handler({
                        "message": f"Exception in scheduled callback {event.callback!r}",
                        "exception": exc,
                    })
        finally:
            self.thaw()

    # ------------------------------------------------------------------
    # loop driving helpers (used by LiveRuntime and tests)
    # ------------------------------------------------------------------
    def run_for(self, seconds: float) -> None:
        """Drive the loop for ``seconds`` of wall-clock time."""
        self._loop.run_until_complete(asyncio.sleep(seconds))

    def run_until(
        self,
        predicate: Callable[[], bool],
        timeout: float,
        poll: float = 0.02,
    ) -> bool:
        """Drive the loop until ``predicate()`` or ``timeout``; True on success."""

        async def wait() -> bool:
            deadline = self._loop.time() + timeout
            while True:
                if predicate():
                    return True
                if self._loop.time() >= deadline:
                    return False
                await asyncio.sleep(poll)

        return self._loop.run_until_complete(wait())

    def close(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._loop.is_closed():
            self._loop.close()
