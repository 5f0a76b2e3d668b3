"""The live clock keeps the simulator's discipline.

- parity: one schedule program fires in the same order on
  :class:`Simulator` and :class:`AsyncioScheduler` (ties by scheduling
  order, priorities honoured, cancels of pending and of fired handles,
  delay-0 schedules from inside a callback);
- frozen time: ``now`` stands still inside a timer callback and inside a
  datagram callback, and follows the wall clock between them;
- robustness: a raising callback reaches the loop's exception handler
  without stalling the scheduler, at most one asyncio timer is armed, and
  cancellation storms stay within the simulator's compaction bound with
  ``pending()`` exact.
"""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import AsyncioScheduler, LiveNetwork
from repro.sim.engine import EventHeap, Simulator


@pytest.fixture
def scheduler():
    scheduler = AsyncioScheduler()
    yield scheduler
    scheduler.close()


def _noop() -> None:
    pass


def _within_compaction_bound(heap: EventHeap) -> bool:
    """The state ``EventHeap._note_cancel`` leaves behind after any cancel."""
    size = len(heap._queue)
    tombstones = size - heap.pending()
    return tombstones <= 64 + (size >> 3) or tombstones * 2 <= size


def _program(clock, base: float, log: list) -> None:
    """Schedule at ``base`` (and a little after) on either clock.

    The live clock freezes ``now`` at the instant a dispatch begins, which
    is a little after ``base``; the spawner runs last at ``base`` so its
    delay-0 children cannot be ordered against ``base`` entries, and the
    ``later`` pair is a few hundred milliseconds clear of ``last``.
    """

    def note(tag):
        return lambda: log.append(tag)

    fired = clock.schedule_at(base, note("first"), priority=-5)
    clock.schedule_at(base, note("a0"))
    clock.schedule_at(base, note("b+1"), priority=1)
    clock.schedule_at(base, note("c-1"), priority=-1)
    clock.schedule_at(base, note("d0"))
    doomed = clock.schedule_at(base + 0.1, note("never"))

    def spawner():
        log.append("spawner")
        fired.cancel()  # already fired: nothing to undo
        doomed.cancel()
        clock.schedule(0.0, note("zero0"))
        clock.schedule(0.0, note("zero-1"), priority=-1)
        clock.schedule(0.0, note("zero0b"))
        clock.schedule(0.01, note("later0"))
        clock.schedule(0.01, note("later-2"), priority=-2)

    clock.schedule_at(base, spawner, priority=2)
    clock.schedule_at(base + 0.3, note("last"), priority=3)


class TestParity:
    EXPECTED = [
        "first", "c-1", "a0", "d0", "b+1", "spawner", "zero-1", "zero0",
        "zero0b", "later-2", "later0", "last",
    ]

    def test_simulator_order(self):
        sim = Simulator()
        log: list = []
        _program(sim, 1.0, log)
        assert sim.pending() == 8
        sim.run(until=2.0)
        assert log == self.EXPECTED
        assert sim.pending() == 0

    def test_live_clock_fires_in_the_simulators_order(self, scheduler):
        log: list = []
        _program(scheduler, scheduler.now + 0.02, log)
        assert scheduler.pending() == 8
        scheduler.run_for(0.5)
        assert log == self.EXPECTED
        assert scheduler.pending() == 0


class TestFrozenTime:
    def test_now_stands_still_inside_a_timer_callback(self, scheduler):
        reads = []

        def work():
            first = scheduler.now
            time.sleep(0.01)
            reads.append((first, scheduler.now))

        scheduler.schedule(0.0, work)
        scheduler.run_for(0.05)
        assert len(reads) == 1
        assert reads[0][0] == reads[0][1]

    def test_now_stands_still_inside_a_datagram_callback(self, scheduler):
        network = LiveNetwork(scheduler)
        try:
            network.open_endpoint(1)
            target = network.open_endpoint(2)
            reads = []

            def handler(message):
                first = scheduler.now
                time.sleep(0.01)
                reads.append((first, scheduler.now))

            network.attach(2, handler)
            network.send(1, target, "nat.ping", {"from": 1}, 0)
            assert scheduler.run_until(lambda: reads, timeout=2.0)
            assert reads[0][0] == reads[0][1]
        finally:
            network.close()

    def test_now_follows_the_wall_clock_between_runs(self, scheduler):
        t0 = scheduler.now
        scheduler.run_for(0.02)
        t1 = scheduler.now
        time.sleep(0.01)
        t2 = scheduler.now
        assert t1 - t0 >= 0.015
        assert t2 - t1 >= 0.009


class TestRobustness:
    def test_a_raising_callback_does_not_stall_the_scheduler(self, scheduler):
        caught = []
        scheduler.loop.set_exception_handler(lambda loop, ctx: caught.append(ctx))
        log = []

        def boom():
            raise RuntimeError("boom")

        base = scheduler.now + 0.01
        scheduler.schedule_at(base, lambda: log.append("before"))
        scheduler.schedule_at(base, boom)
        scheduler.schedule_at(base, lambda: log.append("after"))
        scheduler.schedule_at(base + 0.02, lambda: log.append("later"))
        scheduler.run_for(0.1)
        assert log == ["before", "after", "later"]
        assert [type(ctx["exception"]) for ctx in caught] == [RuntimeError]

    def test_at_most_one_timer_is_armed(self, scheduler):
        for i in range(50):  # each earlier than the last: every push re-arms
            scheduler.schedule(1.0 - i * 0.01, _noop)
        armed = [
            h for h in scheduler.loop._scheduled
            if not h.cancelled() and h._callback == scheduler._dispatch
        ]
        assert len(armed) == 1
        assert armed[0].when() == pytest.approx(
            scheduler._t0 + scheduler._queue[0][0]
        )

    def test_cancellation_storm_stays_within_the_compaction_bound(self, scheduler):
        handles = [scheduler.schedule(3600.0 + i, _noop) for i in range(10_000)]
        assert scheduler.pending() == 10_000
        for handle in handles[::2]:
            handle.cancel()
        assert scheduler.pending() == 5_000
        assert _within_compaction_bound(scheduler)
        for handle in handles:  # half of these cancel a second time
            handle.cancel()
        assert scheduler.pending() == 0
        assert _within_compaction_bound(scheduler)
        # An all-tombstone heap of L entries survives only if L <= 64 + L/8.
        assert len(scheduler._queue) <= 73

    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("schedule"), st.floats(0.0, 100.0)),
                st.tuples(st.just("cancel"), st.integers(0, 10_000)),
            ),
            max_size=400,
        )
    )
    def test_schedule_cancel_interleavings_keep_pending_exact(self, ops):
        live_clock = AsyncioScheduler()
        try:
            for clock in (Simulator(), live_clock):
                handles = []
                for op, arg in ops:
                    if op == "schedule":
                        handles.append(clock.schedule(arg, _noop))
                    elif handles:
                        handles[arg % len(handles)].cancel()
                    live = sum(not h.cancelled for h in handles)
                    assert clock.pending() == live
                    assert _within_compaction_bound(clock)
        finally:
            live_clock.close()
