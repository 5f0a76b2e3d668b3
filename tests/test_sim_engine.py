"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import PeriodicTask, RngRegistry, SimulationError, Simulator, Timer
from repro.telemetry import Telemetry


class TestSimulator:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=5.0).now == 5.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_same_time_fifo_order(self):
        sim = Simulator()
        fired = []
        for label in "abc":
            sim.schedule(1.0, lambda lab=label: fired.append(lab))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_priority_breaks_ties(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("low"), priority=5)
        sim.schedule(1.0, lambda: fired.append("high"), priority=-5)
        sim.run()
        assert fired == ["high", "low"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        times = []
        sim.schedule(1.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [1.5]

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        sim.run()
        assert fired == [1, 10]

    def test_run_until_advances_clock_without_events(self):
        sim = Simulator()
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(5.0, lambda: None)

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(1))
        event.cancel()
        sim.run()
        assert fired == []

    def test_events_scheduled_during_run(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim.schedule(1.0, lambda: fired.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == ["first", "second"]
        assert sim.now == 2.0

    def test_run_on_empty_queue_returns(self):
        sim = Simulator()
        sim.run()
        assert sim.now == 0.0
        assert sim.events_processed == 0

    def test_events_processed_counter(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.events_processed == 2


class TestPendingAccounting:
    """pending() counts live work, not heap occupancy (regression tests)."""

    def test_pending_excludes_cancelled_events(self):
        sim = Simulator()
        live = [sim.schedule(float(i + 1), lambda: None) for i in range(3)]
        doomed = [sim.schedule(float(i + 10), lambda: None) for i in range(5)]
        for event in doomed:
            event.cancel()
        assert sim.pending() == len(live)

    def test_cancel_twice_counts_once(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        event = sim.schedule(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.pending() == 1

    def test_cancel_after_fire_does_not_corrupt_count(self):
        sim = Simulator()
        fired = {}
        event = sim.schedule(1.0, lambda: fired.setdefault("yes", True))
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        event.cancel()  # too late: already fired
        assert fired == {"yes": True}
        assert sim.pending() == 1

    def test_cancellation_storm_compacts_heap(self):
        """A storm of cancellations must shrink the heap, not just mark it."""
        sim = Simulator()
        keep = [sim.schedule(1000.0 + i, lambda: None) for i in range(10)]
        storm = [sim.schedule(float(i + 1), lambda: None) for i in range(500)]
        for event in storm:
            event.cancel()
        # Lazily-deleted entries dominated the queue, so compaction ran:
        # of the 500 tombstones at most a sub-threshold tail (<= 64) may
        # remain heaped, and pending() never counts them.
        assert sim.pending() == len(keep)
        assert len(sim._queue) - sim.pending() <= 64
        assert len(sim._queue) < 100
        fired = []
        for i, event in enumerate(keep):
            event.callback = lambda i=i: fired.append(i)
        sim.run()
        assert fired == list(range(10))

    def test_compaction_preserves_order_and_new_schedules(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append("late"))
        storm = [sim.schedule(1.0, lambda: None) for _ in range(200)]
        for event in storm:
            event.cancel()
        sim.schedule(2.0, lambda: fired.append("early"))
        sim.run()
        assert fired == ["early", "late"]

    def test_compaction_inside_run_keeps_draining(self):
        """Compaction triggered by a callback must not orphan the run loop."""
        sim = Simulator()
        fired = []
        storm = [sim.schedule(10.0 + i, lambda: None) for i in range(200)]

        def cancel_all():
            fired.append("cancel")
            for event in storm:
                event.cancel()
            sim.schedule(1.0, lambda: fired.append("after"))

        sim.schedule(1.0, cancel_all)
        sim.run()
        assert fired == ["cancel", "after"]
        assert sim.pending() == 0

    def test_run_skips_cancelled_events(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        event.cancel()
        sim.run(until=2.0)  # skips the tombstone, fires the live one
        assert sim.events_processed == 1
        assert sim.pending() == 0

    def test_run_counts_the_cancelled_entries_it_pops(self):
        telemetry = Telemetry()
        sim = Simulator(telemetry=telemetry)
        events = [sim.schedule(1.0 + i, lambda: None) for i in range(4)]
        events[0].cancel()
        events[2].cancel()
        sim.run(until=1.5)  # pops the first tombstone, stops at a live event
        skipped = telemetry.counter("sim.cancelled_skipped", layer="sim")
        assert skipped.value == 1
        sim.run()
        assert skipped.value == 2
        assert sim.events_processed == 2

    def test_live_events_property_matches_pending(self):
        """pending() is the one live-event count through schedule, cancel and fire."""
        sim = Simulator()
        assert not hasattr(sim, "live_events")
        live = set()
        events = [
            sim.schedule(float(i % 7 + 1), lambda i=i: live.discard(i)) for i in range(20)
        ]
        live.update(range(20))
        assert sim.pending() == 20
        for i in range(0, 20, 2):
            events[i].cancel()
            live.discard(i)
        assert sim.pending() == len(live) == 10
        for until in range(1, 8):
            sim.run(until=float(until))
            assert sim.pending() == len(live)
        assert sim.pending() == len(live) == 0

    def test_million_event_cancellation_storm(self):
        """1M schedules with a 90% cancel storm stays amortized-linear.

        The proportional compaction threshold (64 + len/8, majority-dead)
        is what makes this finish: a fixed small threshold would recompact
        a ~1M-entry heap on every few hundred cancels — quadratic blowup
        measured in minutes.  The whole schedule/cancel/drain cycle must
        come in well under the timeout budget, the queue must actually
        shrink, and pending() stays O(1)-consistent throughout.
        """
        import time

        sim = Simulator()
        n = 1_000_000
        started = time.perf_counter()
        fired = [0]
        events = []
        append = events.append
        callback = lambda: fired.__setitem__(0, fired[0] + 1)  # noqa: E731
        for i in range(n):
            append(sim.schedule(1.0 + (i % 997) * 0.001, callback))
        for i, event in enumerate(events):
            if i % 10:  # cancel 90%
                event.cancel()
        assert sim.pending() == n // 10
        # Compaction fired during the storm: tombstones are a bounded
        # *fraction* of the heap, never a multiple of the survivors.
        assert len(sim._queue) <= 2 * sim.pending() + 64
        sim.run()
        elapsed = time.perf_counter() - started
        assert fired[0] == n // 10
        assert sim.pending() == 0
        assert elapsed < 60.0, f"storm took {elapsed:.1f}s - compaction regressed"


class TestPeriodicTask:
    def test_ticks_at_period(self):
        sim = Simulator()
        times = []
        PeriodicTask(sim, period=10.0, callback=lambda: times.append(sim.now))
        sim.run(until=35.0)
        assert times == [10.0, 20.0, 30.0]

    def test_initial_delay_phase(self):
        sim = Simulator()
        times = []
        PeriodicTask(
            sim, period=10.0, callback=lambda: times.append(sim.now),
            initial_delay=3.0,
        )
        sim.run(until=25.0)
        assert times == [3.0, 13.0, 23.0]

    def test_stop_cancels_future_ticks(self):
        sim = Simulator()
        times = []
        task = PeriodicTask(sim, period=10.0, callback=lambda: times.append(sim.now))
        sim.run(until=15.0)
        task.stop()
        sim.run(until=50.0)
        assert times == [10.0]
        assert not task.running

    def test_stop_from_within_callback(self):
        sim = Simulator()
        task_box = []
        ticks = []

        def tick():
            ticks.append(sim.now)
            task_box[0].stop()

        task_box.append(PeriodicTask(sim, period=5.0, callback=tick))
        sim.run(until=30.0)
        assert ticks == [5.0]

    def test_zero_period_rejected(self):
        with pytest.raises(ValueError):
            PeriodicTask(Simulator(), period=0.0, callback=lambda: None)


class TestTimer:
    def test_fires_once(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(4.0)
        sim.run(until=20.0)
        assert fired == [4.0]
        assert not timer.armed

    def test_restart_supersedes(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(4.0)
        timer.start(8.0)
        sim.run(until=20.0)
        assert fired == [8.0]

    def test_cancel(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(1))
        timer.start(4.0)
        timer.cancel()
        sim.run(until=20.0)
        assert fired == []


class TestRngRegistry:
    def test_same_seed_same_streams(self):
        a = RngRegistry(42).stream("latency")
        b = RngRegistry(42).stream("latency")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_streams_are_independent(self):
        registry = RngRegistry(42)
        churn = registry.stream("churn")
        latency = registry.stream("latency")
        assert churn is not latency
        assert [churn.random() for _ in range(3)] != [
            latency.random() for _ in range(3)
        ]

    def test_stream_is_cached(self):
        registry = RngRegistry(7)
        assert registry.stream("x") is registry.stream("x")

    def test_fork_is_deterministic(self):
        a = RngRegistry(42).fork("node-1")
        b = RngRegistry(42).fork("node-1")
        assert a.seed == b.seed
        assert a.seed != RngRegistry(42).fork("node-2").seed
