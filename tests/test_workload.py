"""Tests for the heavy-traffic workload subsystem (repro.workload).

The load-bearing properties:

- open-loop semantics: arrivals are scheduled from the arrival process
  alone — failing or absent completions never slow the offered load, and
  the lag gauge grows monotonically when offered load exceeds capacity;
- clock-agnosticism: the same driver runs unchanged on the discrete-event
  simulator and on the asyncio scheduler;
- determinism: same-seed scenario runs produce byte-identical telemetry
  traces at any worker count.
"""

from __future__ import annotations

import pytest

from repro.sim import Simulator
from repro.telemetry import Telemetry
from repro.workload import (
    CbrStreams,
    FlashCrowd,
    WorkloadDriver,
    WorkloadSpec,
    ZipfLookups,
    build_scenario,
    world_size,
)


def make_driver(seed: int = 7) -> tuple[Simulator, Telemetry, WorkloadDriver]:
    sim = Simulator()
    telemetry = Telemetry(clock=lambda: sim.now)
    return sim, telemetry, WorkloadDriver(sim, telemetry, seed=seed)


class TestSpec:
    def test_cbr_packet_count_and_end(self):
        model = CbrStreams(streams=2, interval=0.5, payload=160, duration=10.0)
        assert model.end == 10.0
        sim, _, driver = make_driver()
        sent = []
        driver.add_stream(
            "s", "cbr", lambda seq, now: sent.append(now) is None,
            interval=model.interval, start=model.start, until=model.end,
        )
        driver.arm()
        sim.run(until=30.0)
        # Arrivals at 0.0, 0.5, ..., 10.0: the window includes both ends.
        assert sent[0] == 0.0 and sent[-1] == 10.0 and len(sent) == 21

    def test_flash_crowd_end_includes_deadline(self):
        model = FlashCrowd(joiners=5, at=10.0, spread=5.0, deadline=60.0)
        assert model.end == 75.0

    def test_horizon_is_max_model_end(self):
        spec = WorkloadSpec(
            name="x",
            models=(
                CbrStreams(duration=30.0),
                ZipfLookups(start=10.0, duration=50.0),
            ),
        )
        assert spec.horizon() == 60.0

    def test_validation_rejects_bad_values(self):
        with pytest.raises(ValueError):
            CbrStreams(interval=0.0)
        with pytest.raises(ValueError):
            ZipfLookups(rate=-1.0)
        with pytest.raises(ValueError):
            FlashCrowd(joiners=0)
        with pytest.raises(ValueError):
            WorkloadSpec(name="x", groups=0)

    def test_scenarios_build_and_size(self):
        for name in ("cbr", "zipf", "flash", "multigroup"):
            spec = build_scenario(name, scale=0.5)
            assert spec.models, name
            assert world_size(spec, 0.5) >= spec.groups * spec.members_per_group


class TestOpenLoopSemantics:
    def test_arrivals_never_self_throttle(self):
        """A stream whose every action fails still offers at full rate."""
        sim, _, driver = make_driver()
        driver.add_stream(
            "s", "test", lambda seq, now: False, interval=1.0, until=99.0
        )
        driver.arm()
        sim.run(until=200.0)
        account = driver.accounts["s"]
        assert account.offered == 100  # t=0..99 inclusive, 1/s
        assert account.emitted == 0
        assert account.failed == 100  # un-emitted arrivals resolve as failed
        assert account.lag == 0

    def test_lag_grows_monotonically_past_capacity(self):
        """Offered > capacity: completions never arrive, lag only climbs."""
        sim, _, driver = make_driver()
        driver.add_stream(
            "s", "test", lambda seq, now: True, interval=0.5, until=49.9
        )
        driver.arm()
        samples = []
        for _ in range(10):
            sim.run(until=sim.now + 5.0)
            samples.append(driver.lag)
        assert samples == sorted(samples)
        assert samples[-1] == 100
        assert driver.offered == 100
        assert driver.completed == 0

    def test_completions_drain_lag(self):
        sim, _, driver = make_driver()
        driver.add_stream(
            "s", "test", lambda seq, now: True, interval=1.0, count=10
        )
        driver.arm()
        sim.run(until=20.0)
        assert driver.lag == 10
        for _ in range(10):
            driver.note_completion("s", latency=0.1, nbytes=100)
        assert driver.lag == 0
        assert driver.accounts["s"].bytes_delivered == 1000

    def test_absolute_cadence_has_no_float_drift(self):
        """10k arrivals at 0.1s intervals land exactly on the grid."""
        sim, _, driver = make_driver()
        seen = []
        driver.add_stream(
            "s", "test",
            lambda seq, now: seen.append(now) or True,
            interval=0.1, count=10_000,
        )
        driver.arm()
        sim.run(until=2000.0)
        assert len(seen) == 10_000
        # An accumulating `t += 0.1` loop drifts ~1e-9 per thousand adds;
        # the absolute schedule keeps the final arrival on the exact grid.
        assert seen[-1] == pytest.approx(999.9, abs=1e-6)

    def test_arming_anchors_relative_times(self):
        """Spec times are relative to arm(), not to t=0."""
        sim, _, driver = make_driver()
        sim.run(until=500.0)
        seen = []
        driver.add_stream(
            "s", "test",
            lambda seq, now: seen.append(now) or True,
            interval=1.0, start=2.0, count=3,
        )
        driver.arm()
        sim.run(until=600.0)
        assert seen == [502.0, 503.0, 504.0]

    def test_duplicate_stream_id_rejected(self):
        _, _, driver = make_driver()
        driver.add_stream("s", "t", lambda *_: True, interval=1.0, count=1)
        with pytest.raises(ValueError):
            driver.add_stream("s", "t", lambda *_: True, interval=1.0, count=1)

    def test_stream_needs_stop_condition(self):
        _, _, driver = make_driver()
        with pytest.raises(ValueError):
            driver.add_stream("s", "t", lambda *_: True, interval=1.0)


class TestTelemetryWiring:
    def test_counters_and_lag_gauge(self):
        sim, telemetry, driver = make_driver()
        driver.add_stream(
            "s", "test", lambda seq, now: True, interval=1.0, count=4
        )
        driver.arm()
        sim.run(until=10.0)
        driver.note_completion("s", latency=0.25, nbytes=100)
        offered = telemetry.metrics.collect("workload.offered")
        assert sum(c.value for c in offered.values()) == 4
        gauge = telemetry.metrics.collect("workload.lag")
        assert sum(g.value for g in gauge.values()) == 3
        latency = telemetry.metrics.collect("workload.latency")
        (histogram,) = latency.values()
        assert histogram.count == 1

    def test_same_seed_same_interarrival_draws(self):
        def draws(seed: int) -> list[float]:
            sim, _, driver = make_driver(seed)
            seen = []
            stream = driver.add_stream(
                "s", "test",
                lambda seq, now: seen.append(now) or True,
                interval=lambda: 1.0, count=5,
            )
            stream.interval = lambda: stream.rng.expovariate(2.0)
            driver.arm()
            sim.run(until=100.0)
            return seen

        assert draws(7) == draws(7)
        assert draws(7) != draws(8)


class TestAsyncioClock:
    def test_driver_runs_on_live_scheduler(self):
        """The same driver, unchanged, on wall-clock time."""
        from repro.runtime.clock import AsyncioScheduler

        scheduler = AsyncioScheduler()
        try:
            telemetry = Telemetry(clock=lambda: scheduler.now)
            driver = WorkloadDriver(scheduler, telemetry, seed=7)
            driver.add_stream(
                "s", "test",
                lambda seq, now: driver.note_completion("s", nbytes=10) or True,
                interval=0.02, count=5,
            )
            driver.arm()
            assert scheduler.run_until(
                lambda: driver.accounts["s"].offered >= 5, timeout=2.0
            )
            assert driver.completed == 5
            assert driver.lag == 0
        finally:
            scheduler.close()
