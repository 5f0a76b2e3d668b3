"""Integration tests for the ``load`` experiment.

Small-scale versions of the acceptance properties: the attached workload
delivers over a real deployed stack, same-seed runs render byte-identical
reports at any worker count, and the loss-burst variant actually recovers.
"""

from __future__ import annotations

import pytest

from repro.experiments import load
from repro.harness.invariants import RecoveryViolation, check_stream_recovery
from repro.harness.world import World, WorldConfig
from repro.workload import CbrStreams, WorkloadSpec, world_size
from repro.workload.attach import AttachedWorkload

SCALE = 0.2
SEED = 42


def small_cbr_spec() -> WorkloadSpec:
    return WorkloadSpec(
        name="tiny-cbr",
        groups=1,
        members_per_group=4,
        models=(CbrStreams(streams=2, interval=1.0, payload=64, duration=20.0),),
    )


class TestAttachedWorkload:
    def test_cbr_delivers_over_real_stack(self):
        spec = small_cbr_spec()
        world = World(WorldConfig(seed=SEED, telemetry_enabled=True))
        world.populate(world_size(spec, SCALE))
        world.start_all()
        world.run(120.0)
        attached = AttachedWorkload(world, spec, seed=SEED)
        world.run(240.0)
        attached.arm()
        world.run(spec.horizon() + 60.0)
        attached.finish()
        driver = attached.driver
        assert driver.offered >= 2 * 20  # 2 streams, 1/s for 20s
        assert driver.completed / driver.offered > 0.9
        assert driver.lag == 0
        rows = attached.summary()
        assert {row["kind"] for row in rows} == {"cbr"}
        assert all(row["goodput_bps"] > 0 for row in rows)

    def test_arm_twice_rejected(self):
        spec = small_cbr_spec()
        world = World(WorldConfig(seed=SEED, telemetry_enabled=True))
        world.populate(world_size(spec, SCALE))
        world.start_all()
        world.run(120.0)
        attached = AttachedWorkload(world, spec, seed=SEED)
        world.run(240.0)
        attached.arm()
        with pytest.raises(RuntimeError):
            attached.arm()


class TestDeterminism:
    def test_same_seed_same_trace_and_workers_equivalence(self):
        """Reruns and a 2-worker run all render the identical report."""
        kwargs = dict(scale=SCALE, seed=SEED, scenarios=("cbr",))
        first = load.run(**kwargs).render()
        second = load.run(**kwargs).render()
        parallel = load.run(**kwargs, workers=2).render()
        assert first == second
        assert first == parallel

    def test_different_seed_different_trace(self):
        a = load.run_scenario("cbr", 1, scale=SCALE)
        b = load.run_scenario("cbr", 2, scale=SCALE)
        assert a.trace_sha != b.trace_sha


class TestLossRecovery:
    def test_loss_burst_bites_and_streams_recover(self):
        result = load.run_scenario("cbr+loss", SEED, scale=0.3)
        assert set(result.windows) == {"before", "during", "after"}
        # The burst must visibly depress delivery...
        assert result.windows["during"] < result.windows["before"]
        # ...and the post-heal window must climb back.
        assert result.recovered is True

    def test_check_stream_recovery_contract(self):
        check_stream_recovery(0.95, 0.40, 0.93)
        with pytest.raises(RecoveryViolation):
            check_stream_recovery(0.95, 0.40, 0.70)  # never recovered
        with pytest.raises(RecoveryViolation):
            check_stream_recovery(0.95, 0.96, 0.95)  # fault never bit
