"""The premise of the collector policy: steady state makes no cyclic garbage.

``Simulator.run`` and ``ShardedWorld.run_windows`` switch the cyclic
collector off while events fire; ``populate`` and ``start_all`` switch it
off while a world is built and close with one young collection.  That
costs nothing only while everything the message path allocates is freed
by reference count; one closure that captures the object holding it (a
timer callback closing over its owner) is enough to leak a descriptor tree
per exchange.  Each case warms a world up, runs a slice with the collector
off and counts what only the collector could free — including what the
sharded barrier's own young collections pick up inside the slice.
"""

from __future__ import annotations

import gc

import pytest

from repro.core.node import WhisperConfig
from repro.core.ppss import MemberState
from repro.harness import World, WorldConfig
from repro.harness.sharded import ShardedWorld
from repro.sim.engine import bulk_build, collector_paused


def _unreachable_after(advance) -> int:
    """Objects only the cyclic collector can free once ``advance`` returns."""
    found: list[int] = []

    def record(phase: str, info: dict) -> None:
        if phase == "stop":
            found.append(info["collected"] + info["uncollectable"])

    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.callbacks.append(record)
    try:
        advance()
        gc.collect()
    finally:
        gc.callbacks.remove(record)
        if was_enabled:
            gc.enable()
    return sum(found)


def _collections_during(action) -> list[int]:
    """Generation of every collection that runs while ``action`` does.

    Collects first, so no allocation count left over from the set-up can
    set off a collection before ``action`` pauses the collector."""
    generations: list[int] = []

    def record(phase: str, info: dict) -> None:
        if phase == "start":
            generations.append(info["generation"])

    gc.collect()
    gc.callbacks.append(record)
    try:
        action()
    finally:
        gc.callbacks.remove(record)
    return generations


@pytest.fixture
def collector_on():
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


def _messaging_world(circuit_mode: bool) -> tuple[World, list[int]]:
    """A private group whose members send each other app messages.

    Returns the world and the list its app handlers append payloads to."""
    world = World(
        WorldConfig(seed=31, whisper=WhisperConfig(circuit_mode=circuit_mode))
    )
    world.populate(60)
    world.start_all()
    world.run(60.0)
    founder = world.public_nodes()[0].create_group("gc")
    invite = founder.invite()
    group = [founder] + [n.join_group(invite) for n in world.natted_nodes()[:7]]
    world.run(240.0)
    members = [ppss for ppss in group if ppss.state is MemberState.MEMBER]
    assert len(members) >= 4
    received: list[int] = []
    for ppss in members:
        ppss.set_app_handler(lambda payload, reply_to: received.append(payload))

    def fire(index: int) -> None:
        source = members[index % len(members)]
        destination = members[(index + 1) % len(members)]
        source.send_app(destination.self_contact(), index, 64)
        world.sim.schedule(0.5, lambda: fire(index + 1))

    world.sim.schedule(0.5, lambda: fire(0))
    world.run(30.0)  # first messages set circuits up
    assert received
    return world, received


class TestSteadyStateMakesNoCyclicGarbage:
    def test_pss_gossip(self):
        world = World(WorldConfig(seed=31))
        world.populate(80)
        world.start_all()
        world.run(100.0)
        before = world.sim.events_processed
        assert _unreachable_after(lambda: world.run(40.0)) == 0
        assert world.sim.events_processed > before

    @pytest.mark.parametrize("circuit_mode", [False, True], ids=["onion", "circuit"])
    def test_ppss_group_exchanging_app_messages(self, circuit_mode):
        world, received = _messaging_world(circuit_mode)

        def exchanges() -> int:
            return sum(
                ppss.stats.exchanges_completed
                for node in world.nodes.values() for ppss in node.groups.values()
            )

        exchanged, delivered = exchanges(), len(received)
        # 70 sim-s: every member runs at least one private exchange
        # (60 s cycle) on top of the app traffic.
        assert _unreachable_after(lambda: world.run(70.0)) == 0
        assert len(received) > delivered
        assert exchanges() > exchanged

    def test_sharded_world(self):
        world = ShardedWorld(WorldConfig(seed=31), partitions=4)
        world.populate(160)
        world.start_all()
        world.run_windows(1.0, 40)
        crossed = world.cross_shard_msgs
        assert _unreachable_after(lambda: world.run_windows(1.0, 20)) == 0
        assert world.cross_shard_msgs > crossed


class TestBuildsPauseTheCollector:
    """``World`` / ``ShardedWorld`` ``populate`` and ``start_all`` run with
    the collector paused and close with one ``gc.collect(1)``."""

    def test_builds_make_no_cyclic_garbage(self):
        # So the pause defers no garbage to the closing young collection.
        world = World(WorldConfig(seed=31))
        sharded = ShardedWorld(WorldConfig(seed=31), partitions=4)
        for built in (world, sharded):
            assert _unreachable_after(
                lambda: (built.populate(300), built.start_all())
            ) == 0
        assert len(world.nodes) == sharded.node_count == 300

    def test_sharded_build_runs_one_young_collection(self, collector_on):
        world = ShardedWorld(WorldConfig(seed=31), partitions=4)
        assert _collections_during(lambda: world.populate(3_000)) == [1]
        assert gc.isenabled()
        assert _collections_during(world.start_all) == [1]
        assert gc.isenabled()

    def test_world_build_runs_one_young_collection(self, collector_on):
        world = World(WorldConfig(seed=31))
        assert _collections_during(lambda: world.populate(300)) == [1]
        assert _collections_during(world.start_all) == [1]
        assert gc.isenabled()

    def test_build_with_collector_off_collects_nothing(self, collector_on):
        world = ShardedWorld(WorldConfig(seed=31), partitions=4)
        gc.disable()
        try:
            assert _collections_during(lambda: world.populate(600)) == []
            assert _collections_during(world.start_all) == []
            assert not gc.isenabled()
        finally:
            gc.enable()

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_pause_restores_entry_state_when_body_raises(self, enabled, collector_on):
        @bulk_build()
        def failing_build() -> None:
            raise RuntimeError("build failed")

        if not enabled:
            gc.disable()
        try:
            with pytest.raises(RuntimeError), collector_paused():
                assert not gc.isenabled()
                raise RuntimeError("body failed")
            assert gc.isenabled() is enabled
            with pytest.raises(RuntimeError):
                failing_build()
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
