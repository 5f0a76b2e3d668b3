"""The premise of the collector policy: steady state makes no cyclic garbage.

``Simulator.run`` and ``ShardedWorld.run_windows`` switch the cyclic
collector off while events fire.  That costs nothing only while everything
the message path allocates is freed by reference count; one closure that
captures the object holding it (a timer callback closing over its owner)
is enough to leak a descriptor tree per exchange.  Each case warms a world
up, runs a slice with the collector off and counts what only the collector
could free — including what the sharded barrier's own young collections
pick up inside the slice.
"""

from __future__ import annotations

import gc

import pytest

from repro.core.node import WhisperConfig
from repro.core.ppss import MemberState
from repro.harness import World, WorldConfig
from repro.harness.sharded import ShardedWorld


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
