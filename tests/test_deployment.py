"""The deployment core: the simulator and the live runtime build a node alike.

``World`` and ``LiveRuntime`` are one core over two (clock, fabric) pairs,
so the same seed and the same ids give the same keys and node RNG streams,
a restarted live node re-seeds from its own fork, and a live run's CPU
accountant writes the same ``crypto.*`` telemetry a simulated one does.
"""

from repro.core.ppss import MemberState
from repro.harness.world import World, WorldConfig
from repro.nat.types import NatType
from repro.runtime import LiveRuntime

from .test_live_runtime import fast_config

IDS = (3, 1, 7, 2)


def test_sim_and_live_nodes_share_keys_and_streams():
    world = World(WorldConfig(seed=19, provider="sim"))
    rt = LiveRuntime(seed=19, provider="sim")
    try:
        for node_id in IDS:
            world.add_node(NatType.OPEN, node_id=node_id)
            rt.add_node(node_id)
        for node_id in IDS:
            sim_node, live_node = world.nodes[node_id], rt.nodes[node_id]
            assert (
                sim_node.keypair.public.fingerprint
                == live_node.keypair.public.fingerprint
            )
            assert sim_node._rng.random() == live_node._rng.random()
    finally:
        rt.close()


def test_restarted_live_node_draws_from_its_restart_fork():
    rt = LiveRuntime(seed=4, provider="sim", whisper=fast_config())
    forked = []
    fork = rt.registry.fork

    def recording_fork(name):
        forked.append((name, fork(name)))
        return forked[-1][1]

    try:
        for node_id in range(3):
            rt.add_node(node_id)
        rt.start([rt.descriptor(0)])
        rt.registry.fork = recording_fork
        for restart in (1, 2):
            rt.crash_node(2)
            node = rt.restart_node(2)
            name, registry = forked[-1]
            assert name == f"node-2-r{restart}"
            assert node._rng is registry.stream("main")
        assert [name for name, _ in forked] == ["node-2-r1", "node-2-r2"]
    finally:
        rt.close()


def test_live_run_exports_crypto_counters():
    rt = LiveRuntime(
        seed=9, provider="sim", whisper=fast_config(), telemetry_enabled=True
    )
    try:
        for node_id in (1, 2, 3, 4):
            rt.add_node(node_id)
        rt.start([rt.descriptor(1)])
        assert rt.run_until(
            lambda: all(len(n.backlog.entries()) >= 2 for n in rt.nodes.values()),
            timeout=20,
        ), "connection backlogs never filled"
        leader = rt.nodes[1].create_group("crypto-counters")
        joiner = rt.nodes[3].join_group(leader.invite())
        # The join request travels as an onion.
        assert rt.run_until(
            lambda: joiner.state is MemberState.MEMBER, timeout=30
        ), "onion-routed group join failed"
        metrics = rt.telemetry.metrics
        assert metrics.aggregate("crypto.ops")["sum"] >= 1
        assert metrics.aggregate("crypto.ms")["sum"] > 0
        exported = rt.telemetry.export_jsonl()
        assert '"crypto.ms"' in exported and '"crypto.ops"' in exported
    finally:
        rt.close()
