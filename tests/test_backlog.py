"""Unit tests for the connection backlog (CB) mechanics.

The integration suite covers the CB in a running world; these tests pin
the FIFO/eviction/invariant logic in isolation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness import World, WorldConfig
from repro.nat.traversal import NodeDescriptor
from repro.nat.types import NatType
from repro.net.address import Endpoint, NodeKind


def descriptor(node_id: int, public: bool) -> NodeDescriptor:
    if public:
        return NodeDescriptor(
            node_id=node_id, kind=NodeKind.PUBLIC, nat_type=NatType.OPEN,
            public_endpoint=Endpoint(f"pub-{node_id}", 7000),
        )
    return NodeDescriptor(
        node_id=node_id, kind=NodeKind.NATTED,
        nat_type=NatType.RESTRICTED_CONE, route=(1,),
    )


@pytest.fixture()
def backlog():
    world = World(WorldConfig(seed=401))
    node = world.add_node(NatType.OPEN)
    world.network.attach(node.node_id, node._on_fabric)
    return world, node.backlog, node


def key_for(world):
    return world.provider.generate_keypair().public


class TestFifo:
    def test_insert_and_order(self, backlog):
        world, cb, _node = backlog
        key = key_for(world)
        cb.insert(descriptor(10, public=False), key)
        cb.insert(descriptor(11, public=False), key)
        assert [e.node_id for e in cb.entries()][:2] == [11, 10]

    def test_reinsert_moves_to_head(self, backlog):
        world, cb, _node = backlog
        key = key_for(world)
        cb.insert(descriptor(10, public=False), key)
        cb.insert(descriptor(11, public=False), key)
        cb.insert(descriptor(10, public=False), key)
        assert cb.entries()[0].node_id == 10
        assert len(cb) == 2

    def test_capacity_eviction_at_tail(self, backlog):
        world, cb, _node = backlog
        key = key_for(world)
        for i in range(cb.capacity + 5):
            cb.insert(descriptor(100 + i, public=(i % 3 == 0)), key)
        assert len(cb) <= cb.capacity
        assert 100 not in cb  # the first insert fell off the tail

    def test_self_never_inserted(self, backlog):
        world, cb, node = backlog
        cb.insert(descriptor(node.node_id, public=True), key_for(world))
        assert node.node_id not in cb

    def test_remove(self, backlog):
        world, cb, _node = backlog
        cb.insert(descriptor(10, public=False), key_for(world))
        cb.remove(10)
        assert 10 not in cb
        cb.remove(999)  # unknown: no-op

    def test_capacity_default_is_twice_view_size(self, backlog):
        _world, cb, node = backlog
        assert cb.capacity == 2 * node.pss.config.view_size

    def test_capacity_must_fit_pi(self):
        world = World(WorldConfig(seed=402))
        node = world.add_node(NatType.OPEN)
        from repro.core.backlog import ConnectionBacklog
        with pytest.raises(ValueError):
            ConnectionBacklog(
                node.node_id, node.cm, node.pss,
                world.registry.stream("x"), pi=5, capacity=3,
            )


class TestInvariantMaintenance:
    def test_probes_issued_when_below_pi(self, backlog):
        world, cb, _node = backlog
        # Put P-nodes in the PSS view so the probe has candidates.
        from repro.pss.view import ViewEntry
        publics = []
        for i in range(3):
            peer = world.add_node(NatType.OPEN)
            world.network.attach(peer.node_id, peer._on_fabric)
            publics.append(ViewEntry(descriptor=peer.descriptor(), age=0))
        _node = backlog[2]
        _node.pss.view.replace_all(publics)
        # Trigger maintenance with a natted insertion.
        cb.insert(descriptor(10, public=False), key_for(world))
        assert cb.stats_probes_sent >= 1
        world.run(10.0)
        # Probe acks arrived: the CB now holds the P-nodes with their keys.
        assert cb.count_public() >= min(3, cb.pi)

    def test_no_probe_when_invariant_holds(self, backlog):
        world, cb, _node = backlog
        key = key_for(world)
        for i in range(cb.pi):
            cb.insert(descriptor(200 + i, public=True), key)
        before = cb.stats_probes_sent
        cb.insert(descriptor(300, public=False), key)
        assert cb.stats_probes_sent == before

    def test_gateways_are_freshest_publics(self, backlog):
        world, cb, _node = backlog
        key = key_for(world)
        for i in range(6):
            cb.insert(descriptor(200 + i, public=True), key)
        gateways = cb.gateways_for_self()
        assert len(gateways) == cb.pi
        assert [g.node_id for g in gateways] == [205, 204, 203]

    def test_first_mix_candidates_exclusion(self, backlog):
        world, cb, _node = backlog
        key = key_for(world)
        cb.insert(descriptor(10, public=False), key)
        cb.insert(descriptor(11, public=True), key)
        candidates = cb.first_mix_candidates(exclude={10})
        assert [e.node_id for e in candidates] == [11]


_ID_SPAN = 60  # more ids than the default capacity: inserts evict the tail
_BACKLOG_OPS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "remove", "session_evicted"]),
        st.integers(10, 10 + _ID_SPAN),
        st.booleans(),
    ),
    max_size=120,
)


class TestGatewayMemo:
    """``gateways_for_self`` is derived once per change of the entries."""

    @settings(max_examples=40, deadline=None)
    @given(ops=_BACKLOG_OPS)
    def test_memo_matches_a_fresh_derivation_after_every_step(self, ops):
        world = World(WorldConfig(seed=401))
        node = world.add_node(NatType.OPEN)
        cb = node.backlog
        key = key_for(world)
        for op, node_id, public in ops:
            if op == "insert":
                cb.insert(descriptor(node_id, public), key)
            elif op == "remove":
                cb.remove(node_id)
            else:
                cb.on_session_evicted(node_id)
            fresh = tuple(cb.public_entries()[: cb.pi])
            memo = cb.gateways_for_self()
            assert len(memo) == len(fresh)
            assert all(a is b for a, b in zip(memo, fresh))
