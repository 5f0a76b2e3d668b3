"""Unit tests for the Cyclon-style shuffle merge and route compression.

These pin down the exchange mechanics that keep the overlay's in-degree
balanced: partner removal on selection, one self-placement per exchange,
sent-entry replacement, freshest-wins duplicate handling, the Π floor, and
session-based route compression.
"""

import pytest

from repro.harness import World, WorldConfig
from repro.nat.traversal import NodeDescriptor
from repro.nat.types import NatType
from repro.net.address import Endpoint, NodeKind
from repro.pss.gossip import SHUFFLE_SIZE
from repro.pss.view import ViewEntry


def natted_descriptor(node_id: int, route=(999,)) -> NodeDescriptor:
    return NodeDescriptor(
        node_id=node_id, kind=NodeKind.NATTED,
        nat_type=NatType.FULL_CONE, route=tuple(route),
    )


def public_descriptor(node_id: int) -> NodeDescriptor:
    return NodeDescriptor(
        node_id=node_id, kind=NodeKind.PUBLIC, nat_type=NatType.OPEN,
        public_endpoint=Endpoint(f"pub-{node_id}", 7000),
    )


@pytest.fixture()
def pss():
    """An isolated PSS instance on a tiny world (no gossip running)."""
    world = World(WorldConfig(seed=301))
    node = world.add_node(NatType.OPEN)
    world.network.attach(node.node_id, node._on_fabric)
    return world, node.pss


class TestMerge:
    def test_sender_always_inserted(self, pss):
        _world, service = pss
        sender = public_descriptor(500)
        service._merge([], sender, sent=[])
        assert 500 in service.view

    def test_duplicate_keeps_freshest(self, pss):
        _world, service = pss
        stale = ViewEntry(descriptor=natted_descriptor(7), age=9)
        service.view.replace_all([stale])
        fresh = ViewEntry(descriptor=natted_descriptor(7, route=(3, 4)), age=1)
        service._merge([fresh], public_descriptor(500), sent=[])
        assert service.view.get(7).age == 1
        assert service.view.get(7).descriptor.route == (3, 4)

    def test_duplicate_never_downgrades(self, pss):
        _world, service = pss
        fresh = ViewEntry(descriptor=natted_descriptor(7), age=1)
        service.view.replace_all([fresh])
        stale = ViewEntry(descriptor=natted_descriptor(7), age=9)
        service._merge([stale], public_descriptor(500), sent=[])
        assert service.view.get(7).age == 1

    def test_self_entries_discarded(self, pss):
        _world, service = pss
        me = ViewEntry(
            descriptor=public_descriptor(service.node_id), age=0
        )
        service._merge([me], public_descriptor(500), sent=[])
        assert service.node_id not in service.view

    def test_sent_entries_replaced_when_full(self, pss):
        _world, service = pss
        capacity = service.view.capacity
        entries = [
            ViewEntry(descriptor=natted_descriptor(100 + i), age=3)
            for i in range(capacity)
        ]
        service.view.replace_all(entries)
        sent = [e.node_id for e in entries[:2]]
        incoming = [
            ViewEntry(descriptor=natted_descriptor(200 + i), age=5)
            for i in range(2)
        ]
        service._merge(incoming, public_descriptor(500), sent=sent)
        # Both shipped entries gave way: one to the (fresh) sender, one to
        # the first incoming entry; the rest of the view is untouched.
        assert 100 not in service.view and 101 not in service.view
        assert 500 in service.view and 200 in service.view
        assert all(100 + i in service.view for i in range(2, capacity))
        assert len(service.view) == capacity

    def test_healing_replaces_oldest_when_nothing_sent(self, pss):
        _world, service = pss
        capacity = service.view.capacity
        entries = [
            ViewEntry(descriptor=natted_descriptor(100 + i), age=i)
            for i in range(capacity)
        ]
        service.view.replace_all(entries)
        young = ViewEntry(descriptor=natted_descriptor(300), age=0)
        service._merge([young], public_descriptor(500), sent=[])
        assert 300 in service.view
        # The oldest entries were the victims.
        assert 100 + capacity - 1 not in service.view

    def test_older_incoming_does_not_displace_younger(self, pss):
        _world, service = pss
        capacity = service.view.capacity
        entries = [
            ViewEntry(descriptor=natted_descriptor(100 + i), age=1)
            for i in range(capacity - 2)
        ]
        service.view.replace_all(entries)
        # With free slots, even an ancient entry is welcome.
        ancient = ViewEntry(descriptor=natted_descriptor(300), age=50)
        service._merge([ancient], public_descriptor(500), sent=[])
        assert 300 in service.view
        # Once full, an equally ancient arrival cannot displace anything
        # younger — and the fresh sender replaces the healer's oldest (300).
        another = ViewEntry(descriptor=natted_descriptor(301), age=50)
        service._merge([another], public_descriptor(501), sent=[])
        assert 301 not in service.view
        assert 300 not in service.view
        assert 501 in service.view

    def test_view_never_exceeds_capacity(self, pss):
        _world, service = pss
        incoming = [
            ViewEntry(descriptor=natted_descriptor(400 + i), age=i % 4)
            for i in range(30)
        ]
        service._merge(incoming, public_descriptor(500), sent=[])
        assert len(service.view) <= service.view.capacity

    def test_public_floor_enforced(self, pss):
        _world, service = pss
        pi = service.pi
        assert pi >= 1
        capacity = service.view.capacity
        service.view.replace_all([
            ViewEntry(descriptor=natted_descriptor(100 + i), age=0)
            for i in range(capacity)
        ])
        publics = [
            ViewEntry(descriptor=public_descriptor(600 + i), age=8)
            for i in range(pi)
        ]
        # Old P-nodes arrive: pure healing would reject them, the floor
        # must force them in.
        service._merge(publics, natted_descriptor(500), sent=[])
        assert service.view.count_public() >= pi


class TestRouteCompression:
    def test_compressed_when_session_exists(self, pss):
        world, service = pss
        peer = world.add_node(NatType.FULL_CONE)
        # Fabricate an open session to the peer.
        service.cm._install_session(
            peer.node_id, Endpoint("nat-%d" % peer.node_id, 40000), relay=None
        )
        entry = ViewEntry(
            descriptor=natted_descriptor(peer.node_id, route=(1, 2, 3)), age=2
        )
        compressed = service._compress_route(entry)
        assert compressed.descriptor.route == ()
        assert compressed.age == 2

    def test_not_compressed_without_session(self, pss):
        _world, service = pss
        entry = ViewEntry(descriptor=natted_descriptor(888, route=(1, 2)), age=2)
        assert service._compress_route(entry).descriptor.route == (1, 2)

    def test_public_entries_untouched(self, pss):
        _world, service = pss
        entry = ViewEntry(descriptor=public_descriptor(42), age=1)
        assert service._compress_route(entry) is entry


def sent_bodies(service, monkeypatch) -> list[dict]:
    """Bodies the service hands its sessions, captured instead of sent."""
    bodies: list[dict] = []

    def send_via_session(peer, kind, body, size, layer) -> bool:
        bodies.append(body)
        return True

    monkeypatch.setattr(service.cm, "send_via_session", send_via_session)
    return bodies


class TestShippedBuffer:
    def test_active_buffer_contains_self_first(self, pss, monkeypatch):
        _world, service = pss
        service.view.replace_all(
            [ViewEntry(descriptor=natted_descriptor(100 + i), age=0) for i in range(6)]
        )
        bodies = sent_bodies(service, monkeypatch)
        service._send_request(500)
        shipped = bodies[0]["buffer"]
        assert shipped[0].node_id == service.node_id
        assert shipped[0].age == 0
        assert len(shipped) <= SHUFFLE_SIZE

    def test_passive_buffer_excludes_self(self, pss, monkeypatch):
        _world, service = pss
        service.view.replace_all(
            [ViewEntry(descriptor=natted_descriptor(100 + i), age=0) for i in range(6)]
        )
        bodies = sent_bodies(service, monkeypatch)
        service._on_request(500, {"sender": public_descriptor(500), "buffer": []})
        shipped = bodies[0]["buffer"]
        assert shipped
        assert all(e.node_id != service.node_id for e in shipped)

    def test_shipped_routes_extended(self, pss):
        _world, service = pss
        service.view.replace_all(
            [ViewEntry(descriptor=natted_descriptor(100), age=0)]
        )
        sample = service.view.sample(service._rng, SHUFFLE_SIZE)
        shipped = service.view.shipped(sample, service.node_id)
        assert shipped[0].descriptor.route[0] == service.node_id
