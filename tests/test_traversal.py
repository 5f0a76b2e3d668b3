"""Integration tests for NAT traversal: sessions, punching, relaying."""

import pytest

from repro.nat.traversal import NodeDescriptor
from repro.nat.types import EMULATED_TYPES, NatType
from repro.net.address import NodeKind

from .helpers import MiniWorld


def sent_ok(results: list) -> None:
    results.append("ok")


class TestDirectSessions:
    def test_public_to_public(self):
        world = MiniWorld()
        a = world.add(1, NatType.OPEN)
        b = world.add(2, NatType.OPEN)
        ready = []
        a.cm.ensure_session(b.cm.descriptor(), lambda: ready.append(1), pytest.fail)
        world.run(1.0)
        assert ready == [1]
        assert a.cm.send_via_session(2, "app.msg", {"x": 42}, 100, "app")
        world.run(1.0)
        assert b.inbox == [(1, "app.msg", {"x": 42})]

    def test_natted_to_public(self):
        world = MiniWorld()
        a = world.add(1, NatType.PORT_RESTRICTED_CONE)
        b = world.add(2, NatType.OPEN)
        ready = []
        a.cm.ensure_session(b.cm.descriptor(), lambda: ready.append(1), pytest.fail)
        world.run(1.0)
        assert ready == [1]
        a.cm.send_via_session(2, "app.msg", "hello", 50, "app")
        world.run(1.0)
        assert b.inbox == [(1, "app.msg", "hello")]

    def test_reverse_session_after_contact(self):
        """B can reply to a natted A through the hole A's packet opened."""
        world = MiniWorld()
        a = world.add(1, NatType.PORT_RESTRICTED_CONE)
        b = world.add(2, NatType.OPEN)
        a.cm.ensure_session(b.cm.descriptor(), lambda: None, pytest.fail)
        world.run(1.0)
        a.cm.send_via_session(2, "app.req", "ping?", 50, "app")
        world.run(1.0)
        assert b.cm.has_session(1)
        assert b.cm.send_via_session(1, "app.resp", "pong!", 50, "app")
        world.run(1.0)
        assert (2, "app.resp", "pong!") in a.inbox

    def test_session_to_self_fails(self):
        world = MiniWorld()
        a = world.add(1, NatType.OPEN)
        errors = []
        a.cm.ensure_session(a.cm.descriptor(), pytest.fail, errors.append)
        world.run(1.0)
        assert errors

    def test_existing_session_ready_immediately(self):
        world = MiniWorld()
        a = world.add(1, NatType.OPEN)
        b = world.add(2, NatType.OPEN)
        a.cm.ensure_session(b.cm.descriptor(), lambda: None, pytest.fail)
        world.run(1.0)
        ready = []
        a.cm.ensure_session(b.cm.descriptor(), lambda: ready.append(1), pytest.fail)
        world.run(0.1)
        assert ready == [1]


def setup_rendezvous(world: MiniWorld, natted_ids: list[int], rv_id: int) -> None:
    """Natted nodes contact the public RV: sessions + reflexive discovery."""
    rv = world.nodes[rv_id]
    for node_id in natted_ids:
        node = world.nodes[node_id]
        node.cm.ensure_session(rv.cm.descriptor(), lambda: None, pytest.fail)
        node.cm.learn_reflexive_via(rv.cm.descriptor())
    world.run(2.0)


class TestHolePunching:
    def test_cone_to_cone_punches_direct(self):
        world = MiniWorld()
        a = world.add(1, NatType.FULL_CONE)
        b = world.add(2, NatType.RESTRICTED_CONE)
        rv = world.add(3, NatType.OPEN)
        setup_rendezvous(world, [1, 2], 3)
        descriptor_b = NodeDescriptor(
            node_id=2, kind=NodeKind.NATTED, nat_type=NatType.RESTRICTED_CONE,
            route=(3,),
        )
        ready = []
        a.cm.ensure_session(descriptor_b, lambda: ready.append(1), pytest.fail)
        world.run(3.0)
        assert ready == [1]
        session = a.cm.session(2)
        assert session is not None and session.relay_chain is None
        a.cm.send_via_session(2, "app.msg", "direct!", 64, "app")
        world.run(1.0)
        assert (1, "app.msg", "direct!") in b.inbox
        # The RV never forwarded application payloads.
        assert rv.cm.stats_relayed == 0

    def test_port_restricted_pair_punches(self):
        world = MiniWorld()
        a = world.add(1, NatType.PORT_RESTRICTED_CONE)
        b = world.add(2, NatType.PORT_RESTRICTED_CONE)
        world.add(3, NatType.OPEN)
        setup_rendezvous(world, [1, 2], 3)
        descriptor_b = NodeDescriptor(
            node_id=2, kind=NodeKind.NATTED,
            nat_type=NatType.PORT_RESTRICTED_CONE, route=(3,),
        )
        ready = []
        a.cm.ensure_session(descriptor_b, lambda: ready.append(1), pytest.fail)
        world.run(3.0)
        assert ready == [1]
        a.cm.send_via_session(2, "app.msg", "punched", 64, "app")
        world.run(1.0)
        assert (1, "app.msg", "punched") in b.inbox


class TestTraversalDecision:
    """Every requester type against every natted target, through an RV:
    "sym NAT devices require the use of relay nodes by the Nylon layer",
    and every other pair punches a direct session."""

    @pytest.mark.parametrize("target_type", EMULATED_TYPES, ids=lambda t: t.value)
    @pytest.mark.parametrize(
        "requester_type", (NatType.OPEN, *EMULATED_TYPES), ids=lambda t: t.value
    )
    def test_direct_iff_neither_side_is_symmetric(self, requester_type, target_type):
        world = MiniWorld()
        a = world.add(1, requester_type)
        b = world.add(2, target_type)
        world.add(3, NatType.OPEN)
        setup_rendezvous(world, [1, 2], 3)
        descriptor_b = NodeDescriptor(
            node_id=2, kind=NodeKind.NATTED, nat_type=target_type, route=(3,),
        )
        ready = []
        a.cm.ensure_session(descriptor_b, lambda: ready.append(1), pytest.fail)
        world.run(3.0)
        assert ready == [1]
        session = a.cm.session(2)
        assert session is not None
        assert (session.relay_chain is not None) == (
            requester_type.is_symmetric or target_type.is_symmetric
        )
        assert a.cm.send_via_session(2, "app.req", "ping", 64, "app")
        world.run(1.0)
        assert (1, "app.req", "ping") in b.inbox
        assert b.cm.send_via_session(1, "app.resp", "pong", 64, "app")
        world.run(1.0)
        assert (2, "app.resp", "pong") in a.inbox


class TestRelaying:
    def test_symmetric_pair_relays(self):
        world = MiniWorld()
        a = world.add(1, NatType.SYMMETRIC)
        b = world.add(2, NatType.SYMMETRIC)
        rv = world.add(3, NatType.OPEN)
        setup_rendezvous(world, [1, 2], 3)
        descriptor_b = NodeDescriptor(
            node_id=2, kind=NodeKind.NATTED, nat_type=NatType.SYMMETRIC, route=(3,),
        )
        ready = []
        a.cm.ensure_session(descriptor_b, lambda: ready.append(1), pytest.fail)
        world.run(3.0)
        assert ready == [1]
        session = a.cm.session(2)
        assert session is not None and session.relay_chain is not None
        a.cm.send_via_session(2, "app.msg", "via relay", 64, "app")
        world.run(1.0)
        assert (1, "app.msg", "via relay") in b.inbox
        assert rv.cm.stats_relayed >= 1

    def test_relay_reply_path(self):
        """The target can reply through its relayed session."""
        world = MiniWorld()
        a = world.add(1, NatType.SYMMETRIC)
        b = world.add(2, NatType.SYMMETRIC)
        world.add(3, NatType.OPEN)
        setup_rendezvous(world, [1, 2], 3)
        descriptor_b = NodeDescriptor(
            node_id=2, kind=NodeKind.NATTED, nat_type=NatType.SYMMETRIC, route=(3,),
        )
        a.cm.ensure_session(descriptor_b, lambda: None, pytest.fail)
        world.run(3.0)
        a.cm.send_via_session(2, "app.req", "ping", 64, "app")
        world.run(1.0)
        assert b.cm.has_session(1)
        b.cm.send_via_session(1, "app.resp", "pong", 64, "app")
        world.run(1.0)
        assert (2, "app.resp", "pong") in a.inbox

    def test_paper_policy_relays_symmetric_even_vs_full_cone(self):
        """As in the paper, any symmetric endpoint means relay."""
        world = MiniWorld()
        a = world.add(1, NatType.FULL_CONE)
        world.add(2, NatType.SYMMETRIC)
        world.add(3, NatType.OPEN)
        setup_rendezvous(world, [1, 2], 3)
        descriptor_b = NodeDescriptor(
            node_id=2, kind=NodeKind.NATTED, nat_type=NatType.SYMMETRIC, route=(3,),
        )
        a.cm.ensure_session(descriptor_b, lambda: None, pytest.fail)
        world.run(3.0)
        session = a.cm.session(2)
        assert session is not None and session.relay_chain is not None


class TestFailures:
    def test_no_route_fails(self):
        world = MiniWorld()
        a = world.add(1, NatType.OPEN)
        world.add(2, NatType.SYMMETRIC)
        descriptor_b = NodeDescriptor(
            node_id=2, kind=NodeKind.NATTED, nat_type=NatType.SYMMETRIC, route=(),
        )
        errors = []
        a.cm.ensure_session(descriptor_b, pytest.fail, errors.append)
        world.run(1.0)
        assert errors

    def test_missing_first_hop_session_fails(self):
        world = MiniWorld()
        a = world.add(1, NatType.OPEN)
        world.add(2, NatType.SYMMETRIC)
        world.add(3, NatType.OPEN)
        descriptor_b = NodeDescriptor(
            node_id=2, kind=NodeKind.NATTED, nat_type=NatType.SYMMETRIC, route=(3,),
        )
        errors = []
        a.cm.ensure_session(descriptor_b, pytest.fail, errors.append)
        world.run(1.0)
        assert errors and "no session" in errors[0]

    def test_rv_without_target_session_reports_failure(self):
        world = MiniWorld()
        a = world.add(1, NatType.OPEN)
        world.add(2, NatType.SYMMETRIC)
        rv = world.add(3, NatType.OPEN)
        # A has a session with the RV, but the RV never met node 2.
        a.cm.ensure_session(rv.cm.descriptor(), lambda: None, pytest.fail)
        world.run(1.0)
        descriptor_b = NodeDescriptor(
            node_id=2, kind=NodeKind.NATTED, nat_type=NatType.SYMMETRIC, route=(3,),
        )
        errors = []
        a.cm.ensure_session(descriptor_b, pytest.fail, errors.append)
        world.run(6.0)
        assert errors and "lost" in errors[0]

    def test_departed_target_times_out(self):
        world = MiniWorld()
        a = world.add(1, NatType.FULL_CONE)
        b = world.add(2, NatType.FULL_CONE)
        world.add(3, NatType.OPEN)
        setup_rendezvous(world, [1, 2], 3)
        # Node 2 departs: fabric handler detached, NAT state dropped.
        world.network.detach(2)
        world.topology.remove_node(2)
        descriptor_b = NodeDescriptor(
            node_id=2, kind=NodeKind.NATTED, nat_type=NatType.FULL_CONE, route=(3,),
        )
        errors = []
        a.cm.ensure_session(descriptor_b, pytest.fail, errors.append)
        world.run(10.0)
        assert errors  # timeout

    def test_route_too_long_rejected(self):
        world = MiniWorld()
        a = world.add(1, NatType.OPEN)
        descriptor = NodeDescriptor(
            node_id=2, kind=NodeKind.NATTED, nat_type=NatType.FULL_CONE,
            route=tuple(range(10, 20)),
        )
        errors = []
        a.cm.ensure_session(descriptor, pytest.fail, errors.append)
        world.run(1.0)
        assert errors and "too long" in errors[0]


class TestDescriptor:
    def test_via_prepends_forwarder_for_natted(self):
        descriptor = NodeDescriptor(
            node_id=2, kind=NodeKind.NATTED, nat_type=NatType.FULL_CONE, route=(3,),
        )
        assert descriptor.via(7).route == (7, 3)

    def test_via_is_noop_for_public(self):
        descriptor = NodeDescriptor(
            node_id=2, kind=NodeKind.PUBLIC, nat_type=NatType.OPEN,
        )
        assert descriptor.via(7).route == ()

    def test_chain_of_two_rendezvous(self):
        """A -> R1 -> R2(final RV) -> B establishment works."""
        world = MiniWorld()
        a = world.add(1, NatType.FULL_CONE)
        b = world.add(2, NatType.FULL_CONE)
        r1 = world.add(3, NatType.OPEN)
        r2 = world.add(4, NatType.OPEN)
        # Sessions: A<->R1, R1<->R2, R2<->B.
        setup_rendezvous(world, [1], 3)
        setup_rendezvous(world, [2], 4)
        r1.cm.ensure_session(r2.cm.descriptor(), lambda: None, pytest.fail)
        world.run(2.0)
        descriptor_b = NodeDescriptor(
            node_id=2, kind=NodeKind.NATTED, nat_type=NatType.FULL_CONE,
            route=(3, 4),
        )
        ready = []
        a.cm.ensure_session(descriptor_b, lambda: ready.append(1), pytest.fail)
        world.run(4.0)
        assert ready == [1]
        a.cm.send_via_session(2, "app.msg", "chained", 64, "app")
        world.run(1.0)
        assert (1, "app.msg", "chained") in b.inbox
