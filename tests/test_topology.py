"""Unit tests for NAT topology assignment and endpoint resolution.

Resolution is exercised through a :class:`Network`: the fabric's send path
is what translates a sender's source endpoint and filters a destination
through its owner's NAT device.
"""

import pytest

from repro.harness.world import World, WorldConfig
from repro.nat.topology import NatTopology
from repro.nat.types import NatType
from repro.net.address import Endpoint, NodeKind
from repro.net.latency import FixedLatencyModel
from repro.net.network import Network
from repro.sim.engine import Simulator


@pytest.fixture()
def topology():
    return NatTopology()


class Fabric:
    """``topology`` behind a fabric; every attached node keeps an inbox."""

    def __init__(self, topology: NatTopology) -> None:
        self.sim = Simulator()
        self.network = Network(self.sim, topology, FixedLatencyModel(0.01))
        self.topology = topology
        self.inbox: dict[int, list] = {}

    def add(self, node_id: int, nat_type: NatType) -> None:
        self.topology.add_node(node_id, nat_type)
        self.network.attach(node_id, self.inbox.setdefault(node_id, []).append)

    def send(self, src: int, dst: Endpoint):
        """Send one message; the delivered message, or None if filtered."""
        filtered = self.network.stats.filtered
        self.network.send(src, dst, "test", None, 10)
        self.sim.run(until=self.sim.now + 1.0)
        if self.network.stats.filtered > filtered:
            return None
        return next(m for box in self.inbox.values() for m in box if m.dst == dst)


@pytest.fixture()
def fabric(topology):
    return Fabric(topology)


REMOTE = Endpoint("pub-9", 7000)


class TestAssignment:
    def test_forced_public(self, topology):
        assignment = topology.add_node(1, NatType.OPEN)
        assert assignment.kind is NodeKind.PUBLIC
        assert assignment.device is None
        assert assignment.local_endpoint.host == "pub-1"

    def test_forced_natted(self, topology):
        assignment = topology.add_node(2, NatType.SYMMETRIC)
        assert assignment.kind is NodeKind.NATTED
        assert assignment.device is not None
        assert assignment.local_endpoint.host == "priv-2"

    def test_duplicate_rejected(self, topology):
        topology.add_node(1, NatType.OPEN)
        with pytest.raises(ValueError):
            topology.add_node(1, NatType.OPEN)

    def test_random_draw_respects_fraction(self):
        world = World(WorldConfig(seed=5, natted_fraction=0.7))
        for _ in range(400):
            world.add_node()  # no type given: the world draws one
        natted = sum(
            1 for i in world.nodes
            if world.topology.kind(i) is NodeKind.NATTED
        )
        assert 230 < natted < 330  # ~70% in expectation

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError, match="natted_fraction"):
            World(WorldConfig(natted_fraction=1.5))
        with pytest.raises(ValueError, match="natted_fraction"):
            World(WorldConfig(natted_fraction=-0.1))

    def test_public_endpoint_accessor(self, topology):
        topology.add_node(1, NatType.OPEN)
        topology.add_node(2, NatType.FULL_CONE)
        assert topology.public_endpoint(1).host == "pub-1"
        with pytest.raises(ValueError):
            topology.public_endpoint(2)

    def test_remove_node_clears_state(self, fabric):
        topology = fabric.topology
        fabric.add(9, NatType.OPEN)
        topology.add_node(1, NatType.OPEN)
        topology.add_node(2, NatType.FULL_CONE)
        topology.remove_node(1)
        topology.remove_node(2)
        assert not topology.knows(1)
        assert fabric.send(9, Endpoint("pub-1", 7000)) is None
        topology.remove_node(42)  # unknown: no-op


class TestResolution:
    def test_public_outbound_untranslated(self, fabric):
        fabric.add(1, NatType.OPEN)
        fabric.add(9, NatType.OPEN)
        assert fabric.send(1, REMOTE).src == Endpoint("pub-1", 7000)

    def test_natted_outbound_translated(self, fabric):
        fabric.add(2, NatType.FULL_CONE)
        fabric.add(9, NatType.OPEN)
        assert fabric.send(2, REMOTE).src.host == "nat-2"

    def test_inbound_to_public(self, fabric):
        fabric.add(1, NatType.OPEN)
        fabric.add(9, NatType.OPEN)
        fabric.send(9, Endpoint("pub-1", 7000))
        assert [m.src for m in fabric.inbox[1]] == [REMOTE]

    def test_inbound_through_nat_requires_mapping(self, fabric):
        fabric.add(2, NatType.FULL_CONE)
        fabric.add(9, NatType.OPEN)
        # Nothing sent out yet: any inbound guess is filtered.
        assert fabric.send(9, Endpoint("nat-2", 40000)) is None
        visible = fabric.send(2, REMOTE).src
        assert fabric.send(9, visible) is not None
        assert [m.dst for m in fabric.inbox[2]] == [visible]

    def test_end_to_end_between_two_nats(self, fabric):
        fabric.add(1, NatType.FULL_CONE)
        fabric.add(2, NatType.FULL_CONE)
        fabric.add(9, NatType.OPEN)
        assert fabric.topology.assignment(1).device is not (
            fabric.topology.assignment(2).device
        )
        # 1 sends to 2's (pre-opened) external endpoint.
        b_external = fabric.send(2, REMOTE).src
        delivered = fabric.send(1, b_external)
        assert delivered.src.host == "nat-1"
        # Full cone: 1's packet is admitted at 2.
        assert fabric.inbox[2] == [delivered]

    def test_unknown_destination_dropped(self, fabric):
        fabric.add(9, NatType.OPEN)
        assert fabric.send(9, Endpoint("nat-404", 40000)) is None
