"""Assignment of NAT devices to nodes.

The paper deploys "70% of the nodes behind NAT devices, evenly split between
the four NAT types" to reflect the Casado-Freedman measurement study [4].
The harness draws that assignment (:func:`repro.harness.world.nat_plan`);
:class:`NatTopology` places each node behind the type it is given and keeps
the endpoint-ownership tables the network fabric reads.
"""

from __future__ import annotations

from ..net.address import Endpoint, NodeId, NodeKind
from .device import NatDevice
from .types import NatType

__all__ = ["NatTopology", "NatAssignment"]

_NODE_PORT = 7000  # every node listens on one well-known local port


class NatAssignment:
    """Where one node sits in the topology."""

    __slots__ = ("node_id", "nat_type", "device", "local_endpoint")

    def __init__(
        self,
        node_id: NodeId,
        nat_type: NatType,
        device: NatDevice | None,
        local_endpoint: Endpoint,
    ) -> None:
        self.node_id = node_id
        self.nat_type = nat_type
        self.device = device
        self.local_endpoint = local_endpoint

    @property
    def kind(self) -> NodeKind:
        return NodeKind.NATTED if self.nat_type.is_natted else NodeKind.PUBLIC

    @property
    def reachable_host(self) -> str:
        """The host other nodes address: the NAT device's, else our own."""
        device = self.device
        return device.public_host if device is not None else self.local_endpoint.host


class NatTopology:
    """Creates and tracks per-node NAT assignments.

    Each natted node gets its own emulated device (matching how SPLAY's
    emulation attaches a NAT instance per natted process).  The topology
    keeps the tables the fabric's send path reads to translate a sender's
    source endpoint and to find (and filter through) a destination's owner.
    """

    def __init__(self) -> None:
        self._assignments: dict[NodeId, NatAssignment] = {}
        # Struct-of-arrays mirror of the assignment table, indexed directly
        # by node id (ids are dense: the World allocates them 1, 2, 3, ...).
        # The fabric's per-send path resolves a sender through two list
        # indexes instead of a dict probe + two attribute loads, and the
        # Network.send closure binds these lists once — their identity must
        # never change (grown by extend, entries nulled on removal).
        self._local: list[Endpoint | None] = []
        self._device: list[NatDevice | None] = []
        # Reachable host -> (owner node, fronting device or None for public
        # endpoints): one probe answers both "who owns it" and "how is it
        # filtered", where the fabric previously probed public and NAT owner
        # tables separately and re-fetched the assignment for the device.
        self._owner: dict[str, tuple[NodeId, NatDevice | None]] = {}

    # ------------------------------------------------------------------
    # population
    # ------------------------------------------------------------------
    def add_node(self, node_id: NodeId, nat_type: NatType) -> NatAssignment:
        """Register a node behind ``nat_type``.

        Natted nodes receive a private endpoint and a dedicated device; public
        nodes receive a globally reachable endpoint.
        """
        if node_id in self._assignments:
            raise ValueError(f"node {node_id} already registered")
        if node_id < 0:
            raise ValueError(f"node ids must be non-negative, got {node_id}")
        if nat_type.is_natted:
            device = NatDevice(nat_id=node_id, nat_type=nat_type)
            local = Endpoint(f"priv-{node_id}", _NODE_PORT)
        else:
            device = None
            local = Endpoint(f"pub-{node_id}", _NODE_PORT)
        assignment = NatAssignment(node_id, nat_type, device, local)
        self._assignments[node_id] = assignment
        self._owner[assignment.reachable_host] = (node_id, device)
        locals_, devices = self._local, self._device
        if node_id >= len(locals_):
            pad = node_id + 1 - len(locals_)
            locals_.extend([None] * pad)
            devices.extend([None] * pad)
        locals_[node_id] = local
        devices[node_id] = device
        return assignment

    def remove_node(self, node_id: NodeId) -> None:
        """Forget a departed node (its NAT state vanishes with it)."""
        assignment = self._assignments.pop(node_id, None)
        if assignment is None:
            return
        self._owner.pop(assignment.reachable_host, None)
        self._local[node_id] = None
        self._device[node_id] = None

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def assignment(self, node_id: NodeId) -> NatAssignment:
        return self._assignments[node_id]

    def knows(self, node_id: NodeId) -> bool:
        return node_id in self._assignments

    def kind(self, node_id: NodeId) -> NodeKind:
        return self._assignments[node_id].kind

    def public_endpoint(self, node_id: NodeId) -> Endpoint:
        """The directly reachable endpoint of a P-node (error for N-nodes)."""
        assignment = self._assignments[node_id]
        if assignment.kind is not NodeKind.PUBLIC:
            raise ValueError(f"node {node_id} is natted and has no public endpoint")
        return assignment.local_endpoint
