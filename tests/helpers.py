"""Shared test fixtures: a tiny hand-wired node harness over the fabric.

The full WHISPER stack (``repro.core.node``) assembles many layers; tests of
the lower substrates use this lighter harness instead, wiring only a
:class:`ConnectionManager` per node.
"""

from __future__ import annotations

from repro.nat.topology import NatTopology
from repro.nat.traversal import ConnectionManager, TraversalPolicy
from repro.nat.types import NatType
from repro.net.latency import FixedLatencyModel, LatencyModel
from repro.net.message import Message
from repro.net.network import Network
from repro.sim.engine import Simulator

__all__ = ["MiniNode", "MiniWorld"]


class MiniNode:
    """A node that is just a ConnectionManager plus an application inbox."""

    def __init__(
        self,
        node_id: int,
        nat_type: NatType,
        sim: Simulator,
        network: Network,
        policy: TraversalPolicy | None = None,
    ) -> None:
        self.node_id = node_id
        network.topology.add_node(node_id, nat_type)
        self.cm = ConnectionManager(
            node_id, nat_type, sim, network, policy=policy,
            deliver_upcall=self._on_app_payload,
        )
        self.inbox: list[tuple[int, str, object]] = []
        network.attach(node_id, self._on_fabric_message)

    def _on_fabric_message(self, message: Message) -> None:
        if message.kind.startswith("nat."):
            self.cm.handle_message(message)

    def _on_app_payload(self, peer: int, kind: str, payload: object) -> None:
        self.inbox.append((peer, kind, payload))


class MiniWorld:
    """A simulator + fabric + a handful of MiniNodes."""

    def __init__(
        self,
        latency: LatencyModel | None = None,
        policy: TraversalPolicy | None = None,
    ) -> None:
        self.sim = Simulator()
        self.topology = NatTopology()
        self.network = Network(
            self.sim,
            self.topology,
            latency if latency is not None else FixedLatencyModel(0.01),
        )
        self.policy = policy
        self.nodes: dict[int, MiniNode] = {}

    def add(self, node_id: int, nat_type: NatType) -> MiniNode:
        node = MiniNode(node_id, nat_type, self.sim, self.network, policy=self.policy)
        self.nodes[node_id] = node
        return node

    def run(self, duration: float) -> None:
        self.sim.run(until=self.sim.now + duration)
