"""WhisperNode: the full protocol stack of Fig. 1 assembled on one node.

Layering (bottom-up), with the dispatch glue between them:

- fabric messages (``nat.*``) -> :class:`ConnectionManager` (Nylon traversal)
- session payloads -> PSS gossip, CB probes, or WCL onions by kind
- WCL-delivered confidential contents -> the PPSS instance of the target
  group (each group is managed by a separate instance, so memberships are
  never disclosed across groups)
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..crypto.provider import CryptoProvider
from ..nat.traversal import ConnectionManager, NodeDescriptor, TraversalPolicy
from ..nat.types import NatType
from ..net.address import NodeId
from ..net.message import Message
from ..net.network import Network
from ..pss.gossip import PeerSamplingService, PssConfig
from ..sim.clock import Clock
from ..telemetry import NULL_TELEMETRY, Telemetry
from .backlog import ConnectionBacklog
from .group import Invitation
from .ppss import PpssConfig, PrivatePeerSamplingService
from .wcl import WhisperCommunicationLayer

__all__ = ["WhisperConfig", "WhisperNode"]


@dataclass(frozen=True)
class WhisperConfig:
    """Stack-wide knobs; defaults are the paper's experimental settings."""

    pi: int = 3
    pss: PssConfig = field(
        default_factory=lambda: PssConfig(exchange_keys=True)
    )
    ppss: PpssConfig = field(default_factory=PpssConfig)
    traversal: TraversalPolicy = field(default_factory=TraversalPolicy)
    # Circuit mode (amortized RSA): off by default — the paper's WCL is
    # per-message onions; circuits are the evaluated optimisation.
    circuit_mode: bool = False


class WhisperNode:
    """One participant: identity keypair, Nylon PSS, CB, WCL, private groups."""

    def __init__(
        self,
        node_id: NodeId,
        nat_type: NatType,
        sim: Clock,
        network: Network,
        provider: CryptoProvider,
        rng: random.Random,
        config: WhisperConfig | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.node_id = node_id
        self.nat_type = nat_type
        self._sim = sim
        self._network = network
        self.provider = provider
        self._rng = rng
        self.config = config if config is not None else WhisperConfig()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.keypair = provider.generate_keypair()
        self.cm = ConnectionManager(
            node_id, nat_type, sim, network,
            policy=self.config.traversal,
            deliver_upcall=self._from_session,
            telemetry=self.telemetry,
        )
        self.pss = PeerSamplingService(
            node_id, self.cm, sim, rng,
            config=self.config.pss,
            pi=self.config.pi,
            public_key=self.keypair.public,
            telemetry=self.telemetry,
        )
        self.backlog = ConnectionBacklog(
            node_id, self.cm, self.pss, rng, pi=self.config.pi
        )
        # Nodes the PSS failure detector gives up on make bad mixes.
        self.pss.add_failure_listener(self.backlog.remove)
        # ... and so do peers whose sessions the keepalive prober evicted.
        self.cm.add_evict_listener(self.backlog.on_session_evicted)
        self.wcl = WhisperCommunicationLayer(
            node_id, self.keypair, self.cm, self.backlog, provider, sim, rng,
            telemetry=self.telemetry,
        )
        self.wcl.set_receive_upcall(self._from_wcl)
        if self.config.circuit_mode:
            self.wcl.enable_circuits()
        self.groups: dict[str, PrivatePeerSamplingService] = {}
        self.unknown_group_messages = 0
        self.alive = False
        self.incarnation = 0  # restarts of this node id before this stack

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, introducers: list[NodeDescriptor]) -> None:
        """Attach to the network and bootstrap the system-wide PSS."""
        self._network.attach(self.node_id, self._on_fabric)
        self.pss.init(introducers)
        self.cm.start_keepalive()
        self.alive = True

    def stop(self) -> None:
        """Graceful local shutdown (protocol tasks stop, no goodbyes sent)."""
        self.alive = False
        self.cm.stop_keepalive()
        self.backlog.stop()
        self.pss.stop()
        for ppss in self.groups.values():
            ppss.leave()
        self._network.detach(self.node_id)

    def kill(self) -> None:
        """Abrupt failure (churn): vanish without stopping cleanly first."""
        self.stop()

    def descriptor(self) -> NodeDescriptor:
        return self.cm.descriptor()

    # ------------------------------------------------------------------
    # group API (Fig. 1: createGroup / joinGroup / getPeer / makePersistent)
    # ------------------------------------------------------------------
    def create_group(
        self, name: str, config: PpssConfig | None = None
    ) -> PrivatePeerSamplingService:
        """Found a private group; this node becomes its first leader."""
        if name in self.groups:
            raise ValueError(f"already a member of group {name!r}")
        ppss = self._new_ppss(name, config)
        ppss.create()
        self.groups[name] = ppss
        return ppss

    def join_group(
        self, invitation: Invitation, config: PpssConfig | None = None
    ) -> PrivatePeerSamplingService:
        """Redeem an invitation (asynchronously; see PPSS state)."""
        if invitation.group in self.groups:
            raise ValueError(f"already joining/member of {invitation.group!r}")
        ppss = self._new_ppss(invitation.group, config)
        ppss.join(invitation)
        self.groups[invitation.group] = ppss
        return ppss

    def group(self, name: str) -> PrivatePeerSamplingService:
        return self.groups[name]

    def leave_group(self, name: str) -> None:
        ppss = self.groups.pop(name, None)
        if ppss is not None:
            ppss.leave()

    def _new_ppss(
        self, name: str, config: PpssConfig | None
    ) -> PrivatePeerSamplingService:
        return PrivatePeerSamplingService(
            group=name,
            node_id=self.node_id,
            wcl=self.wcl,
            provider=self.provider,
            sim=self._sim,
            rng=self._rng,
            config=config if config is not None else self.config.ppss,
            telemetry=self.telemetry,
        )

    # ------------------------------------------------------------------
    # dispatch plumbing
    # ------------------------------------------------------------------
    def _on_fabric(self, message: Message) -> None:
        if message.kind.startswith("nat."):
            self.cm.handle_message(message)

    def _from_session(self, peer: NodeId, kind: str, payload: object) -> None:
        if kind.startswith("pss."):
            self.pss.handle_message(peer, kind, payload)
        elif kind == "wcl.onion":
            self.wcl.handle_onion(payload)
        elif kind == "wcl.circuit_setup":
            self.wcl.handle_circuit_setup(peer, payload)
        elif kind == "wcl.circuit_data":
            self.wcl.handle_circuit_data(payload)
        elif kind == "wcl.circuit_ack":
            self.wcl.handle_circuit_ack(peer, payload)
        elif kind == "wcl.circuit_teardown":
            self.wcl.handle_circuit_teardown(payload)
        elif kind == "wcl.cb_probe":
            self.backlog.on_probe(peer, payload, self.keypair.public)
        elif kind == "wcl.cb_probe_ack":
            self.backlog.on_probe_ack(peer, payload)

    def _from_wcl(self, content: object) -> None:
        if not isinstance(content, dict):
            return
        group = content.get("group")
        ppss = self.groups.get(group)
        if ppss is None:
            # Either not ours or for a group we do not belong to: a member
            # never reveals whether it recognised the group.
            self.unknown_group_messages += 1
            return
        ppss.handle_message(content)
