"""The deployment core: one clock, one fabric, the nodes they host.

:class:`~repro.harness.world.World` is this core over ``Simulator`` +
``Network``, :class:`~repro.runtime.live.LiveRuntime` over
``AsyncioScheduler`` + ``LiveNetwork``.  Both get the seed's registry,
telemetry on the clock, one ``CpuAccountant`` (jitter from the ``cpu``
stream, every charge mirrored into ``crypto.ms`` / ``crypto.ops``), one
provider and one node constructor, so the same seed and ids give the same
keys and node streams on either.  On the live clock WCL still waits the
charged milliseconds before it relays or delivers, on top of the real CPU
time; which of the two a live node pays is ROADMAP ``bench-definition`` (e).
"""

from __future__ import annotations

from ..core.node import WhisperConfig, WhisperNode
from ..crypto.costmodel import CpuAccountant
from ..crypto.provider import make_provider
from ..nat.types import NatType
from ..net.address import NodeId
from ..sim.clock import Clock
from ..sim.rng import RngRegistry
from ..telemetry import Telemetry

__all__ = ["Deployment"]


class Deployment:
    """Seeded state of one deployment; a subclass sets ``network``."""

    def __init__(
        self, clock: Clock, seed: int, provider: str, key_bits: int,
        use_aes: bool, whisper: WhisperConfig, telemetry_enabled: bool,
    ) -> None:
        self.clock = clock
        self.registry = RngRegistry(seed)
        self.telemetry = Telemetry(clock=lambda: clock.now, enabled=telemetry_enabled)
        self.cpu = CpuAccountant(rng=self.registry.stream("cpu"))
        self.cpu.bind_telemetry(self.telemetry)
        self.provider = make_provider(
            provider, self.registry.stream("crypto"), self.cpu,
            key_bits=key_bits, use_aes=use_aes,
        )
        self.whisper = whisper
        self.nodes: dict[NodeId, WhisperNode] = {}

    def _build_node(
        self, node_id: NodeId, nat_type: NatType, incarnation: int = 0
    ) -> WhisperNode:
        """Build and register a node; restart ``k`` forks ``node-{id}-r{k}``
        (a rebooted process re-seeds, whatever its predecessor drew)."""
        fork = f"node-{node_id}-r{incarnation}" if incarnation else f"node-{node_id}"
        node = WhisperNode(
            node_id=node_id, nat_type=nat_type, sim=self.clock,
            network=self.network, provider=self.provider,
            rng=self.registry.fork(fork).stream("main"),
            config=self.whisper, telemetry=self.telemetry,
        )
        node.incarnation = incarnation
        self.nodes[node_id] = node
        return node
