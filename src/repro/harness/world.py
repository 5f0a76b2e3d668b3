"""Experiment harness: builds and drives whole WHISPER deployments.

A :class:`World` is the deployment core (:mod:`.deployment`) over the
simulator and the sim fabric with its NAT topology — the equivalent of the
paper's SPLAY deployment scripts.  It supports the two testbed profiles
(cluster / PlanetLab), exact N:P ratios, node arrival/departure for churn
experiments, and snapshots for the overlay metrics.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from ..core.node import WhisperConfig, WhisperNode
from ..nat.topology import NatTopology
from ..nat.traversal import NodeDescriptor
from ..nat.types import EMULATED_TYPES, NatType
from ..net.address import NodeId, NodeKind
from ..net.latency import ClusterLatencyModel, LatencyModel, PlanetLabLatencyModel
from ..net.network import Network
from ..metrics.graph import ViewGraph
from ..sim.engine import Simulator, bulk_build
from .deployment import Deployment

__all__ = ["WorldConfig", "World", "fill_introducers", "nat_plan"]

INTRODUCER_COUNT = 5  # bootstrap entry points handed to every starting node


def nat_plan(
    count: int, natted_fraction: float, nat_cycle: Iterator[NatType],
    rng: random.Random,
) -> list[NatType]:
    """NAT types for ``count`` new nodes: exactly ``natted_fraction`` of
    them natted, split evenly across the emulated types (``nat_cycle``
    carries on where the previous plan stopped), interleaved by one
    shuffle on ``rng`` so P-nodes are not clustered by id."""
    natted = round(count * natted_fraction)
    plan = [NatType.OPEN] * (count - natted)
    plan += [next(nat_cycle) for _ in range(natted)]
    rng.shuffle(plan)
    return plan


def fill_introducers(
    have: list[NodeDescriptor], nodes: Iterable[WhisperNode]
) -> list[NodeDescriptor]:
    """Top ``have`` up to ``INTRODUCER_COUNT`` with the public nodes of
    ``nodes`` (in id order) it does not hold yet; raises if it stays empty."""
    if len(have) < INTRODUCER_COUNT:
        held = {d.node_id for d in have}
        for node in nodes:
            if node.cm.kind is NodeKind.PUBLIC and node.node_id not in held:
                have.append(node.descriptor())
                if len(have) >= INTRODUCER_COUNT:
                    break
    if not have:
        raise RuntimeError("no public nodes available as introducers")
    return have


@dataclass(frozen=True)
class WorldConfig:
    """Deployment profile.

    ``latency`` is one of ``"cluster"``, ``"planetlab"``;
    ``provider`` one of ``"sim"`` (fast envelopes, for 1,000-node runs) or
    ``"real"`` (actual RSA/AES).  ``natted_fraction`` defaults to the
    paper's 70%, split evenly between the four emulated NAT types.
    """

    seed: int = 42
    latency: str = "cluster"
    provider: str = "sim"
    real_key_bits: int = 512
    real_use_aes: bool = True  # False swaps in the fast keyed stream cipher
    natted_fraction: float = 0.7
    whisper: WhisperConfig = field(default_factory=WhisperConfig)
    telemetry_enabled: bool = False
    wire_mode: str = "off"  # "off" | "verify" | "measured"; see Network.set_wire_mode


class World(Deployment):
    """A running deployment: nodes join/leave it, experiments measure it."""

    def __init__(self, config: WorldConfig | None = None) -> None:
        self.config = config if config is not None else WorldConfig()
        if not 0.0 <= self.config.natted_fraction <= 1.0:
            raise ValueError(
                f"natted_fraction out of range: {self.config.natted_fraction}"
            )
        self.sim = Simulator()
        super().__init__(
            self.sim, self.config.seed, self.config.provider,
            self.config.real_key_bits, self.config.real_use_aes,
            self.config.whisper, self.config.telemetry_enabled,
        )
        self.accountant = self.cpu  # the CPU accountant's name in bench/
        self.sim.bind_telemetry(self.telemetry)
        self.topology = NatTopology()
        self.network = Network(
            self.sim, self.topology, self._make_latency(),
            telemetry=self.telemetry,
            wire_mode=self.config.wire_mode,
        )
        self._ids = itertools.count(1)
        self._nat_cycle = itertools.cycle(EMULATED_TYPES)
        self._introducers: list[NodeDescriptor] = []

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def _make_latency(self) -> LatencyModel:
        rng = self.registry.stream("latency")
        if self.config.latency == "cluster":
            return ClusterLatencyModel(rng)
        if self.config.latency == "planetlab":
            return PlanetLabLatencyModel(rng)
        raise ValueError(f"unknown latency profile: {self.config.latency!r}")

    # ------------------------------------------------------------------
    # population management
    # ------------------------------------------------------------------
    def _draw_nat_type(self) -> NatType:
        if self.registry.stream("natdraw").random() < self.config.natted_fraction:
            return next(self._nat_cycle)
        return NatType.OPEN

    def add_node(
        self, nat_type: NatType | None = None, node_id: NodeId | None = None
    ) -> WhisperNode:
        """Create one node (not yet started).

        ``node_id`` overrides the world's own dense id sequence — a sharded
        deployment assigns *global* ids and registers each one with the
        partition that owns it, so ids (and everything derived from them:
        RNG fork names, endpoint hosts, latency keys) are identical no
        matter how the population is partitioned.
        """
        if node_id is None:
            node_id = next(self._ids)
        if nat_type is None:
            nat_type = self._draw_nat_type()
        self.topology.add_node(node_id, nat_type)
        return self._build_node(node_id, nat_type)

    @bulk_build()
    def populate(self, count: int) -> list[WhisperNode]:
        """Create ``count`` nodes at exactly the configured N:P ratio."""
        plan = nat_plan(
            count, self.config.natted_fraction, self._nat_cycle,
            self.registry.stream("natplan"),
        )
        return [self.add_node(nat_type) for nat_type in plan]

    def introducers(self) -> list[NodeDescriptor]:
        """Bootstrap entry points: a self-refreshing set of live P-nodes.

        Departed introducers are dropped and replaced, so joiners arriving
        during churn still bootstrap against live entry points (real
        deployments rotate their rendezvous servers the same way).
        """
        # Killed nodes are removed from the registry; nodes created but not
        # yet started still count (start_all resolves introducers up front).
        self._introducers = fill_introducers(
            [d for d in self._introducers if d.node_id in self.nodes],
            self.nodes.values(),
        )
        return list(self._introducers)

    @bulk_build()
    def start_all(self) -> None:
        # Resolve the introducer set once: it is stable for the duration of
        # a bulk start (the first call fills it to INTRODUCER_COUNT and no
        # node departs mid-loop), and introducers() walks the whole
        # population — calling it per node made start_all O(N^2), which at
        # 100k nodes dominated world construction.  Each node still gets
        # its own list copy, exactly what introducers() handed out before.
        introducers: list[NodeDescriptor] | None = None
        for node in self.nodes.values():
            if not node.alive:
                if introducers is None:
                    introducers = self.introducers()
                node.start(list(introducers))

    def spawn_started(self, nat_type: NatType | None = None) -> WhisperNode:
        """Add a node and start it immediately (churn arrivals).

        The very first node of an empty world is forced public: every
        deployment needs at least one reachable bootstrap point.
        """
        if nat_type is None and not any(
            n.alive and n.cm.kind is NodeKind.PUBLIC for n in self.nodes.values()
        ):
            nat_type = NatType.OPEN
        node = self.add_node(nat_type)
        try:
            introducers = self.introducers()
        except RuntimeError:
            # We *are* the first (public) node: bootstrap against ourselves.
            introducers = [node.descriptor()]
        node.start(introducers)
        return node

    def kill_node(self, node_id: NodeId) -> None:
        """Abrupt departure: the node vanishes, NAT state evaporates."""
        node = self.nodes.pop(node_id, None)
        if node is None:
            return
        node.kill()
        self.topology.remove_node(node_id)

    def alive_nodes(self) -> list[WhisperNode]:
        return [n for n in self.nodes.values() if n.alive]

    def public_nodes(self) -> list[WhisperNode]:
        return [n for n in self.alive_nodes() if n.cm.kind is NodeKind.PUBLIC]

    def natted_nodes(self) -> list[WhisperNode]:
        return [n for n in self.alive_nodes() if n.cm.kind is NodeKind.NATTED]

    # ------------------------------------------------------------------
    # execution & measurement
    # ------------------------------------------------------------------
    def run(self, duration: float) -> None:
        self.sim.run(until=self.sim.now + duration)

    def view_graph(self) -> ViewGraph:
        """Snapshot of the system-wide PSS overlay (for Fig. 5 metrics)."""
        return ViewGraph(
            {
                node.node_id: node.pss.view.node_ids()
                for node in self.alive_nodes()
            }
        )
