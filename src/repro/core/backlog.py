"""The connection backlog (CB) of Section III-A.

A FIFO of the nodes this node recently completed gossip exchanges with —
i.e. nodes for which a NAT-traversed route exists *in both directions* and
whose association rules are still fresh.  Capacity is 2c (twice the PSS view
size): with one initiated and on average one received exchange per 10 s
cycle, an entry lives at most ~100 s in the CB, well under the minimal NAT
lease of 5 minutes.

A slot is a :class:`~repro.core.contact.Gateway` — a keyed hop: descriptor
plus public key.  It is the record a private-view entry advertises as a
next-to-last hop and the record WCL draws mixes from, so the backlog's own
objects are what :meth:`ConnectionBacklog.gateways_for_self` hands out and
what travels in a :class:`~repro.core.contact.PrivateContact`.

Invariant maintained: the CB always holds at least Π P-nodes.  When an
insertion would break it, P-nodes from the PSS view are probed (the paper's
"empty message" that opens a path and exchanges keys) and inserted until the
invariant is restored.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass, field

from ..crypto.provider import PublicKey
from ..nat.traversal import ConnectionManager, NodeDescriptor
from ..net.address import NodeId
from ..net.message import sizes
from ..pss.gossip import PeerSamplingService
from ..sim.process import ExponentialBackoff, Timer
from .contact import Gateway

__all__ = ["ConnectionBacklog"]

# A probe that got no ack within this window is retried (with backoff);
# after the attempt budget the candidate is abandoned and the invariant
# machinery picks a different P-node instead of waiting forever.
_PROBE_ACK_TIMEOUT = 6.0
_PROBE_MAX_ATTEMPTS = 3


@dataclass
class _ProbeState:
    """An outstanding "empty message" probe towards a P-node."""

    descriptor: NodeDescriptor
    attempt: int = 0
    timer: Timer | None = field(default=None, repr=False)


class ConnectionBacklog:
    """FIFO of recently-exchanged partners with the Π P-node invariant."""

    def __init__(
        self,
        node_id: NodeId,
        cm: ConnectionManager,
        pss: PeerSamplingService,
        rng: random.Random,
        pi: int = 3,
        capacity: int | None = None,
    ) -> None:
        self.node_id = node_id
        self.cm = cm
        self.pss = pss
        self._rng = rng
        self.pi = pi
        self.capacity = capacity if capacity is not None else 2 * pss.config.view_size
        if self.capacity < max(1, pi):
            raise ValueError(
                f"CB capacity {self.capacity} cannot honour pi={pi}"
            )
        # Head = most recent.  OrderedDict keeps FIFO order with O(1) moves.
        self._entries: OrderedDict[NodeId, Gateway] = OrderedDict()
        # P-node count maintained incrementally by insert / _pop:
        # the Π invariant consults it after every gossip exchange, and a
        # full scan there was measurable at scale.
        self._public_count = 0
        # gateways_for_self(), derived once per change of the entries:
        # every contact this node advertises reads it.
        self._gateways: tuple[Gateway, ...] | None = None
        self._probing: dict[NodeId, _ProbeState] = {}
        self._probe_backoff = ExponentialBackoff(
            base=_PROBE_ACK_TIMEOUT, factor=2.0, cap=30.0, jitter=0.2, rng=rng
        )
        self._stopped = False
        self.stats_probes_sent = 0
        self.stats_probes_abandoned = 0
        self.stats_evictions_seen = 0
        pss.add_exchange_listener(self._on_gossip_exchange)

    # ------------------------------------------------------------------
    # content accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._entries

    def entries(self) -> list[Gateway]:
        """Most recent first."""
        return list(reversed(self._entries.values()))

    def public_entries(self) -> list[Gateway]:
        """P-node entries, most recent first."""
        return [e for e in self.entries() if e.is_public]

    def count_public(self) -> int:
        """Number of P-nodes currently in the backlog."""
        return self._public_count

    def gateways_for_self(self) -> tuple[Gateway, ...]:
        """The Π P-nodes advertised as next-to-last hops towards this node.

        These are P-nodes from our CB: they completed a gossip exchange (or a
        probe) with us recently, so they hold an open NAT-traversed session
        towards us and can act as hop B of an inbound WCL path.
        """
        gateways = self._gateways
        if gateways is None:
            gateways = self._gateways = tuple(self.public_entries()[: self.pi])
        return gateways

    def first_mix_candidates(
        self, exclude: set[NodeId] | None = None
    ) -> list[Gateway]:
        """CB entries usable as hop A, freshest first."""
        exclude = exclude or set()
        return [e for e in self.entries() if e.node_id not in exclude]

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def _on_gossip_exchange(
        self, peer: NodeDescriptor, key: PublicKey | None, initiated: bool
    ) -> None:
        if key is None:
            return  # cannot be used as a mix without its public key
        self.insert(peer, key)

    def insert(self, descriptor: NodeDescriptor, key: PublicKey) -> None:
        """Insert at the head; evict at the tail; restore the Π invariant."""
        node_id = descriptor.node_id
        if node_id == self.node_id:
            return
        self._pop(node_id)
        self._entries[node_id] = Gateway(descriptor=descriptor, key=key)
        self._gateways = None
        if descriptor.is_public:
            self._public_count += 1
        while len(self._entries) > self.capacity:
            self._pop(next(iter(self._entries)))  # the tail: oldest first
        self._maintain_public_invariant()

    def remove(self, node_id: NodeId) -> None:
        """Drop a failed node (e.g. a mix that never forwarded)."""
        self._pop(node_id)
        self._maintain_public_invariant()

    def _pop(self, node_id: NodeId) -> None:
        dropped = self._entries.pop(node_id, None)
        if dropped is not None:
            self._gateways = None
            if dropped.is_public:
                self._public_count -= 1

    # ------------------------------------------------------------------
    # the Π P-node invariant
    # ------------------------------------------------------------------
    def _maintain_public_invariant(self) -> None:
        deficit = self.pi - self.count_public() - len(self._probing)
        if deficit <= 0:
            return
        candidates = [
            entry
            for entry in self.pss.view.public_entries()
            if entry.node_id not in self._entries
            and entry.node_id not in self._probing
        ]
        self._rng.shuffle(candidates)
        for entry in candidates[:deficit]:
            self._probe(entry.descriptor)

    def _probe(self, descriptor: NodeDescriptor) -> None:
        """The paper's "empty message": open a path and exchange keys.

        Probes (and their acks) ride the same lossy fabric as everything
        else, so each probe is guarded by a timeout that retries with
        exponential backoff; after ``_PROBE_MAX_ATTEMPTS`` the candidate is
        abandoned and the invariant machinery is re-run to pick another.
        """
        target = descriptor.node_id
        state = _ProbeState(descriptor=descriptor)
        state.timer = Timer(self.cm.sim, lambda: self._probe_timeout(target))
        self._probing[target] = state
        self._probe_attempt(target)

    def _probe_attempt(self, target: NodeId) -> None:
        state = self._probing.get(target)
        if state is None or self._stopped:
            return
        state.attempt += 1
        self.stats_probes_sent += 1

        def on_ready() -> None:
            body = {"sender": self.cm.descriptor()}
            self.cm.send_via_session(
                target, "wcl.cb_probe", body,
                sizes.connect_control + sizes.public_key, "wcl.cb",
            )

        def on_fail(reason: str) -> None:
            # The session could not be opened: let the timeout path decide
            # between backing off for a retry and abandoning the candidate.
            pass

        self.cm.ensure_session(state.descriptor, on_ready, on_fail)
        assert state.timer is not None
        state.timer.start(self._probe_backoff.delay(state.attempt - 1))

    def _probe_timeout(self, target: NodeId) -> None:
        state = self._probing.get(target)
        if state is None:
            return
        if state.attempt >= _PROBE_MAX_ATTEMPTS or self._stopped:
            self._abandon_probe(target)
            if not self._stopped:
                self._maintain_public_invariant()
            return
        self._probe_attempt(target)

    def _abandon_probe(self, target: NodeId) -> None:
        state = self._probing.pop(target, None)
        if state is None:
            return
        if state.timer is not None:
            state.timer.cancel()
        self.stats_probes_abandoned += 1

    # ------------------------------------------------------------------
    # liveness feedback
    # ------------------------------------------------------------------
    def on_session_evicted(self, peer: NodeId) -> None:
        """CM keepalive declared the session dead: the entry is useless.

        A CB entry's whole value is the open bidirectional channel behind
        it; once liveness probing gives up on the session, keeping the
        entry would poison WCL mix selection with a guaranteed-dead hop.
        """
        self.stats_evictions_seen += 1
        if peer in self._entries:
            self.remove(peer)

    def stop(self) -> None:
        """Cancel outstanding probe timers (the owning node is stopping)."""
        self._stopped = True
        for target in list(self._probing):
            self._abandon_probe(target)

    # ------------------------------------------------------------------
    # probe protocol handlers (wired by the WCL dispatcher)
    # ------------------------------------------------------------------
    def on_probe(self, peer: NodeId, body: dict, own_key: PublicKey) -> None:
        """Probe received: ack with our key (the probing side needs it)."""
        ack = {"sender": self.cm.descriptor(), "key": own_key}
        self.cm.send_via_session(
            peer, "wcl.cb_probe_ack", ack,
            sizes.connect_control + sizes.public_key, "wcl.cb",
        )

    def on_probe_ack(self, peer: NodeId, body: dict) -> None:
        """Probe answered: the P-node (with its key) joins the backlog."""
        state = self._probing.pop(peer, None)
        if state is None:
            return
        if state.timer is not None:
            state.timer.cancel()
        self.insert(body["sender"], body["key"])
