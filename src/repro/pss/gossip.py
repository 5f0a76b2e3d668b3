"""The NAT-resilient gossip peer sampling service (Nylon + WHISPER biases).

Implements the protocol of Section II-B/III-B: age-based *healer* gossip
over NAT-traversed sessions, with two WHISPER additions switched on by
configuration — the Π P-node view bias (``pi``, applied by
:meth:`View.merge`) and the public key sampling service (keys piggybacked
on gossip exchanges).

Protocol sketch, once per cycle (10 s in the paper):

1. ages += 1; partner := oldest entry.
2. open/reuse a NAT-resilient session to the partner (Nylon machinery);
   an unreachable partner is evicted — this is the failure detector.
3. send ``pss.request`` carrying our fresh self-descriptor, a shuffle
   buffer of view entries (routes extended with ourselves as forwarder) and
   optionally our public key.
4. the partner merges (:meth:`View.merge` owns the selection), replies
   ``pss.response`` built the same way; we merge on reception.

Both sides report the *successful gossip exchange* to registered listeners;
the WHISPER communication layer feeds its connection backlog (CB) from
exactly these events.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Protocol as TypingProtocol

from ..crypto.provider import PublicKey
from ..nat.traversal import ConnectionManager, NodeDescriptor
from ..net.address import NodeId, NodeKind
from ..net.message import sizes
from ..sim.clock import Clock
from ..sim.process import PeriodicTask, Timer
from ..telemetry import NULL_TELEMETRY, Telemetry
from .view import View, ViewEntry

__all__ = ["PeerSamplingService", "PssConfig", "PssStats", "ExchangeListener"]


class ExchangeListener(TypingProtocol):
    """Callback fired on every successful gossip exchange."""

    def __call__(
        self, peer: NodeDescriptor, key: PublicKey | None, initiated: bool
    ) -> None: ...


SHUFFLE_SIZE = 5  # entries shipped per exchange, besides self


@dataclass(frozen=True)
class PssConfig:
    """Tunables; defaults are the paper's experimental settings."""

    view_size: int = 10
    cycle_time: float = 10.0
    exchange_keys: bool = False  # the public key sampling service
    response_timeout: float = 5.0


@dataclass
class PssStats:
    """Counters for one PSS instance."""

    cycles: int = 0
    initiated: int = 0
    completed: int = 0  # initiated exchanges that got a response
    received: int = 0  # passive exchanges served
    contact_failures: int = 0
    response_timeouts: int = 0
    rebootstraps: int = 0  # view emptied; re-seeded from the introducers


class PeerSamplingService:
    """One node's PSS instance (Fig. 1's "NAT-resilient Peer Sampling Service")."""

    def __init__(
        self,
        node_id: NodeId,
        cm: ConnectionManager,
        sim: Clock,
        rng: random.Random,
        config: PssConfig | None = None,
        pi: int = 0,
        cap_public: bool = False,
        public_key: PublicKey | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.node_id = node_id
        self.cm = cm
        self._sim = sim
        self._rng = rng
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.config = config if config is not None else PssConfig()
        if not 0 <= pi <= self.config.view_size:
            raise ValueError(
                f"pi must be within 0..view_size ({self.config.view_size}), got {pi}"
            )
        # View selection (see View.merge): the Π P-node floor of Section
        # III-B-1, and the ablation's cap on P-nodes above it.
        self.pi = pi
        self.cap_public = cap_public
        self.public_key = public_key
        if self.config.exchange_keys and public_key is None:
            raise ValueError("key sampling requires the node's public key")
        self.view = View(self.config.view_size)
        self.known_keys: dict[NodeId, PublicKey] = {}
        self.stats = PssStats()
        self._listeners: list[ExchangeListener] = []
        self._failure_listeners: list[Callable[[NodeId], None]] = []
        # target -> (response timer, the sample we shipped to it)
        self._pending: dict[NodeId, tuple[Timer, list[ViewEntry]]] = {}
        self._task: PeriodicTask | None = None
        # Kept from init() for re-bootstrap: a node whose view empties
        # (every partner timed out during an outage, and the failure
        # detectors of every other node dropped *it*) can only re-enter
        # the mesh through an entry point, exactly as at first join.
        self._introducers: list[NodeDescriptor] = []

    # ------------------------------------------------------------------
    # lifecycle (the paper's PSS API: init() / getPeer())
    # ------------------------------------------------------------------
    def init(self, introducers: list[NodeDescriptor]) -> None:
        """Bootstrap the view and start gossiping.

        ``introducers`` play the role of the entry points any deployed
        gossip system needs; natted nodes use the first public introducer
        for reflexive-endpoint discovery too.
        """
        self._introducers = [
            d for d in introducers if d.node_id != self.node_id
        ]
        self._bootstrap()
        if self.cm.nat_type.is_natted:
            for descriptor in introducers:
                if descriptor.is_public:
                    self.cm.learn_reflexive_via(descriptor)
                    break
        phase = self._rng.uniform(0, self.config.cycle_time)
        self._task = PeriodicTask(
            self._sim, self.config.cycle_time, self._cycle, initial_delay=phase
        )

    def stop(self) -> None:
        """Stop gossiping and cancel pending response timers."""
        if self._task is not None:
            self._task.stop()
        for timer, _sent in self._pending.values():
            timer.cancel()
        self._pending.clear()

    def get_peer(self) -> NodeDescriptor | None:
        """The PSS sampling primitive: a (quasi-)uniform random live peer."""
        entry = self.view.random_entry(self._rng)
        return entry.descriptor if entry is not None else None

    def add_exchange_listener(self, listener: ExchangeListener) -> None:
        """Subscribe to successful gossip exchanges (feeds the WCL's CB)."""
        self._listeners.append(listener)

    def add_failure_listener(self, listener: Callable[[NodeId], None]) -> None:
        """Notified with the node id whenever the PSS failure detector
        gives up on a partner (unreachable or unresponsive) — the WCL
        evicts such nodes from its connection backlog."""
        self._failure_listeners.append(listener)

    # ------------------------------------------------------------------
    # active thread
    # ------------------------------------------------------------------
    def _cycle(self) -> None:
        self.stats.cycles += 1
        tel = self.telemetry
        if tel.enabled:
            tel.counter("pss.cycles", node=self.node_id, layer="pss").inc()
            tel.gauge("pss.view_size", node=self.node_id, layer="pss").set(
                len(self.view)
            )
        self.view.increment_ages()
        partner = self.view.oldest()
        if partner is None:
            partner = self._rebootstrap()
            if partner is None:
                return
        self.stats.initiated += 1
        target = partner.node_id
        # Shuffling semantics [19]: the selected (oldest) partner leaves the
        # view now; it re-enters only through future exchanges.  This is the
        # mechanism that keeps in-degrees balanced — a node's presence in
        # views is consumed by being contacted.
        self.view.remove(target)
        self.cm.ensure_session(
            partner.descriptor,
            on_ready=lambda: self._send_request(target),
            on_fail=lambda reason: self._contact_failed(target),
        )

    def _rebootstrap(self) -> "ViewEntry | None":
        """Total view loss: re-seed from the entry points, as at first join.

        Happens after an outage long enough for every partner to time out
        (the node stalled, or was partitioned away): all other nodes'
        failure detectors have dropped this node too, so no inbound gossip
        will ever repopulate the view on its own.
        """
        if not self._introducers:
            return None
        self.stats.rebootstraps += 1
        tel = self.telemetry
        if tel.enabled:
            tel.counter("pss.rebootstraps", node=self.node_id, layer="pss").inc()
        self._bootstrap()
        return self.view.oldest()

    def _bootstrap(self) -> None:
        """Install the introducers: one merge into an emptied view, so a
        bootstrap selects by the same rule as an exchange."""
        self.view.replace_all([])
        self.view.merge(
            [ViewEntry(d, 0) for d in self._introducers], [], self.node_id,
            self.pi, self.cap_public,
        )

    def _contact_failed(self, target: NodeId) -> None:
        self.stats.contact_failures += 1
        tel = self.telemetry
        if tel.enabled:
            tel.counter("pss.contact_failures", node=self.node_id, layer="pss").inc()
        self.view.remove(target)
        for listener in self._failure_listeners:
            listener(target)

    def _send_request(self, target: NodeId) -> None:
        sample = self.view.sample(self._rng, SHUFFLE_SIZE)
        body = {
            "sender": self.cm.descriptor(),
            "buffer": self._shipped(sample, include_self=True),
            "key": self.public_key if self.config.exchange_keys else None,
        }
        if not self.cm.send_via_session(
            target, "pss.request", body, self._message_size(body), "pss"
        ):
            self._contact_failed(target)
            return
        timer = Timer(self._sim, lambda: self._response_timeout(target))
        timer.start(self.config.response_timeout)
        self._pending[target] = (timer, sample)

    def _response_timeout(self, target: NodeId) -> None:
        self._pending.pop(target, None)
        self.stats.response_timeouts += 1
        tel = self.telemetry
        if tel.enabled:
            tel.counter("pss.response_timeouts", node=self.node_id, layer="pss").inc()
        self.view.remove(target)
        self.cm.drop_session(target)
        for listener in self._failure_listeners:
            listener(target)

    # ------------------------------------------------------------------
    # passive thread
    # ------------------------------------------------------------------
    def handle_message(self, peer: NodeId, kind: str, body: dict) -> None:
        """Entry point for ``pss.*`` payloads arriving over sessions."""
        if kind == "pss.request":
            self._on_request(peer, body)
        elif kind == "pss.response":
            self._on_response(peer, body)

    def _on_request(self, peer: NodeId, body: dict) -> None:
        self.stats.received += 1
        sample = self.view.sample(self._rng, SHUFFLE_SIZE)
        response = {
            "sender": self.cm.descriptor(),
            # The passive side does not insert itself (shuffling [19]): per
            # exchange the initiator gains exactly one placement, keeping
            # copy counts — hence in-degrees — balanced.
            "buffer": self._shipped(sample, include_self=False),
            "key": self.public_key if self.config.exchange_keys else None,
        }
        self._merge(body["buffer"], body["sender"], sent=sample)
        self._record_exchange(body["sender"], body.get("key"), initiated=False)
        self.cm.send_via_session(
            peer, "pss.response", response, self._message_size(response), "pss"
        )

    def _on_response(self, peer: NodeId, body: dict) -> None:
        pending = self._pending.pop(peer, None)
        sent: list[ViewEntry] = []
        if pending is not None:
            timer, sent = pending
            timer.cancel()
        self.stats.completed += 1
        self._merge(body["buffer"], body["sender"], sent=sent)
        self._record_exchange(body["sender"], body.get("key"), initiated=True)

    # ------------------------------------------------------------------
    # shared plumbing
    # ------------------------------------------------------------------
    def _shipped(
        self, sample: list[ViewEntry], include_self: bool
    ) -> list[ViewEntry]:
        """Entries as sent on the wire: routes extended via us, self first."""
        shipped = [entry.via(self.node_id) for entry in sample]
        if include_self:
            own = ViewEntry(descriptor=self.cm.descriptor(), age=0)
            shipped = [own] + shipped[: SHUFFLE_SIZE - 1]
        return shipped

    def _merge(
        self,
        received: list[ViewEntry],
        sender: NodeDescriptor,
        sent: list[ViewEntry],
    ) -> None:
        """Merge one exchange into the view (see :meth:`View.merge`).

        The sender's fresh self-descriptor is treated as one more received
        entry; ``sent`` is the sample we shipped to the partner.
        """
        incoming = [self._compress_route(entry) for entry in received]
        incoming.append(ViewEntry(sender, 0))
        self.view.merge(incoming, sent, self.node_id, self.pi, self.cap_public)

    def _compress_route(self, entry: ViewEntry) -> ViewEntry:
        """Drop the rendezvous chain when we can reach the node ourselves.

        Nylon keeps reachability as node-local state: a node that holds an
        open (NAT-traversed) session to B does not need the forwarding chain
        an entry travelled with.  Compression keeps routes short and stops
        natted entries from attriting at the route-length cap as they
        circulate — P-node entries never grow routes, so without this the
        overlay would slowly skew public.
        """
        d = entry.descriptor
        if d.route and d.kind is not NodeKind.PUBLIC and self.cm.has_session(d.node_id):
            bare = NodeDescriptor(d.node_id, d.kind, d.nat_type, d.public_endpoint, ())
            return ViewEntry(bare, entry.age)
        return entry

    def _record_exchange(
        self, peer: NodeDescriptor, key: PublicKey | None, initiated: bool
    ) -> None:
        if self.telemetry.enabled:
            self.telemetry.counter(
                "pss.exchanges", node=self.node_id, layer="pss",
                role="initiator" if initiated else "responder",
            ).inc()
        if key is not None:
            self.known_keys[peer.node_id] = key
            self._trim_known_keys()
        for listener in self._listeners:
            listener(peer, key, initiated)

    def _trim_known_keys(self) -> None:
        """Bound the key store: old partners' keys age out with the CB."""
        limit = 4 * self.config.view_size
        while len(self.known_keys) > limit:
            oldest = next(iter(self.known_keys))
            del self.known_keys[oldest]

    def _message_size(self, body: dict) -> int:
        size = sizes.gossip_header + len(body["buffer"]) * sizes.view_entry
        if body["key"] is not None:
            size += sizes.public_key
        return size
