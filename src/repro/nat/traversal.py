"""NAT traversal: sessions, hole punching, rendezvous chains and relays.

This module implements the connectivity machinery of Nylon [21], the
NAT-resilient peer sampling substrate WHISPER builds on.  Its contract
(Section II-C of the paper): *for any node B in the view of a node A, there
exists a possibility, known to the layer, to open a communication channel
from A to B* — via a chain of rendezvous (RV) nodes, hole punching when the
NAT types permit it, and relaying when they do not.

How a descriptor's *route* comes to exist: when node C gossips an entry for
node B to node A, C either has an open session with B (it gossiped with B
recently) or knows a chain towards B; the entry handed to A carries that
chain with C prepended.  A can always reach the first hop (its gossip
partner), each hop can reach the next, and the final hop — the RV — has an
open session with B.

Connection establishment then follows Nylon:

1. A sends ``CONNECT`` along the chain, carrying its reflexive (external)
   endpoint learned from previous exchanges.
2. The RV forwards a ``PUNCH_OFFER`` to B over its session.
3. If both NAT types permit hole punching, B fires ``HELLO`` packets at A's
   external endpoint (opening B's own egress mapping and filter) and returns
   a ``PUNCH_ACCEPT`` with its external endpoint along the reverse chain; A
   then fires ``HELLO`` at B — both ingress filters are now open and a
   *direct* session exists.
4. Otherwise (symmetric NAT involved) the RV stays on the path as a
   *relay*: payloads are wrapped in ``RELAY`` envelopes.

Sessions are bidirectional (gossip exchanges are request/response) and decay
with NAT association leases; stale sessions surface as timeouts that callers
(the PSS and the WCL) handle with retries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..net.address import Endpoint, NodeId, NodeKind, Protocol
from ..net.message import Message, sizes
from ..net.network import Network
from ..sim.clock import Clock
from ..sim.process import PeriodicTask
from ..telemetry import NULL_TELEMETRY, Span, Telemetry
from .types import NatType

__all__ = [
    "NodeDescriptor",
    "Session",
    "TraversalPolicy",
    "ConnectionManager",
    "MAX_ROUTE_LENGTH",
]

MAX_ROUTE_LENGTH = 5
_CONNECT_TIMEOUT = 5.0
_PUNCH_TIMEOUT = 3.0


@dataclass(frozen=True, slots=True)
class NodeDescriptor:
    """How to reach a node, as circulated in PSS views.

    ``route`` lists intermediary node ids, nearest-to-the-holder first; the
    last element is the rendezvous that holds an open session with the node.
    An empty route means the holder itself has (or had) a session — or the
    node is public and directly reachable at ``public_endpoint``.
    """

    node_id: NodeId
    kind: NodeKind
    nat_type: NatType
    public_endpoint: Endpoint | None = None  # P-nodes only
    route: tuple[NodeId, ...] = ()

    @property
    def is_public(self) -> bool:
        return self.kind is NodeKind.PUBLIC

    def via(self, forwarder: NodeId) -> "NodeDescriptor":
        """Descriptor as handed to a gossip partner: ``forwarder`` prepended."""
        if self.kind is NodeKind.PUBLIC:
            return self
        # Direct construction: dataclasses.replace() re-derives every field
        # through the dataclass machinery, and this runs for each shipped
        # entry of every gossip exchange.
        return NodeDescriptor(
            self.node_id,
            self.kind,
            self.nat_type,
            self.public_endpoint,
            (forwarder, *self.route),
        )

    def route_too_long(self) -> bool:
        return len(self.route) > MAX_ROUTE_LENGTH


@dataclass(slots=True)
class Session:
    """An open (NAT-traversed) channel to a peer."""

    peer: NodeId
    remote_endpoint: Endpoint | None  # where to address packets (direct)
    # Relay chain towards the peer: intermediate hops ending at the
    # rendezvous that holds a session with the peer.  None = direct.
    relay_chain: tuple[NodeId, ...] | None
    established_at: float
    last_used: float  # last time *we* pushed traffic through it
    last_seen: float = 0.0  # last inbound evidence the peer is alive
    missed_probes: int = 0  # unanswered keepalives since last evidence


@dataclass(frozen=True)
class TraversalPolicy:
    """Tunables for the traversal behaviour.

    Defaults model the paper's TCP-friendly NAT emulation (RFC 5382):
    associations last 24 hours (the cited Cisco lease), so a session stays
    usable for as long as both endpoints live — "the ability of A to
    communicate with B once the connection has been opened typically lasts
    longer than the time of presence of the node in the view".  Set
    ``protocol=UDP`` and a 300 s lifetime for the UDP-lease ablation.
    """

    session_lifetime: float = 86_400.0  # the TCP association lease
    protocol: Protocol = Protocol.TCP
    # Liveness probing: sessions idle past ``keepalive_interval`` are pinged;
    # after ``keepalive_misses`` unanswered probes the session is evicted
    # (and listeners — e.g. the connection backlog — are told, so stale
    # first-mix candidates stop poisoning WCL path selection).  Set the
    # interval to 0 to disable.  Probing starts when the owning node calls
    # :meth:`ConnectionManager.start_keepalive` (WhisperNode does on start).
    keepalive_interval: float = 60.0
    keepalive_misses: int = 3


@dataclass
class _PendingConnect:
    """Book-keeping for an in-flight establishment attempt."""

    target: NodeId
    route: tuple[NodeId, ...] = ()
    on_ready: list[Callable[[], None]] = field(default_factory=list)
    on_fail: list[Callable[[str], None]] = field(default_factory=list)
    timer_event: object | None = None
    settled: bool = False
    span: Span | None = None


class ConnectionManager:
    """Per-node traversal endpoint: sessions, punching, relaying.

    The owning node wires ``handle_message`` into its dispatcher for every
    ``nat.*`` message kind and uses :meth:`ensure_session` /
    :meth:`send_via_session` as the data-plane API.  Payloads relayed for
    *other* nodes are forwarded without inspection — exactly the position
    of an honest-but-curious relay in the threat model.
    """

    def __init__(
        self,
        node_id: NodeId,
        nat_type: NatType,
        sim: Clock,
        network: Network,
        policy: TraversalPolicy | None = None,
        deliver_upcall: Callable[[NodeId, str, object, int], None] | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.node_id = node_id
        self.nat_type = nat_type
        self._sim = sim
        self._net = network
        self.policy = policy if policy is not None else TraversalPolicy()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._sessions: dict[NodeId, Session] = {}
        self._pending: dict[NodeId, _PendingConnect] = {}
        self._reflexive: Endpoint | None = None
        self._descriptor_cache: NodeDescriptor | None = None
        # Upcall for application payloads arriving over sessions:
        # (peer_id, kind, payload, size).
        self._deliver_upcall = deliver_upcall
        self._evict_listeners: list[Callable[[NodeId], None]] = []
        self._keepalive_task: PeriodicTask | None = None
        self.stats_relayed = 0  # payloads this node forwarded for others
        self.stats_punches = 0
        self.stats_relay_sessions = 0
        self.stats_sessions_evicted = 0  # declared dead by liveness probing

    # ------------------------------------------------------------------
    # identity helpers
    # ------------------------------------------------------------------
    @property
    def sim(self) -> Clock:
        return self._sim

    @property
    def kind(self) -> NodeKind:
        return NodeKind.NATTED if self.nat_type.is_natted else NodeKind.PUBLIC

    def descriptor(self) -> NodeDescriptor:
        """Self-descriptor, as inserted in gossip exchanges (empty route).

        Cached: node id, kind, NAT type and the registered public endpoint
        are all fixed for the node's lifetime, and gossip asks for this
        every exchange.  The single slot is inherently bounded; hit/miss
        counters surface alongside the LRU caches' in trace summaries.
        """
        cached = self._descriptor_cache
        tel = self.telemetry
        if cached is not None:
            if tel.enabled:
                tel.counter("nat.descriptor.cache_hit", layer="nat").inc()
            return cached
        if tel.enabled:
            tel.counter("nat.descriptor.cache_miss", layer="nat").inc()
        endpoint = None
        if self.kind is NodeKind.PUBLIC:
            endpoint = self._net.topology.public_endpoint(self.node_id)
        cached = NodeDescriptor(
            node_id=self.node_id,
            kind=self.kind,
            nat_type=self.nat_type,
            public_endpoint=endpoint,
        )
        self._descriptor_cache = cached
        return cached

    # ------------------------------------------------------------------
    # session table
    # ------------------------------------------------------------------
    def has_session(self, peer: NodeId) -> bool:
        session = self._sessions.get(peer)
        if session is None:
            return False
        if self._sim.now - session.last_used > self.policy.session_lifetime:
            del self._sessions[peer]
            return False
        return True

    def session(self, peer: NodeId) -> Session | None:
        # Single dict lookup with inline lease expiry (has_session + get
        # would look the peer up twice on the hottest call site).
        session = self._sessions.get(peer)
        if session is None:
            return None
        if self._sim.now - session.last_used > self.policy.session_lifetime:
            del self._sessions[peer]
            return None
        return session

    def sessions(self) -> list[Session]:
        # has_session evicts expired entries, so iterate over a snapshot.
        return [
            s for s in list(self._sessions.values()) if self.has_session(s.peer)
        ]

    def _install_session(
        self,
        peer: NodeId,
        endpoint: Endpoint | None,
        relay: tuple[NodeId, ...] | None,
    ) -> Session:
        now = self._sim.now
        session = Session(
            peer=peer,
            remote_endpoint=endpoint,
            relay_chain=relay,
            established_at=now,
            last_used=now,
        )
        self._sessions[peer] = session
        return session

    def drop_session(self, peer: NodeId) -> None:
        self._sessions.pop(peer, None)

    # ------------------------------------------------------------------
    # liveness probing (keepalive)
    # ------------------------------------------------------------------
    def add_evict_listener(self, listener: Callable[[NodeId], None]) -> None:
        """Run ``listener(peer)`` whenever liveness probing evicts a session."""
        self._evict_listeners.append(listener)

    def start_keepalive(self) -> None:
        """Begin periodic liveness probing of idle sessions."""
        interval = self.policy.keepalive_interval
        if interval <= 0 or self._keepalive_task is not None:
            return
        self._keepalive_task = PeriodicTask(
            self._sim, interval, self._keepalive_tick
        )

    def stop_keepalive(self) -> None:
        if self._keepalive_task is not None:
            self._keepalive_task.stop()
            self._keepalive_task = None

    def _keepalive_tick(self) -> None:
        interval = self.policy.keepalive_interval
        now = self._sim.now
        for session in list(self._sessions.values()):
            if not self.has_session(session.peer):
                continue  # lease-expired; has_session already dropped it
            freshest = max(session.last_seen, session.established_at)
            if now - freshest < interval:
                continue  # recent inbound evidence: clearly alive
            if session.missed_probes >= self.policy.keepalive_misses:
                self._evict_session(session.peer)
                continue
            session.missed_probes += 1
            self.send_via_session(
                session.peer, "nat.sping", {"from": self.node_id},
                sizes.connect_control, "nat",
            )

    def _evict_session(self, peer: NodeId) -> None:
        """The peer stopped answering: declare the session dead."""
        self._sessions.pop(peer, None)
        self.stats_sessions_evicted += 1
        tel = self.telemetry
        if tel.enabled:
            tel.counter("cm.session_evicted", node=self.node_id, layer="nat").inc()
        for listener in self._evict_listeners:
            listener(peer)

    def _note_alive(self, peer: NodeId) -> None:
        """Inbound evidence the peer is alive: reset the liveness clock."""
        session = self._sessions.get(peer)
        if session is not None:
            session.last_seen = self._sim.now
            session.missed_probes = 0

    # ------------------------------------------------------------------
    # establishment
    # ------------------------------------------------------------------
    def ensure_session(
        self,
        descriptor: NodeDescriptor,
        on_ready: Callable[[], None],
        on_fail: Callable[[str], None],
        timeout: float = _CONNECT_TIMEOUT,
    ) -> None:
        """Make sure a channel to ``descriptor.node_id`` exists, then call back.

        Callbacks are always asynchronous (scheduled), so callers can rely on
        uniform re-entrancy behaviour.
        """
        target = descriptor.node_id
        if target == self.node_id:
            self._sim.schedule(0.0, lambda: on_fail("cannot connect to self"))
            return
        if self.has_session(target):
            self._sim.schedule(0.0, on_ready)
            return
        if descriptor.is_public:
            assert descriptor.public_endpoint is not None
            self._install_session(target, descriptor.public_endpoint, relay=None)
            # Prime our own NAT mapping so the peer's replies pass our filter.
            self._send_raw(
                descriptor.public_endpoint, "nat.ping",
                {"from": self.node_id}, sizes.connect_control, "nat",
            )
            self._sim.schedule(0.0, on_ready)
            return
        if descriptor.route_too_long():
            self._sim.schedule(0.0, lambda: on_fail("route too long"))
            return
        pending = self._pending.get(target)
        if pending is not None:
            pending.on_ready.append(on_ready)
            pending.on_fail.append(on_fail)
            return
        if not descriptor.route:
            self._sim.schedule(
                0.0, lambda: on_fail("no route to natted node")
            )
            return
        first_hop = descriptor.route[0]
        first_session = self.session(first_hop)
        if first_session is None:
            self._sim.schedule(
                0.0, lambda: on_fail(f"no session with first hop {first_hop}")
            )
            return
        pending = _PendingConnect(target=target, route=descriptor.route)
        pending.on_ready.append(on_ready)
        pending.on_fail.append(on_fail)
        if self.telemetry.enabled:
            pending.span = self.telemetry.span_start(
                "nat.connect", node=self.node_id, layer="nat",
                target=target, route_len=len(descriptor.route),
            )
        pending.timer_event = self._sim.schedule(
            timeout, lambda: self._settle(target, error="connect timeout")
        )
        self._pending[target] = pending
        connect = {
            "target": target,
            "requester": self.node_id,
            "requester_nat": self.nat_type,
            "requester_external": self._reflexive,
            "remaining": list(descriptor.route[1:]),
            "path_taken": [self.node_id],
        }
        self.send_via_session(
            first_hop, "nat.connect", connect, sizes.connect_control, "nat"
        )

    def _settle(self, target: NodeId, error: str | None) -> None:
        pending = self._pending.pop(target, None)
        if pending is None or pending.settled:
            return
        pending.settled = True
        if pending.timer_event is not None:
            pending.timer_event.cancel()  # type: ignore[attr-defined]
        if pending.span is not None:
            self.telemetry.span_end(
                pending.span, ok=error is None, error=error,
            )
        if self.telemetry.enabled:
            self.telemetry.counter(
                "nat.connects", layer="nat", outcome="ok" if error is None else "fail"
            ).inc()
        if error is None:
            for callback in pending.on_ready:
                callback()
        else:
            for callback in pending.on_fail:
                callback(error)

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def send_via_session(
        self, peer: NodeId, kind: str, payload: object, size: int, category: str
    ) -> bool:
        """Send over the open session to ``peer``; False if none exists.

        Relayed sessions are resolved iteratively: each level wraps the
        payload in a relay envelope addressed to the hop the relay must
        reach.  A relay whose own session is relayed is followed (bounded
        depth), and cycles — which can arise when two natted nodes end up
        relaying for each other after churn — fail the send instead of
        recursing forever.
        """
        sessions = self._sessions
        lifetime = self.policy.session_lifetime
        now = self._sim.now
        visited: set[NodeId] | None = None  # allocated only when relaying
        current = peer
        while True:
            # Inline session() — single dict get + lease expiry — because
            # this loop runs once per session-borne packet.
            session = sessions.get(current)
            if session is None:
                return False
            if now - session.last_used > lifetime:
                del sessions[current]
                return False
            session.last_used = now
            chain = session.relay_chain
            if chain is None:
                break
            if visited is None:
                visited = set()
            elif current in visited or len(visited) >= 4:
                return False
            visited.add(current)
            assert chain
            payload = {
                "target": current,
                "chain": list(chain[1:]),
                "origin": self.node_id,
                "kind": kind,
                "payload": payload,
                "inner_size": size,
            }
            kind = "nat.relay"
            size = size + sizes.connect_control
            current = chain[0]
        assert session.remote_endpoint is not None
        self._net.send(
            self.node_id,
            session.remote_endpoint,
            "nat.data",
            {"from": self.node_id, "kind": kind, "payload": payload, "inner_size": size},
            size,
            protocol=self.policy.protocol,
            category=category,
        )
        return True

    def _send_raw(
        self, dst: Endpoint, kind: str, payload: object, size: int, category: str
    ) -> None:
        self._net.send(
            self.node_id, dst, kind, payload, size,
            protocol=self.policy.protocol, category=category,
        )

    # ------------------------------------------------------------------
    # inbound
    # ------------------------------------------------------------------
    def handle_message(self, message: Message) -> None:
        """Entry point for all ``nat.*`` fabric messages addressed to us.

        Only four kinds travel raw on the wire: ``nat.data`` (session
        payloads, possibly carrying internal control kinds), and the
        connection-less ``nat.hello`` / ``nat.ping`` / ``nat.pong``.
        """
        kind = message.kind
        if kind == "nat.data":
            self._on_data(message)
        elif kind == "nat.hello":
            self._on_hello(message)
        elif kind == "nat.ping":
            self._on_ping(message)
        elif kind == "nat.pong":
            self._on_pong(message.payload)

    def _on_data(self, message: Message) -> None:
        body = message.payload
        peer = body["from"]
        now = self._sim.now
        # Refresh (or adopt) the reverse session: the observed source endpoint
        # is where replies reach the peer through its NAT.
        session = self._sessions.get(peer)
        if session is None:
            session = self._install_session(peer, message.src, relay=None)
        elif session.relay_chain is None:
            # Refresh in place — equivalent to reinstalling the direct
            # session, without allocating a new Session per inbound message.
            session.remote_endpoint = message.src
            session.established_at = now
        # Inbound traffic is liveness evidence (what _note_alive records),
        # folded in here to avoid a second session-table lookup.
        session.last_used = now
        session.last_seen = now
        session.missed_probes = 0
        kind = body["kind"]
        if kind.startswith("nat."):
            self._dispatch_internal(kind, body["payload"])
        elif self._deliver_upcall is not None:
            self._deliver_upcall(peer, kind, body["payload"], body["inner_size"])

    def _dispatch_internal(self, kind: str, payload: dict) -> None:
        """Control messages carried over sessions (after ``nat.data`` unwrap)."""
        if kind == "nat.relay":
            self._on_relay(payload)
        elif kind == "nat.connect":
            self._on_connect(payload)
        elif kind == "nat.connect_fail":
            self._on_connect_fail(payload)
        elif kind == "nat.punch_offer":
            self._on_punch_offer(payload)
        elif kind == "nat.punch_accept":
            self._on_punch_accept(payload)
        elif kind == "nat.sping":
            # Liveness probe: answer so the prober's clock resets.  Works
            # over relayed sessions too, since both travel as session data.
            self.send_via_session(
                payload["from"], "nat.spong", {"from": self.node_id},
                sizes.connect_control, "nat",
            )
        elif kind == "nat.spong":
            self._note_alive(payload["from"])

    def _on_relay(self, envelope: dict) -> None:
        target = envelope["target"]
        origin = envelope["origin"]
        if target == self.node_id:
            # Terminal: we are the destination, reached through a relay.
            # Preserve the origin attribution the envelope carries, and keep
            # our reverse (relayed) session towards the origin alive.
            reverse = self._sessions.get(origin)
            if reverse is not None:
                reverse.last_used = self._sim.now
            self._note_alive(origin)
            inner_kind = envelope["kind"]
            if inner_kind.startswith("nat."):
                self._dispatch_internal(inner_kind, envelope["payload"])
            elif self._deliver_upcall is not None:
                self._deliver_upcall(
                    origin, inner_kind, envelope["payload"], envelope["inner_size"]
                )
            return
        # Forward the envelope along its remaining chain (or, as the final
        # rendezvous, over our session to the target); the final receiver
        # still sees the true origin.
        chain: list[NodeId] = envelope.get("chain") or []
        if chain:
            forwarded = dict(envelope)
            forwarded["chain"] = chain[1:]
            next_hop = chain[0]
        else:
            forwarded = envelope
            next_hop = target
        if self.send_via_session(
            next_hop, "nat.relay", forwarded,
            envelope["inner_size"] + sizes.connect_control, "nat.relay",
        ):
            self.stats_relayed += 1
            tel = self.telemetry
            if tel.enabled:
                tel.counter("nat.relayed", node=self.node_id, layer="nat").inc()
                if envelope["kind"] == "wcl.onion":
                    # An honest-but-curious relay forwarding an onion: the
                    # measurement-only trace id on the packet lets Fig. 7
                    # attribute the relay hop — the protocol itself never
                    # reads it (see core/onion.py).
                    tel.instant(
                        "nat.relay", node=self.node_id, layer="nat",
                        trace_id=getattr(envelope["payload"], "trace_id", None),
                    )

    def _on_connect(self, request: dict) -> None:
        target: NodeId = request["target"]
        remaining: list[NodeId] = request["remaining"]
        path: list[NodeId] = request["path_taken"]
        if remaining:
            next_hop = remaining[0]
            if self.has_session(next_hop):
                forwarded = dict(request)
                forwarded["remaining"] = remaining[1:]
                forwarded["path_taken"] = path + [self.node_id]
                self.send_via_session(
                    next_hop, "nat.connect", forwarded, sizes.connect_control, "nat"
                )
            else:
                self._fail_back(path, target, f"hop {self.node_id} lost {next_hop}")
            return
        # We are the rendezvous: we must hold a session with the target.
        if not self.has_session(target):
            self._fail_back(path, target, f"rv {self.node_id} lost {target}")
            return
        offer = {
            "requester": request["requester"],
            "requester_nat": request["requester_nat"],
            "requester_external": request["requester_external"],
            "reply_path": path + [self.node_id],
            "rv": self.node_id,
        }
        self.send_via_session(
            target, "nat.punch_offer", offer, sizes.connect_control, "nat"
        )

    def _fail_back(self, path: list[NodeId], target: NodeId, reason: str) -> None:
        notice = {"path": path, "target": target, "reason": reason}
        self._route_back(notice, "nat.connect_fail")

    def _route_back(self, notice: dict, kind: str) -> None:
        path: list[NodeId] = notice["path"]
        if not path:
            return
        previous = path[-1]
        notice = dict(notice)
        notice["path"] = path[:-1]
        if previous == self.node_id:
            # We are the origin of the request.
            if kind == "nat.connect_fail":
                self._settle(notice["target"], error=notice["reason"])
            elif kind == "nat.punch_accept":
                self._complete_punch(notice)
            return
        self.send_via_session(previous, kind, notice, sizes.connect_control, "nat")

    def _on_connect_fail(self, notice: dict) -> None:
        if not notice["path"]:
            self._settle(notice["target"], error=notice["reason"])
        else:
            self._route_back(notice, "nat.connect_fail")

    def _on_punch_offer(self, offer: dict) -> None:
        """We are the connection target; the RV relayed the requester's offer."""
        requester: NodeId = offer["requester"]
        requester_nat: NatType = offer["requester_nat"]
        requester_external: Endpoint | None = offer["requester_external"]
        rv: NodeId = offer["rv"]
        # "sym NAT devices require the use of relay nodes by the Nylon
        # layer": any other pair punches (NATCracker [20], Ford et al. [23]).
        punchable = (
            not self.nat_type.is_symmetric
            and not requester_nat.is_symmetric
            and requester_external is not None
        )
        if punchable:
            # Open our egress mapping and the peer's ingress path.
            for _ in range(2):  # redundancy against loss
                self._send_raw(
                    requester_external, "nat.hello",
                    {"from": self.node_id}, sizes.connect_control, "nat",
                )
            self.stats_punches += 1
            if self.telemetry.enabled:
                self.telemetry.counter("nat.punches", layer="nat").inc()
        else:
            # The rendezvous chain stays on the path: our replies travel the
            # reversed chain (RV first, then the hops back to the requester;
            # each consecutive pair holds a session from the establishment).
            reply_path: list[NodeId] = offer["reply_path"]
            reverse_chain = tuple(reversed(reply_path[1:])) or (rv,)
            self._install_session(requester, endpoint=None, relay=reverse_chain)
            self.stats_relay_sessions += 1
            if self.telemetry.enabled:
                self.telemetry.counter("nat.relay_sessions", layer="nat").inc()
        accept = {
            "path": offer["reply_path"],
            "target": self.node_id,
            "requester": requester,
            "punch": punchable,
            "target_external": self._reflexive if punchable else None,
            "rv": rv,
        }
        self._route_back(accept, "nat.punch_accept")

    def _on_punch_accept(self, notice: dict) -> None:
        path: list[NodeId] = notice["path"]
        if not path:
            self._complete_punch(notice)
        else:
            self._route_back(notice, "nat.punch_accept")

    def _complete_punch(self, notice: dict) -> None:
        """Requester side: the target agreed (punch) or designated a relay."""
        target: NodeId = notice["target"]
        if notice["punch"] and notice["target_external"] is not None:
            endpoint: Endpoint = notice["target_external"]
            self._install_session(target, endpoint, relay=None)
            for _ in range(2):
                self._send_raw(
                    endpoint, "nat.hello",
                    {"from": self.node_id}, sizes.connect_control, "nat",
                )
        else:
            # The whole rendezvous chain we used stays on the path: we can
            # only reach the final RV through the hops we connected via.
            pending = self._pending.get(target)
            chain = pending.route if pending is not None and pending.route else (
                notice["rv"],
            )
            self._install_session(target, endpoint=None, relay=tuple(chain))
            self.stats_relay_sessions += 1
            if self.telemetry.enabled:
                self.telemetry.counter("nat.relay_sessions", layer="nat").inc()
        self._settle(target, error=None)

    def _on_hello(self, message: Message) -> None:
        """A punch packet: adopt/refresh the direct session to the sender."""
        peer = message.payload["from"]
        self._install_session(peer, message.src, relay=None)
        self._note_alive(peer)

    def _on_ping(self, message: Message) -> None:
        peer = message.payload["from"]
        self._install_session(peer, message.src, relay=None)
        # Echo the observed source so the peer learns its reflexive endpoint.
        self._send_raw(
            message.src, "nat.pong",
            {"from": self.node_id, "observed": message.src},
            sizes.connect_control, "nat",
        )

    def _on_pong(self, payload: dict) -> None:
        peer = payload["from"]
        observed: Endpoint = payload["observed"]
        if self.nat_type.is_natted and not self.nat_type.is_symmetric:
            # Cone NATs keep one stable external mapping per internal socket,
            # so the reflexive endpoint is reusable for hole punching.
            self._reflexive = observed
        elif not self.nat_type.is_natted:
            self._reflexive = observed
        session = self._sessions.get(peer)
        if session is not None:
            session.last_used = self._sim.now
        self._note_alive(peer)

    # ------------------------------------------------------------------
    def learn_reflexive_via(self, descriptor: NodeDescriptor) -> None:
        """STUN-like bootstrap: ping a public node to learn our external endpoint."""
        if not descriptor.is_public or descriptor.public_endpoint is None:
            raise ValueError("reflexive discovery requires a public node")
        self._send_raw(
            descriptor.public_endpoint, "nat.ping",
            {"from": self.node_id}, sizes.connect_control, "nat",
        )
