"""WCL: the WHISPER communication layer (Section III).

Provides the ``sendTo(contact, msg)`` / ``receive(msg)`` API of Fig. 1:
one-way confidential channels over onion paths S -> A -> B -> D, where

- A (first mix) comes from the sender's connection backlog — a node with a
  recently-used bidirectional NAT route;
- B (second mix) must be a P-node that can reach D: one of D's advertised
  gateways when D is natted, or any known P-node when D is public;
- content is encrypted with a fresh symmetric key sealed for D only.

Failures are silent by design (a broken hop cannot notify the source without
breaking anonymity); callers detect them by end-to-end timeout and re-send
with :meth:`WhisperCommunicationLayer.send_to` excluding tried mix pairs —
exactly the retry scheme evaluated in Table I.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from ..crypto.provider import (
    CryptoError,
    CryptoProvider,
    KeyPair,
    LayeredPayload,
    PublicKey,
)
from ..nat.traversal import ConnectionManager, NodeDescriptor
from ..net.address import NodeId, NodeKind
from ..net.message import sizes
from ..nat.types import NatType
from ..sim.clock import Clock
from ..telemetry import NULL_TELEMETRY, Telemetry
from .backlog import ConnectionBacklog
from .contact import Gateway, PrivateContact
from .onion import (
    CircuitFrame,
    CircuitHop,
    CircuitSetupPacket,
    HopSpec,
    NextHop,
    OnionPacket,
    build_circuit_setup,
    build_onion,
    peel,
)

__all__ = ["WhisperCommunicationLayer", "AttemptInfo", "WclStats"]

ReceiveUpcall = Callable[[Any], None]

CIRCUIT_LIFETIME = 600.0  # seconds a circuit's per-hop keys are honoured


@dataclass(frozen=True, slots=True)
class AttemptInfo:
    """Outcome of one path-construction attempt (for retry bookkeeping)."""

    first_mix: NodeId
    second_mix: NodeId  # the next-to-last hop (always a P-node)
    trace_id: int
    middle_mixes: tuple[NodeId, ...] = ()  # extra hops when mixes > 2


@dataclass
class WclStats:
    """Counters for one WCL endpoint."""

    sent: int = 0
    forwarded: int = 0  # onions relayed as a mix
    delivered: int = 0  # onions terminating here
    no_path: int = 0  # send_to found no usable (A, B) pair
    degraded_paths: int = 0  # pair drawn from the widened (PSS-view) pool
    misrouted: int = 0  # header did not open with our key
    forward_failures: int = 0  # next-hop session was gone
    mix_held: int = 0  # forwards pooled by batched mixing (countermeasure)
    circuit_setups: int = 0  # CircuitSetup onions emitted (incl. rekeys)
    circuit_sent: int = 0  # data frames sent on an established circuit
    circuit_forwarded: int = 0  # circuit frames relayed as a mix
    circuit_delivered: int = 0  # circuit frames terminating here
    circuit_expired: int = 0  # frames dropped at an expired relay entry
    circuit_rekeys: int = 0  # expired source circuits refreshed with new keys


@dataclass
class _SourceCircuit:
    """Source-side record of one persistent circuit to a contact."""

    contact_id: NodeId
    circuit_id: int  # the label on the first-mix link
    keys: tuple[bytes, ...]  # per-hop layer keys, first mix outermost
    first_mix: NodeId
    second_mix: NodeId
    middle_mixes: tuple[NodeId, ...]
    expires_at: float  # conservative: setup send time + lifetime
    established: bool = False  # the destination's ack came back


@dataclass
class _RelayCircuit:
    """Per-hop circuit state installed by a setup layer (mix or dest)."""

    key: bytes
    next_hop: NextHop | None  # None: we are the destination
    next_circuit_id: int | None
    prev_peer: NodeId  # session the setup arrived on — routes acks backward
    expires_at: float


class WhisperCommunicationLayer:
    """One node's WCL endpoint."""

    def __init__(
        self,
        node_id: NodeId,
        keypair: KeyPair,
        cm: ConnectionManager,
        backlog: ConnectionBacklog,
        provider: CryptoProvider,
        sim: Clock,
        rng: random.Random,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.node_id = node_id
        self.keypair = keypair
        self.cm = cm
        self.backlog = backlog
        self.provider = provider
        self._sim = sim
        self._rng = rng
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.stats = WclStats()
        self._receive_upcall: ReceiveUpcall | None = None
        # Batched mixing (anonymity countermeasure): None = off, the
        # default — the forward path is then byte-identical to a build
        # without the feature.  A non-empty pool has its flush scheduled.
        self._mix_batch_interval: float | None = None
        self._mix_pool: list[tuple[int, NextHop, object, str]] = []
        # Circuit mode (amortized RSA): off by default — with it off, no
        # circuit state exists and every path below is byte-identical to a
        # build without the feature.
        self._circuit_mode = False
        self._circuits: dict[NodeId, _SourceCircuit] = {}  # by contact
        self._circuit_by_id: dict[int, _SourceCircuit] = {}  # by first-link label
        self._relay: dict[int, _RelayCircuit] = {}  # by our inbound label
        self._relay_back: dict[int, int] = {}  # next hop's label -> ours

    @property
    def public_key(self) -> PublicKey:
        """This node's circulating WCL identity key."""
        return self.keypair.public

    def set_receive_upcall(self, upcall: ReceiveUpcall) -> None:
        """Register the PPSS (or application) sink for arriving contents."""
        self._receive_upcall = upcall

    def self_contact(self) -> PrivateContact:
        """How this node advertises itself: identity, WCL key and — for an
        N-node — the Π gateway P-nodes of its backlog, as the backlog holds
        them.  The one place a node's contact is assembled."""
        descriptor = self.cm.descriptor()
        gateways = () if descriptor.is_public else self.backlog.gateways_for_self()
        return PrivateContact(
            descriptor=descriptor, key=self.public_key, gateways=gateways
        )

    # ------------------------------------------------------------------
    # sending (the WCL API's sendTo)
    # ------------------------------------------------------------------
    def send_to(
        self,
        contact: PrivateContact,
        content: Any,
        content_size: int,
        exclude: set[tuple[NodeId, NodeId]] | None = None,
        context: str = "wcl",
        mixes: int = 2,
    ) -> AttemptInfo | None:
        """Build an onion path to ``contact`` and emit the message.

        ``exclude`` lists (first mix, second mix) pairs already tried; the
        selection draws a pair outside it, so callers implement the paper's
        alternative-path retries by accumulating failures.  Returns None
        when no usable pair remains ("No alt." in Table I).

        ``mixes`` sets the path length: the paper's default is 2 (paths of
        exactly four nodes); footnote 2's colluding-attacker extension uses
        f mixes to tolerate f-1 colluders.  Extra mixes are P-nodes from
        the connection backlog inserted between the first mix and the
        next-to-last hop — every hop can reach a P-node directly.
        """
        if mixes < 2:
            raise ValueError(f"a WCL path needs at least 2 mixes, got {mixes}")
        exclude = exclude or set()
        if self._circuit_mode:
            attempt = self._try_circuit_send(
                contact, content, content_size, exclude, context, mixes
            )
            if attempt is not None:
                return attempt
            # No established circuit (one may just have been initiated):
            # fall through to the per-message path — Table I retry
            # semantics are untouched by circuit mode.
        plan = self._plan_path(contact, exclude, mixes)
        if plan is None:
            self.stats.no_path += 1
            self._tick("wcl.no_path")
            return None
        first, second, middles, path = plan
        packet, build_ms = self._charged(
            build_onion, self.provider, path, content, content_size
        )
        tel = self.telemetry
        if tel.enabled:
            self._span(f"{context}.build", packet.trace_id, build_ms, hops=len(path))
            self._tick("wcl.sent")
            tel.histogram("wcl.build_ms", layer="wcl").observe(build_ms)
        self._emit_after(build_ms, first, "wcl.onion", packet, context)
        self.stats.sent += 1
        return AttemptInfo(first, second, packet.trace_id, middles)

    def _plan_path(
        self,
        contact: PrivateContact,
        exclude: set[tuple[NodeId, NodeId]],
        mixes: int,
    ) -> tuple[NodeId, NodeId, tuple[NodeId, ...], list[HopSpec]] | None:
        """Draw the mixes and lay out the hop list: ``(first mix, second
        mix, middle mixes, path)``.

        Shared by per-message sends and circuit setups.  None when no
        usable mix pair remains or the backlog cannot supply the middles.
        """
        pair = self._select_mixes(contact, exclude)
        if pair is None:
            return None
        first, second = pair
        middles = self._select_middle_mixes(
            mixes - 2, forbidden={first.node_id, second.node_id, contact.node_id},
        )
        if len(middles) < mixes - 2:
            return None
        dest_endpoint = (
            contact.descriptor.public_endpoint if contact.is_public else None
        )
        # The first mix is reached over an open session; every later mix is
        # a P-node, reached by the endpoint its hop spec carries.
        path = [HopSpec(first.node_id, first.key)]
        path += [
            HopSpec(m.node_id, m.key, public_endpoint=m.descriptor.public_endpoint)
            for m in (*middles, second)
        ]
        path.append(
            HopSpec(contact.node_id, contact.key, public_endpoint=dest_endpoint)
        )
        return first.node_id, second.node_id, tuple(m.node_id for m in middles), path

    def _select_middle_mixes(self, count: int, forbidden: set[NodeId]) -> list:
        """P-nodes from the CB serving as intermediate hops (mixes > 2)."""
        if count <= 0:
            return []
        candidates = [
            e for e in self.backlog.public_entries()
            if e.node_id not in forbidden
        ]
        self._rng.shuffle(candidates)
        return candidates[:count]

    def _select_mixes(
        self,
        contact: PrivateContact,
        exclude: set[tuple[NodeId, NodeId]],
    ) -> tuple[Gateway, Gateway] | None:
        """Draw an (A, B) pair honouring the paper's constraints."""
        forbidden = {self.node_id, contact.node_id}
        second_candidates: list[Gateway] = [
            g for g in contact.gateways if g.node_id not in forbidden
        ]

        def add_public_seconds(entries: list[Gateway]) -> None:
            # Any known P-node can reach a public destination directly.
            for entry in entries:
                if entry.is_public and entry.node_id not in forbidden and all(
                    g.node_id != entry.node_id for g in second_candidates
                ):
                    second_candidates.append(entry)

        if contact.is_public:
            add_public_seconds(self.backlog.public_entries())
        firsts = self.backlog.first_mix_candidates(exclude=forbidden)
        self._rng.shuffle(second_candidates)
        self._rng.shuffle(firsts)
        pair = self._pick_pair(firsts, second_candidates, exclude)
        if pair is not None:
            return pair
        # Graceful degradation: when the CB itself is starved — its P-node
        # quorum below Π, e.g. after a partition or a churn burst evicted
        # most entries — widen the pool with PSS-view peers that are just
        # as usable (key known from a gossip exchange, session still open)
        # rather than failing the send outright.  A healthy CB that merely
        # ran out of untried pairs still returns "no_path": there the
        # exclusions, not the backlog, are the binding constraint.
        if self.backlog.count_public() >= self.backlog.pi:
            return None
        widened = self._degraded_pool(forbidden)
        if not widened:
            return None
        self._rng.shuffle(widened)
        firsts = firsts + widened
        if contact.is_public:
            add_public_seconds(widened)
        pair = self._pick_pair(firsts, second_candidates, exclude)
        if pair is not None:
            self.stats.degraded_paths += 1
            self._tick("wcl.degraded_path")
        return pair

    @staticmethod
    def _pick_pair(
        firsts: list[Gateway],
        seconds: list[Gateway],
        exclude: set[tuple[NodeId, NodeId]],
    ) -> tuple[Gateway, Gateway] | None:
        # Vary the second mix fastest: a stale gateway is the most common
        # failure, so alternatives try a different B before a different A.
        for first in firsts:
            for second in seconds:
                if first.node_id == second.node_id:
                    continue
                if (first.node_id, second.node_id) in exclude:
                    continue
                return first, second
        return None

    def _degraded_pool(self, forbidden: set[NodeId]) -> list[Gateway]:
        """PSS-view peers usable as emergency mix candidates.

        A view entry qualifies when we learned its public key through a
        gossip exchange *and* still hold an open session towards it — at
        that point it offers exactly what a CB entry offers (a keyed,
        reachable hop), only staler.
        """
        pss = self.backlog.pss
        pool: list[Gateway] = []
        for entry in pss.view.entries():
            nid = entry.node_id
            if nid in forbidden or nid in self.backlog:
                continue
            key = pss.known_keys.get(nid)
            if key is None or not self.cm.has_session(nid):
                continue
            pool.append(Gateway(descriptor=entry.descriptor, key=key))
        return pool

    # ------------------------------------------------------------------
    # receiving / forwarding
    # ------------------------------------------------------------------
    def handle_onion(self, packet: OnionPacket) -> None:
        """An onion arrived over one of our sessions: peel, then act."""
        peeled = self._peel(packet, "wcl.peel")
        if peeled is None:
            return
        layer, forward, decrypt_ms = peeled
        tel = self.telemetry
        if tel.enabled:
            tel.histogram("wcl.peel_ms", layer="wcl").observe(decrypt_ms)
        if forward is None:
            # We are the destination: recover the content with k.
            assert layer.key is not None
            opened = self._open(self.provider.decrypt_payload, layer.key, packet.body)
            if opened is None:
                return
            # The body decrypt is charged CPU like the peel; the receive
            # upcall fires only after *both* (an earlier revision delayed
            # by the header peel alone, so delivery looked cheaper than
            # the accountant said it was).
            content, body_ms = opened
            self._deliver_after(
                (decrypt_ms + body_ms) / 1000.0, packet.trace_id, content
            )
            return
        next_hop = layer.next_hop
        assert next_hop is not None
        self._relay_after(decrypt_ms / 1000.0, next_hop, forward, "wcl.onion")

    # ------------------------------------------------------------------
    # batched mixing (anonymity countermeasure)
    # ------------------------------------------------------------------
    def enable_mix_batching(self, interval: float) -> None:
        """Hold-and-flush mixing for forwarded onions.

        Instead of forwarding each onion as soon as it is peeled, the mix
        pools it and releases the whole pool at the next batch boundary —
        a multiple of ``interval`` on the clock, so boundaries are
        deterministic and traces stay byte-identical per seed.  Flushes
        depart in trace-id order, decoupling departure order from arrival
        order: that reordering, plus the severed in/out timing link, is
        what defeats predecessor-style chaining.  Only *relayed* onions
        are held; a sender's own emissions are not (the countermeasure
        lives at WCL relays).
        """
        if interval <= 0:
            raise ValueError(
                f"mix batch interval must be positive, got {interval}"
            )
        self._mix_batch_interval = interval

    def _hold_for_mixing(
        self, next_hop: NextHop, packet, kind: str = "wcl.onion"
    ) -> None:
        if not self._mix_pool:
            interval = self._mix_batch_interval
            now = self._sim.now
            boundary = (int(now / interval) + 1) * interval
            self._sim.schedule(boundary - now, self._flush_mix_pool)
        self._mix_pool.append((packet.trace_id, next_hop, packet, kind))
        self.stats.mix_held += 1
        self._tick("wcl.mix_held")

    def _flush_mix_pool(self) -> None:
        pool, self._mix_pool = self._mix_pool, []
        for _trace_id, next_hop, packet, kind in sorted(pool, key=lambda h: h[0]):
            self._forward(next_hop, packet, kind)
        self._tick("wcl.mix_flushed", len(pool))

    def _deliver_after(self, delay: float, trace_id: int, content: Any) -> None:
        """We are the destination: count the arrival and hand the content
        to the receive upcall once the CPU time it cost has elapsed."""
        self.stats.delivered += 1
        tel = self.telemetry
        if tel.enabled:
            tel.instant(
                "wcl.delivered", trace_id=trace_id, node=self.node_id, layer="wcl",
            )
            self._tick("wcl.delivered")
        upcall = self._receive_upcall
        if upcall is not None:
            self._sim.schedule(delay, lambda: upcall(content))

    def _relay_after(self, delay: float, next_hop: NextHop, packet, kind: str) -> None:
        """We are a mix: count the forward and pass ``packet`` on once the
        CPU time it cost has elapsed — through the mix pool when batched
        mixing is on."""
        self.stats.forwarded += 1
        if self.telemetry.enabled:
            self._tick("wcl.forwarded")
        relay = (
            self._forward if self._mix_batch_interval is None
            else self._hold_for_mixing
        )
        self._sim.schedule(delay, lambda: relay(next_hop, packet, kind))

    def _forward(self, next_hop, packet, kind: str = "wcl.onion") -> None:
        def send() -> None:
            if not self.cm.send_via_session(
                next_hop.node_id, kind, packet, packet.wire_size, "wcl"
            ):
                self._forward_failed()

        self._reach(next_hop, send, self._forward_failed)

    def _reach(
        self, next_hop: NextHop, send: Callable[[], object], on_fail: Callable[[], None]
    ) -> None:
        """Run ``send`` once the next hop can be reached: a P-node hop
        carries its endpoint and gets a session opened on demand (all a
        session towards a P-node needs is its id and endpoint); any other
        hop is reached over the session the path constraints guarantee."""
        if next_hop.public_endpoint is None:
            send()
            return
        descriptor = NodeDescriptor(
            node_id=next_hop.node_id, kind=NodeKind.PUBLIC, nat_type=NatType.OPEN,
            public_endpoint=next_hop.public_endpoint,
        )
        self.cm.ensure_session(
            descriptor, on_ready=send, on_fail=lambda reason: on_fail()
        )

    def _forward_failed(self) -> None:
        # A mix cannot report the break without revealing path structure;
        # the source recovers by end-to-end timeout (Table I "Alt." rows).
        self.stats.forward_failures += 1
        self._tick("wcl.forward_failures")

    # ------------------------------------------------------------------
    # circuit mode (amortized RSA: HORNET/Sphinx-style persistent paths)
    # ------------------------------------------------------------------
    def enable_circuits(self) -> None:
        """Amortize path crypto: RSA once at setup, AES-only frames after.

        A ``CircuitSetup`` onion installs per-hop symmetric keys keyed by
        per-link circuit labels; once the destination's ack walks back,
        ``send_to`` to that contact skips :func:`build_onion` entirely and
        emits layered symmetric frames.  ``CIRCUIT_LIFETIME`` bounds how
        long any hop honours the keys — the source treats its circuit as
        expired after the same lifetime from *setup emission*, which is
        strictly earlier than any hop's install-time deadline, and rekeys
        with a fresh setup on the next send (rekey-on-refresh).
        """
        self._circuit_mode = True

    @property
    def circuit_mode(self) -> bool:
        return self._circuit_mode

    def _try_circuit_send(
        self,
        contact: PrivateContact,
        content: Any,
        content_size: int,
        exclude: set[tuple[NodeId, NodeId]],
        context: str,
        mixes: int,
    ) -> AttemptInfo | None:
        """Send on an established circuit, or lazily initiate one.

        Returns None when the message must go per-message this time —
        because no circuit exists yet (a setup may now be in flight), the
        existing one expired (torn down + rekey initiated), or the caller
        excluded this circuit's mix pair (a timeout implicates the path:
        the circuit is torn down rather than retried).
        """
        circuit = self._circuits.get(contact.node_id)
        if circuit is not None:
            if (circuit.first_mix, circuit.second_mix) in exclude:
                self._close_source_circuit(circuit, notify=True)
                return None
            if self._sim.now >= circuit.expires_at:
                self._close_source_circuit(circuit, notify=False)
                self.stats.circuit_rekeys += 1
                self._tick("wcl.circuit_rekeys")
                circuit = None  # rekey: a fresh setup goes out below
            elif len(circuit.keys) != mixes + 1:
                # A different path length was requested; leave the circuit
                # for its own callers and send this one per-message.
                return None
        if circuit is None:
            self._open_circuit(contact, exclude, context, mixes)
            return None
        if not circuit.established:
            return None
        return self._send_on_circuit(circuit, content, content_size, context)

    def _open_circuit(
        self,
        contact: PrivateContact,
        exclude: set[tuple[NodeId, NodeId]],
        context: str,
        mixes: int,
    ) -> None:
        """Pick a path (same constraints as send_to) and emit the setup.

        Silent when no path exists: the caller falls back to a per-message
        send, which does the ``no_path`` accounting.
        """
        plan = self._plan_path(contact, exclude, mixes)
        if plan is None:
            return
        first, second, middles, path = plan
        keys = tuple(self.provider.new_symmetric_key() for _ in path)
        labels = [self._new_circuit_label() for _ in path]
        hops = [
            CircuitHop(
                circuit_id=label, key=key, next_circuit_id=next_label,
                lifetime=CIRCUIT_LIFETIME,
            )
            for label, key, next_label in zip(labels, keys, [*labels[1:], None])
        ]
        packet, build_ms = self._charged(build_circuit_setup, self.provider, path, hops)
        circuit = _SourceCircuit(
            contact_id=contact.node_id, circuit_id=labels[0], keys=keys,
            first_mix=first, second_mix=second, middle_mixes=middles,
            expires_at=self._sim.now + CIRCUIT_LIFETIME,
        )
        self._circuits[contact.node_id] = self._circuit_by_id[labels[0]] = circuit
        self.stats.circuit_setups += 1
        if self.telemetry.enabled:
            self._span(
                f"{context}.circuit_setup", packet.trace_id, build_ms, hops=len(path)
            )
            self._tick("wcl.circuit_setups")
        self._emit_after(build_ms, first, "wcl.circuit_setup", packet)

    def _new_circuit_label(self) -> int:
        """A fresh per-link circuit label (locally collision-checked)."""
        while True:
            label = self._rng.getrandbits(48)
            if label not in self._circuit_by_id and label not in self._relay:
                return label

    def _send_on_circuit(
        self,
        circuit: _SourceCircuit,
        content: Any,
        content_size: int,
        context: str,
    ) -> AttemptInfo:
        """The amortized data path: symmetric layer wrap, no RSA at all."""
        body, wrap_ms = self._charged(
            self.provider.wrap_layers, circuit.keys, content, content_size
        )
        frame = CircuitFrame(
            circuit_id=circuit.circuit_id, body=body,
            trace_id=self.provider.next_trace_id(),
        )
        tel = self.telemetry
        if tel.enabled:
            self._span(
                f"{context}.cwrap", frame.trace_id, wrap_ms, hops=len(circuit.keys)
            )
            self._tick("wcl.sent")
            self._tick("wcl.circuit_sent")
            tel.histogram("wcl.circuit_wrap_ms", layer="wcl").observe(wrap_ms)
        self._emit_after(wrap_ms, circuit.first_mix, "wcl.circuit_data", frame)
        self.stats.sent += 1
        self.stats.circuit_sent += 1
        return AttemptInfo(
            circuit.first_mix, circuit.second_mix, frame.trace_id, circuit.middle_mixes
        )

    def _close_source_circuit(
        self, circuit: _SourceCircuit, notify: bool
    ) -> None:
        self._circuits.pop(circuit.contact_id, None)
        self._circuit_by_id.pop(circuit.circuit_id, None)
        if notify:
            self._send_control(
                circuit.first_mix, "wcl.circuit_teardown", circuit.circuit_id
            )

    # -- relay/destination side ----------------------------------------
    def handle_circuit_setup(self, peer: NodeId, packet: CircuitSetupPacket) -> None:
        """A setup onion arrived: install per-hop state, forward or ack."""
        peeled = self._peel(packet, "wcl.circuit_install")
        if peeled is None:
            return
        layer, forward, decrypt_ms = peeled
        hop = layer.hop
        now = self._sim.now
        self._sweep_expired_relays(now)
        self._relay[hop.circuit_id] = _RelayCircuit(
            key=hop.key,
            next_hop=layer.next_hop,
            next_circuit_id=hop.next_circuit_id,
            prev_peer=peer,
            expires_at=now + hop.lifetime,
        )
        if hop.next_circuit_id is not None:
            self._relay_back[hop.next_circuit_id] = hop.circuit_id
        if self.telemetry.enabled:
            self._tick("wcl.circuit_installed")
        delay = decrypt_ms / 1000.0
        if forward is None:
            # We are the destination: complete the handshake with an ack
            # walking hop-by-hop back along the reverse labels.
            circuit_id = hop.circuit_id
            self._sim.schedule(
                delay, lambda: self._send_control(peer, "wcl.circuit_ack", circuit_id)
            )
            return
        next_hop = layer.next_hop
        assert next_hop is not None and forward is not None
        # Setup onions are rare control traffic; they bypass batched
        # mixing (which protects the data path's timing).
        self._sim.schedule(
            delay, lambda: self._forward(next_hop, forward, "wcl.circuit_setup")
        )

    def handle_circuit_ack(self, peer: NodeId, payload: dict) -> None:
        """A backward setup ack: mark established, or relay further back."""
        circuit_id = payload["circuit"]
        circuit = self._circuit_by_id.get(circuit_id)
        if circuit is not None:
            if not circuit.established:
                circuit.established = True
                self._tick("wcl.circuit_established")
            return
        our_label = self._relay_back.get(circuit_id)
        entry = self._relay.get(our_label)
        if entry is None:
            return  # stale or unknown: a mix never complains
        self._send_control(entry.prev_peer, "wcl.circuit_ack", our_label)

    def handle_circuit_data(self, frame: CircuitFrame) -> None:
        """A data frame: unwrap our layer, deliver or relabel + forward."""
        tel = self.telemetry
        entry = self._relay.get(frame.circuit_id)
        if entry is None:
            # Unknown label: the circuit-mode analogue of an onion that
            # does not open with our key.
            self._misrouted()
            return
        if self._sim.now >= entry.expires_at:
            self._drop_relay_entry(frame.circuit_id, entry)
            self.stats.circuit_expired += 1
            self._tick("wcl.circuit_expired")
            return
        opened = self._open(self.provider.unwrap_layer, entry.key, frame.body)
        if opened is None:
            return
        result, unwrap_ms = opened
        delay = unwrap_ms / 1000.0
        next_hop = entry.next_hop
        if tel.enabled:
            self._span(
                "wcl.cunwrap", frame.trace_id, unwrap_ms,
                role="dest" if next_hop is None else "mix",
            )
            tel.histogram("wcl.cunwrap_ms", layer="wcl").observe(unwrap_ms)
        if next_hop is None:
            # We are the destination; the unwrap returned the content.
            self.stats.circuit_delivered += 1
            self._deliver_after(delay, frame.trace_id, result)
            if tel.enabled:
                self._tick("wcl.circuit_delivered")
            return
        assert isinstance(result, LayeredPayload)
        assert entry.next_circuit_id is not None
        forward = CircuitFrame(
            circuit_id=entry.next_circuit_id, body=result,
            trace_id=frame.trace_id,
        )
        self.stats.circuit_forwarded += 1
        if tel.enabled:
            self._tick("wcl.circuit_forwarded")
        self._relay_after(delay, next_hop, forward, "wcl.circuit_data")

    def handle_circuit_teardown(self, payload: dict) -> None:
        """Explicit teardown walking the forward direction."""
        circuit_id = payload["circuit"]
        entry = self._relay.get(circuit_id)
        if entry is None:
            return
        self._drop_relay_entry(circuit_id, entry)
        self._tick("wcl.circuit_torn_down")
        if entry.next_hop is None or entry.next_circuit_id is None:
            return
        next_hop, next_label = entry.next_hop, entry.next_circuit_id
        self._reach(
            next_hop,
            lambda: self._send_control(
                next_hop.node_id, "wcl.circuit_teardown", next_label
            ),
            on_fail=lambda: None,  # silent, like every break on a path
        )

    def _drop_relay_entry(self, circuit_id: int, entry: _RelayCircuit) -> None:
        self._relay.pop(circuit_id, None)
        if entry.next_circuit_id is not None:
            self._relay_back.pop(entry.next_circuit_id, None)

    def _sweep_expired_relays(self, now: float) -> None:
        """Drop relay entries past their deadline (bounds idle state)."""
        for circuit_id, entry in list(self._relay.items()):
            if now >= entry.expires_at:
                self._drop_relay_entry(circuit_id, entry)

    # ------------------------------------------------------------------
    # the pipeline steps every packet family shares (Fig. 2: run a crypto
    # operation, charge its CPU time, record it, act once it has elapsed)
    # ------------------------------------------------------------------
    def _charged(self, op: Callable[..., Any], *args) -> tuple[Any, float]:
        """Run one crypto operation, charged to this node:
        ``(its result, the CPU ms it charged)``."""
        start_ms = self._charged_ms()
        result = op(*args, node=self.node_id)
        return result, self._charged_ms() - start_ms

    def _open(
        self, op: Callable[..., Any], secret: Any, envelope: Any
    ) -> tuple[Any, float] | None:
        """The charged decrypt step of a receive path, ``op(secret, envelope)``.
        None — counted as ``misrouted``, never reported (a mix does not
        complain) — when the envelope does not open under our key.  Written
        out rather than forwarded to :meth:`_charged`: a circuit message
        passes here three times and ``op(*args)`` costs ~0.5 us more a call."""
        start_ms = self._charged_ms()
        try:
            result = op(secret, envelope, node=self.node_id)
        except CryptoError:
            self._misrouted()
            return None
        return result, self._charged_ms() - start_ms

    def _charged_ms(self) -> float:
        """Cumulative CPU ms charged to this node (delta = cost of a step)."""
        return self.provider.accountant.node_total_ms(self.node_id)

    def _peel(self, packet: OnionPacket | CircuitSetupPacket, span: str):
        """Open our layer of a data or setup onion: ``(layer, packet to
        forward or None at the destination, CPU ms)``, or None (misrouted)."""
        opened = self._open(partial(peel, self.provider), self.keypair, packet)
        if opened is None:
            return None
        (layer, forward), decrypt_ms = opened
        if self.telemetry.enabled:
            role = "dest" if forward is None else "mix"
            self._span(span, packet.trace_id, decrypt_ms, role=role)
        return layer, forward, decrypt_ms

    def _misrouted(self) -> None:
        self.stats.misrouted += 1
        self._tick("wcl.misrouted")

    def _tick(self, name: str, amount: int = 1) -> None:
        self.telemetry.counter(name, node=self.node_id, layer="wcl").inc(amount)

    def _span(self, name: str, trace_id: int, ms: float, **labels: Any) -> None:
        """Record a charged step (callers check ``tel.enabled``).  The span
        covers the CPU time the step charged: what the step produced leaves
        this node, or reaches the upcall, exactly when the span closes."""
        tel = self.telemetry
        span = tel.span_start(
            name, trace_id=trace_id, node=self.node_id, layer="wcl", ms=ms, **labels
        )
        tel.span_end(span, at=self._sim.now + ms / 1000.0)

    def _emit_after(
        self, build_ms: float, first_mix: NodeId, kind: str, packet,
        sent_context: str | None = None,
    ) -> None:
        """The CPU time a build charged delays its transmission: ``packet``
        goes out on the first-mix session once ``build_ms`` have elapsed.
        A per-message onion marks that instant as ``<context>.sent``."""
        def emit() -> None:
            if sent_context is not None:
                self.telemetry.instant(
                    f"{sent_context}.sent", trace_id=packet.trace_id,
                    node=self.node_id, layer="wcl",
                )
            self.cm.send_via_session(first_mix, kind, packet, packet.wire_size, "wcl")

        self._sim.schedule(build_ms / 1000.0, emit)

    def _send_control(self, peer: NodeId, kind: str, circuit_id: int) -> bool:
        """One circuit control message (ack, teardown) over an open session."""
        return self.cm.send_via_session(
            peer, kind, {"circuit": circuit_id}, sizes.circuit_header, "wcl"
        )
