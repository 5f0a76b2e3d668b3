"""The network fabric: NAT-aware, latency-modelled message delivery.

This is the lowest substrate the protocol stack runs on.  A send goes
through the following pipeline::

    sender --(NAT egress translation)--> wire --(latency, loss)-->
        destination endpoint --(NAT ingress filtering)--> receiver handler

Bandwidth is charged per message (upload at the sender always, download at
the receiver only on successful delivery), and link observers are notified
of everything that touches the wire — including packets later dropped by an
ingress filter, since a wiretap sees those too.

The per-message pipeline is one ``send`` / ``_deliver`` closure pair built
by :meth:`Network._rebind`.  All per-node state resolves through the
struct-of-arrays tables the NAT topology and bandwidth accountant maintain
(dense lists indexed by node id) rather than per-node dicts and objects;
the closures bind those backing lists/dicts by identity, which is why the
structures are grown and cleared in place everywhere.  Optional features
(wire mode, telemetry, fault hook, observers, foreign router) are tested
per message against closed-over flags; reconfiguring the fabric
(``set_wire_mode``, ``set_fault_hook``, ``add_observer``,
``set_foreign_router``) rebuilds the pair.
"""

from __future__ import annotations

import heapq
import itertools
import zlib
from functools import partial
from typing import TYPE_CHECKING, Callable, Protocol as TypingProtocol

from ..core.lru import LruCache
from ..sim.engine import Event, SimulationError, Simulator
from ..telemetry import NULL_TELEMETRY

if TYPE_CHECKING:  # avoid a runtime net <-> nat import cycle
    from ..nat.topology import NatTopology
    from ..telemetry import Telemetry
from .address import Endpoint, NodeId, Protocol
from .bandwidth import BandwidthAccountant
from .latency import LatencyModel
from .message import Message
from .observer import LinkObserver, ObservedPacket

__all__ = ["Network", "NetworkStats", "FaultHook"]

Handler = Callable[[Message], None]

# Floors for the fabric's memoization caches.  The effective bound is
# derived from world size as nodes attach (see Network.attach): hard caps
# sized for the 5,000-node `scale` run thrashed every cycle at 100k nodes.
# Below the floor the bounds match the historical constants exactly, so
# small-world traces are unaffected.
OWNER_HINT_CACHE_FLOOR = 16_384
ENCODE_CACHE_FLOOR = 8_192


class FaultHook(TypingProtocol):
    """Interface a fault injector exposes to the fabric.

    Both methods return the reason the message is swallowed (a short label
    used in drop accounting) or ``None`` to let it pass.  The fabric counts
    swallowed messages as losses — from the protocols' perspective an
    injected fault is indistinguishable from network loss, which is the
    point: recovery must come from the protocol layers, not from the test
    harness knowing better.
    """

    def on_send(self, src: NodeId, dst_hint: NodeId) -> str | None: ...

    def on_deliver(self, src: NodeId, owner: NodeId) -> str | None: ...


class NetworkStats:
    """Fabric-wide counters."""

    __slots__ = ("sent", "delivered", "lost", "filtered", "no_handler")

    def __init__(self) -> None:
        self.sent = 0
        self.delivered = 0
        self.lost = 0  # dropped by the loss model
        self.filtered = 0  # dropped by a NAT ingress filter or dead endpoint
        self.no_handler = 0  # owner resolved but node already departed


class Network:
    """Connects registered nodes through the NAT topology and latency model."""

    def __init__(
        self,
        sim: Simulator,
        topology: "NatTopology",
        latency: LatencyModel,
        accountant: BandwidthAccountant | None = None,
        telemetry: "Telemetry | None" = None,
        wire_mode: str = "off",
    ) -> None:
        self._sim = sim
        self._topology = topology
        self._latency = latency
        self.accountant = accountant if accountant is not None else BandwidthAccountant()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._handlers: dict[NodeId, Handler] = {}
        # Dense handler table mirroring _handlers, indexed by node id — the
        # delivery path's owner lookup.  Grown in place (the data-path
        # closures bind the list object).
        self._handler_arr: list[Handler | None] = []
        self._observers: list[LinkObserver] = []
        self._fault_hook: FaultHook | None = None
        self._foreign_router: Callable[[NodeId, Message, str, float], None] | None = None
        self.stats = NetworkStats()
        # Per-network message ids: a second Network (second World) in the
        # same process draws from its own sequence, keeping trace exports
        # independent of unrelated activity.
        self._msg_ids = itertools.count()
        # host -> owner id; hosts are stable for a node's lifetime, so this
        # memoizes the parse/crc32 in _owner_hint.  Bounded (long churny
        # runs mint fresh hosts forever); the bound grows with world size.
        self._owner_hints = LruCache(OWNER_HINT_CACHE_FLOOR)
        # Latency-model memoization (e.g. PlanetLab load factors / pair base
        # RTTs), exposed so their hit/miss counters reach telemetry.
        self._latency_caches = latency.caches()
        self.wire_audit = None
        self.encode_cache: LruCache | None = None
        self._wire = None  # lazily-imported repro.wire module
        self.set_wire_mode(wire_mode)

    def set_wire_mode(self, mode: str) -> None:
        """Select how the binary codec participates in the sim fabric.

        - ``"off"`` — payloads travel as Python objects, sizes are the
          protocol layers' ``WireSizes`` estimates (the historical mode);
        - ``"verify"`` — every send is encoded to a wire frame and decoded
          back (loopback codec pass-through); accounting keeps the
          *estimated* sizes, so traces stay comparable with ``"off"``
          while measured frame sizes accumulate in :attr:`wire_audit`;
        - ``"measured"`` — bandwidth accounting and latency use the exact
          *encoded* frame size, making every byte count a measurement
          instead of a model.  The body is encoded for its length
          (``wire.encoded_size``: no frame header or CRC is assembled and
          nothing is decoded), so like ``"off"`` the receiver sees the
          sender's payload object; ``"verify"`` is the mode that exercises
          the full encode→decode loop.
        """
        if mode not in ("off", "verify", "measured"):
            raise ValueError(f"unknown wire mode: {mode!r}")
        if mode != "off" and self._wire is None:
            # Imported lazily: repro.wire registers codecs for dataclasses
            # across nat/, pss/, core/, which themselves import this module.
            from .. import wire as _wire
            from ..wire.audit import WireAudit

            self._wire = _wire
            self.wire_audit = WireAudit()
            # Hot immutable structs (descriptors, piggybacked public keys)
            # are re-encoded on every gossip cycle; the LRU turns those into
            # one dict hit each.
            self.encode_cache = LruCache(
                max(ENCODE_CACHE_FLOOR, 2 * len(self._handlers))
            )
        self._wire_mode = mode
        self._rebind()

    @property
    def wire_mode(self) -> str:
        return self._wire_mode

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def attach(self, node_id: NodeId, handler: Handler) -> None:
        """Register the receive handler for a (topology-registered) node."""
        if not self._topology.knows(node_id):
            raise ValueError(f"node {node_id} not in the NAT topology")
        self._handlers[node_id] = handler
        arr = self._handler_arr
        if node_id >= len(arr):
            arr.extend([None] * (node_id + 1 - len(arr)))
        arr[node_id] = handler
        # Derive cache bounds from world size so eviction stays a
        # churny-run safeguard rather than a steady-state thrash at scale.
        # Monotonic: bounds only grow, so behaviour below the floor — and
        # hence every historical trace — is unchanged.
        hint_bound = 4 * len(self._handlers)
        if hint_bound > self._owner_hints.capacity:
            self._owner_hints.capacity = hint_bound
        cache = self.encode_cache
        if cache is not None:
            encode_bound = max(ENCODE_CACHE_FLOOR, 2 * len(self._handlers))
            if encode_bound > cache.capacity:
                cache.capacity = encode_bound

    def reserve_owner_hints(self, expected_hosts: int) -> None:
        """Monotonically raise the owner-hint bound for a known host space.

        ``attach`` derives the bound from *locally attached* handlers,
        which undercounts for a sharded world: every partition's fabric
        sends to the whole deployment's hosts, so its hint working set is
        the global population.  The sharded harness calls this with the
        deployment size after populating; like the ``attach`` derivation
        the bound only ever grows, so behaviour below it is unchanged.
        """
        bound = 4 * expected_hosts
        if bound > self._owner_hints.capacity:
            self._owner_hints.capacity = bound

    def detach(self, node_id: NodeId) -> None:
        """Unregister a node: in-flight messages to it will be dropped."""
        self._handlers.pop(node_id, None)
        if 0 <= node_id < len(self._handler_arr):
            self._handler_arr[node_id] = None

    def is_attached(self, node_id: NodeId) -> bool:
        return node_id in self._handlers

    @property
    def topology(self) -> "NatTopology":
        return self._topology

    def add_observer(self, observer: LinkObserver) -> None:
        self._observers.append(observer)
        self._rebind()

    def set_fault_hook(self, hook: FaultHook | None) -> None:
        """Install (or clear) the fault injector consulted on every message."""
        self._fault_hook = hook
        self._rebind()

    def set_foreign_router(
        self, router: Callable[[NodeId, Message, str, float], None] | None
    ) -> None:
        """Install the cross-shard escape hatch for non-local destinations.

        In a sharded world each partition's fabric owns only its own
        endpoints; a send towards a host absent from the local owner table
        is handed to ``router(src_node, message, category, transit)``
        *instead of* being scheduled for local delivery — after upload
        accounting and the latency draw, so the sender-side pipeline
        (counters, RNG stream order) is identical to a local send.  The
        router decides whether the host belongs to a peer partition (queue
        for the next barrier exchange) or is simply gone (schedule locally
        so delivery filters it like any departed endpoint).
        """
        self._foreign_router = router
        self._rebind()

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def _rebind(self) -> None:
        """(Re)build the ``send`` / ``_deliver`` closure pair.

        Both are instance attributes whose free variables hold the fabric
        configuration (wire mode, telemetry, fault hook, observers, foreign
        router) and the struct-of-arrays tables the per-message pipeline
        indexes, so a message costs local-variable reads rather than
        attribute chains.  Must be called after any change to that
        configuration.  Membership changes (attach / detach / topology
        add/remove) do *not* need it: the tables are bound by identity and
        mutated in place.
        """
        net = self  # net._deliver is resolved per send so it can be wrapped
        sim = self._sim
        stats = self.stats
        topo = self._topology
        local_arr = topo._local
        device_arr = topo._device
        owner_map = topo._owner
        handler_arr = self._handler_arr
        hints = self._owner_hints
        hints_data = hints._data
        owner_hint = self._owner_hint
        acct = self.accountant
        acct_cols = acct._cols
        cat_cols = acct.category_columns
        acct_grow = acct.grow
        acct_touched = acct._touched
        tel = self.telemetry
        tel_on = bool(tel.enabled)
        counter = tel.counter
        publish_caches = self._publish_cache_counters
        observe = self._observe
        observers = bool(self._observers)
        hook = self._fault_hook
        route = self._foreign_router
        is_lost = self._latency.is_lost
        delay = self._latency.delay
        queue = sim._queue
        next_seq = sim._seq.__next__
        next_msg_id = self._msg_ids.__next__
        schedule = sim.schedule
        heappush = heapq.heappush
        mode = self._wire_mode
        wire_on = mode != "off"
        if wire_on:
            wire_encode = self._wire.encode_message
            wire_decode = self._wire.decode_message
            wire_size = self._wire.encoded_size
            audit_record = self.wire_audit.record
            encode_cache = self.encode_cache

        def _deliver(src_node, message, category):
            dst = message.dst
            entry = owner_map.get(dst.host)
            owner = -1
            if entry is not None:
                device = entry[1]
                if device is None:
                    owner = entry[0]
                elif device.inbound(
                    dst.port, message.src, message.protocol, sim.now
                ) is not None:
                    owner = entry[0]
            if owner < 0:
                stats.filtered += 1
                if tel_on:
                    counter("net.filtered", layer="net").inc()
                if observers:
                    observe(src_node, None, message.src, dst, message.kind,
                            message.payload, message.size_bytes)
                return
            # Faults that arose while the message was in flight (a partition
            # forming, a node stalling) still swallow it on arrival.
            if hook is not None and hook.on_deliver(src_node, owner) is not None:
                stats.lost += 1
                if tel_on:
                    counter("net.lost", layer="net").inc()
                if observers:
                    observe(src_node, None, message.src, dst, message.kind,
                            message.payload, message.size_bytes)
                return
            try:
                handler = handler_arr[owner]
            except IndexError:
                handler = None
            if observers:
                observe(src_node, owner, message.src, dst, message.kind,
                        message.payload, message.size_bytes)
            if handler is None:
                stats.no_handler += 1
                if tel_on:
                    counter("net.no_handler", layer="net").inc()
                return
            stats.delivered += 1
            size = message.size_bytes
            cols = acct_cols.get(category)
            if cols is None:
                cols = cat_cols(category)
            try:
                cols[1][owner] += size
            except IndexError:
                acct_grow(owner)
                cols[1][owner] += size
            acct_touched[owner] = None
            if tel_on:
                counter("net.msgs_delivered", node=owner, layer="net").inc()
                counter("net.down_bytes", node=owner, layer="net").inc(size)
                counter("net.link.msgs", src=src_node, dst=owner, layer="net").inc()
                counter(
                    "net.link.bytes", src=src_node, dst=owner, layer="net"
                ).inc(size)
            handler(message)

        def send(src_node, dst, kind, payload, size_bytes,
                 protocol=Protocol.UDP, category="other"):
            """Emit one message.  Fire-and-forget: losses are silent, as on UDP.

            A send from a node that already departed (e.g. a mix killed
            between receiving an onion and its delayed forward) is dropped
            silently: the dead process cannot emit packets.
            """
            if src_node >= 0:
                try:
                    local = local_arr[src_node]
                except IndexError:
                    local = None
            else:
                local = None
            if local is None:  # sender already departed
                stats.filtered += 1
                return
            device = device_arr[src_node]
            if device is None:
                visible_src = local
            else:
                visible_src = device.outbound(local, dst, protocol, sim.now)
            if wire_on:
                if mode == "verify":
                    # Loopback codec pass-through: the payload the receiver
                    # sees has been through encode->decode, so any value the
                    # codec cannot carry fails here, in the sim, not on a
                    # live socket.
                    frame = wire_encode(kind, payload, encode_cache)
                    audit_record(kind, size_bytes, len(frame))
                    payload = wire_decode(frame).payload
                else:
                    # measured: exact frame size, the body encoded for its
                    # length; no frame, no CRC, payload delivered as in "off".
                    measured = wire_size(kind, payload, encode_cache)
                    audit_record(kind, size_bytes, measured)
                    size_bytes = measured
            stats.sent += 1
            cols = acct_cols.get(category)  # upload side
            if cols is None:
                cols = cat_cols(category)
            try:
                cols[0][src_node] += size_bytes
            except IndexError:
                acct_grow(src_node)
                cols[0][src_node] += size_bytes
            acct_touched[src_node] = None
            if tel_on:
                counter("net.msgs_sent", node=src_node, layer="net").inc()
                counter("net.up_bytes", node=src_node, layer="net").inc(size_bytes)
                counter("net.kind_msgs", kind=kind, layer="net").inc()
            # Owner hint: inlined LruCache.lookup (counted, no recency churn).
            hint = hints_data.get(dst.host)
            if hint is None:  # cold path: first message towards this host
                hints.misses += 1
                hint = owner_hint(dst)
            else:
                hints.hits += 1
            if (
                hook is not None and hook.on_send(src_node, hint) is not None
            ) or is_lost(src_node, hint):
                stats.lost += 1
                if tel_on:
                    publish_caches(tel)
                    counter("net.lost", layer="net").inc()
                if observers:
                    observe(src_node, None, visible_src, dst, kind, payload,
                            size_bytes)
                return
            message = Message(
                visible_src, dst, kind, payload, size_bytes, protocol,
                next_msg_id(),
            )
            # Transit shaping (delay/duplicate/reorder windows): only
            # consulted while such a directive is live, so plans without
            # shaping keep traces byte-identical with pre-shaping runs.
            shaping = hook is not None and getattr(hook, "shaping_active", False)
            if shaping:
                extra_delay, copies = hook.on_transit(src_node, hint)
                transit = delay(src_node, hint, size_bytes) + extra_delay
            else:
                transit = delay(src_node, hint, size_bytes)
            if tel_on:
                # After this send's owner-hint and latency lookups, so the
                # exported hit/miss counts include them.
                publish_caches(tel)
            if shaping:
                for _ in range(copies):
                    if route is not None and dst.host not in owner_map:
                        route(src_node, message, category, transit)
                    else:
                        schedule(transit, partial(
                            net._deliver, src_node, message, category))
                return
            if transit < 0.0:
                raise SimulationError(
                    f"cannot schedule in the past (delay={transit})"
                )
            if route is not None and dst.host not in owner_map:
                route(src_node, message, category, transit)
                return
            # Inlined Simulator.schedule: one Event + heap push, no call.
            time = sim.now + transit
            seq = next_seq()
            heappush(queue, (time, 0, seq, Event(
                time, 0, seq,
                partial(net._deliver, src_node, message, category), False, sim,
            )))
            sim._sched_delta += 1

        self._deliver = _deliver
        self.send = send

    # ------------------------------------------------------------------
    def _owner_hint(self, dst: Endpoint) -> NodeId:
        """Best-effort owner guess for latency sampling.

        Latency models key node pairs by id; when the destination endpoint
        cannot be attributed (departed node) any stable key works, so we hash
        the host name.  The hash must be stable *across processes*: Python's
        ``hash(str)`` is salted per interpreter (PYTHONHASHSEED), which would
        make same-seed runs sample different latencies for departed-node
        endpoints and break the telemetry exporter's byte-identical-trace
        guarantee — so we use crc32.
        """
        host = dst.host
        # peek, not lookup: send() already counted this access as a miss.
        hint = self._owner_hints.peek(host)
        if hint is not None:
            return hint
        hint = -1
        if host.startswith(("pub-", "nat-", "priv-")):
            try:
                hint = int(host.split("-", 1)[1])
            except ValueError:
                hint = -1
        if hint < 0:
            hint = zlib.crc32(host.encode()) & 0x7FFFFFFF
        self._owner_hints.put(host, hint)
        return hint

    def cache_stats(self) -> dict[str, dict[str, int]]:
        """Hit/miss/eviction totals for every fabric-owned cache.

        Deterministic (counters track the message stream, not the clock),
        so scale benches record them as extras: a hit-rate collapse or an
        eviction storm is behavioural drift the compare gate should see,
        distinct from a wall-clock regression.
        """
        stats = {
            "net.owner_hint": self._owner_hints,
            **self._latency_caches,
        }
        if self.encode_cache is not None and self._wire_mode != "off":
            stats["wire.encode"] = self.encode_cache
        return {
            name: {
                "hits": cache.hits,
                "misses": cache.misses,
                "evictions": cache.evictions,
                "size": len(cache),
                "capacity": cache.capacity,
            }
            for name, cache in stats.items()
        }

    def _publish_cache_counters(self, tel: "Telemetry") -> None:
        """Flush cache hit/miss deltas into telemetry counters.

        Owner-hint and latency-model caches behave identically in every
        wire mode, so their counters never perturb off-vs-verify trace
        comparisons; ``wire.encode.*`` exists only when the codec runs and
        is codec-layer bookkeeping by definition.
        """
        self._owner_hints.publish(tel, "net.owner_hint", layer="net")
        for name, cache in self._latency_caches.items():
            cache.publish(tel, name, layer="net")
        if self.encode_cache is not None and self._wire_mode != "off":
            self.encode_cache.publish(tel, "wire.encode", layer="wire")

    def _observe(
        self,
        sender: NodeId,
        receiver: NodeId | None,
        src: Endpoint,
        dst: Endpoint,
        kind: str,
        payload: object,
        size_bytes: int,
    ) -> None:
        packet: ObservedPacket | None = None
        for observer in self._observers:
            if observer.wants(sender, receiver):
                if packet is None:
                    packet = ObservedPacket(
                        time=self._sim.now,
                        sender=sender,
                        receiver=receiver,
                        src_endpoint=src,
                        dst_endpoint=dst,
                        kind=kind,
                        payload=payload,
                        size_bytes=size_bytes,
                    )
                observer.record(packet)
