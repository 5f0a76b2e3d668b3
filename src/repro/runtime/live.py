"""Live UDP fabric: the network surface of :class:`repro.net.network.Network`
backed by real sockets.

Each hosted node gets its *own* datagram socket.  That mirrors a real
deployment (one process, one port per node) and makes inbound routing
trivial: whatever arrives on a node's socket is for that node, so wire
frames never need to carry a destination node id — exactly like the sim
fabric, where the destination is the endpoint the packet was sent to.

Every datagram is a :mod:`repro.wire` frame.  Frames that fail to decode
(garbage, truncation, foreign versions) are counted and dropped, which is
the live analogue of the sim's silent UDP loss: the protocol layers
already recover from missing messages, so the transport never guesses.

The ``Message.src`` handed to the stack is the *observed* sender address
from ``recvfrom`` — on a NATed path that is the NAT's external mapping,
which is precisely the semantics the sim's NAT topology models and what
``nat.pong``'s reflexive-endpoint echo relies on.

Sockets are plain non-blocking UDP sockets registered with the loop via
``add_reader`` rather than asyncio ``DatagramTransport``s.  ``add_reader``
is synchronous and safe from *inside* scheduler callbacks, which is what
mid-run socket rebinds (:class:`~repro.faults.live.LiveFaultFabric` NAT
rebinds) and supervisor restarts need — ``create_datagram_endpoint`` is a
coroutine and the old ``run_until_complete`` binding deadlocked if the
loop was already running.  Sends that would block (full kernel buffer)
land in a bounded per-node queue drained on writability, degrading
gracefully by dropping the *oldest* queued datagram — for soak-length
runs, losing stale gossip beats losing fresh traffic or growing without
bound.
"""

from __future__ import annotations

import socket as socket_module
from collections import deque
from typing import TYPE_CHECKING, Callable

from ..core.node import WhisperConfig, WhisperNode
from ..harness.deployment import Deployment
from ..nat.traversal import NodeDescriptor
from ..nat.types import NatType
from ..net.address import Endpoint, NodeId, NodeKind, Protocol
from ..net.bandwidth import BandwidthAccountant
from ..net.message import Message
from ..telemetry import NULL_TELEMETRY, Telemetry
from .. import wire
from .clock import AsyncioScheduler

if TYPE_CHECKING:
    from ..faults.live import LiveFaultFabric
    from .supervisor import NodeSupervisor, SupervisorConfig

__all__ = ["LiveNetwork", "LiveNetworkStats", "LiveRuntime", "SEND_QUEUE_LIMIT"]

Handler = Callable[[Message], None]

SEND_QUEUE_LIMIT = 512
"""Default per-node bound on datagrams queued behind a full kernel buffer."""

_RECV_SIZE = 65_535


class LiveNetworkStats:
    """Transport counters (mirrors the sim fabric's NetworkStats)."""

    __slots__ = (
        "sent", "delivered", "rejected", "no_handler", "filtered",
        "queued", "queue_dropped", "rebinds",
    )

    def __init__(self) -> None:
        self.sent = 0
        self.delivered = 0
        self.rejected = 0  # datagrams that failed wire decoding
        self.no_handler = 0
        self.filtered = 0  # sends from nodes without an open socket
        self.queued = 0  # sends deferred behind a full kernel buffer
        self.queue_dropped = 0  # oldest-first drops from a full send queue
        self.rebinds = 0  # mid-run socket rebinds (NAT rebind faults)


class _LiveTopology:
    """The small slice of the NAT topology surface the stack consults."""

    def __init__(self, network: "LiveNetwork") -> None:
        self._network = network

    def knows(self, node_id: NodeId) -> bool:
        return node_id in self._network.endpoints

    def public_endpoint(self, node_id: NodeId) -> Endpoint:
        return self._network.endpoints[node_id]


class _Port:
    """One node's socket plus its bounded outbound queue."""

    __slots__ = ("sock", "queue", "writer_armed")

    def __init__(self, sock: socket_module.socket) -> None:
        self.sock = sock
        self.queue: deque[tuple[bytes, tuple[str, int]]] = deque()
        self.writer_armed = False


class LiveNetwork:
    """Duck-typed :class:`~repro.net.network.Network` over asyncio UDP."""

    def __init__(
        self,
        scheduler: AsyncioScheduler,
        host: str = "127.0.0.1",
        accountant: BandwidthAccountant | None = None,
        telemetry: "Telemetry | None" = None,
        queue_limit: int = SEND_QUEUE_LIMIT,
    ) -> None:
        self._scheduler = scheduler
        self._host = host
        self.accountant = accountant if accountant is not None else BandwidthAccountant()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.endpoints: dict[NodeId, Endpoint] = {}
        self._ports: dict[NodeId, _Port] = {}
        self._owners: dict[tuple[str, int], NodeId] = {}
        self._handlers: dict[NodeId, Handler] = {}
        self._topology = _LiveTopology(self)
        self.stats = LiveNetworkStats()
        self.queue_limit = queue_limit
        self._fault_fabric: "LiveFaultFabric | None" = None
        self._queue_gauge = self.telemetry.metrics.gauge(
            "net.send_queue_depth", layer="net"
        )
        self._msg_ids = iter(range(0, 1 << 62))

    # ------------------------------------------------------------------
    # sockets
    # ------------------------------------------------------------------
    def open_endpoint(self, node_id: NodeId, port: int = 0) -> Endpoint:
        """Bind a UDP socket for ``node_id``; port 0 lets the OS pick.

        Purely synchronous (socket + ``add_reader``), so it is safe from
        scheduler callbacks while the loop is running — the property
        supervisor restarts and mid-run NAT rebinds depend on.
        """
        if node_id in self._ports:
            return self.endpoints[node_id]
        sock = socket_module.socket(
            socket_module.AF_INET, socket_module.SOCK_DGRAM
        )
        sock.setblocking(False)
        sock.bind((self._host, port))
        sock_host, sock_port = sock.getsockname()[:2]
        endpoint = Endpoint(sock_host, sock_port)
        self._ports[node_id] = _Port(sock)
        self.endpoints[node_id] = endpoint
        self._owners[(sock_host, sock_port)] = node_id
        self._scheduler.loop.add_reader(
            sock.fileno(), self._on_readable, node_id
        )
        return endpoint

    def close_endpoint(self, node_id: NodeId) -> None:
        self._teardown_port(node_id)
        self._handlers.pop(node_id, None)

    def rebind_endpoint(self, node_id: NodeId) -> Endpoint:
        """Close and reopen a node's socket mid-run (NAT rebind semantics).

        The OS assigns a fresh port; the handler stays attached, so the
        node keeps running while its peers' cached endpoint goes stale —
        exactly what a rebooted NAT box does to an external mapping.
        """
        if node_id not in self._ports:
            raise ValueError(f"node {node_id} has no open endpoint")
        self._teardown_port(node_id)
        endpoint = self.open_endpoint(node_id)
        self.stats.rebinds += 1
        if self.telemetry.enabled:
            self.telemetry.counter("net.rebinds", node=node_id, layer="net").inc()
        return endpoint

    def _teardown_port(self, node_id: NodeId) -> None:
        port = self._ports.pop(node_id, None)
        endpoint = self.endpoints.pop(node_id, None)
        if endpoint is not None:
            self._owners.pop((endpoint.host, endpoint.port), None)
        if port is None:
            return
        loop = self._scheduler.loop
        fd = port.sock.fileno()
        if fd >= 0:
            loop.remove_reader(fd)
            if port.writer_armed:
                loop.remove_writer(fd)
        if port.queue:
            self.stats.queue_dropped += len(port.queue)
            port.queue.clear()
            self._publish_queue_depth()
        port.sock.close()

    def close(self) -> None:
        for node_id in list(self._ports):
            self.close_endpoint(node_id)

    # ------------------------------------------------------------------
    # fabric surface consumed by the protocol stack
    # ------------------------------------------------------------------
    @property
    def topology(self) -> _LiveTopology:
        return self._topology

    def attach(self, node_id: NodeId, handler: Handler) -> None:
        if node_id not in self._ports:
            raise ValueError(f"node {node_id} has no open endpoint")
        self._handlers[node_id] = handler

    def detach(self, node_id: NodeId) -> None:
        self._handlers.pop(node_id, None)

    def is_attached(self, node_id: NodeId) -> bool:
        return node_id in self._handlers

    def owner_of(self, endpoint: Endpoint) -> NodeId | None:
        """The hosted node bound to ``endpoint``, if any (fault targeting)."""
        return self._owners.get((endpoint.host, endpoint.port))

    def set_fault_fabric(self, fabric: "LiveFaultFabric | None") -> None:
        """Install (or clear) the datagram-level fault interposition layer."""
        self._fault_fabric = fabric

    def send(
        self,
        src_node: NodeId,
        dst: Endpoint,
        kind: str,
        payload: object,
        size_bytes: int,
        protocol: Protocol = Protocol.UDP,
        category: str = "other",
    ) -> None:
        """Encode one protocol message and put it on the wire.

        Fire-and-forget, like the sim fabric: a send from a node whose
        socket is gone is dropped silently.  ``size_bytes`` (the protocol
        layer's estimate) is unused: the accountant charges the frame.
        """
        if src_node not in self._ports:
            self.stats.filtered += 1
            if self.telemetry.enabled:
                self.telemetry.counter("net.filtered", layer="net").inc()
            return
        frame = wire.encode_message(kind, payload)
        self.stats.sent += 1
        self.accountant.record(src_node, -1, len(frame), category)
        tel = self.telemetry
        if tel.enabled:
            tel.counter("net.msgs_sent", node=src_node, layer="net").inc()
            tel.counter("net.up_bytes", node=src_node, layer="net").inc(len(frame))
            tel.counter("net.kind_msgs", kind=kind, layer="net").inc()
        fabric = self._fault_fabric
        if fabric is not None:
            # The fabric owns the datagram from here: it may drop it,
            # transmit immediately, or schedule (possibly multiple)
            # transmits on the live clock.
            fabric.outbound(src_node, dst, frame)
        else:
            self.transmit(src_node, frame, (dst.host, dst.port))

    # ------------------------------------------------------------------
    # raw datagram path (also the fault fabric's re-entry point)
    # ------------------------------------------------------------------
    def transmit(
        self, src_node: NodeId, frame: bytes, addr: tuple[str, int]
    ) -> None:
        """Put one already-encoded frame on ``src_node``'s socket.

        Queues behind a full kernel buffer (bounded, drop-oldest); a frame
        from a node whose socket closed while the frame was held back by a
        fault directive is dropped, as on a real host.
        """
        port = self._ports.get(src_node)
        if port is None:
            self.stats.filtered += 1
            if self.telemetry.enabled:
                self.telemetry.counter("net.filtered", layer="net").inc()
            return
        if not port.queue:
            try:
                port.sock.sendto(frame, addr)
                return
            except (BlockingIOError, InterruptedError):
                pass
            except OSError:
                # ENOBUFS and friends: treat like a momentarily full buffer.
                pass
        self._enqueue(src_node, port, frame, addr)

    def _enqueue(
        self,
        node_id: NodeId,
        port: _Port,
        frame: bytes,
        addr: tuple[str, int],
    ) -> None:
        if len(port.queue) >= self.queue_limit:
            port.queue.popleft()  # graceful degradation: oldest goes first
            self.stats.queue_dropped += 1
            if self.telemetry.enabled:
                self.telemetry.counter(
                    "net.send_queue_dropped", node=node_id, layer="net"
                ).inc()
        port.queue.append((frame, addr))
        self.stats.queued += 1
        self._publish_queue_depth()
        if not port.writer_armed:
            port.writer_armed = True
            self._scheduler.loop.add_writer(
                port.sock.fileno(), self._on_writable, node_id
            )

    def _on_writable(self, node_id: NodeId) -> None:
        port = self._ports.get(node_id)
        if port is None:
            return
        while port.queue:
            frame, addr = port.queue[0]
            try:
                port.sock.sendto(frame, addr)
            except (BlockingIOError, InterruptedError):
                self._publish_queue_depth()
                return
            except OSError:
                pass  # unsendable frame: drop it and move on
            port.queue.popleft()
        port.writer_armed = False
        self._scheduler.loop.remove_writer(port.sock.fileno())
        self._publish_queue_depth()

    def pending_sends(self) -> int:
        """Datagrams still queued across all nodes (drained on shutdown)."""
        return sum(len(port.queue) for port in self._ports.values())

    def _publish_queue_depth(self) -> None:
        if self.telemetry.enabled:
            self._queue_gauge.set(self.pending_sends())

    # ------------------------------------------------------------------
    def _on_readable(self, node_id: NodeId) -> None:
        port = self._ports.get(node_id)
        if port is None:
            return
        while True:
            try:
                data, addr = port.sock.recvfrom(_RECV_SIZE)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return  # socket closed under us (rebind/teardown race)
            self._on_datagram(node_id, data, addr)

    def _on_datagram(self, node_id: NodeId, data: bytes, addr: tuple[str, int]) -> None:
        try:
            decoded = wire.decode_message(data)
        except wire.WireDecodeError:
            self.stats.rejected += 1
            if self.telemetry.enabled:
                self.telemetry.counter("net.wire_rejected", layer="net").inc()
            return
        fabric = self._fault_fabric
        if fabric is not None and fabric.inbound(node_id, addr) is not None:
            return  # swallowed by a fault active at arrival time
        handler = self._handlers.get(node_id)
        if handler is None:
            self.stats.no_handler += 1
            if self.telemetry.enabled:
                self.telemetry.counter("net.no_handler", layer="net").inc()
            return
        message = Message(
            src=Endpoint(addr[0], addr[1]),
            dst=self.endpoints[node_id],
            kind=decoded.kind,
            payload=decoded.payload,
            size_bytes=len(data),
            protocol=Protocol.UDP,
            msg_id=next(self._msg_ids),
        )
        self.stats.delivered += 1
        self.accountant.record(-1, node_id, len(data), wire.category_for(decoded.kind))
        if self.telemetry.enabled:
            self.telemetry.counter("net.msgs_delivered", node=node_id, layer="net").inc()
            self.telemetry.counter("net.down_bytes", node=node_id, layer="net").inc(
                len(data)
            )
        handler(message)


class LiveRuntime(Deployment):
    """One OS process hosting unmodified WhisperNode stacks on real sockets."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        seed: int = 0,
        provider: str = "real",
        key_bits: int = 512,
        whisper: WhisperConfig | None = None,
        telemetry_enabled: bool = False,
        queue_limit: int = SEND_QUEUE_LIMIT,
    ) -> None:
        self.scheduler = AsyncioScheduler()
        # use_aes=False: pure-Python AES costs ~0.9 s of real CPU a message.
        super().__init__(
            self.scheduler, seed, provider, key_bits, use_aes=False,
            whisper=whisper if whisper is not None else WhisperConfig(),
            telemetry_enabled=telemetry_enabled,
        )
        self.accountant = BandwidthAccountant()
        self.network = LiveNetwork(
            self.scheduler, host,
            accountant=self.accountant,
            telemetry=self.telemetry,
            queue_limit=queue_limit,
        )
        self.supervisor: "NodeSupervisor | None" = None
        self._introducers: list[NodeDescriptor] = []

    # ------------------------------------------------------------------
    def add_node(
        self,
        node_id: NodeId,
        nat_type: NatType = NatType.OPEN,
        port: int = 0,
    ) -> WhisperNode:
        """Bind a socket and assemble the full protocol stack for one node."""
        if node_id in self.nodes:
            raise ValueError(f"node {node_id} already hosted here")
        self.network.open_endpoint(node_id, port)
        return self._build_node(node_id, nat_type)

    def descriptor(self, node_id: NodeId) -> NodeDescriptor:
        """The hosted node's descriptor, shareable with other processes."""
        return self.nodes[node_id].cm.descriptor()

    @staticmethod
    def remote_descriptor(node_id: NodeId, host: str, port: int) -> NodeDescriptor:
        """Descriptor for a public node hosted by *another* process."""
        return NodeDescriptor(
            node_id=node_id,
            kind=NodeKind.PUBLIC,
            nat_type=NatType.OPEN,
            public_endpoint=Endpoint(host, port),
        )

    def start(self, introducers: list[NodeDescriptor]) -> None:
        self._introducers = list(introducers)
        for node in self.nodes.values():
            own = [d for d in introducers if d.node_id != node.node_id]
            node.start(own)

    # ------------------------------------------------------------------
    # supervision: crash, restart, re-bootstrap
    # ------------------------------------------------------------------
    def supervise(self, config: "SupervisorConfig | None" = None) -> "NodeSupervisor":
        """Start per-node liveness supervision (see :mod:`.supervisor`)."""
        from .supervisor import NodeSupervisor

        if self.supervisor is not None:
            raise RuntimeError("runtime already supervised")
        self.supervisor = NodeSupervisor(self, config)
        self.supervisor.start()
        return self.supervisor

    def crash_node(self, node_id: NodeId) -> None:
        """Abruptly wedge a hosted node: socket gone, no graceful goodbye.

        The node object stays in :attr:`nodes` (marked dead) so the
        supervisor's probe sees a crashed — not departed — member and
        restarts it.
        """
        node = self.nodes[node_id]
        node.alive = False
        self.network.detach(node_id)
        self.network.close_endpoint(node_id)

    def restart_node(self, node_id: NodeId) -> WhisperNode:
        """Rebind the socket, rebuild the stack, re-bootstrap from cache."""
        old = self.nodes[node_id]
        if old.alive:
            raise RuntimeError(f"node {node_id} is alive; refusing to restart")
        # Quiesce the wedged incarnation's timers before its node id gets a
        # fresh socket — otherwise the zombie stack would emit through the
        # replacement's endpoint.
        try:
            old.stop()
        except Exception:
            pass
        self.network.open_endpoint(node_id)
        node = self._build_node(node_id, old.nat_type, old.incarnation + 1)
        node.start([d for d in self._introducers if d.node_id != node_id])
        if self.telemetry.enabled:
            self.telemetry.counter(
                "supervisor.node_restarts", node=node_id, layer="supervisor"
            ).inc()
        return node

    # ------------------------------------------------------------------
    def run_for(self, seconds: float) -> None:
        self.scheduler.run_for(seconds)

    def run_until(self, predicate: Callable[[], bool], timeout: float) -> bool:
        return self.scheduler.run_until(predicate, timeout)

    def drain(self, timeout: float = 1.0) -> bool:
        """Drive the loop until queued sends flush; True if fully drained."""
        return self.scheduler.run_until(
            lambda: self.network.pending_sends() == 0, timeout
        )

    def close(self) -> None:
        if self.supervisor is not None:
            self.supervisor.stop()
            self.supervisor = None
        for node in self.nodes.values():
            if node.alive:
                node.stop()
        # Flush what the bounded queues still hold before tearing sockets
        # down; anything left after the timeout is counted as dropped.
        try:
            self.drain(timeout=0.5)
        except Exception:  # pragma: no cover - loop already closed
            pass
        self.network.close()
        # Give the loop a tick to tear down cleanly, then close.
        try:
            self.scheduler.run_for(0)
        except Exception:  # pragma: no cover - loop already closed
            pass
        self.scheduler.close()
