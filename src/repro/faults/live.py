"""Fault injection against real UDP datagrams.

:class:`LiveFaultFabric` is the live port of
:class:`~repro.faults.injector.FaultExecutor`: the same plan state machine
the simulator runs, bound to a :class:`~repro.runtime.live.LiveNetwork` as
a send/recv interposition layer — the datagrams it drops, delays,
duplicates, reorders and re-homes are real frames on real sockets.  What
the port adds to the shared executor, directive by directive:

- **delay / reorder** — the frame is held on an
  :class:`~repro.runtime.clock.AsyncioScheduler` timer and transmitted
  when it fires (reordering emerges from holding back a minority);
- **duplicate** — a second ``sendto`` of the same frame;
- **blackholes / partitions** — source and destination are resolved
  through the network's endpoint-owner map, over the currently-bound nodes;
- **stalls** — the victim's handler is detached for the window (inbound
  lands in ``no_handler``) and its outbound is swallowed: alive, timers
  firing, totally dark;
- **NAT rebinds / resets** — the victim's socket is closed and reopened
  mid-run (:meth:`~repro.runtime.live.LiveNetwork.rebind_endpoint`), so
  peers keep hitting the stale endpoint until NAT traversal re-discovers
  the fresh one.

Determinism on a wall clock is necessarily weaker than in the simulator:
per-datagram draws depend on how much traffic actually flowed.  What *is*
reproducible run-to-run — and what ``decision_digest()`` certifies — is
every plan-level decision: activation order and every victim selection
(stall victims, rebind victims, partition grouping), because those draw
from a dedicated seeded stream in sorted-node order, never from traffic.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Iterable

from ..net.address import Endpoint, NodeId
from ..telemetry import NULL_TELEMETRY
from .injector import FaultExecutor

if TYPE_CHECKING:
    from ..runtime.live import LiveNetwork
    from ..sim.clock import Cancellable
    from ..telemetry import Telemetry

__all__ = ["LiveFaultFabric"]


class LiveFaultFabric(FaultExecutor):
    """The live port: executes a FaultPlan against real datagrams."""

    def __init__(
        self,
        network: "LiveNetwork",
        seed: int = 0,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        # Two independent seeded streams: plan-level decisions (victim
        # selection, partition grouping) must reproduce run-to-run no
        # matter how much traffic flowed, so per-datagram draws get their
        # own stream and can never perturb them.
        super().__init__(
            network._scheduler,
            telemetry if telemetry is not None else NULL_TELEMETRY,
            random.Random(seed),
            random.Random(seed ^ 0x5EED5EED),
        )
        self.network = network
        self._stashed_handlers: dict[NodeId, object] = {}
        # Held frames in flight; a handle leaves when its timer fires.
        self._held: set["Cancellable"] = set()
        network.set_fault_fabric(self)

    def _at(self, time: float, callback: Callable[[], object]) -> None:
        # A wall clock moves while a plan is being armed, and
        # ``AsyncioScheduler.schedule_at`` raises on an instant that just
        # elapsed (an ``at=0`` directive): clamp it to "now".
        delay = max(0.0, time - self._clock.now)
        self._pending.append(self._clock.schedule(delay, callback))

    def _population(self) -> Iterable[NodeId]:
        return self.network.endpoints

    def _reset_nat_of(self, node: NodeId) -> int:
        # On real sockets a reset and a rebind are the same observable
        # event: the endpoint the world knew stops working.
        self.network.rebind_endpoint(node)
        return 0

    def _on_stall(self, node: NodeId) -> None:
        handler = self.network._handlers.get(node)
        if handler is not None:
            # Detach for the window: the node's own timers keep firing (it
            # thinks it is fine) while its inbound counts as no_handler.
            self._stashed_handlers[node] = handler
            self.network.detach(node)

    def _on_unstall(self, node: NodeId) -> None:
        handler = self._stashed_handlers.pop(node, None)
        network = self.network
        # Only restore if nothing re-attached meanwhile (a supervisor
        # restart installs a fresh incarnation's handler, which wins).
        if (
            handler is not None
            and not network.is_attached(node)
            and node in network.endpoints
        ):
            network.attach(node, handler)  # type: ignore[arg-type]

    def cancel_pending(self) -> None:
        """Also cancels held frames: nothing is transmitted afterwards."""
        for call in self._held:
            call.cancel()
        self._held.clear()
        super().cancel_pending()

    def detach(self) -> None:
        """Remove the interposition layer (datagrams flow clean again)."""
        self.cancel_pending()
        self.network.set_fault_fabric(None)

    # ------------------------------------------------------------------
    # the datagram interposition surface (called by LiveNetwork)
    # ------------------------------------------------------------------
    def outbound(self, src_node: NodeId, dst: Endpoint, frame: bytes) -> None:
        """Decide one egress datagram's fate; transmit 0..n times."""
        if self.drop_reason(src_node, self.network.owner_of(dst)) or self.loss_reason():
            return
        hold, copies = self.shape()
        addr = (dst.host, dst.port)
        for _ in range(copies):
            if hold > 0.0:
                self._hold(hold, src_node, frame, addr)
            else:
                self.network.transmit(src_node, frame, addr)

    def _hold(
        self, hold: float, src_node: NodeId, frame: bytes, addr: tuple[str, int]
    ) -> None:
        def release() -> None:
            self._held.discard(call)
            self.network.transmit(src_node, frame, addr)

        call = self._clock.schedule(hold, release)
        self._held.add(call)

    def inbound(self, node_id: NodeId, addr: tuple[str, int]) -> str | None:
        """Reason an ingress datagram is swallowed, or None to deliver."""
        src = self.network.owner_of(Endpoint(addr[0], addr[1]))
        return self.drop_reason(src, node_id)
