"""Per-node supervision for the live runtime.

A :class:`NodeSupervisor` keeps a multi-node :class:`~.live.LiveRuntime`
healthy through the failures a soak run injects: it probes every hosted
node on the scheduler, detects crashed or wedged stacks (dead node object,
detached handler, or a closed socket), and restarts them with exponential
backoff — rebind the socket, rebuild the ``WhisperNode`` stack, and
re-bootstrap PSS from the introducer descriptors cached at
:meth:`~.live.LiveRuntime.start`.  Dissent's accountability argument
motivates the design: a wedged member should be detected and replaced,
not silently degrade the group.

Backoff doubles per consecutive restart of the same node (``base`` →
``max``) and resets once an incarnation stays healthy for ``healthy_after``
seconds, so a flapping node cannot hot-loop the supervisor while a
genuinely healed one is forgiven.

Everything the supervisor does is visible in telemetry under the
``supervisor`` layer: probe sweeps, detections, restarts (per node and
total), and the current backoff per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..net.address import NodeId

if TYPE_CHECKING:
    from ..core.node import WhisperNode
    from ..sim.clock import Cancellable
    from .live import LiveRuntime

__all__ = ["SupervisorConfig", "SupervisorStats", "NodeSupervisor"]


@dataclass(frozen=True)
class SupervisorConfig:
    """Liveness-probe cadence and restart backoff envelope."""

    probe_interval: float = 1.0
    backoff_base: float = 0.5
    backoff_max: float = 8.0
    healthy_after: float = 10.0  # healthy this long resets the backoff

    def __post_init__(self) -> None:
        if self.probe_interval <= 0:
            raise ValueError("probe interval must be positive")
        if self.backoff_base <= 0 or self.backoff_max < self.backoff_base:
            raise ValueError("backoff envelope must satisfy 0 < base <= max")


@dataclass
class SupervisorStats:
    """What the supervisor observed and did."""

    probes: int = 0
    detections: int = 0
    restarts: int = 0


class NodeSupervisor:
    """Watches a LiveRuntime's nodes and restarts the ones that wedge."""

    def __init__(
        self,
        runtime: "LiveRuntime",
        config: "SupervisorConfig | None" = None,
    ) -> None:
        self.runtime = runtime
        self.config = config if config is not None else SupervisorConfig()
        self.stats = SupervisorStats()
        self.on_restart: Callable[["WhisperNode"], None] | None = None
        self._probe_handle: "Cancellable | None" = None
        self._restart_handles: dict[NodeId, "Cancellable"] = {}
        # node -> current backoff delay (seconds) for its *next* restart.
        self._backoff: dict[NodeId, float] = {}
        self._restarted_at: dict[NodeId, float] = {}
        self._running = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._running = True
        self._schedule_probe()

    def stop(self) -> None:
        self._running = False
        if self._probe_handle is not None:
            self._probe_handle.cancel()
            self._probe_handle = None
        for handle in self._restart_handles.values():
            handle.cancel()
        self._restart_handles.clear()

    # ------------------------------------------------------------------
    # probing
    # ------------------------------------------------------------------
    def _schedule_probe(self) -> None:
        if not self._running:
            return
        self._probe_handle = self.runtime.scheduler.schedule(
            self.config.probe_interval, self._probe
        )

    def _probe(self) -> None:
        self._probe_handle = None
        runtime = self.runtime
        telemetry = runtime.telemetry
        self.stats.probes += 1
        if telemetry.enabled:
            telemetry.counter("supervisor.probes", layer="supervisor").inc()
        now = runtime.scheduler.now
        for node_id in sorted(runtime.nodes):
            if node_id in self._restart_handles:
                continue  # restart already pending (in backoff)
            if self._is_healthy(node_id):
                # A node that outlived the forgiveness window earns its
                # backoff back.
                restarted = self._restarted_at.get(node_id)
                if (
                    restarted is not None
                    and now - restarted >= self.config.healthy_after
                ):
                    self._backoff.pop(node_id, None)
                    self._restarted_at.pop(node_id, None)
                continue
            self._on_detection(node_id)
        self._schedule_probe()

    def _is_healthy(self, node_id: NodeId) -> bool:
        node = self.runtime.nodes.get(node_id)
        if node is None or not node.alive:
            return False
        network = self.runtime.network
        return network.is_attached(node_id) and node_id in network.endpoints

    # ------------------------------------------------------------------
    # restarts with exponential backoff
    # ------------------------------------------------------------------
    def _on_detection(self, node_id: NodeId) -> None:
        self.stats.detections += 1
        telemetry = self.runtime.telemetry
        delay = self._backoff.get(node_id, 0.0)
        # Next failure of this node waits longer (exponential, capped).
        next_delay = (
            self.config.backoff_base
            if delay == 0.0
            else min(delay * 2.0, self.config.backoff_max)
        )
        self._backoff[node_id] = next_delay
        if telemetry.enabled:
            telemetry.counter(
                "supervisor.detections", layer="supervisor"
            ).inc()
            telemetry.gauge(
                "supervisor.backoff", node=node_id, layer="supervisor"
            ).set(delay)
        if delay <= 0.0:
            self._restart(node_id)
        else:
            self._restart_handles[node_id] = self.runtime.scheduler.schedule(
                delay, lambda: self._delayed_restart(node_id)
            )

    def _delayed_restart(self, node_id: NodeId) -> None:
        self._restart_handles.pop(node_id, None)
        if not self._running:
            return
        if self._is_healthy(node_id):
            return  # healed (or was restarted by hand) while we backed off
        self._restart(node_id)

    def _restart(self, node_id: NodeId) -> None:
        runtime = self.runtime
        try:
            node = runtime.nodes.get(node_id)
            if node is not None and node.alive:
                # Wedged but alive (detached handler, dead socket): force
                # it down first — restart_node refuses live incarnations.
                runtime.crash_node(node_id)
            node = runtime.restart_node(node_id)
        except Exception:
            # Restart failed (e.g. bind error); the next probe retries
            # under the already-doubled backoff.
            return
        self.stats.restarts += 1
        self._restarted_at[node_id] = runtime.scheduler.now
        if runtime.telemetry.enabled:
            runtime.telemetry.counter(
                "supervisor.restarts", layer="supervisor"
            ).inc()
        if self.on_restart is not None:
            self.on_restart(node)
