"""Deterministic fault injection: one plan executor, two fabric ports.

:class:`FaultExecutor` executes a :class:`~repro.faults.plan.FaultPlan`
against any :class:`~repro.sim.clock.Clock`.  It owns everything that does
not touch a fabric — directive scheduling, the active-fault state, victim
selection, the per-message verdicts, stats and telemetry:

- **blackholes** — directed (src, dst) pairs whose traffic vanishes;
- **loss bursts** — extra uniform loss windows, stacking multiplicatively;
- **partitions** — seeded group splits with scheduled healing;
- **stalls** — nodes that silently drop all traffic, both directions;
- **NAT resets / rebinds** — nodes whose established inbound sessions die;
- **transit shaping** — extra delay, duplication and reordering windows.

A *port* binds the executor to a fabric and supplies only what differs
there: how a time is put on the clock (:meth:`FaultExecutor._at`), who the
population is, what a stall and a NAT reset do to one node, and how a
verdict is applied to a message.  :class:`FaultInjector` below is the
simulator's port (the network's fault hook: every send and delivery asks it
for a verdict); :class:`~repro.faults.LiveFaultFabric` is the live
one, acting on real UDP datagrams.

Determinism: plan-level decisions (victim selection, partition grouping)
draw from the *plan* stream over populations in sorted-id order; per-message
draws (loss, shaping) consume the *wire* stream.  The simulator passes the
world registry's ``faults`` stream in both roles and consumes it in event
order, so two same-seed runs inject exactly the same faults and export
byte-identical telemetry traces.  :meth:`FaultExecutor.decision_digest`
lists the plan-level decisions; same seed, plan and node ids give the same
digest on both fabrics.

Every injected fault and every swallowed message is counted through the
telemetry layer under ``fault.*`` so resilience experiments can correlate
protocol-level recovery with the raw fault timeline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable

from ..net.address import NodeId
from .plan import (
    Blackhole,
    Delay,
    Duplicate,
    FaultDirective,
    FaultPlan,
    LossBurst,
    NatRebind,
    NatReset,
    Partition,
    Reorder,
    Stall,
)

if TYPE_CHECKING:  # the harness imports nothing from faults; cycle-safe
    from ..harness.world import World
    from ..sim.clock import Cancellable, Clock
    from ..telemetry import Telemetry

__all__ = ["FaultExecutor", "FaultInjector", "FaultStats"]


@dataclass
class FaultStats:
    """What the executor did and what it swallowed."""

    blackhole_drops: int = 0
    partition_drops: int = 0
    stall_drops: int = 0
    loss_drops: int = 0
    faults_activated: int = 0
    faults_healed: int = 0
    nodes_stalled: int = 0
    nat_resets: int = 0
    nat_rebinds: int = 0
    sessions_invalidated: int = 0  # NAT mappings wiped by resets/rebinds
    delays_injected: int = 0
    duplicates_injected: int = 0
    reorders_injected: int = 0
    # Plan-level decisions in execution order: (kind, victims) tuples.
    decisions: list[tuple[str, tuple[NodeId, ...]]] = field(default_factory=list)


class FaultExecutor:
    """The fault-plan state machine shared by both fabrics."""

    def __init__(
        self,
        clock: "Clock",
        telemetry: "Telemetry",
        plan_rng: random.Random,
        wire_rng: random.Random,
    ) -> None:
        self._clock = clock
        self.telemetry = telemetry
        self._plan_rng = plan_rng  # victim selection, partition grouping
        self._wire_rng = wire_rng  # per-message loss and shaping draws
        self.stats = FaultStats()
        # Active fault state.
        self._blackholes: set[tuple[NodeId, NodeId]] = set()
        self._stalled: set[NodeId] = set()
        self._losses: list[LossBurst] = []
        self._delays: list[Delay] = []
        self._duplicates: list[Duplicate] = []
        self._reorders: list[Reorder] = []
        # Windowed directives open and close the same way: type -> (kind,
        # the list the directive sits in while its window is open).
        self._windows: dict[type, tuple[str, list]] = {
            LossBurst: ("loss", self._losses),
            Delay: ("delay", self._delays),
            Duplicate: ("duplicate", self._duplicates),
            Reorder: ("reorder", self._reorders),
        }
        # node -> partition group index; None when no partition is active.
        self._partition: dict[NodeId, int] | None = None
        self._partition_groups = 0
        self._pending: list["Cancellable"] = []  # directive edges on the clock

    # ------------------------------------------------------------------
    # what a port supplies
    # ------------------------------------------------------------------
    def _at(self, time: float, callback: Callable[[], object]) -> None:
        """Put one directive edge on the clock at absolute ``time``."""
        self._pending.append(self._clock.schedule_at(time, callback))

    def _population(self) -> Iterable[NodeId]:
        """Ids of the nodes a population-wide directive draws from."""
        raise NotImplementedError

    def _nat_population(self) -> Iterable[NodeId]:
        """Ids of the nodes a NAT reset / rebind draws from."""
        return self._population()

    def _reset_nat_of(self, node: NodeId) -> int:
        """Invalidate ``node``'s inbound sessions; returns mappings wiped."""
        raise NotImplementedError

    def _on_stall(self, node: NodeId) -> None:
        """``node`` just stalled (its traffic is already being swallowed)."""

    def _on_unstall(self, node: NodeId) -> None:
        """``node`` just left the stalled set."""

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def arm(self, plan: FaultPlan | list[FaultDirective]) -> None:
        """Schedule every directive relative to the current clock time."""
        for directive in plan:
            self.schedule(directive)

    def schedule(self, directive: FaultDirective, base: float | None = None) -> None:
        """Schedule one directive; times are relative to ``base`` (now).

        Only the activation edge goes on the clock here; each activation
        schedules its own heal, so an edge is one event.
        """
        if type(directive) in self._windows:
            offset, activate = directive.start, self._open_window
        elif isinstance(directive, Partition):
            offset, activate = directive.start, self._split
        elif isinstance(directive, Blackhole):
            offset, activate = directive.at, self._open_blackhole
        elif isinstance(directive, Stall):
            offset, activate = directive.at, self._stall
        elif isinstance(directive, (NatReset, NatRebind)):
            offset, activate = directive.at, self._reset_nat
        else:
            raise TypeError(f"not a fault directive: {directive!r}")
        base = self._clock.now if base is None else base
        self._at(base + offset, lambda: activate(directive))

    def cancel_pending(self) -> None:
        """Cancel not-yet-fired directives and heal everything active."""
        for event in self._pending:
            event.cancel()
        self._pending.clear()
        self.heal_all()

    def heal_all(self) -> None:
        """Immediately clear all active fault state (partitions, stalls...)."""
        self._blackholes.clear()
        for _kind, active in self._windows.values():
            active.clear()
        self._partition = None
        self._release(list(self._stalled))

    # ------------------------------------------------------------------
    # per-message verdicts
    # ------------------------------------------------------------------
    def drop_reason(self, src: NodeId | None, dst: NodeId | None) -> str | None:
        """Why an active blackhole / stall / partition swallows src -> dst.

        Asked at egress and again at ingress: a fault that arose while the
        message was in flight (a partition forming, a node stalling) still
        swallows it — a link that is down when the packet arrives loses it.
        ``None`` stands for an endpoint no hosted node owns.
        """
        if (src, dst) in self._blackholes:
            self.stats.blackhole_drops += 1
            return self._count_drop("blackhole")
        if src in self._stalled or dst in self._stalled:
            self.stats.stall_drops += 1
            return self._count_drop("stall")
        if (
            self._partition is not None
            and src is not None
            and dst is not None
            and self._group_of(src) != self._group_of(dst)
        ):
            self.stats.partition_drops += 1
            return self._count_drop("partition")
        return None

    def loss_reason(self) -> str | None:
        """One draw against the stacked loss windows: ``"loss"`` or None."""
        if not self._losses:
            return None
        keep = 1.0
        for burst in self._losses:
            keep *= 1.0 - burst.rate
        if self._wire_rng.random() < 1.0 - keep:
            self.stats.loss_drops += 1
            return self._count_drop("loss")
        return None

    def shape(self) -> tuple[float, int]:
        """Transit shaping for one message: (extra_delay, copies).

        The extra seconds the message spends in flight and how many copies
        are delivered (1 = normal).  The RNG is only consumed while a
        shaping directive is active, so plans without delay / duplicate /
        reorder directives leave existing traces byte-identical.
        """
        rng = self._wire_rng
        stats = self.stats
        extra = 0.0
        copies = 1
        for delay in self._delays:
            if delay.rate >= 1.0 or rng.random() < delay.rate:
                extra += delay.delay
                stats.delays_injected += 1
                self._count("fault.shaped", kind="delay")
        for duplicate in self._duplicates:
            if rng.random() < duplicate.rate:
                copies += 1
                stats.duplicates_injected += 1
                self._count("fault.shaped", kind="duplicate")
        for reorder in self._reorders:
            if rng.random() < reorder.rate:
                extra += reorder.delay
                stats.reorders_injected += 1
                self._count("fault.shaped", kind="reorder")
        return extra, copies

    @property
    def shaping_active(self) -> bool:
        """Whether any delay/duplicate/reorder directive is currently live."""
        return bool(self._delays or self._duplicates or self._reorders)

    def _group_of(self, node: NodeId) -> int:
        assert self._partition is not None
        group = self._partition.get(node)
        if group is None:
            # Nodes that joined after the split land in a deterministic
            # group: a partition does not exempt newcomers.
            group = node % self._partition_groups
            self._partition[node] = group
        return group

    # ------------------------------------------------------------------
    # activations (each schedules its own heal)
    # ------------------------------------------------------------------
    def _open_window(
        self, directive: "LossBurst | Delay | Duplicate | Reorder"
    ) -> None:
        kind, active = self._windows[type(directive)]
        active.append(directive)
        self._record_activation(kind)

        def close() -> None:
            if directive in active:  # heal_all may have emptied the list
                active.remove(directive)
            self._record_heal(kind)

        self._at(self._clock.now + (directive.end - directive.start), close)

    def _open_blackhole(self, directive: Blackhole) -> None:
        link = (directive.src, directive.dst)
        self._blackholes.add(link)
        self.stats.decisions.append(("blackhole", link))
        self._record_activation("blackhole")

        def close() -> None:
            self._blackholes.discard(link)
            self._record_heal("blackhole")

        if directive.duration is not None:
            self._at(self._clock.now + directive.duration, close)

    def _split(self, directive: Partition) -> None:
        ids = sorted(self._population())
        self._plan_rng.shuffle(ids)
        groups = directive.group_count
        self._partition = {nid: i % groups for i, nid in enumerate(ids)}
        self._partition_groups = groups
        self.stats.decisions.append(("partition", tuple(ids)))
        self._record_activation("partition")

        def heal() -> None:
            self._partition = None
            self._record_heal("partition")

        self._at(self._clock.now + (directive.end - directive.start), heal)

    def _pick(self, ids: Iterable[NodeId], fraction: float) -> list[NodeId]:
        """A seeded ``fraction`` (at least one) of ``ids``, sorted first."""
        ids = sorted(ids)
        count = min(len(ids), max(1, round(len(ids) * fraction)))
        return self._plan_rng.sample(ids, count) if count else []

    def _stall(self, directive: Stall) -> None:
        victims = self._pick(
            (nid for nid in self._population() if nid not in self._stalled),
            directive.fraction,
        )
        for nid in victims:
            self._stalled.add(nid)
            self._on_stall(nid)
        self.stats.nodes_stalled += len(victims)
        self.stats.decisions.append(("stall", tuple(victims)))
        self._record_activation("stall")
        self._count("fault.stalled_nodes", len(victims))

        def unstall() -> None:
            self._release(victims)
            self._record_heal("stall")

        self._at(self._clock.now + directive.duration, unstall)

    def _release(self, nodes: list[NodeId]) -> None:
        for nid in nodes:
            self._stalled.discard(nid)
            self._on_unstall(nid)

    def _reset_nat(self, directive: "NatReset | NatRebind") -> None:
        kind = "nat_reset" if isinstance(directive, NatReset) else "nat_rebind"
        victims = self._pick(self._nat_population(), directive.fraction)
        stats = self.stats
        tally = f"{kind}s"  # the stats field and the fault.* counter share it
        setattr(stats, tally, getattr(stats, tally) + len(victims))
        stats.sessions_invalidated += sum(map(self._reset_nat_of, victims))
        stats.decisions.append((kind, tuple(victims)))
        self._record_activation(kind)
        self._count(f"fault.{tally}", len(victims))

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def decision_digest(self) -> tuple[tuple[str, tuple[NodeId, ...]], ...]:
        """Every plan-level fault decision so far, in execution order.

        Same seed + same plan + same node ids ⇒ identical digest across
        runs and across fabrics, regardless of traffic — the
        reproducibility contract the soak experiment asserts.
        """
        return tuple(self.stats.decisions)

    def _count(self, name: str, amount: int = 1, **labels: object) -> None:
        if self.telemetry.enabled:
            self.telemetry.counter(name, layer="fault", **labels).inc(amount)

    def _count_drop(self, reason: str) -> str:
        self._count("fault.drops", reason=reason)
        return reason

    def _record_activation(self, kind: str) -> None:
        self.stats.faults_activated += 1
        self._count("fault.injected", kind=kind)
        if self.telemetry.enabled:
            self.telemetry.instant(f"fault.{kind}.on", layer="fault")

    def _record_heal(self, kind: str) -> None:
        self.stats.faults_healed += 1
        self._count("fault.healed", kind=kind)
        if self.telemetry.enabled:
            self.telemetry.instant(f"fault.{kind}.off", layer="fault")


class FaultInjector(FaultExecutor):
    """The simulator port: applies a fault plan to a world's network fabric."""

    def __init__(
        self,
        world: "World",
        plan: FaultPlan | None = None,
        rng: random.Random | None = None,
    ) -> None:
        self.world = world
        rng = rng if rng is not None else world.registry.stream("faults")
        # One stream in both roles: the golden traces pin the interleaving
        # of victim draws and loss draws on ``registry.stream("faults")``.
        super().__init__(world.sim, world.telemetry, rng, rng)
        world.network.set_fault_hook(self)
        if plan is not None:
            self.arm(plan)

    def _population(self) -> Iterable[NodeId]:
        return (node.node_id for node in self.world.alive_nodes())

    def _nat_population(self) -> Iterable[NodeId]:
        topology = self.world.topology
        return (
            nid
            for nid in self._population()
            if topology.knows(nid) and topology.assignment(nid).device is not None
        )

    def _reset_nat_of(self, node: NodeId) -> int:
        # The sim fabric has no sockets to close; a rebind's observable
        # effect — peers' established paths to the victim go dark until NAT
        # traversal re-discovers the endpoint — is a mapping wipe, exactly
        # what a rebooted NAT box does.
        device = self.world.topology.assignment(node).device
        assert device is not None
        return device.reset_mappings()

    # ------------------------------------------------------------------
    # the network hook (called on every send / delivery)
    # ------------------------------------------------------------------
    def on_send(self, src: NodeId, dst_hint: NodeId) -> str | None:
        """Reason the egress message is swallowed, or None to let it pass."""
        return self.drop_reason(src, dst_hint) or self.loss_reason()

    def on_transit(self, src: NodeId, dst_hint: NodeId) -> tuple[float, int]:
        """Consulted by the fabric after the drop checks pass."""
        return self.shape()

    def on_deliver(self, src: NodeId, owner: NodeId) -> str | None:
        """Ingress check: the verdict at arrival time."""
        return self.drop_reason(src, owner)
