"""Fault directives and the deterministic :class:`FaultPlan`.

The paper's Table I evaluates WHISPER only against whole-node churn; real
deployments also see *partial* failures: links that silently blackhole,
loss-rate bursts, network partitions that later heal, nodes that stall
(alive but dropping everything) and NAT boxes that reboot and forget their
mappings.  This module declares those faults as data — small frozen
dataclasses that the script parser (see :mod:`repro.churn.script`) or an
experiment builds — and bundles them into a :class:`FaultPlan`
that the :class:`~repro.faults.injector.FaultExecutor` executes on either
clock: simulated (:class:`~repro.faults.injector.FaultInjector`) or live
(:class:`~repro.faults.LiveFaultFabric`).

All times are relative to the moment the plan is armed (exactly like churn
scripts), so the same plan can run after any warm-up period.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ..net.address import NodeId

__all__ = [
    "Blackhole",
    "LossBurst",
    "Partition",
    "Stall",
    "NatReset",
    "Delay",
    "Duplicate",
    "Reorder",
    "NatRebind",
    "FaultDirective",
    "FaultPlan",
    "is_fault_directive",
]


@dataclass(frozen=True)
class Blackhole:
    """Silently drop every message from ``src`` to ``dst``.

    Starts at ``at``; ``duration`` of ``None`` means the link never heals
    (the paper's one-way route failures).  The reverse direction is not
    affected — directed blackholes model asymmetric routing failures.
    """

    at: float
    src: NodeId
    dst: NodeId
    duration: float | None = None

    def __post_init__(self) -> None:
        if self.duration is not None and self.duration <= 0:
            raise ValueError("blackhole duration must be positive")


@dataclass(frozen=True)
class LossBurst:
    """Extra uniform message loss of ``rate`` during [start, end].

    Stacks on top of the latency model's own loss (PlanetLab profile), the
    way congestion events stack on a testbed's background loss.
    """

    start: float
    end: float
    rate: float  # fraction of messages dropped, e.g. 0.2

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"loss rate out of range: {self.rate}")
        if self.end < self.start:
            raise ValueError("loss burst ends before it starts")


@dataclass(frozen=True)
class Partition:
    """Split the live population into isolated groups during [start, end].

    ``group_count`` groups are drawn uniformly (seeded) when the partition
    activates; traffic *between* groups is dropped, traffic *within* a group
    flows normally.  Healing at ``end`` is scheduled up front, matching how
    churn scripts declare whole scenarios in advance.
    """

    start: float
    end: float
    group_count: int = 2

    def __post_init__(self) -> None:
        if self.group_count < 2:
            raise ValueError("a partition needs at least 2 groups")
        if self.end < self.start:
            raise ValueError("partition heals before it forms")


@dataclass(frozen=True)
class Stall:
    """A fraction of live nodes stops emitting/receiving for ``duration``.

    Stalled nodes stay attached (their timers keep firing, they think they
    are fine) but every message in or out is dropped — the relay-wedged /
    GC-paused / laptop-lid-closed failure mode.
    """

    at: float
    fraction: float
    duration: float

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"stall fraction out of range: {self.fraction}")
        if self.duration <= 0:
            raise ValueError("stall duration must be positive")


@dataclass(frozen=True)
class NatReset:
    """A fraction of natted nodes' NAT devices reboot at ``at``.

    Rebooting a NAT box forgets every association rule: established inbound
    sessions towards the node die silently (packets to the old external
    ports are filtered) until traffic re-opens fresh mappings.
    """

    at: float
    fraction: float

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"nat reset fraction out of range: {self.fraction}")


@dataclass(frozen=True)
class Delay:
    """Extra per-message transit delay of ``delay`` seconds during [start, end].

    Each affected message (a ``rate`` fraction of traffic) is held back by
    ``delay`` — the bufferbloat / congested-uplink failure mode.  On the
    live fabric the hold-back is a real scheduler timer between ``sendto``
    calls; in the simulator it adds to the latency model's transit time.
    """

    start: float
    end: float
    delay: float
    rate: float = 1.0

    def __post_init__(self) -> None:
        if self.delay <= 0:
            raise ValueError("delay must be positive")
        if not 0.0 < self.rate <= 1.0:
            raise ValueError(f"delay rate out of range: {self.rate}")
        if self.end < self.start:
            raise ValueError("delay window ends before it starts")


@dataclass(frozen=True)
class Duplicate:
    """A ``rate`` fraction of messages is delivered twice during [start, end].

    UDP duplication happens on real paths (retransmitting middleboxes,
    route flaps); idempotent protocol handling is what this shakes out.
    """

    start: float
    end: float
    rate: float

    def __post_init__(self) -> None:
        if not 0.0 < self.rate <= 1.0:
            raise ValueError(f"duplicate rate out of range: {self.rate}")
        if self.end < self.start:
            raise ValueError("duplicate window ends before it starts")


@dataclass(frozen=True)
class Reorder:
    """A ``rate`` fraction of messages is held back ``delay`` seconds.

    Holding back a minority of packets while the rest flow normally makes
    later packets overtake earlier ones — the classic UDP reordering
    pattern of multi-path routing.
    """

    start: float
    end: float
    rate: float
    delay: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 < self.rate <= 1.0:
            raise ValueError(f"reorder rate out of range: {self.rate}")
        if self.delay <= 0:
            raise ValueError("reorder hold-back delay must be positive")
        if self.end < self.start:
            raise ValueError("reorder window ends before it starts")


@dataclass(frozen=True)
class NatRebind:
    """A ``fraction`` of nodes' NAT mappings rebind to fresh endpoints at ``at``.

    The live fabric closes and reopens the victim's UDP socket mid-run (the
    OS hands out a new port, exactly what a rebooted NAT box does to its
    external mapping); peers keep sending to the stale endpoint until NAT
    re-traversal discovers the new one.  In the simulator the victim's NAT
    device forgets its association rules, the same observable effect.
    """

    at: float
    fraction: float

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"nat rebind fraction out of range: {self.fraction}")


FaultDirective = Union[
    Blackhole, LossBurst, Partition, Stall, NatReset,
    Delay, Duplicate, Reorder, NatRebind,
]

_FAULT_TYPES = (
    Blackhole, LossBurst, Partition, Stall, NatReset,
    Delay, Duplicate, Reorder, NatRebind,
)


def is_fault_directive(directive: object) -> bool:
    """Whether a parsed script directive belongs to the fault subsystem."""
    return isinstance(directive, _FAULT_TYPES)


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, validated collection of fault directives."""

    directives: tuple[FaultDirective, ...] = ()

    def __post_init__(self) -> None:
        for directive in self.directives:
            if not is_fault_directive(directive):
                raise TypeError(
                    f"not a fault directive: {directive!r}"
                )

    @classmethod
    def of(cls, *directives: FaultDirective) -> "FaultPlan":
        return cls(directives=tuple(directives))

    def __len__(self) -> int:
        return len(self.directives)

    def __iter__(self):
        return iter(self.directives)
