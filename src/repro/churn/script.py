"""SPLAY-style churn scripting (Section V-D, Table I).

The paper drives churn with SPLAY's churn module and shows the script::

    from 0s to 30s join 1000
    at 300s set replacement ratio to 100%
    from 300s to 1200s const churn X% each 60s
    at 1200s stop

This module implements a parser for that language and a driver that applies
it to a :class:`~repro.harness.world.World`: ``join`` ramps spawn nodes
uniformly over the window, ``const churn P% each Ts`` kills P% of the
current population every T seconds and (re)spawns ``replacement ratio``
times as many fresh nodes.

Beyond the paper, the language also scripts *partial* failures (executed by
:class:`~repro.faults.injector.FaultInjector`), so Table I-style resilience
scenarios stay one-line declarative::

    from 300s to 600s partition groups a|b   # split, heal at 600s
    at 400s blackhole 5 -> 9                 # directed link failure
    at 420s blackhole 9 -> 5 for 60s         # ... with scheduled healing
    at 500s stall 3% for 120s                # alive but dropping traffic
    at 600s reset nat 10%                    # NAT reboots forget mappings
    at 620s rebind nat 10%                   # NAT rebinds to fresh endpoints
    from 700s to 760s loss 20%               # loss-rate burst
    from 700s to 760s delay 50ms 20%         # bufferbloat window
    from 700s to 760s duplicate 10%          # duplicated datagrams
    from 700s to 760s reorder 10% by 80ms    # held-back minority reorders
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Callable, Union

from ..core.node import WhisperNode
from ..faults.injector import FaultInjector
from ..faults.plan import (
    Blackhole,
    Delay,
    Duplicate,
    FaultDirective,
    LossBurst,
    NatRebind,
    NatReset,
    Partition,
    Reorder,
    Stall,
    is_fault_directive,
)
from ..harness.world import World
from ..net.address import NodeId

__all__ = [
    "JoinRamp",
    "SetReplacementRatio",
    "ConstChurn",
    "StopAt",
    "parse_script",
    "ChurnDriver",
    "ChurnScriptError",
]


class ChurnScriptError(ValueError):
    """Malformed churn script line."""


@dataclass(frozen=True)
class JoinRamp:
    """Spawn ``count`` nodes uniformly over [start, end]."""

    start: float
    end: float
    count: int


@dataclass(frozen=True)
class SetReplacementRatio:
    """Set how many joins replace each kill from ``at`` onwards."""

    at: float
    ratio: float  # 1.0 = 100%


@dataclass(frozen=True)
class ConstChurn:
    """Kill ``percent`` of the population every ``interval`` seconds."""

    start: float
    end: float
    percent: float  # fraction of population churned per event, e.g. 0.01
    interval: float


@dataclass(frozen=True)
class StopAt:
    """Halt all churn activity at ``at``."""

    at: float


Directive = Union[
    JoinRamp, SetReplacementRatio, ConstChurn, StopAt, FaultDirective
]

_DURATION = r"(\d+(?:\.\d+)?)s"
_PERCENT = r"(\d+(?:\.\d+)?)%"
_MILLIS = r"(\d+(?:\.\d+)?)ms"


def _percent_fraction(raw: str, what: str) -> float:
    value = float(raw) / 100.0
    if not 0.0 <= value <= 1.0:
        raise ChurnScriptError(f"{what} percentage out of range: {raw}%")
    return value


_PATTERNS: list[tuple[re.Pattern, Callable[[re.Match], Directive]]] = [
    (
        re.compile(rf"^from {_DURATION} to {_DURATION} join (\d+)$"),
        lambda m: JoinRamp(float(m[1]), float(m[2]), int(m[3])),
    ),
    (
        re.compile(rf"^at {_DURATION} set replacement ratio to (\d+(?:\.\d+)?)%$"),
        lambda m: SetReplacementRatio(float(m[1]), float(m[2]) / 100.0),
    ),
    (
        re.compile(
            rf"^from {_DURATION} to {_DURATION} const churn "
            rf"{_PERCENT} each {_DURATION}$"
        ),
        lambda m: ConstChurn(
            float(m[1]), float(m[2]),
            _percent_fraction(m[3], "const churn"), float(m[4]),
        ),
    ),
    (re.compile(rf"^at {_DURATION} stop$"), lambda m: StopAt(float(m[1]))),
    # ---- fault directives (executed by a FaultInjector) ---------------
    (
        re.compile(
            rf"^from {_DURATION} to {_DURATION} partition groups "
            rf"([a-z0-9_]+(?:\|[a-z0-9_]+)+)$"
        ),
        lambda m: Partition(
            float(m[1]), float(m[2]), group_count=len(m[3].split("|"))
        ),
    ),
    (
        re.compile(
            rf"^at {_DURATION} blackhole (\d+) -> (\d+)(?: for {_DURATION})?$"
        ),
        lambda m: Blackhole(
            float(m[1]), int(m[2]), int(m[3]),
            duration=float(m[4]) if m[4] is not None else None,
        ),
    ),
    (
        re.compile(rf"^at {_DURATION} stall {_PERCENT} for {_DURATION}$"),
        lambda m: Stall(
            float(m[1]), _percent_fraction(m[2], "stall"), float(m[3])
        ),
    ),
    (
        re.compile(rf"^at {_DURATION} reset nat {_PERCENT}$"),
        lambda m: NatReset(float(m[1]), _percent_fraction(m[2], "reset nat")),
    ),
    (
        re.compile(rf"^from {_DURATION} to {_DURATION} loss {_PERCENT}$"),
        lambda m: LossBurst(
            float(m[1]), float(m[2]), _percent_fraction(m[3], "loss")
        ),
    ),
    # ---- transit shaping + live rebinds (PR 7) ------------------------
    (
        re.compile(
            rf"^from {_DURATION} to {_DURATION} delay {_MILLIS}(?: {_PERCENT})?$"
        ),
        lambda m: Delay(
            float(m[1]), float(m[2]), delay=float(m[3]) / 1000.0,
            rate=_percent_fraction(m[4], "delay") if m[4] is not None else 1.0,
        ),
    ),
    (
        re.compile(rf"^from {_DURATION} to {_DURATION} duplicate {_PERCENT}$"),
        lambda m: Duplicate(
            float(m[1]), float(m[2]), _percent_fraction(m[3], "duplicate")
        ),
    ),
    (
        re.compile(
            rf"^from {_DURATION} to {_DURATION} reorder {_PERCENT} by {_MILLIS}$"
        ),
        lambda m: Reorder(
            float(m[1]), float(m[2]),
            _percent_fraction(m[3], "reorder"), delay=float(m[4]) / 1000.0,
        ),
    ),
    (
        re.compile(rf"^at {_DURATION} rebind nat {_PERCENT}$"),
        lambda m: NatRebind(float(m[1]), _percent_fraction(m[2], "rebind nat")),
    ),
]


def parse_script(text: str) -> list[Directive]:
    """Parse a churn script; raises :class:`ChurnScriptError` on bad lines."""
    directives: list[Directive] = []
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip().lower()
        if not line:
            continue
        for pattern, build in _PATTERNS:
            match = pattern.match(line)
            if match:
                try:
                    directives.append(build(match))
                except ValueError as exc:  # dataclass validation
                    raise ChurnScriptError(
                        f"invalid churn directive {raw_line!r}: {exc}"
                    ) from exc
                break
        else:
            raise ChurnScriptError(f"cannot parse churn directive: {raw_line!r}")
    return directives


@dataclass
class ChurnStats:
    """Totals of what the driver did."""

    joined: int = 0
    killed: int = 0
    churn_events: int = 0


class ChurnDriver:
    """Applies a churn script to a world.

    ``on_join`` runs for every spawned node (e.g. to subscribe it to a
    private group); ``on_kill`` runs just before a node is removed.  Nodes
    named in ``protected`` (e.g. group leaders or introducers) are never
    selected for killing, mirroring how the paper keeps enough entry points
    alive to measure route availability rather than bootstrap failures.

    Fault directives in the script are handed to a
    :class:`~repro.faults.injector.FaultInjector` — the one passed in, or a
    fresh one created on demand (exposed as :attr:`injector`).  ``stop``
    halts churn *and* cancels pending fault activations, healing anything
    still active.
    """

    def __init__(
        self,
        world: World,
        directives: list[Directive],
        rng: random.Random | None = None,
        on_join: Callable[[WhisperNode], None] | None = None,
        on_kill: Callable[[NodeId], None] | None = None,
        protected: set[NodeId] | None = None,
        injector: FaultInjector | None = None,
    ) -> None:
        self.world = world
        self.directives = list(directives)
        self._rng = rng if rng is not None else world.registry.stream("churn")
        self._on_join = on_join
        self._on_kill = on_kill
        self.protected: set[NodeId] = set(protected or ())
        self.replacement_ratio = 1.0
        self.stopped = False
        self.stats = ChurnStats()
        self.injector = injector
        if self.injector is None and any(
            is_fault_directive(d) for d in self.directives
        ):
            self.injector = FaultInjector(world)
        self._pending_events: list[object] = []
        self._schedule_all()

    # ------------------------------------------------------------------
    def _schedule_all(self) -> None:
        # Script times are relative to the moment the driver is created, so
        # "from 0s ..." works no matter how long the world warmed up first.
        sim = self.world.sim
        base = sim.now
        for directive in self.directives:
            if is_fault_directive(directive):
                assert self.injector is not None
                self.injector.schedule(directive, base)
            elif isinstance(directive, JoinRamp):
                span = max(directive.end - directive.start, 0.0)
                for i in range(directive.count):
                    offset = directive.start + span * (i / max(directive.count, 1))
                    self._pending_events.append(
                        sim.schedule_at(base + offset, self._join_one)
                    )
            elif isinstance(directive, SetReplacementRatio):
                sim.schedule_at(
                    base + directive.at,
                    lambda ratio=directive.ratio: self._set_ratio(ratio),
                )
            elif isinstance(directive, ConstChurn):
                t = directive.start
                while t < directive.end:
                    self._pending_events.append(
                        sim.schedule_at(
                            base + t,
                            lambda pct=directive.percent: self._churn_event(pct),
                        )
                    )
                    t += directive.interval
            elif isinstance(directive, StopAt):
                sim.schedule_at(base + directive.at, self._stop)

    def _set_ratio(self, ratio: float) -> None:
        self.replacement_ratio = ratio

    def _stop(self) -> None:
        self.stopped = True
        # Cancel queued join/churn events outright (belt and braces on top
        # of the ``stopped`` guards) and stand down any fault schedule.
        for event in self._pending_events:
            event.cancel()  # type: ignore[attr-defined]
        self._pending_events.clear()
        if self.injector is not None:
            self.injector.cancel_pending()

    def _join_one(self) -> None:
        if self.stopped:
            return
        node = self.world.spawn_started()
        self.stats.joined += 1
        if self._on_join is not None:
            self._on_join(node)

    def _churn_event(self, percent: float) -> None:
        if self.stopped:
            return
        self.stats.churn_events += 1
        population = [
            n for n in self.world.alive_nodes() if n.node_id not in self.protected
        ]
        kill_count = round(len(self.world.alive_nodes()) * percent)
        kill_count = min(kill_count, len(population))
        victims = self._rng.sample(population, kill_count) if kill_count else []
        for victim in victims:
            if self._on_kill is not None:
                self._on_kill(victim.node_id)
            self.world.kill_node(victim.node_id)
            self.stats.killed += 1
        arrivals = round(kill_count * self.replacement_ratio)
        for _ in range(arrivals):
            self._join_one()
