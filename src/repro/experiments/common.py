"""Shared plumbing for the evaluation experiments (Section V).

Each experiment module exposes ``run(scale=..., seed=...) -> Report``.
``scale`` multiplies population sizes: 1.0 reproduces the paper's setup
(1,000-node cluster / 400-node PlanetLab slice); smaller values give quick
sanity runs.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Callable

from ..core.node import WhisperNode
from ..core.ppss import PpssConfig
from ..harness.world import World
from ..net.address import NodeId
from ..net.bandwidth import TrafficTotals

__all__ = [
    "scaled", "subscribe_groups", "tally_exchanges", "traffic_window", "GroupPlan",
]


def scaled(count: int, scale: float, minimum: int = 10) -> int:
    return max(minimum, round(count * scale))


def traffic_window(world: World, seconds: float) -> dict[NodeId, TrafficTotals]:
    """Run ``world`` for ``seconds``; the bytes each node moved meanwhile.

    The difference of two lifetime readings of the fabric's bandwidth
    accountant.  A node is in the window iff its totals changed.
    """
    accountant = world.network.accountant
    before = accountant.all_totals()
    world.run(seconds)
    window: dict[NodeId, TrafficTotals] = {}
    for node, after in accountant.all_totals().items():
        start = before.get(node, TrafficTotals())
        if (after.up_bytes, after.down_bytes) == (start.up_bytes, start.down_bytes):
            continue
        up, down = Counter(after.up_by_category), Counter(after.down_by_category)
        up.subtract(start.up_by_category)
        down.subtract(start.down_by_category)
        window[node] = TrafficTotals(
            after.up_bytes - start.up_bytes, after.down_bytes - start.down_bytes,
            up, down,
        )
    return window


class GroupPlan:
    """Creates G groups led by distinct P-nodes and subscribes members.

    Mirrors the paper's multi-group deployments: "each subscribing to one
    random group out of a set of 20 private groups" (Table I) and "each
    P-node creates, and acts as a leader for, one private group" (Fig. 8).
    """

    def __init__(
        self,
        world: World,
        group_count: int,
        ppss_config: PpssConfig | None = None,
        rng: random.Random | None = None,
    ) -> None:
        self.world = world
        self.ppss_config = ppss_config
        self._rng = rng if rng is not None else world.registry.stream("groups")
        publics = world.public_nodes()
        if len(publics) < group_count:
            raise ValueError(
                f"need {group_count} P-nodes to lead groups, have {len(publics)}"
            )
        self.leaders: dict[str, WhisperNode] = {}
        for i in range(group_count):
            name = f"group-{i}"
            publics[i].create_group(name, config=ppss_config)
            self.leaders[name] = publics[i]

    @property
    def names(self) -> list[str]:
        return list(self.leaders.keys())

    def leader_ids(self) -> set[int]:
        return {n.node_id for n in self.leaders.values()}

    def subscribe(self, node: WhisperNode, count: int = 1) -> list[str]:
        """Join ``node`` to ``count`` random groups it is not yet in."""
        candidates = [
            name for name in self.names
            if name not in node.groups
        ]
        chosen = self._rng.sample(candidates, min(count, len(candidates)))
        for name in chosen:
            leader = self.leaders[name]
            invitation = leader.group(name).invite(node.node_id)
            node.join_group(invitation, config=self.ppss_config)
        return chosen


def subscribe_groups(
    world: World,
    plan: GroupPlan,
    per_node: int,
    exclude: set[int] | None = None,
) -> None:
    """Subscribe every (non-excluded) alive node to ``per_node`` groups."""
    exclude = exclude or set()
    for node in world.alive_nodes():
        if node.node_id in exclude:
            continue
        plan.subscribe(node, per_node)


def tally_exchanges(
    world: World, plan: GroupPlan, record: Callable[[str], None]
) -> Callable[[WhisperNode], None]:
    """Table I's tally over a churned multi-group world.

    Every finished view exchange of a leader or member is classified as
    ``"success"``, ``"alt"`` (the first path failed and an alternative was
    tried) or ``"no_alt"`` and handed to ``record`` — except a failure
    towards a partner that has left the world: footnote 3 excludes it (a
    dead destination is not a route failure).  A wired node subscribes to
    one random group 60 s later, once its PSS has warmed up.  The initial
    non-leader nodes are wired here; the returned function wires a node
    and is the churn driver's ``on_join``.

    Wiring draws nothing and only schedules each subscription 60 s ahead,
    so building the ``ChurnDriver`` before or after this call reorders
    nothing unless a driver event falls on that same instant — which no
    caller's script schedules (joins end 30 s in; churn, faults and stop
    start 240 s in or later).
    """

    def hook(outcome: str, attempts: int, partner: int, duration: float) -> None:
        if outcome != "success" and partner not in world.nodes:
            return
        record("alt" if outcome == "alt_failed" else outcome)

    def wire_node(node: WhisperNode) -> None:
        def subscribe() -> None:
            if not node.alive:
                return
            for name in plan.subscribe(node, 1):
                node.group(name).exchange_outcome_hook = hook

        world.sim.schedule(60.0, subscribe)

    for name, leader in plan.leaders.items():
        leader.group(name).exchange_outcome_hook = hook
    leaders = plan.leader_ids()
    for node in world.alive_nodes():
        if node.node_id not in leaders:
            wire_node(node)
    return wire_node
