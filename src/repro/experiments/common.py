"""Shared plumbing for the evaluation experiments (Section V).

Each experiment module exposes ``run(scale=..., seed=...) -> Report``.
``scale`` multiplies population sizes: 1.0 reproduces the paper's setup
(1,000-node cluster / 400-node PlanetLab slice); smaller values give quick
sanity runs.
"""

from __future__ import annotations

import random

from ..core.node import WhisperNode
from ..core.ppss import PpssConfig
from ..harness.world import World

__all__ = ["scaled", "subscribe_groups", "GroupPlan"]


def scaled(count: int, scale: float, minimum: int = 10) -> int:
    return max(minimum, round(count * scale))


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
