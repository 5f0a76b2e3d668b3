"""Partial views: the core data structure of a peer sampling service.

A view is a small set of :class:`ViewEntry` (descriptor + age).  Ages count
gossip cycles since the pointed-to node inserted itself (age 0); they drive
both partner selection (oldest first, the *healer* strategy) and merge
decisions (keep freshest).

Ages advance lazily: :meth:`View.increment_ages` bumps a view-level offset
in O(1) instead of rebuilding every entry, and entries are materialized with
their absolute age only when read.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from ..nat.traversal import NodeDescriptor
from ..net.address import NodeId, NodeKind

__all__ = ["ViewEntry", "View"]

_PUBLIC = NodeKind.PUBLIC
# A view slot as stored: (age relative to the view's offset, node id,
# descriptor); during a merge, with the arrival index before the descriptor.
_Stored = tuple[int, NodeId, NodeDescriptor]
_Arrival = tuple[int, NodeId, int, NodeDescriptor]


@dataclass(frozen=True, slots=True)
class ViewEntry:
    """One view slot: who, how to reach them, and how stale the info is."""

    descriptor: NodeDescriptor
    age: int = 0

    @property
    def node_id(self) -> NodeId:
        return self.descriptor.node_id

    @property
    def is_public(self) -> bool:
        return self.descriptor.kind is NodeKind.PUBLIC

    def aged(self) -> "ViewEntry":
        return ViewEntry(self.descriptor, self.age + 1)

    def via(self, forwarder: NodeId) -> "ViewEntry":
        """Entry as shipped to a gossip partner (route extended)."""
        return ViewEntry(self.descriptor.via(forwarder), self.age)


class View:
    """A bounded, deduplicated set of view entries.

    Mutation goes through :meth:`put` / :meth:`remove` / :meth:`replace_all`
    and :meth:`merge` (one gossip exchange, or the bootstrap from the
    introducers), which owns view selection; iteration order is insertion
    order, which keeps runs deterministic — it is the population
    :meth:`sample` draws from.

    Internally an entry is a plain ``(age, node_id, descriptor)`` tuple whose
    age is relative to ``_age_offset``, so a cycle tick is O(1) and "oldest"
    is the built-in ``max`` (node ids are unique within a view, so tuple
    comparison never reaches the descriptor).  Every public accessor returns
    :class:`ViewEntry` objects carrying their absolute age.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"view capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: dict[NodeId, _Stored] = {}
        self._age_offset = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._entries

    def _absolute(self, stored: Iterable[_Stored]) -> list[ViewEntry]:
        offset = self._age_offset
        return [ViewEntry(descriptor, age + offset) for age, _, descriptor in stored]

    def entries(self) -> list[ViewEntry]:
        return self._absolute(self._entries.values())

    def node_ids(self) -> list[NodeId]:
        return list(self._entries.keys())

    def get(self, node_id: NodeId) -> ViewEntry | None:
        stored = self._entries.get(node_id)
        if stored is None:
            return None
        return ViewEntry(stored[2], stored[0] + self._age_offset)

    def public_entries(self) -> list[ViewEntry]:
        return self._absolute(s for s in self._entries.values() if s[2].kind is _PUBLIC)

    def count_public(self) -> int:
        return sum([s[2].kind is _PUBLIC for s in self._entries.values()])

    # ------------------------------------------------------------------
    def oldest(self) -> ViewEntry | None:
        """Highest-age entry — the healer strategy's exchange partner."""
        if not self._entries:
            return None
        age, _, descriptor = max(self._entries.values())
        return ViewEntry(descriptor, age + self._age_offset)

    def random_entry(self, rng: random.Random) -> ViewEntry | None:
        if not self._entries:
            return None
        age, _, descriptor = rng.choice(list(self._entries.values()))
        return ViewEntry(descriptor, age + self._age_offset)

    def sample(self, rng: random.Random, k: int) -> list[ViewEntry]:
        stored = list(self._entries.values())
        if k < len(stored):
            stored = rng.sample(stored, k)
        return self._absolute(stored)

    # ------------------------------------------------------------------
    def increment_ages(self) -> None:
        """One cycle passed: every entry gets older (O(1) offset bump)."""
        self._age_offset += 1

    def put(self, entry: ViewEntry) -> None:
        """Insert or refresh one absolute-aged entry (position-preserving).

        An existing node keeps its slot; a new node appends.  Inserting a new
        node into a full view is an error — callers evict first.
        """
        entries = self._entries
        descriptor = entry.descriptor
        node_id = descriptor.node_id
        if node_id not in entries and len(entries) >= self.capacity:
            raise ValueError(
                f"{len(entries) + 1} entries exceed view capacity {self.capacity}"
            )
        entries[node_id] = (entry.age - self._age_offset, node_id, descriptor)

    def remove(self, node_id: NodeId) -> None:
        self._entries.pop(node_id, None)

    def replace_all(self, entries: list[ViewEntry]) -> None:
        """Install ``entries`` as the whole view, in order (must fit the
        capacity); the empty list empties the view."""
        if len(entries) > self.capacity:
            raise ValueError(
                f"{len(entries)} entries exceed view capacity {self.capacity}"
            )
        self._entries = {e.node_id: (e.age, e.node_id, e.descriptor) for e in entries}
        self._age_offset = 0

    # ------------------------------------------------------------------
    def merge(
        self,
        incoming: list[ViewEntry],
        sent: list[ViewEntry],
        self_id: NodeId,
        pi: int = 0,
        cap_public: bool = False,
    ) -> None:
        """One gossip exchange: Cyclon-style merge, freshest-wins duplicates.

        ``incoming`` (absolute ages, arrival order) is taken freshest first;
        node id, then arrival order, break age ties, so descriptors are never
        compared.  An entry for a node already in the view refreshes it in
        its slot when strictly fresher.  A new node fills an empty slot, else
        takes the place of (and appends after) the next entry of ``sent`` —
        what we shipped to the partner — still in the view, else — healing —
        of the oldest entry when that one is strictly older.  Entries for
        ``self_id`` or with over-long routes are dropped.  Then the WHISPER
        bias re-instates the ``pi`` P-node floor, and ``cap_public`` (the
        ``ablation-policy`` variant) swaps surplus P-nodes back out.
        """
        entries = self._entries
        offset = self._age_offset
        capacity = self.capacity
        # Shipped entries give way in shipping order (popped from the end).
        shipped = [e.descriptor.node_id for e in reversed(sent)]
        replaceable = [node_id for node_id in shipped if node_id in entries]
        evicted: list[_Arrival] = []
        order = [
            (e.age - offset, e.descriptor.node_id, arrival, e.descriptor)
            for arrival, e in enumerate(incoming)
        ]
        order.sort()
        for age, node_id, _, descriptor in order:
            if node_id == self_id or descriptor.route_too_long():
                continue
            current = entries.get(node_id)
            if current is not None:
                if age < current[0]:
                    entries[node_id] = (age, node_id, descriptor)
                continue
            if len(entries) >= capacity:
                if replaceable:
                    victim = entries.pop(replaceable.pop())
                else:
                    victim = max(entries.values())
                    if victim[0] <= age:
                        continue
                    del entries[victim[1]]
                # Arrival -1: an evicted entry wins age ties as a candidate.
                evicted.append((victim[0], victim[1], -1, victim[2]))
            entries[node_id] = (age, node_id, descriptor)
        if pi <= 0:
            return
        deficit = pi - self.count_public()
        if deficit > 0:
            spare = self._spare(evicted + order, self_id, public=True)
            self._enforce_public_floor(spare[:deficit])
        if cap_public:
            surplus = sorted([s for s in entries.values() if s[2].kind is _PUBLIC])
            spare = self._spare(evicted + order, self_id, public=False)
            # Aggressive load-limiting variant (ablation): P-nodes above the
            # Pi freshest are swapped back out, oldest first, for spare
            # N-nodes, capping P-node view presence near Pi.
            for victim, replacement in zip(reversed(surplus[pi:]), spare):
                del entries[victim[1]]
                entries[replacement[1]] = replacement

    def _spare(
        self, seen: list[_Arrival], self_id: NodeId, public: bool
    ) -> list[_Stored]:
        """P- or N-node candidates among what this exchange saw (evicted or
        received) and the view does not hold: one per node, freshest first."""
        spare: dict[NodeId, _Stored] = {}
        for age, node_id, _, descriptor in sorted(seen):
            if (
                (descriptor.kind is _PUBLIC) is public
                and node_id != self_id
                and node_id not in self._entries
                and (public or not descriptor.route_too_long())
            ):
                spare.setdefault(node_id, (age, node_id, descriptor))
        return list(spare.values())

    def _enforce_public_floor(self, candidates: list[_Stored]) -> None:
        """Section III-B-1: keep at least Pi P-nodes in the view, the oldest
        N-nodes giving way to the freshest spare P-nodes.

        Best-effort: the candidates are only what this exchange saw — the
        view, its evictions and the received buffer — so a full view can sit
        below Pi until a later exchange brings a P-node (about one full view
        in 30,000 at any instant; ``check_invariants`` reports each).
        """
        entries = self._entries
        for candidate in candidates:
            if len(entries) >= self.capacity:
                victims = [s for s in entries.values() if s[2].kind is not _PUBLIC]
                if not victims:
                    break
                del entries[max(victims)[1]]
            entries[candidate[1]] = candidate
