"""Per-node bandwidth accounting.

The paper reports bandwidth in KB per PSS cycle (Fig. 6) and KB/s stacked
percentiles (Fig. 8), split by direction and by traffic category (gossip
entries vs public keys vs WCL payloads).  The accountant records every
delivered message against its sender (upload) and receiver (download),
tagged with a category so experiments can slice the totals.  A
measurement window is the difference of two lifetime readings
(``all_totals()`` before and after).  Categories are a *closed* set
(:data:`KNOWN_CATEGORIES`, extensible per accountant via
:meth:`BandwidthAccountant.register_category`): recording against an
unknown category raises immediately, so a new wire message kind cannot
silently land in an untracked bucket and vanish from the figures.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from .address import NodeId

__all__ = ["BandwidthAccountant", "TrafficTotals", "KNOWN_CATEGORIES"]

KNOWN_CATEGORIES: frozenset[str] = frozenset(
    {"pss", "nat", "nat.relay", "wcl", "wcl.cb", "app", "other"}
)
"""Every traffic category the stack emits.

This must stay in sync with the categories declared per message kind in
:mod:`repro.wire.registry`; ``tests/test_wire_codec.py`` asserts the
registry only uses categories listed here.
"""


@dataclass
class TrafficTotals:
    """Byte counters for one node, by direction and category."""

    up_bytes: int = 0
    down_bytes: int = 0
    up_by_category: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    down_by_category: dict[str, int] = field(default_factory=lambda: defaultdict(int))


class BandwidthAccountant:
    """Accumulates lifetime traffic per node.

    Storage is struct-of-arrays: per category, two integer columns (up,
    down) indexed directly by node id, which replaces two levels of dict
    probing per charge with one list index.  At 100k nodes this also drops
    the per-node ``TrafficTotals`` object zoo — :class:`TrafficTotals`
    views are materialized on demand by the query methods, so mutating a
    returned view does not write back.  The column lists and the touched
    dict are bound by the fabric's send closure and must keep their
    identity (grown in place only).
    """

    def __init__(self) -> None:
        self._known_categories = set(KNOWN_CATEGORIES)
        # category -> (up, down) columns.
        self._cols: dict[str, tuple[list[int], list[int]]] = {}
        self._size = 0  # every column has exactly this length
        # Insertion-ordered set of node ids that ever recorded traffic
        # (dict keys preserve first-touch order).
        self._touched: dict[NodeId, None] = {}

    def register_category(self, category: str) -> None:
        """Allow an extra category (experiment-local traffic classes)."""
        self._known_categories.add(category)

    def category_columns(self, category: str) -> tuple[list[int], list[int]]:
        """Columns for ``category``, creating them on first use.

        Raises ``ValueError`` for categories no experiment slices on — an
        unknown category means a message kind was wired up without deciding
        where its bytes belong in the figures.
        """
        cols = self._cols.get(category)
        if cols is None:
            if category not in self._known_categories:
                raise ValueError(
                    f"unknown traffic category {category!r}; add it to "
                    "KNOWN_CATEGORIES or register_category() before recording"
                )
            n = self._size
            cols = ([0] * n, [0] * n)
            self._cols[category] = cols
        return cols

    def grow(self, node: NodeId) -> None:
        """Extend every column so ``node`` is a valid index."""
        if node < self._size:
            return
        # Geometric growth: the World hands out dense ids, so this runs
        # O(log n) times over a run regardless of population size.
        new_size = max(node + 1, self._size * 2, 256)
        for cols in self._cols.values():
            for col in cols:
                col.extend([0] * (new_size - len(col)))
        self._size = new_size

    def record(self, src: NodeId, dst: NodeId, size: int, category: str) -> None:
        """Charge ``size`` bytes: upload at ``src``, download at ``dst``.

        Node id -1 is the infrastructure pseudo-node (relay hops, NAT
        boxes); no figure or experiment reads its totals, so skip the
        bookkeeping for it (negative ids generally, since they cannot index
        the columns).
        """
        cols = self._cols.get(category)
        if cols is None:
            cols = self.category_columns(category)
        if src >= 0:
            try:
                cols[0][src] += size
            except IndexError:
                self.grow(src)
                cols[0][src] += size
            self._touched[src] = None
        if dst >= 0:
            try:
                cols[1][dst] += size
            except IndexError:
                self.grow(dst)
                cols[1][dst] += size
            self._touched[dst] = None

    def _view(self, node: NodeId) -> TrafficTotals:
        totals = TrafficTotals()
        for category, (up_col, down_col) in self._cols.items():
            if node >= len(up_col):
                continue
            up = up_col[node]
            if up:
                totals.up_bytes += up
                totals.up_by_category[category] += up
            down = down_col[node]
            if down:
                totals.down_bytes += down
                totals.down_by_category[category] += down
        return totals

    def totals(self, node: NodeId) -> TrafficTotals:
        """Lifetime totals for ``node`` (zeros if it never sent/received)."""
        if node < 0:
            return TrafficTotals()
        return self._view(node)

    def all_totals(self) -> dict[NodeId, TrafficTotals]:
        return {node: self._view(node) for node in self._touched}
