"""Deterministic multi-shard worlds: the simulation core behind 100k nodes.

A :class:`ShardedWorld` splits one logical deployment into ``partitions``
independent :class:`~repro.harness.world.World` instances and advances them
in lock-stepped cycle windows.  The design goal is the same contract
``repro.parallel.run_sweep`` pins for ``--workers``: the *partition count*
is part of the world's identity (like the seed), while the ``shards``
execution-lane parameter of :meth:`run_windows` only regroups which
partitions run back-to-back — telemetry and traces are byte-identical at
any ``shards`` value because partitions share nothing inside a window.

How the pieces fit:

- **Partitioning** — global node ids are assigned densely (1..N) exactly
  as a single world would; each id is mapped to its home partition by a
  blake2b hash (:func:`~repro.parallel.executor.derive_seed`) of the
  master seed and the id.  The NAT plan is drawn globally from a derived
  stream, so a node's NAT type, endpoints and RNG fork names never depend
  on the partition layout being executed.
- **Per-partition state** — each partition owns a full ``World`` (its own
  ``Simulator``, NAT topology, fabric, latency model, crypto provider and
  telemetry), seeded ``derive_seed(master, "shard", p)``.  Crypto
  envelopes are self-contained (fingerprint + MAC), so payloads sealed in
  one partition open in another.
- **Cross-shard traffic** — each partition's ``Network`` gets a foreign
  router (:meth:`Network.set_foreign_router`): a send whose destination
  host is not locally owned is handed over *after* upload accounting and
  the latency draw, preserving the sender-side pipeline byte-for-byte.
  The router queues ``(arrival_time, priority, seq, src)``-keyed entries
  in the partition's outbox; ``seq`` is a per-partition counter and
  ``src`` the (globally unique) sender id, so the key totally orders the
  merged traffic of a window.
- **Barrier exchange** — at each window boundary the outboxes are
  collected in partition order, merged, sorted by the canonical key and
  injected into their destination simulators at
  ``max(arrival_time, window_end)``.  Quantizing cross-shard arrivals to
  window boundaries is the deliberate fidelity trade: intra-window
  cross-shard latency is rounded up to the boundary, so results depend on
  the window length — 10 sim-s windows (one PSS cycle) make 72% of
  cross-shard exchanges miss the 5 s response timeout, which is why
  ``bench/`` runs 1 sim-s windows while ``scale100k`` still records the
  degraded overlay (ROADMAP ``sharded-exact``).  Injection order is the
  sorted key order, so destination event sequence numbers — and therefore
  every downstream tie-break — are identical regardless of lane grouping.
- **Collector policy** — :meth:`ShardedWorld.run_windows` pauses the
  cyclic collector for the whole call and runs one young collection
  (``gc.collect(1)``: the window's survivors, never the populated world)
  per barrier, timed inside ``barrier_s``; ``populate`` and ``start_all``
  pause it and close with one.  Neither steady state nor a build makes
  reference cycles (``tests/test_gc_contract.py``); the per-barrier
  collection bounds what rare paths (churn, faults, joins) make.  The
  world is not frozen (``gc.freeze``): a frozen one is never reclaimed.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import random
import time as _time
from dataclasses import replace
from functools import partial

from ..nat.types import EMULATED_TYPES
from ..net.address import NodeId
from ..net.message import Message
from ..parallel.executor import derive_seed
from ..sim.engine import bulk_build, collector_paused
from .world import World, WorldConfig, fill_introducers, nat_plan

__all__ = ["ShardedWorld"]


class ShardedWorld:
    """``partitions`` lock-stepped Worlds presenting one logical deployment."""

    def __init__(self, config: WorldConfig | None = None, partitions: int = 8) -> None:
        if partitions < 1:
            raise ValueError(f"need at least one partition, got {partitions}")
        self.config = config if config is not None else WorldConfig()
        self.partitions = partitions
        self._master_seed = self.config.seed
        self.worlds: list[World] = [
            World(replace(self.config, seed=derive_seed(self.config.seed, "shard", p)))
            for p in range(partitions)
        ]
        self._outboxes: list[list[tuple]] = [[] for _ in range(partitions)]
        self._outbox_seq = [itertools.count() for _ in range(partitions)]
        self._node_partition: dict[NodeId, int] = {}
        # Reachable host -> home partition, for the hosts NatTopology._owner
        # registers (route() probes it once per cross-shard send).
        self._host_partition: dict[str, int] = {}
        self._ids = itertools.count(1)  # global node ids, dense like World's
        self._nat_cycle = itertools.cycle(EMULATED_TYPES)
        self._introducers: list | None = None
        self.now = 0.0
        # Where shard wall-time goes: per-partition compute vs barrier
        # exchange (the repository benchmark's harness.* metrics).
        self.compute_s: list[float] = [0.0] * partitions
        self.barrier_s = 0.0
        self.barrier_windows = 0
        self.cross_shard_msgs = 0
        for p, world in enumerate(self.worlds):
            world.network.set_foreign_router(self._make_router(p))

    # ------------------------------------------------------------------
    # partitioning
    # ------------------------------------------------------------------
    def partition_of(self, node_id: NodeId) -> int:
        """Home partition of a global node id (stable under any lane count)."""
        home = self._node_partition.get(node_id)
        if home is None:
            home = derive_seed(self._master_seed, "shard-of", node_id) % self.partitions
        return home

    @bulk_build()
    def populate(self, count: int) -> None:
        """Create ``count`` nodes with global ids, homed by hash."""
        # A single world's plan, shuffled on a ``derive_seed`` stream of its
        # own: a function of the master seed alone, never drawn from a
        # partition world's RNGs.
        plan = nat_plan(
            count, self.config.natted_fraction, self._nat_cycle,
            random.Random(derive_seed(self._master_seed, "natplan")),
        )
        for nat_type in plan:
            node_id = next(self._ids)
            home = derive_seed(self._master_seed, "shard-of", node_id) % self.partitions
            self._node_partition[node_id] = home
            world = self.worlds[home]
            world.add_node(nat_type, node_id=node_id)
            host = world.topology.assignment(node_id).reachable_host
            self._host_partition[host] = home
        # Every partition's fabric addresses the whole deployment's hosts,
        # so its owner-hint working set is the global population, not the
        # local one attach() derives from.
        total = len(self._node_partition)
        for world in self.worlds:
            world.network.reserve_owner_hints(total)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def introducers(self) -> list:
        """Global bootstrap set: the first public nodes in id order."""
        if not self._introducers:
            self._introducers = fill_introducers([], (
                self.worlds[home].nodes[node_id]
                for node_id, home in self._node_partition.items()  # id order
                if node_id in self.worlds[home].nodes
            ))
        return list(self._introducers)

    @bulk_build()
    def start_all(self) -> None:
        introducers = self.introducers()
        for world in self.worlds:
            for node in world.nodes.values():
                if not node.alive:
                    node.start(list(introducers))

    # ------------------------------------------------------------------
    # cross-shard routing
    # ------------------------------------------------------------------
    def _make_router(self, home: int):
        world = self.worlds[home]
        sim = world.sim
        network = world.network
        outbox = self._outboxes[home]
        next_seq = self._outbox_seq[home].__next__
        host_partition = self._host_partition
        partition_of = self.partition_of

        def unregistered(host: str) -> int:
            """Partition of a host no partition registered (``priv-N``, a
            never-populated id, a malformed name): by the id in its name,
            else this partition, where local delivery drops it."""
            try:
                node_id = int(host.split("-", 1)[1])
            except (IndexError, ValueError):
                return home
            return partition_of(node_id) if node_id >= 0 else home

        def route(src_node: NodeId, message: Message, category: str, transit: float) -> None:
            host = message.dst.host
            target = host_partition.get(host)
            if target is None:
                target = unregistered(host)
            if target == home:
                # A host this partition owns (or owned): schedule the normal
                # local delivery so ingress filtering and drop accounting
                # treat it exactly like a single world treats a departed
                # endpoint.
                sim.schedule(
                    transit, partial(network._deliver, src_node, message, category)
                )
                return
            outbox.append(
                (sim.now + transit, 0, next_seq(), src_node, target, message, category)
            )

        return route

    def _exchange(self, window_end: float) -> int:
        """Barrier: merge outboxes, sort canonically, inject at the boundary."""
        pending: list[tuple] = []
        for box in self._outboxes:  # partition order, then a total-order sort
            if box:
                pending.extend(box)
                box.clear()  # in place: the routers hold the list objects
        if not pending:
            return 0
        # (arrival_time, priority, seq, src): seq is per-partition but src
        # is globally unique and one sender lives in exactly one partition,
        # so the leading 4 fields totally order the merged window and tuple
        # comparison never reaches ``message``.
        pending.sort()
        for arrival, priority, _seq, src, target, message, category in pending:
            world = self.worlds[target]
            at = arrival if arrival > window_end else window_end
            world.sim.schedule_at(
                at,
                partial(world.network._deliver, src, message, category),
                priority=priority,
            )
        self.cross_shard_msgs += len(pending)
        return len(pending)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run_windows(self, window_s: float, windows: int, shards: int = 1) -> None:
        """Advance every partition through ``windows`` barrier windows.

        ``shards`` groups partitions into execution lanes (lane ``l`` runs
        partitions ``l, l+shards, ...``).  It reorders *which partition
        computes first* and nothing else — results are byte-identical for
        every value, which the shard-equivalence tests assert.
        """
        if shards < 1:
            raise ValueError(f"need at least one lane, got {shards}")
        lanes = min(shards, self.partitions)
        order = [
            p for lane in range(lanes) for p in range(lane, self.partitions, lanes)
        ]
        # Collector policy (module docstring): off for the whole call, so
        # Simulator.run's own pause nests as a no-op instead of releasing a
        # window's deferred collections over the populated world; one young
        # collection per barrier, booked to the barrier.
        with collector_paused():
            for _ in range(windows):
                window_end = self.now + window_s
                for p in order:
                    started = _time.perf_counter()
                    self.worlds[p].sim.run(until=window_end)
                    self.compute_s[p] += _time.perf_counter() - started
                started = _time.perf_counter()
                self._exchange(window_end)
                gc.collect(1)
                self.barrier_s += _time.perf_counter() - started
                self.barrier_windows += 1
                self.now = window_end

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        return sum(len(world.nodes) for world in self.worlds)

    @property
    def events_processed(self) -> int:
        return sum(world.sim.events_processed for world in self.worlds)

    def net_totals(self) -> dict[str, int]:
        totals = {"sent": 0, "delivered": 0, "lost": 0, "filtered": 0, "no_handler": 0}
        for world in self.worlds:
            stats = world.network.stats
            for key in totals:
                totals[key] += getattr(stats, key)
        return totals

    def export_jsonl(self) -> str:
        """Concatenated per-partition trace, framed by shard headers.

        Deterministic for a given (seed, partitions, window schedule) and
        invariant under the ``shards`` lane count — the CI equivalence
        check diffs this byte-for-byte across lane counts.  Each header
        embeds the partition's event count, clock and fabric totals, so
        the SHA pins per-partition behaviour even when telemetry is
        disabled (``scale100k`` runs telemetry-off); with telemetry on,
        the full per-partition counter stream follows its header.
        """
        chunks: list[str] = []
        for p, world in enumerate(self.worlds):
            stats = world.network.stats
            chunks.append(
                json.dumps(
                    {
                        "kind": "shard",
                        "partition": p,
                        "partitions": self.partitions,
                        "seed": world.config.seed,
                        "nodes": len(world.nodes),
                        "events": world.sim.events_processed,
                        "now": world.sim.now,
                        "net": {
                            "sent": stats.sent,
                            "delivered": stats.delivered,
                            "lost": stats.lost,
                            "filtered": stats.filtered,
                            "no_handler": stats.no_handler,
                        },
                    },
                    sort_keys=True,
                    separators=(",", ":"),
                )
            )
            telemetry = world.telemetry.export_jsonl().rstrip("\n")
            if telemetry:
                chunks.append(telemetry)
        return "\n".join(chunks) + "\n"

    def trace_sha(self) -> str:
        return hashlib.sha256(self.export_jsonl().encode("utf-8")).hexdigest()
