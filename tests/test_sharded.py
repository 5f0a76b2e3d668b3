"""Sharded simulation core: determinism, equivalence and ordering.

The contract under test (see ``repro.harness.sharded``): the partition
count is part of a sharded world's identity, while the ``shards``
execution-lane count of ``run_windows`` is pure run-order grouping —
telemetry traces, fabric totals and event counts must be byte-identical
at any lane count.  The barrier's canonical ``(time, priority, seq, src)``
sort is what makes that true, so it gets its own tie-break test.
"""

from __future__ import annotations

import gc
import random
import time
from types import SimpleNamespace

import pytest

from repro.harness.sharded import ShardedWorld
from repro.harness.world import INTRODUCER_COUNT, WorldConfig
from repro.net.address import NodeKind
from repro.parallel.executor import derive_seed

SEED = 4242
PARTITIONS = 4
NODES = 150
WINDOW_S = 10.0
WINDOWS = 4


def _build(shards_unused: int = 0) -> ShardedWorld:
    world = ShardedWorld(
        WorldConfig(seed=SEED, telemetry_enabled=True), partitions=PARTITIONS
    )
    world.populate(NODES)
    world.start_all()
    return world


def _run(shards: int) -> ShardedWorld:
    world = _build()
    world.run_windows(WINDOW_S, WINDOWS, shards=shards)
    return world


class TestPartitioning:
    def test_partition_assignment_is_a_pure_function_of_seed(self):
        a, b = _build(), _build()
        for node_id in range(1, NODES + 1):
            assert a.partition_of(node_id) == b.partition_of(node_id)
            assert (
                a.partition_of(node_id)
                == derive_seed(SEED, "shard-of", node_id) % PARTITIONS
            )

    def test_population_spreads_over_every_partition(self):
        world = _build()
        sizes = [len(w.nodes) for w in world.worlds]
        assert sum(sizes) == NODES
        assert all(size > 0 for size in sizes)

    def test_global_ids_are_dense_like_a_single_world(self):
        world = _build()
        seen = sorted(
            node_id for w in world.worlds for node_id in w.nodes
        )
        assert seen == list(range(1, NODES + 1))

    def test_nat_plan_is_exact_and_layout_independent(self):
        world = _build()
        natted = sum(
            1
            for w in world.worlds
            for node in w.nodes.values()
            if node.cm.kind is NodeKind.NATTED
        )
        assert natted == round(NODES * world.config.natted_fraction)

    def test_introducers_are_the_first_public_nodes_globally(self):
        world = _build()
        descriptors = world.introducers()
        assert len(descriptors) == INTRODUCER_COUNT
        ids = [d.node_id for d in descriptors]
        assert ids == sorted(ids)  # id order, not partition order

    def test_partition_count_must_be_positive(self):
        with pytest.raises(ValueError):
            ShardedWorld(WorldConfig(seed=SEED), partitions=0)


class TestShardEquivalence:
    """Satellite: shards in {1, 2, 4} produce byte-identical output."""

    @pytest.fixture(scope="class")
    def runs(self):
        return {shards: _run(shards) for shards in (1, 2, 4)}

    def test_traces_are_byte_identical_across_lane_counts(self, runs):
        baseline = runs[1].export_jsonl()
        assert runs[2].export_jsonl() == baseline
        assert runs[4].export_jsonl() == baseline

    def test_trace_shas_match(self, runs):
        shas = {world.trace_sha() for world in runs.values()}
        assert len(shas) == 1

    def test_fabric_totals_match(self, runs):
        baseline = runs[1].net_totals()
        assert runs[2].net_totals() == baseline
        assert runs[4].net_totals() == baseline
        assert baseline["delivered"] > 0

    def test_event_counts_match(self, runs):
        counts = {world.events_processed for world in runs.values()}
        assert len(counts) == 1

    def test_cross_shard_traffic_actually_flows(self, runs):
        assert runs[1].cross_shard_msgs > 0
        assert (
            runs[1].cross_shard_msgs
            == runs[2].cross_shard_msgs
            == runs[4].cross_shard_msgs
        )

    def test_lane_count_beyond_partitions_is_clamped(self):
        world = _build()
        world.run_windows(WINDOW_S, WINDOWS, shards=64)
        assert world.trace_sha() == _run(1).trace_sha()

    def test_lane_count_must_be_positive(self):
        with pytest.raises(ValueError):
            _build().run_windows(WINDOW_S, 1, shards=0)


class TestBarrierOrdering:
    def test_exchange_sorts_by_canonical_key(self):
        """Outbox entries injected in (time, priority, seq, src) order.

        Entries are appended out of order across partitions; after the
        barrier the destination simulator must fire them sorted by the
        canonical key, with (seq, src) breaking exact time ties the same
        way at any lane grouping.
        """
        world = ShardedWorld(WorldConfig(seed=9), partitions=2)
        world.populate(8)
        target = next(
            node_id for node_id in range(1, 9) if world.partition_of(node_id) == 0
        )
        dest = world.worlds[0]
        fired: list[tuple] = []

        class _Probe:
            def __init__(self, tag):
                self.tag = tag

        # Bypass the fabric: drop pre-built entries straight into the
        # outboxes with deliberate ties and inverted append order.
        dest.network._deliver = lambda src, message, category: fired.append(
            (dest.sim.now, src, message.tag)
        )
        entries_p1 = [
            (5.0, 0, 0, 7, 0, _Probe("p1-seq0"), "other"),
            (3.0, 0, 1, 7, 0, _Probe("p1-early"), "other"),
        ]
        entries_p0 = [
            (5.0, 0, 0, 2, 0, _Probe("p0-seq0"), "other"),
            (5.0, 0, 1, 2, 0, _Probe("p0-seq1"), "other"),
        ]
        world._outboxes[1].extend(entries_p1)
        world._outboxes[0].extend(entries_p0)
        assert world._exchange(window_end=4.0) == 4
        dest.sim.run(until=10.0)
        # 3.0 clamps to the 4.0 boundary and still precedes the 5.0 tie
        # group, which resolves by (seq, src): seq 0 of both partitions
        # (src 2 before src 7), then seq 1 of both.
        assert [tag for (_, _, tag) in fired] == [
            "p1-early", "p0-seq0", "p1-seq0", "p0-seq1",
        ]
        assert fired[0][0] == 4.0  # quantized to the window boundary

    def test_keyless_sort_injects_in_four_field_key_order(self):
        """Entries equal on arrival and priority: ``(seq, src)`` decides.

        The barrier sorts whole entries; the leading four fields are
        unique, so the order is that of the 4-field key and comparison
        never reaches ``target`` or the (unorderable) message.
        """
        world = ShardedWorld(WorldConfig(seed=9), partitions=2)
        fired: list[tuple] = []
        for dest in world.worlds:
            dest.network._deliver = lambda src, message, category: fired.append(message)
        entries = [
            (5.0, 0, seq, src, (seq + src) % 2, object(), "other")
            for seq in range(6)
            for src in (2, 3, 7, 11)
        ]
        random.Random(1).shuffle(entries)
        for index, entry in enumerate(entries):
            world._outboxes[index % 2].append(entry)
        assert world._exchange(window_end=4.0) == len(entries)
        # One simulator at a time: compare per destination, where event
        # sequence numbers (injection order) break the exact time tie.
        for target, dest in enumerate(world.worlds):
            fired.clear()
            dest.sim.run(until=10.0)
            assert fired == [
                entry[5]
                for entry in sorted(entries, key=lambda entry: entry[:4])
                if entry[4] == target
            ]

    def test_route_resolves_every_kind_of_host_like_the_name_parse(self):
        """The host table sends each host where ``int(host.split("-")[1])`` did."""
        world = ShardedWorld(WorldConfig(seed=11), partitions=2)
        world.populate(24)
        world.start_all()

        def hosted(partition: int, kind: NodeKind) -> int:
            return next(
                node_id
                for node_id, node in world.worlds[partition].nodes.items()
                if node.cm.kind is kind
            )

        departed = hosted(1, NodeKind.PUBLIC)
        world.worlds[1].kill_node(departed)
        hosts = [
            f"pub-{hosted(0, NodeKind.PUBLIC)}",
            f"pub-{hosted(1, NodeKind.PUBLIC)}",
            f"nat-{hosted(0, NodeKind.NATTED)}",
            f"nat-{hosted(1, NodeKind.NATTED)}",
            f"priv-{hosted(1, NodeKind.NATTED)}",  # registered by no partition
            f"pub-{departed}",
            "pub-999",  # never populated: homed by hash
            "nat--5",
            "nat-x",
            "localhost",
        ]
        for home in (0, 1):
            sim = world.worlds[home].sim
            outbox = world._outboxes[home]
            route = world.worlds[home].network._foreign_router
            for host in hosts:
                try:
                    node_id = int(host.split("-", 1)[1])
                except (IndexError, ValueError):
                    node_id = -1
                expected = world.partition_of(node_id) if node_id >= 0 else home
                message = SimpleNamespace(dst=SimpleNamespace(host=host))
                queued, scheduled = len(outbox), sim.pending()
                route(1, message, "other", 0.25)
                if expected == home:
                    assert (len(outbox), sim.pending()) == (queued, scheduled + 1), host
                else:
                    assert (len(outbox), sim.pending()) == (queued + 1, scheduled), host
                    assert outbox[-1][4:6] == (expected, message), host

    def test_same_partition_route_falls_back_to_local_delivery(self):
        """A host parsed to the router's own partition schedules locally.

        Covers departed-node endpoints: the single-world behaviour is a
        scheduled delivery that the ingress filter then drops, and the
        sharded router must preserve that (drop accounting included).
        """
        world = ShardedWorld(WorldConfig(seed=11), partitions=2)
        world.populate(12)
        world.start_all()
        victim = next(
            node_id
            for node_id in range(1, 13)
            if world.partition_of(node_id) == 0
            and world.worlds[0].nodes[node_id].cm.kind is NodeKind.PUBLIC
        )
        home = world.worlds[0]
        descriptor = home.nodes[victim].descriptor()
        sender = next(
            node_id
            for node_id in range(1, 13)
            if world.partition_of(node_id) == 0 and node_id != victim
        )
        home.kill_node(victim)
        before = home.network.stats.no_handler + home.network.stats.filtered
        home.network.send(
            sender, descriptor.public_endpoint, "probe", {"x": 1}, 64
        )
        home.sim.run(until=home.sim.now + 5.0)
        after = home.network.stats.no_handler + home.network.stats.filtered
        assert after == before + 1  # delivered-and-dropped, not lost in a void


class TestMergedTrace:
    def test_export_frames_each_partition_with_a_header(self):
        world = _run(1)
        lines = world.export_jsonl().splitlines()
        headers = [line for line in lines if '"kind":"shard"' in line]
        assert len(headers) == PARTITIONS
        import json

        parsed = [json.loads(h) for h in headers]
        assert [p["partition"] for p in parsed] == list(range(PARTITIONS))
        assert all(p["partitions"] == PARTITIONS for p in parsed)
        seeds = {p["seed"] for p in parsed}
        assert len(seeds) == PARTITIONS  # independent per-partition streams

    def test_owner_hint_bound_covers_the_global_host_space(self):
        """Partition fabrics send deployment-wide: no hint-cache thrash."""
        world = _run(1)
        for w in world.worlds:
            stats = w.network.cache_stats()["net.owner_hint"]
            assert stats["capacity"] >= 4 * NODES
            assert stats["evictions"] == 0
            assert stats["hits"] > stats["misses"]

    def test_compute_and_barrier_instrumentation_populated(self):
        world = _run(2)
        assert world.barrier_windows == WINDOWS
        assert world.barrier_s > 0.0
        assert len(world.compute_s) == PARTITIONS
        assert all(s > 0.0 for s in world.compute_s)


class TestCollectorPolicy:
    """``run_windows`` owns the cyclic collector for the whole call."""

    @pytest.fixture(autouse=True)
    def _restore_collector(self):
        was_enabled = gc.isenabled()
        yield
        (gc.enable if was_enabled else gc.disable)()

    def test_one_young_collection_per_barrier_and_nothing_else(self):
        world = _build()
        world.run_windows(1.0, 3)
        collections: list[list] = []  # [generation, started, stopped]

        def record(phase: str, info: dict) -> None:
            if phase == "start":
                collections.append([info["generation"], time.perf_counter(), None])
            else:
                collections[-1][2] = time.perf_counter()

        barrier_before = world.barrier_s
        gc.callbacks.append(record)
        try:
            world.run_windows(1.0, 5)
        finally:
            gc.callbacks.remove(record)
        # No full collection over the populated world, no automatic young
        # ones released by Simulator.run re-enabling the collector.
        assert [generation for generation, _, _ in collections] == [1] * 5
        collecting = sum(stopped - started for _, started, stopped in collections)
        assert 0.0 < collecting <= world.barrier_s - barrier_before

    def test_back_to_back_calls_hand_the_caller_an_empty_young_generation(self):
        # The barrier's collection is the last allocating step of a window:
        # one that ran before the exchange would leave the exchange's
        # allocations over the threshold, and the interpreter's own
        # collections (full ones included) would run at the caller's next
        # allocation, or at the next call's entry, outside the barrier.
        world = _build()
        threshold = gc.get_threshold()[0]
        generations: list[int] = []

        def record(phase: str, info: dict) -> None:
            if phase == "start":
                generations.append(info["generation"])

        kept: list[list] = []
        gc.enable()
        gc.callbacks.append(record)
        try:
            for _ in range(8):
                world.run_windows(1.0, 1)
                assert gc.get_count()[0] < threshold
                kept.append([[] for _ in range(threshold // 4)])
        finally:
            gc.callbacks.remove(record)
        assert generations == [1] * 8

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_on_return_is_the_state_on_entry(self, enabled):
        world = _build()
        (gc.enable if enabled else gc.disable)()
        world.run_windows(1.0, 2)
        assert gc.isenabled() is enabled

    def test_collector_state_restored_when_a_callback_raises(self):
        world = _build()

        def boom() -> None:
            raise RuntimeError("scheduled callback failed")

        world.worlds[PARTITIONS - 1].sim.schedule(0.5, boom)
        gc.enable()
        with pytest.raises(RuntimeError, match="scheduled callback failed"):
            world.run_windows(1.0, 2)
        assert gc.isenabled()
