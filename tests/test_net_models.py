"""Unit tests for latency models, bandwidth accounting, and wire sizes."""

import random

import pytest

from repro.experiments.common import traffic_window
from repro.harness import World, WorldConfig
from repro.metrics.stats import percentile
from repro.net.bandwidth import BandwidthAccountant, TrafficTotals
from repro.net.latency import (
    ClusterLatencyModel,
    FixedLatencyModel,
    PlanetLabLatencyModel,
)
from repro.net.message import Message, WireSizes, sizes
from repro.net.address import Endpoint, Protocol


class TestFixedLatency:
    def test_constant(self):
        model = FixedLatencyModel(0.05)
        assert model.delay(1, 2, 100) == 0.05
        assert model.delay(3, 4, 10_000) == 0.05
        assert not model.is_lost(1, 2)


class TestClusterLatency:
    def test_sub_millisecond_regime(self):
        model = ClusterLatencyModel(random.Random(1))
        samples = [model.delay(1, 2, 100) for _ in range(500)]
        assert percentile(samples, 50) < 0.005  # LAN: well under 5 ms
        assert min(samples) > 0

    def test_size_adds_transmission_delay(self):
        model = ClusterLatencyModel(random.Random(1))
        small = sum(model.delay(1, 2, 100) for _ in range(200)) / 200
        large = sum(model.delay(1, 2, 1_000_000) for _ in range(200)) / 200
        assert large > small  # 1 MB at 1 Gbps adds ~8 ms

    def test_never_loses(self):
        model = ClusterLatencyModel(random.Random(1))
        assert not any(model.is_lost(1, 2) for _ in range(1000))


class TestPlanetLabLatency:
    def test_wide_area_regime(self):
        model = PlanetLabLatencyModel(random.Random(2))
        samples = [model.delay(i, i + 100, 1000) for i in range(300)]
        assert percentile(samples, 50) > 0.02  # tens of ms at least
        assert max(samples) > 5 * percentile(samples, 50)  # heavy tail

    def test_pairwise_base_is_stable(self):
        model = PlanetLabLatencyModel(random.Random(2))
        a = [model.delay(1, 2, 100) for _ in range(50)]
        b = [model.delay(7, 8, 100) for _ in range(50)]
        # Different pairs live around different bases.
        assert abs(min(a) - min(b)) > 1e-4

    def test_loses_some_messages(self):
        model = PlanetLabLatencyModel(random.Random(2), loss_rate=0.05)
        lost = sum(model.is_lost(i % 20, (i + 1) % 20) for i in range(2000))
        assert 20 < lost < 400

    def test_slow_nodes_exist(self):
        model = PlanetLabLatencyModel(
            random.Random(3), slow_node_fraction=0.5
        )
        for i in range(50):
            model.delay(i, 1000, 100)
        factors = list(model._load.values())
        assert any(f > 4.0 for f in factors)
        assert any(f < 2.5 for f in factors)


class TestBandwidthAccountant:
    def test_records_both_directions(self):
        acct = BandwidthAccountant()
        acct.record(src=1, dst=2, size=100, category="pss")
        assert acct.totals(1).up_bytes == 100
        assert acct.totals(2).down_bytes == 100
        assert acct.totals(2).up_bytes == 0

    def test_category_breakdown(self):
        acct = BandwidthAccountant()
        acct.record(1, 2, 100, "pss")
        acct.record(1, 2, 50, "wcl")
        assert acct.totals(1).up_by_category["pss"] == 100
        assert acct.totals(1).up_by_category["wcl"] == 50

    def test_window_is_the_difference_of_lifetime_readings(self):
        world = World(WorldConfig(seed=3))
        world.populate(12)
        world.start_all()
        world.run(30.0)
        acct = world.network.accountant
        before = acct.all_totals()
        window = traffic_window(world, 20.0)
        after = acct.all_totals()
        assert window  # gossip moved bytes in the window
        for node, totals in after.items():
            start = before.get(node, TrafficTotals())
            up = totals.up_bytes - start.up_bytes
            down = totals.down_bytes - start.down_bytes
            if (up, down) == (0, 0):
                assert node not in window
                continue
            assert (window[node].up_bytes, window[node].down_bytes) == (up, down)
            assert sum(window[node].up_by_category.values()) == up
            assert sum(window[node].down_by_category.values()) == down

    def test_unknown_node_is_zero(self):
        assert BandwidthAccountant().totals(99).up_bytes == 0


class TestWireSizes:
    def test_negative_message_size_rejected(self):
        with pytest.raises(ValueError):
            Message(
                src=Endpoint("pub-1", 1), dst=Endpoint("pub-2", 1),
                kind="x", payload=None, size_bytes=-1,
            )

    def test_message_ids_are_per_network(self):
        """A second World must not perturb msg ids in the first one's traces."""
        from repro.harness.world import World, WorldConfig

        def first_msg_id(world):
            seen = []
            original = world.network._deliver

            def spy(src_node, message, category):
                seen.append(message.msg_id)
                original(src_node, message, category)

            world.network._deliver = spy
            world.populate(4)
            world.start_all()
            world.sim.run(until=5.0)
            return seen[0]

        solo = first_msg_id(World(WorldConfig(seed=11)))
        # Interleave: a second network sends traffic before the first.
        noisy = World(WorldConfig(seed=99))
        noisy.populate(4)
        noisy.start_all()
        noisy.sim.run(until=5.0)
        assert first_msg_id(World(WorldConfig(seed=11))) == solo

    def test_message_id_defaults_to_unassigned(self):
        a = Message(Endpoint("pub-1", 1), Endpoint("pub-2", 1), "x", None, 0)
        assert a.msg_id == -1

    def test_private_view_entry_matches_paper_20kb(self):
        """5 entries with Pi=3 gateways at 1 KB keys ~ 20 KB (Section V-E)."""
        per_entry = sizes.private_view_entry(3)
        assert 4 * 1024 < per_entry < 4.5 * 1024
        assert 5 * per_entry < 22 * 1024

    def test_public_member_entry_is_smaller(self):
        assert sizes.private_view_entry(0) < sizes.private_view_entry(3)

    def test_custom_size_model(self):
        custom = WireSizes(public_key=2048)
        assert custom.private_view_entry(1) > sizes.private_view_entry(1)

    def test_protocols(self):
        assert Protocol.UDP is not Protocol.TCP
