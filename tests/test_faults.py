"""Tests for the fault-injection subsystem: plan, injector, script glue."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.churn import ChurnDriver, ChurnScriptError, parse_script
from repro.faults import (
    Blackhole,
    Delay,
    Duplicate,
    FaultExecutor,
    FaultInjector,
    FaultPlan,
    LossBurst,
    NatReset,
    Partition,
    Reorder,
    Stall,
    is_fault_directive,
)
from repro.harness import World, WorldConfig
from repro.sim.engine import Simulator
from repro.telemetry import NULL_TELEMETRY


class TestPlan:
    def test_of_and_iteration(self):
        plan = FaultPlan.of(
            Blackhole(10.0, 1, 2), Partition(20.0, 40.0)
        )
        assert len(plan) == 2
        assert all(is_fault_directive(d) for d in plan)

    def test_non_fault_directive_rejected_by_predicate(self):
        assert not is_fault_directive(object())

    def test_validation(self):
        with pytest.raises(ValueError):
            Partition(30.0, 10.0)  # heals before it starts
        with pytest.raises(ValueError):
            LossBurst(0.0, 10.0, rate=1.5)  # rate over 100%
        with pytest.raises(ValueError):
            Stall(5.0, fraction=-0.1, duration=10.0)
        with pytest.raises(ValueError):
            NatReset(5.0, fraction=2.0)
        with pytest.raises(ValueError):
            Blackhole(5.0, 1, 2, duration=-1.0)


class TestScriptParsing:
    def test_fault_directives_parse(self):
        directives = parse_script(
            """
            from 300s to 600s partition groups a|b
            at 400s blackhole 5 -> 9
            at 420s blackhole 9 -> 5 for 60s
            at 500s stall 3% for 120s
            at 600s reset nat 10%
            from 700s to 760s loss 20%
            """
        )
        assert directives == [
            Partition(300.0, 600.0, group_count=2),
            Blackhole(400.0, 5, 9),
            Blackhole(420.0, 9, 5, duration=60.0),
            Stall(500.0, 0.03, 120.0),
            NatReset(600.0, 0.10),
            LossBurst(700.0, 760.0, 0.20),
        ]

    def test_three_way_partition(self):
        [p] = parse_script("from 0s to 10s partition groups a|b|c")
        assert p.group_count == 3

    @pytest.mark.parametrize(
        "line",
        [
            "from 300s to 600s partition groups a",  # single group: no split
            "at 400s blackhole 5 -> x",
            "at 500s stall 120% for 10s",  # >100%
            "at 600s reset nat 101%",
            "from 700s to 760s loss 200%",
            "from 600s to 300s partition groups a|b",  # heals before start
            "at 500s stall 3%",  # missing duration
            "blackhole 5 -> 9",  # missing schedule
        ],
    )
    def test_malformed_fault_directive_raises(self, line):
        with pytest.raises(ChurnScriptError):
            parse_script(line)


def _small_world(seed=81, nodes=20):
    world = World(WorldConfig(seed=seed))
    world.populate(nodes)
    world.start_all()
    world.run(30.0)
    return world


class TestInjector:
    def test_blackhole_drops_directed_traffic(self):
        world = _small_world()
        ids = sorted(n.node_id for n in world.alive_nodes())
        src, dst = ids[0], ids[1]
        injector = FaultInjector(world)
        injector.schedule(Blackhole(0.0, src, dst))
        world.run(60.0)
        assert injector.on_send(src, dst) == "blackhole"
        # The reverse direction is unaffected by a directed blackhole.
        assert injector.on_send(dst, src) is None
        assert injector.stats.blackhole_drops >= 1

    def test_blackhole_heals_after_duration(self):
        world = _small_world()
        ids = sorted(n.node_id for n in world.alive_nodes())
        src, dst = ids[0], ids[1]
        injector = FaultInjector(world)
        injector.schedule(Blackhole(0.0, src, dst, duration=30.0))
        world.run(10.0)
        assert injector.on_send(src, dst) == "blackhole"
        world.run(50.0)
        assert injector.on_send(src, dst) is None
        assert injector.stats.faults_healed == 1

    def test_partition_splits_and_heals(self):
        world = _small_world()
        injector = FaultInjector(world)
        injector.schedule(Partition(0.0, 60.0))
        world.run(10.0)
        assert injector._partition is not None
        groups = dict(injector._partition)
        assert set(groups.values()) == {0, 1}
        # Cross-group traffic is dropped; same-group traffic passes.
        by_group = {}
        for nid, g in groups.items():
            by_group.setdefault(g, []).append(nid)
        a0, a1 = by_group[0][0], by_group[0][1]
        b0 = by_group[1][0]
        assert injector.on_send(a0, b0) == "partition"
        assert injector.on_send(a0, a1) is None
        world.run(60.0)
        assert injector.on_send(a0, b0) is None
        assert injector.stats.partition_drops > 0

    def test_partition_assigns_late_joiners(self):
        world = _small_world()
        injector = FaultInjector(world)
        injector.schedule(Partition(0.0, 120.0, group_count=2))
        world.run(10.0)
        newcomer = world.spawn_started()
        # The joiner gets a deterministic group; traffic to the other
        # group's members is dropped.
        world.run(10.0)
        group = injector._group_of(newcomer.node_id)
        assert group == newcomer.node_id % 2
        other = next(
            nid for nid, g in injector._partition.items() if g != group
        )
        assert injector.on_send(newcomer.node_id, other) == "partition"

    def test_stall_silences_sampled_nodes(self):
        world = _small_world()
        injector = FaultInjector(world)
        injector.schedule(Stall(0.0, 0.2, duration=60.0))
        world.run(10.0)
        assert injector.stats.nodes_stalled == 4  # 20% of 20
        stalled = next(iter(sorted(injector._stalled)))
        healthy = next(
            n.node_id for n in world.alive_nodes()
            if n.node_id not in injector._stalled
        )
        assert injector.on_send(stalled, healthy) == "stall"
        assert injector.on_send(healthy, stalled) == "stall"
        world.run(60.0)
        assert injector.on_send(stalled, healthy) is None

    def test_nat_reset_wipes_mappings(self):
        world = _small_world()
        natted = world.natted_nodes()
        assert natted
        world.run(30.0)  # let mappings form
        injector = FaultInjector(world)
        injector.schedule(NatReset(0.0, 1.0))  # reboot every NAT
        world.run(1.0)
        assert injector.stats.nat_resets == len(natted)
        # Established inbound mappings were forgotten; ongoing traffic will
        # re-open fresh ones, so we assert the wipe count, not emptiness.
        assert injector.stats.sessions_invalidated > 0

    def test_loss_burst_drops_probabilistically(self):
        world = _small_world()
        injector = FaultInjector(world)
        injector.schedule(LossBurst(0.0, 60.0, rate=0.5))
        world.run(30.0)
        assert injector.stats.loss_drops > 0
        world.run(60.0)
        after_heal = injector.stats.loss_drops
        world.run(30.0)
        assert injector.stats.loss_drops == after_heal

    def test_cancel_pending_heals_everything(self):
        world = _small_world()
        injector = FaultInjector(world)
        injector.schedule(Partition(0.0, 600.0))
        injector.schedule(Blackhole(5.0, 1, 2))
        injector.schedule(Stall(300.0, 0.1, 60.0))  # still pending
        world.run(10.0)
        injector.cancel_pending()
        assert injector.on_send(1, 2) is None
        assert injector._partition is None
        world.run(400.0)  # the pending stall must never fire
        assert injector.stats.nodes_stalled == 0

    def test_same_seed_same_fault_decisions(self):
        stats = []
        for _ in range(2):
            world = _small_world(seed=83)
            injector = FaultInjector(world)
            injector.arm(
                FaultPlan.of(
                    Stall(0.0, 0.2, 30.0), LossBurst(10.0, 50.0, 0.3)
                )
            )
            world.run(90.0)
            stats.append(
                (
                    injector.stats.stall_drops,
                    injector.stats.loss_drops,
                    tuple(sorted(injector.stats.__dict__.items())),
                )
            )
        assert stats[0] == stats[1]


class BareExecutor(FaultExecutor):
    """The executor with no fabric: a bare clock and ten node ids."""

    def __init__(self):
        self.clock = Simulator()
        super().__init__(
            self.clock, NULL_TELEMETRY, random.Random(1), random.Random(2)
        )

    def _population(self):
        return range(10)

    def idle(self):
        return not (
            self._blackholes or self._losses or self.shaping_active
            or self._stalled or self._partition is not None
        )


_times = st.floats(0.0, 100.0)
_spans = st.floats(0.5, 100.0)
_rates = st.floats(0.01, 1.0)
_windows = st.one_of(
    st.builds(lambda t, d, r: LossBurst(t, t + d, r), _times, _spans, _rates),
    st.builds(lambda t, d, r: Delay(t, t + d, 0.05, rate=r), _times, _spans, _rates),
    st.builds(lambda t, d, r: Duplicate(t, t + d, r), _times, _spans, _rates),
    st.builds(lambda t, d, r: Reorder(t, t + d, r), _times, _spans, _rates),
)
_blackholes = st.builds(
    Blackhole, _times, st.integers(0, 9), st.integers(0, 9),
    st.one_of(st.none(), _spans),
)
_population_wide = st.one_of(
    st.builds(lambda t, d: Partition(t, t + d), _times, _spans),
    st.builds(Stall, _times, st.floats(0.1, 1.0), _spans),
)


class TestExecutor:
    """Properties of the plan state machine itself, on a bare clock."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(_windows, _blackholes), max_size=12))
    def test_every_window_that_opens_closes(self, directives):
        executor = BareExecutor()
        executor.arm(directives)
        executor.clock.run()  # until every scheduled edge has fired
        permanent = {
            (d.src, d.dst) for d in directives
            if isinstance(d, Blackhole) and d.duration is None
        }
        assert not executor._losses and not executor.shaping_active
        assert executor._blackholes <= permanent
        stats = executor.stats
        assert stats.faults_activated == len(directives)
        assert stats.faults_activated - stats.faults_healed == sum(
            isinstance(d, Blackhole) and d.duration is None for d in directives
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.one_of(_windows, _blackholes, _population_wide), max_size=12),
        _times,
    )
    def test_cancel_pending_from_any_state_leaves_nothing_active(
        self, directives, stop_at
    ):
        executor = BareExecutor()
        executor.arm(directives)
        executor.clock.run(until=stop_at)
        executor.cancel_pending()
        assert executor.idle()
        fired = executor.stats.faults_activated
        executor.clock.run()  # nothing is left on the clock to fire
        assert executor.idle()
        assert executor.stats.faults_activated == fired


class TestDriverIntegration:
    def test_driver_creates_injector_for_fault_scripts(self):
        world = _small_world()
        driver = ChurnDriver(
            world, parse_script("at 10s stall 10% for 30s")
        )
        assert driver.injector is not None
        world.run(20.0)
        assert driver.injector.stats.nodes_stalled == 2

    def test_driver_without_faults_has_no_injector(self):
        world = _small_world()
        driver = ChurnDriver(world, parse_script("at 10s stop"))
        assert driver.injector is None

    def test_stop_heals_active_faults(self):
        world = _small_world()
        driver = ChurnDriver(
            world,
            parse_script(
                "from 0s to 600s partition groups a|b\nat 30s stop"
            ),
        )
        world.run(20.0)
        assert driver.injector is not None
        assert driver.injector._partition is not None
        world.run(20.0)  # stop fires at 30s
        assert driver.stopped
        assert driver.injector._partition is None
