"""Live chaos fabric: fault plans on real datagrams, supervision, soak.

Four strata:

- plan: every fault kind is one churn-script line;
- parity: the same plan schedules and activates identically on the sim
  injector and the live fabric, and sim-side transit shaping is
  deterministic under a fixed seed;
- live: each directive's observable effect on real loopback datagrams
  (drop, delay, duplicate, reorder, blackhole, stall, rebind), plus the
  bounded send queue and the supervisor's restart-with-backoff;
- soak: the whole gauntlet end-to-end at toy scale.
"""

import random
from contextlib import contextmanager

import pytest

from repro.core.node import WhisperConfig
from repro.core.ppss import PpssConfig
from repro.churn import parse_script
from repro.faults import (
    Blackhole,
    Delay,
    Duplicate,
    FaultInjector,
    FaultPlan,
    LiveFaultFabric,
    LossBurst,
    NatRebind,
    NatReset,
    Partition,
    Reorder,
    Stall,
)
from repro.harness import World, WorldConfig
from repro.nat.traversal import TraversalPolicy
from repro.pss.gossip import PssConfig
from repro.runtime import LiveRuntime, SupervisorConfig


def all_kinds_plan() -> FaultPlan:
    """One directive of every kind, on a sub-second timeline."""
    return FaultPlan.of(
        Blackhole(0.05, 0, 1),
        LossBurst(0.05, 0.4, 0.5),
        Partition(0.05, 0.4),
        Stall(0.05, 0.3, 0.2),
        NatReset(0.1, 0.5),
        NatRebind(0.1, 0.5),
        Delay(0.05, 0.4, delay=0.02),
        Duplicate(0.05, 0.4, 0.5),
        Reorder(0.05, 0.4, 0.5, delay=0.02),
    )


def fast_config() -> WhisperConfig:
    return WhisperConfig(
        pss=PssConfig(exchange_keys=True, cycle_time=0.5, response_timeout=2.0),
        ppss=PpssConfig(cycle_time=1.0, join_retry_every=1.0, response_timeout=3.0),
        traversal=TraversalPolicy(keepalive_interval=1.0, keepalive_misses=2),
    )


def quiet_runtime(n: int, telemetry: bool = True, **kwargs) -> LiveRuntime:
    """A runtime with bound sockets but *unstarted* stacks: no background
    traffic, so tests can count their own datagrams exactly."""
    rt = LiveRuntime(provider="sim", telemetry_enabled=telemetry, **kwargs)
    for nid in range(n):
        rt.add_node(nid)
    return rt


def attach_collectors(rt: LiveRuntime, n: int) -> dict[int, list]:
    received: dict[int, list] = {nid: [] for nid in range(n)}
    for nid in range(n):
        rt.network.attach(nid, received[nid].append)
    return received


def ping(rt: LiveRuntime, src: int, dst: int) -> None:
    rt.network.send(src, rt.network.endpoints[dst], "nat.ping", {"from": src}, 40)


# ======================================================================
# fault plans as script lines
# ======================================================================
class TestPlanScript:
    def test_every_kind_has_a_script_line(self):
        directives = parse_script(
            """
            at 0.05s blackhole 0 -> 1
            from 0.05s to 0.4s loss 50%
            from 0.05s to 0.4s partition groups a|b
            at 0.05s stall 30% for 0.2s
            at 0.1s reset nat 50%
            at 0.1s rebind nat 50%
            from 0.05s to 0.4s delay 20ms
            from 0.05s to 0.4s duplicate 50%
            from 0.05s to 0.4s reorder 50% by 20ms
            """
        )
        assert directives == list(all_kinds_plan())

    def test_script_lines_for_new_directives(self):
        directives = parse_script(
            """
            from 10s to 20s delay 50ms 25%
            from 10s to 20s duplicate 10%
            from 10s to 20s reorder 10% by 80ms
            at 30s rebind nat 15%
            """
        )
        assert directives == [
            Delay(10.0, 20.0, delay=0.05, rate=0.25),
            Duplicate(10.0, 20.0, 0.10),
            Reorder(10.0, 20.0, 0.10, delay=0.08),
            NatRebind(30.0, 0.15),
        ]


# ======================================================================
# sim/live parity
# ======================================================================
def sim_world(seed: int = 42, n: int = 12, telemetry: bool = False) -> World:
    world = World(WorldConfig(seed=seed, telemetry_enabled=telemetry))
    world.populate(n)
    world.start_all()
    world.run(30.0)
    return world


PARITY_IDS = list(range(1, 13))  # the ids a 12-node World hands out


@contextmanager
def sim_fabric(seed: int = 1):
    """(executor, run(seconds), telemetry) on the simulator."""
    world = sim_world(n=len(PARITY_IDS), telemetry=True)
    assert sorted(n.node_id for n in world.alive_nodes()) == PARITY_IDS
    injector = FaultInjector(world, rng=random.Random(seed))
    yield injector, world.run, world.telemetry


@contextmanager
def live_fabric(seed: int = 1):
    """The same three things on real loopback sockets, same node ids."""
    rt = LiveRuntime(provider="sim", telemetry_enabled=True)
    try:
        for nid in PARITY_IDS:
            rt.add_node(nid)
        fabric = LiveFaultFabric(rt.network, seed=seed, telemetry=rt.telemetry)
        yield fabric, rt.run_for, rt.telemetry
    finally:
        rt.close()


def _count_by_kind(metrics, name: str) -> dict:
    """The ``kind``-labelled counters under ``name``, summed per kind."""
    counts: dict = {}
    for labels, metric in metrics.collect(name).items():
        kind = dict(labels)["kind"]
        counts[kind] = counts.get(kind, 0) + metric.value
    return counts


class TestParity:
    @pytest.mark.parametrize("fabric", [sim_fabric, live_fabric], ids=["sim", "live"])
    def test_every_directive_activates_in_both_modes(self, fabric):
        with fabric() as (executor, run, telemetry):
            executor.arm(all_kinds_plan())
            run(0.8)
            stats = executor.stats
            assert stats.faults_activated == 9
            # A blackhole without a duration and the two NAT one-shots
            # never heal; the four windows, the partition and the stall do.
            assert stats.faults_healed == 6
            assert stats.nodes_stalled == 4  # 30% of 12
            assert stats.nat_resets >= 1 and stats.nat_rebinds >= 1
            assert [kind for kind, _ in executor.decision_digest()] == [
                "blackhole", "partition", "stall", "nat_reset", "nat_rebind",
            ]
            metrics = telemetry.metrics
            kinds = dict.fromkeys(
                ("blackhole", "loss", "partition", "stall", "nat_reset",
                 "nat_rebind", "delay", "duplicate", "reorder"), 1,
            )
            assert _count_by_kind(metrics, "fault.injected") == kinds
            del kinds["blackhole"], kinds["nat_reset"], kinds["nat_rebind"]
            assert _count_by_kind(metrics, "fault.healed") == kinds
            assert metrics.counter("fault.stalled_nodes", layer="fault").value == 4

    def test_same_plan_same_decision_digest_on_both_fabrics(self):
        plan = FaultPlan.of(
            Blackhole(0.05, 1, 2), Stall(0.1, 0.25, 0.2), Partition(0.15, 0.4)
        )
        digests = []
        for fabric in (sim_fabric, live_fabric):
            with fabric(seed=99) as (executor, run, _telemetry):
                executor.arm(plan)
                run(0.6)
                digests.append(executor.decision_digest())
        assert digests[0] == digests[1]
        assert [kind for kind, _ in digests[0]] == [
            "blackhole", "stall", "partition",
        ]

    def test_sim_transit_shaping_is_deterministic(self):
        def run_once():
            world = sim_world(seed=77)
            injector = FaultInjector(world)
            injector.arm(
                FaultPlan.of(
                    Delay(0.0, 60.0, delay=0.05, rate=0.5),
                    Duplicate(0.0, 60.0, 0.5),
                    Reorder(0.0, 60.0, 0.5, delay=0.05),
                )
            )
            world.run(90.0)
            s = injector.stats
            assert s.delays_injected > 0
            assert s.duplicates_injected > 0
            assert s.reorders_injected > 0
            return (s.delays_injected, s.duplicates_injected, s.reorders_injected)

        assert run_once() == run_once()

    def test_live_decision_digest_reproduces(self):
        def run_once():
            rt = quiet_runtime(8, telemetry=False)
            try:
                fabric = LiveFaultFabric(rt.network, seed=99)
                fabric.arm(
                    FaultPlan.of(
                        Stall(0.05, 0.25, 0.3),
                        NatRebind(0.1, 0.4),
                        Partition(0.15, 0.4),
                    )
                )
                rt.run_for(0.6)
                return fabric.decision_digest()
            finally:
                rt.close()

        first, second = run_once(), run_once()
        assert first == second
        assert [kind for kind, _ in first] == ["stall", "nat_rebind", "partition"]


# ======================================================================
# live datagram effects
# ======================================================================
class TestLiveFabric:
    def test_loss_burst_drops_everything_at_rate_one(self):
        rt = quiet_runtime(2)
        try:
            received = attach_collectors(rt, 2)
            fabric = LiveFaultFabric(rt.network, seed=3)
            fabric.arm(FaultPlan.of(LossBurst(0.0, 5.0, 1.0)))
            rt.run_for(0.05)
            for _ in range(5):
                ping(rt, 0, 1)
            rt.run_for(0.2)
            assert received[1] == []
            assert fabric.stats.loss_drops == 5
        finally:
            rt.close()

    def test_blackhole_is_directed(self):
        rt = quiet_runtime(2)
        try:
            received = attach_collectors(rt, 2)
            fabric = LiveFaultFabric(rt.network, seed=3)
            fabric.arm(FaultPlan.of(Blackhole(0.0, 0, 1)))
            rt.run_for(0.05)
            for _ in range(4):
                ping(rt, 0, 1)
                ping(rt, 1, 0)
            rt.run_for(0.3)
            assert received[1] == []  # 0 -> 1 swallowed
            assert len(received[0]) == 4  # 1 -> 0 unaffected
            assert fabric.stats.blackhole_drops == 4
        finally:
            rt.close()

    def test_delay_holds_datagrams_on_the_scheduler(self):
        rt = quiet_runtime(2)
        try:
            received = attach_collectors(rt, 2)
            fabric = LiveFaultFabric(rt.network, seed=3)
            fabric.arm(FaultPlan.of(Delay(0.0, 5.0, delay=0.6)))
            rt.run_for(0.05)
            for _ in range(3):
                ping(rt, 0, 1)
            rt.run_for(0.2)
            assert received[1] == []  # still held
            rt.run_for(1.0)
            assert len(received[1]) == 3  # released after the hold
            assert fabric.stats.delays_injected == 3
        finally:
            rt.close()

    def test_held_frame_handles_leave_when_they_fire(self):
        rt = quiet_runtime(2)
        try:
            received = attach_collectors(rt, 2)
            fabric = LiveFaultFabric(rt.network, seed=3)
            fabric.arm(FaultPlan.of(Delay(0.0, 5.0, delay=0.1)))
            rt.run_for(0.05)
            for _ in range(20):
                ping(rt, 0, 1)
            assert len(fabric._held) == 20
            rt.run_for(0.5)
            assert len(received[1]) == 20
            # Drained: only the plan's own edges (bounded by the plan) are
            # still referenced, not one handle per delayed datagram.
            assert not fabric._held
            assert len(fabric._pending) == 2  # window open + window close
        finally:
            rt.close()

    def test_detach_mid_window_cancels_held_frames(self):
        rt = quiet_runtime(2)
        try:
            received = attach_collectors(rt, 2)
            fabric = LiveFaultFabric(rt.network, seed=3)
            fabric.arm(FaultPlan.of(Delay(0.0, 5.0, delay=0.3)))
            rt.run_for(0.05)
            for _ in range(3):
                ping(rt, 0, 1)
            fabric.detach()
            rt.run_for(0.6)
            assert received[1] == []  # frames in flight died with the fabric
            assert not fabric._held
        finally:
            rt.close()

    def test_duplicate_delivers_copies(self):
        rt = quiet_runtime(2)
        try:
            received = attach_collectors(rt, 2)
            fabric = LiveFaultFabric(rt.network, seed=3)
            fabric.arm(FaultPlan.of(Duplicate(0.0, 5.0, 1.0)))
            rt.run_for(0.05)
            for _ in range(3):
                ping(rt, 0, 1)
            rt.run_for(0.3)
            assert len(received[1]) == 6
            assert fabric.stats.duplicates_injected == 3
        finally:
            rt.close()

    def test_reorder_overtakes_held_datagram(self):
        rt = quiet_runtime(2)
        try:
            received = attach_collectors(rt, 2)
            fabric = LiveFaultFabric(rt.network, seed=3)
            fabric.arm(FaultPlan.of(Reorder(0.0, 0.2, 1.0, delay=0.6)))
            rt.run_for(0.05)
            rt.network.send(
                0, rt.network.endpoints[1], "nat.ping", {"from": 111}, 40
            )  # held 0.6 s
            rt.run_for(0.3)  # reorder window closes
            rt.network.send(
                0, rt.network.endpoints[1], "nat.ping", {"from": 222}, 40
            )  # sails straight through
            rt.run_for(0.8)
            senders = [m.payload["from"] for m in received[1]]
            assert senders == [222, 111]  # the younger datagram won
            assert fabric.stats.reorders_injected == 1
        finally:
            rt.close()

    def test_nat_rebind_moves_the_socket(self):
        rt = quiet_runtime(3)
        try:
            before = dict(rt.network.endpoints)
            fabric = LiveFaultFabric(rt.network, seed=3)
            fabric.arm(FaultPlan.of(NatRebind(0.0, 1.0)))
            rt.run_for(0.2)
            after = dict(rt.network.endpoints)
            assert set(before) == set(after)
            assert all(before[nid] != after[nid] for nid in before)
            assert fabric.stats.nat_rebinds == 3
            assert rt.network.stats.rebinds == 3
        finally:
            rt.close()

    def test_stall_detaches_and_restores_handler(self):
        rt = quiet_runtime(3)
        try:
            attach_collectors(rt, 3)
            fabric = LiveFaultFabric(rt.network, seed=3)
            fabric.arm(FaultPlan.of(Stall(0.0, 0.34, 0.4)))
            rt.run_for(0.15)
            detached = [n for n in range(3) if not rt.network.is_attached(n)]
            assert len(detached) == 1 and fabric.stats.nodes_stalled == 1
            rt.run_for(0.5)
            assert all(rt.network.is_attached(n) for n in range(3))
        finally:
            rt.close()

    def test_faults_visible_in_telemetry(self):
        rt = quiet_runtime(2)
        try:
            attach_collectors(rt, 2)
            fabric = LiveFaultFabric(
                rt.network, seed=3, telemetry=rt.telemetry
            )
            fabric.arm(
                FaultPlan.of(LossBurst(0.0, 0.3, 1.0), NatRebind(0.1, 0.5))
            )
            rt.run_for(0.05)
            for _ in range(4):
                ping(rt, 0, 1)
            rt.run_for(0.4)
            metrics = rt.telemetry.metrics
            assert metrics.aggregate("fault.drops")["sum"] == 4
            assert metrics.aggregate("fault.nat_rebinds")["sum"] == 1
            assert metrics.aggregate("fault.injected")["sum"] == 2
        finally:
            rt.close()

    def test_heal_all_on_detach(self):
        rt = quiet_runtime(2)
        try:
            received = attach_collectors(rt, 2)
            fabric = LiveFaultFabric(rt.network, seed=3)
            fabric.arm(FaultPlan.of(LossBurst(0.0, 60.0, 1.0)))
            rt.run_for(0.05)
            fabric.detach()
            ping(rt, 0, 1)
            rt.run_for(0.2)
            assert len(received[1]) == 1  # datagrams flow clean again
        finally:
            rt.close()


# ======================================================================
# bounded send queue
# ======================================================================
class TestSendQueue:
    def test_overflow_drops_oldest(self):
        rt = quiet_runtime(1, queue_limit=4)
        try:
            network = rt.network
            port = network._ports[0]
            addr = (network.endpoints[0].host, network.endpoints[0].port)
            for i in range(6):
                network._enqueue(0, port, bytes([i]) * 8, addr)
            assert len(port.queue) == 4
            assert network.stats.queue_dropped == 2
            # Oldest went first: frames 0 and 1 are gone.
            assert [frame[0] for frame, _ in port.queue] == [2, 3, 4, 5]
            assert network.pending_sends() == 4
            depth = rt.telemetry.gauge("net.send_queue_depth", layer="net")
            assert depth.value == 4
            rt.run_for(0.2)  # writer drains onto the real socket
            assert network.pending_sends() == 0
            assert depth.value == 0
        finally:
            rt.close()

    def test_teardown_counts_queued_frames_as_dropped(self):
        rt = quiet_runtime(1, queue_limit=8)
        try:
            network = rt.network
            port = network._ports[0]
            addr = (network.endpoints[0].host, network.endpoints[0].port)
            for i in range(3):
                network._enqueue(0, port, b"x" * 8, addr)
            network.close_endpoint(0)
            assert network.stats.queue_dropped == 3
            assert network.pending_sends() == 0
        finally:
            rt.close()


# ======================================================================
# supervision
# ======================================================================
class TestSupervisor:
    def _supervised_runtime(self) -> LiveRuntime:
        rt = LiveRuntime(
            provider="sim", telemetry_enabled=True, whisper=fast_config()
        )
        for nid in range(3):
            rt.add_node(nid)
        rt.start([rt.descriptor(0)])
        rt.supervise(
            SupervisorConfig(
                probe_interval=0.1, backoff_base=0.5,
                backoff_max=2.0, healthy_after=100.0,
            )
        )
        return rt

    def test_crash_is_detected_and_restarted(self):
        rt = self._supervised_runtime()
        try:
            rt.crash_node(2)
            assert not rt.nodes[2].alive
            assert rt.run_until(lambda: rt.nodes[2].alive, timeout=3.0)
            assert rt.network.is_attached(2)
            assert 2 in rt.network.endpoints
            assert rt.supervisor.stats.restarts == 1
            assert (
                rt.telemetry.metrics.aggregate("supervisor.restarts")["sum"]
                == 1
            )
        finally:
            rt.close()

    def test_second_crash_waits_out_the_backoff(self):
        rt = self._supervised_runtime()
        try:
            rt.crash_node(2)
            assert rt.run_until(lambda: rt.nodes[2].alive, timeout=3.0)
            # Second failure of the same node: restart must wait >= base.
            t0 = rt.scheduler.now
            rt.crash_node(2)
            assert rt.run_until(lambda: rt.nodes[2].alive, timeout=5.0)
            elapsed = rt.scheduler.now - t0
            assert elapsed >= 0.45  # backoff_base minus timing slack
            assert rt.supervisor.stats.restarts == 2
            # The *next* failure would wait twice as long (capped).
            assert rt.supervisor._backoff[2] == 1.0
        finally:
            rt.close()

    def test_wedged_node_is_forced_down_and_restarted(self):
        rt = self._supervised_runtime()
        try:
            # Alive but detached from the fabric: a wedge, not a crash.
            rt.network.detach(2)
            assert rt.nodes[2].alive
            assert rt.run_until(
                lambda: rt.supervisor.stats.restarts == 1 and rt.nodes[2].alive,
                timeout=3.0,
            )
            assert rt.network.is_attached(2)
        finally:
            rt.close()

    def test_restarted_node_gets_fresh_rng_stream(self):
        rt = self._supervised_runtime()
        try:
            old = rt.nodes[2]
            rt.crash_node(2)
            assert rt.run_until(lambda: rt.nodes[2].alive, timeout=3.0)
            assert rt.nodes[2] is not old
        finally:
            rt.close()


# ======================================================================
# soak smoke
# ======================================================================
@pytest.mark.slow
class TestSoakSmoke:
    def test_toy_soak_survives_the_gauntlet(self):
        from repro.experiments.soak import run_soak

        result = run_soak(16, seed=5)
        assert result.nodes == 16
        # Traffic flowed in every window and the fault schedule bit.
        for window in ("before", "during", "after"):
            assert result.windows[window][1] > 0
        counts = result.fault_counts
        assert counts["loss_drops"] + counts["stall_drops"] > 0
        assert counts["nat_rebinds"] >= 1
        assert counts["faults_activated"] == 3
        # The kills happened and the supervisor healed them.
        assert len(result.killed) >= 2
        assert result.restarts >= len(result.killed)
        # Post-heal routing recovered (loose smoke floor; the CI soak job
        # gates the real 95% floor at full scale).
        after = result.rate("after")
        assert after is not None and after >= 0.75
        # Every fault and restart is accounted for in telemetry.
        assert result.telemetry_consistent, result.telemetry_notes
        assert result.decision_digest
