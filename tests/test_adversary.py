"""Tests for the adversary subsystem: observer, corruption draws, attacks.

Covers the regression cases called out for this change — the 64-step
traversal cap in ``carries_trace``, flow extraction over
duplicated/reordered observations, ``adversary_sweep`` drawing from the
caller's stream only — plus synthetic-tape attack semantics, countermeasure plumbing
(WCL batched mixing, PPSS cover traffic) and the ``anonymity.*``
telemetry surface.
"""

from __future__ import annotations

import random

import pytest

from repro.adversary import (
    Corruption,
    GlobalObserver,
    IntersectionAttack,
    PredecessorAttack,
    adversary_sweep,
    exposure,
    extract_flows,
    record_attack_telemetry,
)
from repro.adversary.exposure import (
    TRAVERSAL_CAP,
    OnionFlow,
    carries_onion,
    carries_trace,
)
from repro.core.onion import CircuitFrame, CircuitSetupPacket, OnionPacket
from repro.crypto.provider import EncryptedPayload, Sealed
from repro.harness.invariants import (
    RecoveryViolation,
    check_attack_mitigation,
)
from repro.net.address import Endpoint
from repro.net.observer import ObservedPacket
from repro.telemetry import Telemetry
from repro.workload import CbrStreams, CoverTraffic, WorkloadSpec


def dummy_onion(trace_id: int = 1) -> OnionPacket:
    return OnionPacket(
        header=Sealed(key_fingerprint="x", blob=None, size_bytes=1),
        body=EncryptedPayload(blob=None, auth=None, size_bytes=1),
        trace_id=trace_id,
    )


def observed(
    time: float,
    sender: int,
    receiver: int | None,
    kind: str = "wcl.onion",
    payload: object = None,
) -> ObservedPacket:
    return ObservedPacket(
        time=time,
        sender=sender,
        receiver=receiver,
        src_endpoint=Endpoint("10.0.0.1", 1),
        dst_endpoint=Endpoint("10.0.0.2", 2),
        kind=kind,
        payload=payload,
        size_bytes=64,
    )


class TestTraversalCap:
    def test_shallow_wrappers_are_walked(self):
        onion = dummy_onion(trace_id=9)
        wrapped = {"from": 1, "kind": "wcl.onion", "payload": onion}
        relayed = {"kind": "nat.relay", "payload": wrapped}
        assert carries_trace(relayed, 9)
        assert not carries_trace(relayed, 10)
        assert carries_onion(relayed)

    def test_circuit_packets_carry_their_trace(self):
        frame = CircuitFrame(circuit_id=1, body=None, trace_id=4)
        setup = CircuitSetupPacket(header=None, trace_id=5)
        relayed = {"kind": "nat.relay", "payload": {"payload": frame}}
        assert carries_onion(relayed) and carries_trace(relayed, 4)
        assert carries_onion(setup) and carries_trace(setup, 5)

    def test_deeply_nested_wrappers_hit_the_cap(self):
        """A payload nested past TRAVERSAL_CAP reports 'no trace found'."""
        payload: object = dummy_onion(trace_id=9)
        for _ in range(TRAVERSAL_CAP + 40):
            payload = {"payload": payload}
        assert not carries_trace(payload, 9)
        assert not carries_onion(payload)

    def test_nesting_just_under_the_cap_still_finds_it(self):
        payload: object = dummy_onion(trace_id=9)
        for _ in range(TRAVERSAL_CAP - 2):
            payload = {"payload": payload}
        assert carries_trace(payload, 9)


class TestExtractFlowsShapedTapes:
    """PR 7 fault shaping can duplicate and reorder wire deliveries."""

    def path_packets(self, trace_id: int = 5) -> list[ObservedPacket]:
        onion = dummy_onion(trace_id)
        return [
            observed(1.0, 10, 20, payload=onion),
            observed(2.0, 20, 30, payload=onion),
            observed(3.0, 30, 40, payload=onion),
        ]

    def test_clean_path(self):
        flows = extract_flows(self.path_packets())
        assert len(flows) == 1
        assert flows[0].hops == ((10, 20), (20, 30), (30, 40))

    def test_duplicate_after_next_hop_does_not_corrupt_the_path(self):
        """A duplicated first hop landing *after* hop 2 must be dropped."""
        packets = self.path_packets()
        onion = dummy_onion(5)
        packets.append(observed(2.5, 10, 20, payload=onion))  # late copy
        flows = extract_flows(packets)
        assert len(flows) == 1
        assert flows[0].hops == ((10, 20), (20, 30), (30, 40))
        assert flows[0].source == 10
        assert flows[0].destination == 40

    def test_reordered_observations_are_resorted_by_time(self):
        packets = list(reversed(self.path_packets()))
        flows = extract_flows(packets)
        assert flows[0].hops == ((10, 20), (20, 30), (30, 40))

    def test_lost_hops_are_skipped(self):
        packets = self.path_packets()
        packets.append(observed(1.5, 20, None, payload=dummy_onion(5)))
        flows = extract_flows(packets)
        assert flows[0].hops == ((10, 20), (20, 30), (30, 40))


class TestAdversarySweepSeeding:
    def flows(self) -> list[OnionFlow]:
        rng = random.Random(11)
        flows = []
        for i in range(30):
            a, b, c, d = rng.sample(range(40), 4)
            flows.append(
                OnionFlow(trace_id=i, hops=((a, b), (b, c), (c, d)))
            )
        return flows

    def test_default_is_deterministic_without_global_state(self):
        """The sweep draws from the caller's stream only."""
        flows = self.flows()
        random.seed(1)
        first = adversary_sweep(flows, random.Random(3), trials=5)
        random.seed(999)  # stdlib global state must not matter
        second = adversary_sweep(flows, random.Random(3), trials=5)
        assert first == second

    def test_distinct_seeds_draw_distinct_adversaries(self):
        flows = self.flows()
        assert adversary_sweep(flows, random.Random(3), trials=5) != adversary_sweep(
            flows, random.Random(4), trials=5
        )

    def test_explicit_rng_is_honoured(self):
        """Callers threading their own stream get exactly those draws."""
        flows = self.flows()
        first = adversary_sweep(flows, trials=5, rng=random.Random(7))
        second = adversary_sweep(flows, trials=5, rng=random.Random(7))
        assert first == second


class TestCorruption:
    def tape(self) -> GlobalObserver:
        tap = GlobalObserver(seed=77)
        onion = dummy_onion(1)
        for i in range(10):
            tap.record(observed(float(i), i, i + 1, payload=onion))
        return tap

    def test_same_label_same_draw(self):
        tap = self.tape()
        a = tap.corruption(0.5, label="trial-0")
        b = tap.corruption(0.5, label="trial-0")
        assert a == b

    def test_distinct_labels_are_independent(self):
        tap = self.tape()
        draws = {tap.corruption(0.5, label=f"trial-{i}").links for i in range(6)}
        assert len(draws) > 1

    def test_full_corruption_sees_everything(self):
        tap = self.tape()
        corruption = tap.corruption(1.0)
        assert corruption.visible_links(tap.link_universe()) == set(
            tap.link_universe()
        )

    def test_node_corruption_sees_adjacent_links(self):
        corruption = Corruption(
            label="", links=frozenset(), nodes=frozenset({3})
        )
        assert corruption.sees(3, 9)
        assert corruption.sees(9, 3)
        assert not corruption.sees(4, 9)

    def test_fraction_out_of_range_rejected(self):
        tap = self.tape()
        with pytest.raises(ValueError):
            tap.corruption(1.5)
        with pytest.raises(ValueError):
            tap.corruption(0.5, node_fraction=-0.1)


def synthetic_tape(
    rounds: int,
    sender: int = 1,
    target: int = 9,
    mixes: tuple[int, int] = (5, 6),
    others: tuple[int, ...] = (2, 3),
    cover: bool = False,
    hop_gap: float = 0.05,
    period: float = 10.0,
) -> list[ObservedPacket]:
    """S -> A -> B -> D every ``period``; others gossip without onions.

    With ``cover=True`` the other members emit onions in every window too,
    which is exactly what defeats the intersection attack.
    """
    packets = []
    a, b = mixes
    for r in range(rounds):
        t = r * period
        onion = dummy_onion(trace_id=100 + r)
        packets.append(observed(t, sender, a, payload=onion))
        packets.append(observed(t + hop_gap, a, b, payload=onion))
        packets.append(observed(t + 2 * hop_gap, b, target, payload=onion))
        for i, other in enumerate(others):
            if cover:
                decoy = dummy_onion(trace_id=1000 + 10 * r + i)
                packets.append(observed(t + 0.01, other, a, payload=decoy))
            else:
                packets.append(
                    observed(t + 0.01, other, a, kind="pss.request")
                )
    return packets


def all_links(packets: list[ObservedPacket]) -> set[tuple[int, int]]:
    return {
        (p.sender, p.receiver) for p in packets if p.receiver is not None
    }


class TestIntersectionAttack:
    def test_persistent_sender_is_isolated(self):
        packets = synthetic_tape(rounds=5)
        result = IntersectionAttack().run(
            packets, all_links(packets),
            true_sender=1, target=9, candidates=[1, 2, 3],
        )
        assert result.success
        assert result.confidence == 1.0
        assert result.rounds_to_deanonymize == 1
        assert result.set_sizes[-1] == 1

    def test_cover_traffic_defeats_it(self):
        packets = synthetic_tape(rounds=5, cover=True)
        result = IntersectionAttack().run(
            packets, all_links(packets),
            true_sender=1, target=9, candidates=[1, 2, 3],
        )
        assert not result.success
        # Everyone stays suspect: the set never narrows past the cover.
        assert result.set_sizes[-1] == 3
        assert result.confidence == pytest.approx(1 / 3)

    def test_invisible_first_hop_rounds_carry_no_information(self):
        """Deliveries whose origin window is dark must not wipe suspects."""
        packets = synthetic_tape(rounds=4)
        visible = all_links(packets) - {(1, 5), (2, 5), (3, 5)}
        result = IntersectionAttack().run(
            packets, visible,
            true_sender=1, target=9, candidates=[1, 2, 3],
        )
        assert not result.success
        assert result.set_sizes[-1] == 3  # nothing learned, nothing lost

    def test_blind_adversary_fails(self):
        packets = synthetic_tape(rounds=5)
        result = IntersectionAttack().run(
            packets, set(), true_sender=1, target=9, candidates=[1, 2, 3],
        )
        assert not result.success
        assert result.rounds == 0


class TestPredecessorAttack:
    def test_timing_chain_reaches_the_sender(self):
        packets = synthetic_tape(rounds=5)
        result = PredecessorAttack().run(
            packets, all_links(packets),
            true_sender=1, target=9, candidates=[1, 2, 3],
        )
        assert result.success
        assert result.confidence == 1.0

    def test_held_forwards_sever_the_chain(self):
        """Hops spaced past delta (batched mixing) stop the walk-back."""
        packets = synthetic_tape(rounds=5, hop_gap=1.0)  # >> delta=0.25
        result = PredecessorAttack().run(
            packets, all_links(packets),
            true_sender=1, target=9, candidates=[1, 2, 3],
        )
        assert not result.success
        assert result.confidence == 0.0

    def test_partial_visibility_still_converges_with_enough_rounds(self):
        packets = synthetic_tape(rounds=8)
        visible = all_links(packets) - {(5, 6)}  # middle hop dark
        result = PredecessorAttack().run(
            packets, visible,
            true_sender=1, target=9, candidates=[1, 2, 3],
        )
        # Chain stops at the first mix, which is not a candidate: the
        # attack must not mis-accuse, even if it cannot convict.
        assert not result.success
        assert result.confidence == 0.0


class TestCountermeasureSpecs:
    def test_cover_traffic_validation(self):
        with pytest.raises(ValueError):
            CoverTraffic(interval=0.0)
        with pytest.raises(ValueError):
            CoverTraffic(payload=0)
        with pytest.raises(ValueError):
            CoverTraffic(duration=-1.0)

    def test_mix_batch_interval_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(name="bad", mix_batch_interval=0.0)
        spec = WorkloadSpec(name="ok", mix_batch_interval=2.0)
        assert spec.mix_batch_interval == 2.0

    def test_cover_traffic_is_a_model(self):
        spec = WorkloadSpec(
            name="cover", models=(CoverTraffic(duration=30.0),)
        )
        assert spec.horizon() == 30.0


class TestMixBatchingUnit:
    def test_enable_requires_positive_interval(self):
        from repro.harness.world import World, WorldConfig

        world = World(WorldConfig(seed=5))
        world.populate(4)
        node = world.nodes[1]
        with pytest.raises(ValueError):
            node.wcl.enable_mix_batching(0.0)
        node.wcl.enable_mix_batching(1.0)


class TestAttackMitigationGate:
    def test_mitigation_passes(self):
        check_attack_mitigation(0.6, 0.1)

    def test_vacuous_baseline_fails(self):
        with pytest.raises(RecoveryViolation):
            check_attack_mitigation(0.0, 0.0)

    def test_no_drop_fails(self):
        with pytest.raises(RecoveryViolation):
            check_attack_mitigation(0.4, 0.5)

    def test_margin_is_enforced(self):
        with pytest.raises(RecoveryViolation):
            check_attack_mitigation(0.5, 0.45, margin=0.2)


class TestAnonymityTelemetry:
    def record(self, telemetry: Telemetry) -> None:
        packets = synthetic_tape(rounds=5)
        result = IntersectionAttack().run(
            packets, all_links(packets),
            true_sender=1, target=9, candidates=[1, 2, 3],
        )
        record_attack_telemetry(telemetry, "baseline", 0.5, [result])

    def test_metrics_recorded(self):
        telemetry = Telemetry(enabled=True)
        self.record(telemetry)
        text = telemetry.export_jsonl()
        assert '"anonymity.targets"' in text
        assert '"anonymity.deanonymized"' in text
        assert '"anonymity.set_size"' in text

    def test_anonymity_histograms_export_p95(self):
        telemetry = Telemetry(enabled=True)
        self.record(telemetry)
        telemetry.histogram("other.metric", layer="x").observe(1.0)
        lines = telemetry.export_jsonl().splitlines()
        import json

        for line in lines:
            record = json.loads(line)
            if record.get("kind") != "histogram" or "count" not in record:
                continue
            if record["name"].startswith("anonymity."):
                assert "p95" in record
            else:
                assert "p95" not in record

    def test_summary_cli_renders_the_scoreboard(self, tmp_path, capsys):
        from repro.telemetry.__main__ import main as telemetry_main

        telemetry = Telemetry(enabled=True)
        self.record(telemetry)
        path = tmp_path / "trace.jsonl"
        telemetry.export_jsonl(str(path))
        assert telemetry_main(["summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "anonymity attacks" in out
        assert "intersection" in out
        assert "baseline" in out
        # Legacy bare-path form keeps working.
        assert telemetry_main([str(path)]) == 0
