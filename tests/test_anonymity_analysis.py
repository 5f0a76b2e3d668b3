"""Tests for the anonymity analysis toolkit (partial link observation)."""

import random

import pytest

from repro.adversary.exposure import adversary_sweep, exposure, extract_flows
from repro.core.contact import Gateway, PrivateContact
from repro.core.node import WhisperConfig
from repro.harness import World, WorldConfig
from repro.net.address import NodeKind
from repro.net.observer import LinkObserver


def contact_for(node) -> PrivateContact:
    gateways = ()
    if node.cm.kind is NodeKind.NATTED:
        gateways = tuple(
            Gateway(descriptor=e.descriptor, key=e.key)
            for e in node.backlog.gateways_for_self()
        )
    return PrivateContact(
        descriptor=node.descriptor(), key=node.wcl.public_key, gateways=gateways
    )


@pytest.fixture(scope="module")
def taped_run():
    world = World(WorldConfig(seed=701))
    tap = LinkObserver()
    tap.watch_all()
    world.network.add_observer(tap)
    world.populate(60)
    world.start_all()
    world.run(150.0)
    natted = world.natted_nodes()
    rng = random.Random(4)
    pairs = []
    for i in range(25):
        src, dst = rng.sample(natted, 2)
        attempt = src.wcl.send_to(contact_for(dst), f"msg-{i}", 256)
        if attempt is not None:
            pairs.append((src.node_id, dst.node_id, attempt.trace_id))
        world.run(5.0)
    world.run(30.0)
    return world, tap, pairs


class TestFlowExtraction:
    def test_flows_found_for_sent_messages(self, taped_run):
        _world, tap, pairs = taped_run
        flows = extract_flows(tap.packets)
        trace_ids = {f.trace_id for f in flows}
        found = sum(1 for (_s, _d, tid) in pairs if tid in trace_ids)
        assert found >= len(pairs) - 2  # a couple may be partially lost

    def test_flow_endpoints_match_ground_truth(self, taped_run):
        _world, tap, pairs = taped_run
        flows = {f.trace_id: f for f in extract_flows(tap.packets)}
        checked = 0
        for src, dst, trace_id in pairs:
            flow = flows.get(trace_id)
            if flow is None:
                continue
            assert flow.source == src
            assert flow.destination == dst
            checked += 1
        assert checked > 10

    def test_paths_have_at_least_three_wire_hops(self, taped_run):
        """S -> A -> B -> D is the minimum (relays may add more)."""
        _world, tap, pairs = taped_run
        flows = {f.trace_id: f for f in extract_flows(tap.packets)}
        for _src, _dst, trace_id in pairs:
            flow = flows.get(trace_id)
            if flow is not None:
                assert len(flow.hops) >= 3


class TestExposure:
    def test_full_observation_traces_everything(self, taped_run):
        _world, tap, _pairs = taped_run
        flows = extract_flows(tap.packets)
        all_links = {link for f in flows for link in f.links()}
        assert exposure(flows, all_links) == 1.0

    def test_no_observation_traces_nothing(self, taped_run):
        _world, tap, _pairs = taped_run
        flows = extract_flows(tap.packets)
        assert exposure(flows, set()) == 0.0

    def test_single_link_adversary_never_links_endpoints(self, taped_run):
        """The paper's attacker (one link) cannot trace any flow."""
        _world, tap, _pairs = taped_run
        flows = extract_flows(tap.packets)
        all_links = sorted({link for f in flows for link in f.links()})
        rng = random.Random(1)
        for link in rng.sample(all_links, min(20, len(all_links))):
            assert exposure(flows, {link}) == 0.0

    def test_exposure_monotone_in_coverage(self, taped_run):
        _world, tap, _pairs = taped_run
        flows = extract_flows(tap.packets)
        sweep = adversary_sweep(
            flows, link_fractions=(0.2, 0.6, 1.0), trials=10,
            rng=random.Random(2),
        )
        assert sweep[0.2] <= sweep[0.6] <= sweep[1.0]
        assert sweep[1.0] == 1.0

    def test_modest_adversaries_see_little(self, taped_run):
        """Far below-quadratic exposure: ~p^3 for 3-hop paths."""
        _world, tap, _pairs = taped_run
        flows = extract_flows(tap.packets)
        sweep = adversary_sweep(
            flows, link_fractions=(0.25,), trials=20, rng=random.Random(3),
        )
        assert sweep[0.25] < 0.15  # analytic p^3 ~ 0.016; generous bound

    def test_empty_flows(self):
        assert exposure([], set()) == 0.0
        assert adversary_sweep([], random.Random(0), trials=2) == {
            0.1: 0.0, 0.25: 0.0, 0.5: 0.0, 0.75: 0.0, 0.9: 0.0,
        }


class TestCircuitFlows:
    def test_a_tapped_circuit_frame_yields_its_flow(self):
        """Circuit-mode traffic is onion traffic to the tap: the data
        frame's hops are extracted like a per-message onion's."""
        world = World(
            WorldConfig(seed=47, whisper=WhisperConfig(circuit_mode=True))
        )
        tap = LinkObserver()
        tap.watch_all()
        world.network.add_observer(tap)
        world.populate(60)
        world.start_all()
        world.run(150.0)
        src, dst = world.natted_nodes()[:2]
        src.wcl.send_to(dst.wcl.self_contact(), "sets the circuit up", 256)
        world.run(30.0)
        circuit = src.wcl._circuits[dst.node_id]
        assert circuit.established
        attempt = src.wcl.send_to(dst.wcl.self_contact(), "on the circuit", 256)
        world.run(30.0)
        assert src.wcl.stats.circuit_sent == 1
        flows = {f.trace_id: f for f in extract_flows(tap.packets)}
        flow = flows[attempt.trace_id]
        assert (flow.source, flow.destination) == (src.node_id, dst.node_id)
        on_path = {node for hop in flow.hops for node in hop}
        assert {circuit.first_mix, circuit.second_mix} <= on_path
