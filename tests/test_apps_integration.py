"""Integration tests: T-Man and T-Chord over private groups."""

import random

import pytest

from repro.apps import TChordNode
from repro.apps.chord import chord_id, in_interval, key_id
from repro.core.ppss import MemberState
from repro.harness import World, WorldConfig


def build_group(count=70, members=16, seed=51):
    world = World(WorldConfig(seed=seed))
    world.populate(count)
    world.start_all()
    world.run(120.0)
    nodes = world.alive_nodes()
    leader = nodes[0]
    group = leader.create_group("app")
    joined = [leader]
    for node in nodes[1:members]:
        node.join_group(group.invite(node.node_id))
        joined.append(node)
    world.run(400.0)
    assert all(m.group("app").state is MemberState.MEMBER for m in joined)
    return world, joined


@pytest.fixture(scope="module")
def grouped():
    return build_group()


@pytest.fixture(scope="module")
def ring(grouped):
    world, members = grouped
    tchords = []
    for member in members:
        tc = TChordNode(
            member.group("app"),
            world.sim,
            world.registry.fork(f"tchord-{member.node_id}").stream("t"),
        )
        tchords.append(tc)
    world.run(400.0)
    return world, tchords


class TestTChord:
    def test_ring_converges_to_perfect_successors(self, ring):
        _world, tchords = ring
        ordered = sorted(tchords, key=lambda tc: tc.ring_id)
        correct = 0
        for i, tc in enumerate(ordered):
            expected = ordered[(i + 1) % len(ordered)]
            if tc.successor is not None and tc.successor.node_id == expected.ppss.node_id:
                correct += 1
        assert correct >= len(ordered) - 1

    def test_predecessors_converge(self, ring):
        _world, tchords = ring
        ordered = sorted(tchords, key=lambda tc: tc.ring_id)
        correct = 0
        for i, tc in enumerate(ordered):
            expected = ordered[(i - 1) % len(ordered)]
            if (
                tc.predecessor is not None
                and tc.predecessor.node_id == expected.ppss.node_id
            ):
                correct += 1
        assert correct >= len(ordered) - 1

    def test_ring_links_are_persistent(self, ring):
        _world, tchords = ring
        for tc in tchords:
            if tc.successor is not None:
                assert tc.successor.node_id in tc.ppss.persistent_ids()

    def test_lookups_route_to_the_responsible_node(self, ring):
        world, tchords = ring
        ordered = sorted(tchords, key=lambda tc: tc.ring_id)
        ring_ids = [tc.ring_id for tc in ordered]

        def responsible(kid: int) -> int:
            for i, tc in enumerate(ordered):
                pred = ring_ids[(i - 1) % len(ring_ids)]
                if in_interval(kid, pred, tc.ring_id):
                    return tc.ppss.node_id
            raise AssertionError("unreachable")

        rng = random.Random(9)
        results = {}

        def make_cb(key):
            return lambda r: results.__setitem__(key, r)

        expectations = {}
        for i in range(25):
            key = f"lookup-key-{i}"
            querier = rng.choice(tchords)
            expectations[key] = responsible(key_id(key))
            querier.lookup(key, make_cb(key))
        world.run(120.0)
        completed = {k: r for k, r in results.items() if r is not None}
        assert len(completed) >= 23  # a couple of timeouts tolerated
        correct = sum(
            1 for key, r in completed.items() if r.owner_id == expectations[key]
        )
        assert correct >= len(completed) - 2

    def test_lookup_latency_positive_for_remote_keys(self, ring):
        world, tchords = ring
        results = []
        tc = tchords[0]
        for i in range(10):
            tc.lookup(f"remote-{i}", results.append)
        world.run(60.0)
        remote = [
            r for r in results if r is not None and r.owner_id != tc.ppss.node_id
        ]
        assert remote
        assert all(r.latency > 0 for r in remote)

    def test_chord_id_matches_node(self, ring):
        _world, tchords = ring
        for tc in tchords:
            assert tc.ring_id == chord_id(tc.ppss.node_id)
