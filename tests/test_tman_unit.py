"""Unit tests for the T-Man framework in isolation (selector mechanics)."""

import pytest

from repro.apps.tman import TManEntry, TManProtocol
from repro.core.contact import PrivateContact
from repro.harness import World, WorldConfig
from repro.nat.types import NatType


@pytest.fixture()
def tman_world():
    """Two grouped nodes with T-Man running over the PPSS app channel."""
    world = World(WorldConfig(seed=601))
    world.populate(30)
    world.start_all()
    world.run(120.0)
    a, b = world.alive_nodes()[:2]
    group = a.create_group("tman")
    b.join_group(group.invite(b.node_id))
    world.run(200.0)
    return world, a, b


def keep_smallest(own_profile, candidates):
    """Toy selector: keep the 3 entries with the smallest profiles."""
    return sorted(candidates, key=lambda e: e.profile)[:3]


class TestTManProtocol:
    def test_views_converge_between_two_members(self, tman_world):
        world, a, b = tman_world
        ta = TManProtocol(
            "toy", a.group("tman"), world.sim,
            world.registry.fork("ta").stream("x"),
            profile=1, selector=keep_smallest, cycle_time=10.0,
        )
        tb = TManProtocol(
            "toy", b.group("tman"), world.sim,
            world.registry.fork("tb").stream("x"),
            profile=2, selector=keep_smallest, cycle_time=10.0,
        )
        a.group("tman").set_app_handler(ta.handle_payload)
        b.group("tman").set_app_handler(tb.handle_payload)
        world.run(120.0)
        assert b.node_id in ta.view
        assert a.node_id in tb.view
        assert ta.view[b.node_id].profile == 2

    def test_selector_caps_view(self, tman_world):
        world, a, _b = tman_world
        tman = TManProtocol(
            "toy2", a.group("tman"), world.sim,
            world.registry.fork("tc").stream("x"),
            profile=0, selector=keep_smallest,
        )
        entries = [
            TManEntry(
                node_id=1000 + i, profile=i,
                contact=a.group("tman").self_contact(),
            )
            for i in range(10)
        ]
        tman._merge(entries)
        assert len(tman.view) == 3
        assert sorted(e.profile for e in tman.entries()) == [0, 1, 2]

    def test_merge_excludes_self(self, tman_world):
        world, a, _b = tman_world
        tman = TManProtocol(
            "toy3", a.group("tman"), world.sim,
            world.registry.fork("td").stream("x"),
            profile=0, selector=keep_smallest,
        )
        me = TManEntry(
            node_id=a.node_id, profile=-1,
            contact=a.group("tman").self_contact(),
        )
        tman._merge([me])
        assert a.node_id not in tman.view

    def test_foreign_payloads_ignored(self, tman_world):
        world, a, _b = tman_world
        tman = TManProtocol(
            "toy4", a.group("tman"), world.sim,
            world.registry.fork("te").stream("x"),
            profile=0, selector=keep_smallest,
        )
        assert not tman.handle_payload({"app": "chat"}, None)
        assert not tman.handle_payload(
            {"app": "tman", "name": "other", "op": "push", "entries": []}, None
        )

    def test_view_change_callback(self, tman_world):
        world, a, _b = tman_world
        snapshots = []
        tman = TManProtocol(
            "toy5", a.group("tman"), world.sim,
            world.registry.fork("tf").stream("x"),
            profile=0, selector=keep_smallest,
            on_view_change=snapshots.append,
        )
        entry = TManEntry(
            node_id=4242, profile=5, contact=a.group("tman").self_contact(),
        )
        tman._merge([entry])
        assert snapshots and snapshots[-1][0].node_id == 4242
