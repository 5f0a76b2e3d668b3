"""Tests for WhisperNode assembly, dispatch, and lifecycle edge cases."""

import pytest

from repro.core.ppss import MemberState
from repro.harness import World, WorldConfig


@pytest.fixture()
def world():
    w = World(WorldConfig(seed=91))
    w.populate(40)
    w.start_all()
    w.run(100.0)
    return w


class TestGroupApi:
    def test_create_group_twice_rejected(self, world):
        node = world.alive_nodes()[0]
        node.create_group("dup")
        with pytest.raises(ValueError):
            node.create_group("dup")

    def test_join_while_member_rejected(self, world):
        a, b = world.alive_nodes()[:2]
        group = a.create_group("g1")
        invitation = group.invite(b.node_id)
        b.join_group(invitation)
        with pytest.raises(ValueError):
            b.join_group(invitation)

    def test_join_wrong_group_invitation(self, world):
        a, b = world.alive_nodes()[:2]
        group = a.create_group("g2")
        invitation = group.invite(b.node_id)
        ppss = b._new_ppss("other", None)
        with pytest.raises(ValueError):
            ppss.join(invitation)

    def test_group_lookup(self, world):
        node = world.alive_nodes()[0]
        created = node.create_group("g3")
        assert node.group("g3") is created
        with pytest.raises(KeyError):
            node.group("missing")

    def test_leave_group_stops_it(self, world):
        node = world.alive_nodes()[0]
        group = node.create_group("g4")
        node.leave_group("g4")
        assert group.state is MemberState.LEFT
        assert "g4" not in node.groups
        node.leave_group("g4")  # idempotent

    def test_creator_is_leader_with_passport(self, world):
        node = world.alive_nodes()[0]
        group = node.create_group("g5")
        assert group.keyring.is_leader
        assert group.passport is not None
        assert group.state is MemberState.MEMBER


class TestDispatch:
    def test_unknown_group_content_ignored_silently(self, world):
        node = world.alive_nodes()[0]
        before = node.unknown_group_messages
        node._from_wcl({"type": "ppss.request", "group": "ghost"})
        assert node.unknown_group_messages == before + 1

    def test_non_dict_content_ignored(self, world):
        node = world.alive_nodes()[0]
        node._from_wcl("garbage string")  # must not raise

    def test_stopped_node_stops_gossiping(self, world):
        node = world.alive_nodes()[0]
        node.stop()
        cycles_at_stop = node.pss.stats.cycles
        world.run(100.0)
        assert node.pss.stats.cycles == cycles_at_stop

    def test_stopped_node_detached_from_network(self, world):
        node = world.alive_nodes()[0]
        node.stop()
        assert not world.network.is_attached(node.node_id)

    def test_descriptor_kind_matches_nat(self, world):
        natted = world.natted_nodes()[0]
        public = world.public_nodes()[0]
        assert not natted.descriptor().is_public
        assert public.descriptor().is_public
        assert public.descriptor().public_endpoint is not None


class TestJoinerLifecycle:
    def test_join_retries_until_leader_reachable(self, world):
        """A joiner keeps retrying over fresh WCL paths until welcomed."""
        a = world.alive_nodes()[0]
        b = world.alive_nodes()[5]
        group = a.create_group("retry")
        invitation = group.invite(b.node_id)
        ppss = b.join_group(invitation)
        world.run(200.0)
        assert ppss.state is MemberState.MEMBER
        assert ppss.stats.join_attempts >= 1

    def test_leave_while_joining(self, world):
        a = world.alive_nodes()[0]
        b = world.alive_nodes()[6]
        group = a.create_group("leaver")
        ppss = b.join_group(group.invite(b.node_id))
        b.leave_group("leaver")
        world.run(100.0)
        assert ppss.state is MemberState.LEFT
        assert ppss.stats.join_attempts <= 1
