"""Tests for the colluding-attacker extension: f-mix WCL paths (footnote 2)."""

import pytest

from repro.harness import World, WorldConfig

from .test_wcl_integration import contact_for


@pytest.fixture(scope="module")
def world():
    w = World(WorldConfig(seed=37))
    w.populate(60)
    w.start_all()
    w.run(150.0)
    return w


class TestLongPaths:
    def test_three_mix_path_delivers(self, world):
        src = world.natted_nodes()[0]
        dst = world.natted_nodes()[1]
        received = []
        dst.wcl.set_receive_upcall(lambda content: received.append(content))
        attempt = src.wcl.send_to(contact_for(dst), "deep cover", 256, mixes=3)
        world.run(30.0)
        assert attempt is not None
        assert len(attempt.middle_mixes) == 1
        assert received == ["deep cover"]

    def test_five_mix_path_delivers(self, world):
        src = world.natted_nodes()[2]
        dst = world.natted_nodes()[3]
        received = []
        dst.wcl.set_receive_upcall(lambda content: received.append(content))
        attempt = src.wcl.send_to(contact_for(dst), "deeper", 256, mixes=5)
        world.run(30.0)
        assert attempt is not None
        assert len(attempt.middle_mixes) == 3
        assert received == ["deeper"]

    def test_middle_mixes_are_public_and_distinct(self, world):
        src = world.natted_nodes()[4]
        dst = world.natted_nodes()[5]
        attempt = src.wcl.send_to(contact_for(dst), "x", 64, mixes=4)
        assert attempt is not None
        hops = (
            attempt.first_mix, *attempt.middle_mixes, attempt.second_mix,
            dst.node_id,
        )
        assert len(set(hops)) == len(hops)
        from repro.net.address import NodeKind
        for mid in attempt.middle_mixes:
            assert world.nodes[mid].cm.kind is NodeKind.PUBLIC

    def test_each_middle_mix_charged_one_decrypt(self, world):
        src = world.natted_nodes()[6]
        dst = world.natted_nodes()[7]
        attempt = src.wcl.send_to(contact_for(dst), "x", 64, mixes=3)
        assert attempt is not None
        world.run(30.0)
        acct = world.provider.accountant
        for mid in attempt.middle_mixes:
            assert acct.node_total_ms(mid, "rsa_decrypt") > 0

    def test_too_few_mixes_rejected(self, world):
        src = world.natted_nodes()[0]
        dst = world.natted_nodes()[1]
        with pytest.raises(ValueError):
            src.wcl.send_to(contact_for(dst), "x", 64, mixes=1)

    def test_absurd_mix_count_returns_none(self, world):
        """More middle P-nodes than the CB holds: no path, not a crash."""
        src = world.natted_nodes()[0]
        dst = world.natted_nodes()[1]
        assert src.wcl.send_to(contact_for(dst), "x", 64, mixes=50) is None
