"""Integration tests: WCL confidential routes over the full stack."""

import pytest

from repro.core.contact import Gateway, PrivateContact
from repro.harness import World, WorldConfig
from repro.net.address import NodeKind


@pytest.fixture(scope="module")
def world():
    w = World(WorldConfig(seed=31))
    w.populate(60)
    w.start_all()
    w.run(150.0)
    return w


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


def exchange(world, src, dst, payload, timeout=30.0):
    received = []
    dst.wcl.set_receive_upcall(lambda content: received.append(content))
    attempt = src.wcl.send_to(contact_for(dst), payload, 1024)
    world.run(timeout)
    return attempt, received


class TestWclDelivery:
    def test_natted_to_natted(self, world):
        src = world.natted_nodes()[0]
        dst = world.natted_nodes()[1]
        attempt, received = exchange(world, src, dst, {"hello": "whisper"})
        assert attempt is not None
        assert received == [{"hello": "whisper"}]

    def test_natted_to_public(self, world):
        src = world.natted_nodes()[2]
        dst = world.public_nodes()[0]
        attempt, received = exchange(world, src, dst, "to a P-node")
        assert attempt is not None
        assert received == ["to a P-node"]

    def test_public_to_natted(self, world):
        src = world.public_nodes()[1]
        dst = world.natted_nodes()[3]
        attempt, received = exchange(world, src, dst, [1, 2, 3])
        assert attempt is not None
        assert received == [[1, 2, 3]]

    def test_mixes_are_neither_src_nor_dst(self, world):
        src = world.natted_nodes()[4]
        dst = world.natted_nodes()[5]
        attempt, _ = exchange(world, src, dst, "x")
        assert attempt is not None
        assert attempt.first_mix not in (src.node_id, dst.node_id)
        assert attempt.second_mix not in (src.node_id, dst.node_id)
        assert attempt.first_mix != attempt.second_mix

    def test_second_mix_is_public(self, world):
        src = world.natted_nodes()[6]
        dst = world.natted_nodes()[7]
        attempt, _ = exchange(world, src, dst, "x")
        second = world.nodes[attempt.second_mix]
        assert second.cm.kind is NodeKind.PUBLIC

    def test_exclusion_forces_alternative_pair(self, world):
        src = world.natted_nodes()[8]
        dst = world.natted_nodes()[9]
        first = src.wcl.send_to(contact_for(dst), "a", 100)
        assert first is not None
        second = src.wcl.send_to(
            contact_for(dst), "b", 100,
            exclude={(first.first_mix, first.second_mix)},
        )
        assert second is not None
        assert (second.first_mix, second.second_mix) != (
            first.first_mix, first.second_mix
        )

    def test_exhausting_all_pairs_returns_none(self, world):
        src = world.natted_nodes()[0]
        dst = world.natted_nodes()[1]
        tried = set()
        for _ in range(400):
            attempt = src.wcl.send_to(contact_for(dst), "x", 10, exclude=tried)
            if attempt is None:
                break
            tried.add((attempt.first_mix, attempt.second_mix))
        else:
            pytest.fail("never exhausted the mix-pair space")
        assert src.wcl.stats.no_path >= 1

    def test_unreachable_contact_without_gateways(self, world):
        """A natted destination advertising no gateways cannot be routed to."""
        src = world.public_nodes()[0]
        dst = world.natted_nodes()[0]
        bare = PrivateContact(
            descriptor=dst.descriptor(), key=dst.wcl.public_key, gateways=(),
        )
        assert src.wcl.send_to(bare, "x", 10) is None


class TestWclStatsAndCosts:
    def test_mix_forwarding_counted(self, world):
        forwarded = sum(n.wcl.stats.forwarded for n in world.alive_nodes())
        assert forwarded > 0

    def test_rsa_costs_charged_to_mixes(self, world):
        src = world.natted_nodes()[0]
        dst = world.natted_nodes()[2]
        attempt, received = exchange(world, src, dst, "cost probe")
        assert received
        accountant = world.provider.accountant
        assert accountant.node_total_ms(attempt.first_mix, "rsa_decrypt") > 0
        assert accountant.node_total_ms(attempt.second_mix, "rsa_decrypt") > 0
        assert accountant.node_total_ms(src.node_id, "rsa_encrypt") > 0
