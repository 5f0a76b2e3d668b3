"""core/ says each thing once: the records and orders that must not move.

What a PPSS / group body holds and in which key order, what size the wire
model charges for it, where a node's contact comes from, the order in which
an onion build draws from the provider's RNG, and that exchange ids and
accreditation nonces belong to the instance that issues them.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import replace

import pytest

from repro.core.node import WhisperConfig
from repro.core.onion import CircuitHop, HopSpec, build_circuit_setup, build_onion, peel
from repro.core.ppss import PpssConfig
from repro.crypto.provider import RealCryptoProvider
from repro.harness import World, WorldConfig
from repro.net.address import Endpoint
from repro.net.message import sizes
from repro.wire.registry import registered_kinds, spec_for

# Recorded from the parent commit's body literals: the ordered key tuple of
# each message type (``type`` / ``group`` first, everywhere).
_EXCHANGE = (
    "type", "group", "xid", "sender", "passport", "buffer", "hb", "election", "new_key",
)
_PCP = ("type", "group", "sender", "passport", "hb", "election", "new_key")
BODY_KEYS = {
    "ppss.request": _EXCHANGE,
    "ppss.response": _EXCHANGE,
    "ppss.app": ("type", "group", "sender_id", "passport", "payload", "reply_to"),
    "ppss.cover": ("type", "group", "sender_id", "passport", "pad"),
    "ppss.pcp_refresh": _PCP,
    "ppss.pcp_ack": _PCP,
    "group.join": ("type", "group", "accreditation", "joiner"),
    "group.welcome": ("type", "group", "passport", "key_history", "seed"),
}
CONTEXTS = {kind: kind for kind in BODY_KEYS} | {
    "ppss.pcp_refresh": "ppss.pcp", "ppss.pcp_ack": "ppss.pcp",
}
APP_BYTES = 300


def _entries_size(entries) -> int:
    return sum(entry.contact.wire_size() for entry in entries)


# The parent's size formulas, restated from what a body carries.
MODELLED_SIZE = {
    "ppss.request": lambda b: (
        sizes.gossip_header + sizes.passport + _entries_size(b["buffer"])
    ),
    "ppss.app": lambda b: APP_BYTES + sizes.passport + (
        b["reply_to"].wire_size() if b["reply_to"] is not None else 0
    ),
    "ppss.cover": lambda b: b["pad"] + sizes.passport,
    "ppss.pcp_refresh": lambda b: (
        sizes.gossip_header + sizes.passport + b["sender"].wire_size()
    ),
    "group.join": lambda b: sizes.passport + b["joiner"].wire_size(),
    "group.welcome": lambda b: (
        sizes.passport + sizes.public_key * len(b["key_history"])
        + _entries_size(b["seed"])
    ),
}
MODELLED_SIZE["ppss.response"] = MODELLED_SIZE["ppss.request"]
MODELLED_SIZE["ppss.pcp_ack"] = MODELLED_SIZE["ppss.pcp_refresh"]


@pytest.fixture(scope="module")
def sends():
    """Every ``wcl.send_to`` call of a small grouped world, by body type."""
    world = World(WorldConfig(seed=31))
    world.populate(40)
    world.start_all()
    world.run(60.0)
    calls: dict[str, list[tuple[dict, int, str]]] = {}

    def spy_on(node):
        real = node.wcl.send_to

        def send_to(contact, content, content_size, exclude=None, context="wcl", mixes=2):
            calls.setdefault(content["type"], []).append(
                (content, content_size, context)
            )
            return real(contact, content, content_size, exclude, context, mixes)

        node.wcl.send_to = send_to

    for node in world.alive_nodes():
        spy_on(node)
    leader = world.public_nodes()[0]
    group = leader.create_group("g")
    members = world.natted_nodes()[:4] + world.public_nodes()[1:2]
    for node in members:
        node.join_group(group.invite(node.node_id))
    world.run(150.0)
    ppss = members[0].group("g")
    peer = ppss.get_peer()
    assert ppss.make_persistent(peer.node_id)
    assert ppss.send_app(peer, "with reply contact", APP_BYTES)
    assert ppss.send_app(peer, "without", APP_BYTES, include_self_contact=False)
    assert ppss.send_cover(peer, 200)
    world.run(130.0)  # one persistent-pool refresh period
    return calls


class TestGroupBodies:
    @pytest.mark.parametrize("kind", sorted(BODY_KEYS))
    def test_key_order_size_and_context(self, sends, kind):
        assert sends.get(kind), f"the scenario sent no {kind}"
        for body, size, context in sends[kind]:
            assert tuple(body) == BODY_KEYS[kind]
            assert size == MODELLED_SIZE[kind](body)
            assert context == CONTEXTS[kind]

    def test_no_other_body_type_is_sent(self, sends):
        assert set(sends) == set(BODY_KEYS)

    def test_registry_requires_exactly_these_keys(self):
        # ``ppss.cover`` has no wire id: a decoy is sized as the app payload
        # it imitates and travels as a plain value inside its onion body.
        registered = set(BODY_KEYS) - {"ppss.cover"}
        assert registered <= set(registered_kinds())
        assert "ppss.cover" not in registered_kinds()
        for kind in registered:
            assert spec_for(kind).required == frozenset(BODY_KEYS[kind])

    def test_a_message_carries_one_self_contact(self, sends):
        for body, _size, _context in sends["ppss.request"] + sends["ppss.response"]:
            assert body["buffer"][0].contact is body["sender"]
            assert body["buffer"][0].age == 0


class TestSelfContact:
    @pytest.fixture(scope="class")
    def world(self):
        world = World(WorldConfig(seed=31))
        world.populate(40)
        world.start_all()
        world.run(120.0)
        return world

    def test_gateways_are_the_backlogs_own_records(self, world):
        for node in world.natted_nodes():
            advertised = node.wcl.self_contact().gateways
            own = node.backlog.gateways_for_self()
            assert advertised and len(advertised) == len(own) <= node.backlog.pi
            slots = node.backlog.entries()
            for gateway, expected in zip(advertised, own):
                assert gateway is expected
                assert gateway.is_public
                assert any(gateway is slot for slot in slots)

    def test_a_public_node_advertises_no_gateway(self, world):
        for node in world.public_nodes():
            contact = node.wcl.self_contact()
            assert contact.gateways == ()
            assert contact.descriptor is node.descriptor()
            assert contact.key is node.wcl.public_key

    def test_ppss_delegates_to_wcl(self, world):
        leader = world.public_nodes()[0]
        joiner = world.natted_nodes()[0]
        group = leader.create_group("delegation")
        joiner.join_group(group.invite())
        for node in (leader, joiner):
            assert node.group("delegation").self_contact() == node.wcl.self_contact()


# sha256 over the outermost RSA-wrapped session block, the body nonce (data
# onions) and the next 64 bits of the provider's RNG, per path length 1-5,
# recorded with the provider below.  The wrapped block is a function of
# every RNG draw before it and of no pickled byte.  Re-recorded once when
# RSA padding came to be drawn in bulk and Miller-Rabin witnesses round by
# round: the draws the builders make themselves kept their order.
DRAW_ORDER_DIGESTS = {
    "onion": [
        "0fd5dc826b849e75", "bb5c417e4f6d49e0", "d9207b56c7e7cf86",
        "2eebab3af772deac", "d6931cd025d611a0",
    ],
    "setup": [
        "5afc23b0dd708688", "7b61c3bcba1eb16e", "9b4cff16a3ea75f8",
        "7dfb799544ed1d47", "4eed3f393043ba3c",
    ],
}


def _seeded_path(hops: int):
    rng = random.Random(2024)
    provider = RealCryptoProvider(rng, key_bits=384, use_aes=False)
    keypairs = [provider.generate_keypair() for _ in range(hops)]
    path = [
        HopSpec(
            node_id=10 + i, public_key=pair.public,
            public_endpoint=Endpoint(f"pub-{i}", 7000 + i) if i else None,
        )
        for i, pair in enumerate(keypairs)
    ]
    return rng, provider, keypairs, path


def _digest(rng: random.Random, *parts: bytes) -> str:
    tail = rng.getrandbits(64).to_bytes(8, "big")
    return hashlib.sha256(b"".join(parts) + tail).hexdigest()[:16]


def onion_digest(hops: int) -> str:
    rng, provider, _keypairs, path = _seeded_path(hops)
    packet = build_onion(provider, path, {"n": hops}, 512)
    return _digest(rng, packet.header.blob[0], packet.body.blob[0])


def _circuit_hops(count: int) -> list[CircuitHop]:
    return [
        CircuitHop(
            circuit_id=100 + i, key=bytes([i]) * 16,
            next_circuit_id=101 + i if i < count - 1 else None, lifetime=600.0,
        )
        for i in range(count)
    ]


def setup_digest(hops: int) -> str:
    rng, provider, _keypairs, path = _seeded_path(hops)
    packet = build_circuit_setup(provider, path, _circuit_hops(hops))
    return _digest(rng, packet.header.blob[0])


class TestOnionLayering:
    @pytest.mark.parametrize("hops", range(1, 6))
    def test_builds_draw_in_the_recorded_order(self, hops):
        assert onion_digest(hops) == DRAW_ORDER_DIGESTS["onion"][hops - 1]
        assert setup_digest(hops) == DRAW_ORDER_DIGESTS["setup"][hops - 1]

    @pytest.mark.parametrize("hops", range(1, 6))
    def test_both_families_name_the_same_next_hops(self, hops):
        _rng, provider, keypairs, path = _seeded_path(hops)
        installs = _circuit_hops(hops)
        for packet in (
            build_onion(provider, path, "content", 64),
            build_circuit_setup(provider, path, installs),
        ):
            assert packet.header.size_bytes == hops * sizes.onion_layer_overhead
            for index, keypair in enumerate(keypairs):
                layer, packet = peel(provider, keypair, packet)
                if index == hops - 1:
                    assert layer.next_hop is None and layer.inner is None
                    assert packet is None
                else:
                    following = path[index + 1]
                    assert layer.next_hop.node_id == following.node_id
                    assert layer.next_hop.public_endpoint == following.public_endpoint
                if hasattr(layer, "hop"):
                    assert layer.hop is not None and layer.hop == installs[index]
                else:  # only the destination's layer carries the content key
                    assert (layer.key is not None) == (index == hops - 1)


def _measured_group_sha() -> str:
    """A ``measured``-mode world whose members run > 127 view exchanges, so
    a process-wide exchange id would outgrow a one-byte varint."""
    whisper = replace(WhisperConfig(), ppss=replace(PpssConfig(), cycle_time=4.0))
    world = World(
        WorldConfig(seed=5, telemetry_enabled=True, wire_mode="measured", whisper=whisper)
    )
    world.populate(40)
    world.start_all()
    world.run(30.0)
    group = world.public_nodes()[0].create_group("identity")
    invite = group.invite()
    for node in world.natted_nodes()[:6]:
        node.join_group(invite)
    world.run(90.0)
    members = [n.groups["identity"] for n in world.alive_nodes() if "identity" in n.groups]
    assert sum(ppss.stats.exchanges_started for ppss in members) > 127
    return hashlib.sha256(world.telemetry.export_jsonl().encode("utf-8")).hexdigest()


def test_ids_on_the_wire_are_instance_scoped():
    # Exchange ids and accreditation nonces travel as varints and
    # ``measured`` mode sizes a frame by its encoded length: a world's trace
    # must not depend on how many exchanges the process ran before it.
    assert _measured_group_sha() == _measured_group_sha()


if __name__ == "__main__":  # re-record DRAW_ORDER_DIGESTS
    print("onion", [onion_digest(n) for n in range(1, 6)])
    print("setup", [setup_digest(n) for n in range(1, 6)])
