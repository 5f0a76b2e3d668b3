"""Unit and property tests for onion construction/peeling (Fig. 2)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.onion import HopSpec, build_onion, peel
from repro.crypto.provider import CryptoError, RealCryptoProvider, SimCryptoProvider
from repro.net.address import Endpoint


@pytest.fixture(params=["real", "sim"])
def provider(request):
    rng = random.Random(11)
    if request.param == "real":
        return RealCryptoProvider(rng, key_bits=512)
    return SimCryptoProvider(rng)


def make_path(provider, n_mixes=2):
    """[A, ..., D] hop specs with fresh keypairs; returns (specs, keypairs)."""
    keypairs = [provider.generate_keypair() for _ in range(n_mixes + 1)]
    specs = []
    for i, pair in enumerate(keypairs):
        endpoint = Endpoint(f"pub-{i}", 7000) if i == n_mixes - 1 else None
        specs.append(
            HopSpec(node_id=100 + i, public_key=pair.public, public_endpoint=endpoint)
        )
    return specs, keypairs


class TestOnionRoundtrip:
    def test_full_path_peeling(self, provider):
        specs, keypairs = make_path(provider)
        packet = build_onion(provider, specs, {"msg": "secret"}, 2048)
        # Mix A peels: learns only the next hop B.
        layer_a, fwd = peel(provider, keypairs[0], packet)
        assert layer_a.next_hop.node_id == 101
        assert layer_a.key is None
        assert fwd is not None
        # Mix B peels: learns only D.
        layer_b, fwd2 = peel(provider, keypairs[1], fwd)
        assert layer_b.next_hop.node_id == 102
        assert fwd2 is not None
        # D peels: sees bottom (next is None) and recovers k, then the body.
        layer_d, fwd3 = peel(provider, keypairs[2], fwd2)
        assert layer_d.next_hop is None
        assert fwd3 is None
        content = provider.decrypt_payload(layer_d.key, packet.body)
        assert content == {"msg": "secret"}

    def test_wrong_mix_cannot_peel(self, provider):
        specs, keypairs = make_path(provider)
        packet = build_onion(provider, specs, "x", 100)
        # B tries to peel A's layer.
        with pytest.raises(CryptoError):
            peel(provider, keypairs[1], packet)

    def test_mix_cannot_read_body(self, provider):
        """Relays/mixes never hold the symmetric key k."""
        specs, keypairs = make_path(provider)
        packet = build_onion(provider, specs, "top secret", 100)
        layer_a, _ = peel(provider, keypairs[0], packet)
        assert layer_a.key is None
        layer_b, _ = peel(provider, keypairs[1], peel(provider, keypairs[0], packet)[1])
        assert layer_b.key is None

    def test_header_shrinks_at_each_hop(self, provider):
        specs, keypairs = make_path(provider)
        packet = build_onion(provider, specs, "x", 100)
        _, fwd = peel(provider, keypairs[0], packet)
        assert fwd.header.size_bytes < packet.header.size_bytes

    def test_single_hop_path(self, provider):
        """Degenerate direct-to-destination onion (no mixes)."""
        pair = provider.generate_keypair()
        spec = HopSpec(node_id=1, public_key=pair.public)
        packet = build_onion(provider, [spec], "hi", 50)
        layer, fwd = peel(provider, pair, packet)
        assert fwd is None
        assert provider.decrypt_payload(layer.key, packet.body) == "hi"

    def test_empty_path_rejected(self, provider):
        with pytest.raises(ValueError):
            build_onion(provider, [], "x", 10)

    def test_longer_paths_supported(self, provider):
        """The colluding-attacker extension: f mixes, f > 2."""
        specs, keypairs = make_path(provider, n_mixes=4)
        packet = build_onion(provider, specs, "deep", 100)
        current = packet
        for i in range(4):
            layer, current = peel(provider, keypairs[i], current)
            assert layer.next_hop is not None
        layer, last = peel(provider, keypairs[4], current)
        assert last is None
        assert provider.decrypt_payload(layer.key, packet.body) == "deep"

    def test_next_to_last_hop_carries_endpoint(self, provider):
        specs, keypairs = make_path(provider)
        packet = build_onion(provider, specs, "x", 10)
        layer_a, _ = peel(provider, keypairs[0], packet)
        assert layer_a.next_hop.public_endpoint is not None

    def test_trace_ids_unique(self, provider):
        specs, _ = make_path(provider)
        p1 = build_onion(provider, specs, "x", 10)
        p2 = build_onion(provider, specs, "x", 10)
        assert p1.trace_id != p2.trace_id

    @settings(max_examples=15, deadline=None)
    @given(
        content=st.one_of(
            st.text(max_size=50),
            st.dictionaries(st.text(max_size=5), st.integers(), max_size=5),
            st.lists(st.integers(), max_size=20),
        ),
        n_mixes=st.integers(1, 4),
    )
    def test_roundtrip_property(self, content, n_mixes):
        provider = SimCryptoProvider(random.Random(3))
        specs, keypairs = make_path(provider, n_mixes=n_mixes)
        packet = build_onion(provider, specs, content, 256)
        current = packet
        for i in range(n_mixes):
            layer, current = peel(provider, keypairs[i], current)
            assert layer.next_hop.node_id == specs[i + 1].node_id
        layer, end = peel(provider, keypairs[-1], current)
        assert end is None
        assert provider.decrypt_payload(layer.key, packet.body) == content


class TestOnionCostAccounting:
    def test_build_charges_encrypts_per_layer(self):
        provider = SimCryptoProvider(random.Random(3))
        specs, _ = make_path(provider)
        build_onion(provider, specs, "x", 1024, node=7)
        breakdown = provider.accountant.op_breakdown(7)
        assert breakdown["rsa_encrypt"].count == 3  # one per layer
        assert breakdown["aes"].count >= 1  # body encryption

    def test_peel_charges_one_decrypt(self):
        provider = SimCryptoProvider(random.Random(3))
        specs, keypairs = make_path(provider)
        packet = build_onion(provider, specs, "x", 1024)
        peel(provider, keypairs[0], packet, node=9)
        assert provider.accountant.op_breakdown(9)["rsa_decrypt"].count == 1
