"""Circuit-mode WCL: layered crypto, lifecycle edges, and the bugfix sweep.

Covers the persistent-circuit path (amortized RSA) end to end plus the
regression cases called out for this change: provider-scoped trace ids,
one mix-batch flush per pool at its boundary, and the destination
delivery delay including the body decrypt.
"""

from __future__ import annotations

import functools
import pickle
import random
from dataclasses import replace

import pytest

from repro.core.contact import Gateway, PrivateContact
from repro.core.node import WhisperConfig
from repro.core.onion import (
    CircuitFrame,
    CircuitHop,
    HopSpec,
    build_circuit_setup,
    build_onion,
    peel,
)
from repro.crypto.aes import ctr_transform
from repro.crypto.costmodel import CpuAccountant
from repro.crypto.provider import (
    CryptoError,
    EncryptedPayload,
    LayeredPayload,
    RealCryptoProvider,
    Sealed,
    SimCryptoProvider,
)
from repro.crypto.stream import stream_transform
from repro.core.wcl import _RelayCircuit
from repro.harness import World, WorldConfig
from repro.nat.types import NatType
from repro.net.address import NodeKind


@pytest.fixture(params=["real-aes", "real-stream", "sim"])
def provider(request):
    rng = random.Random(17)
    if request.param == "real-aes":
        return RealCryptoProvider(rng, key_bits=512, use_aes=True)
    if request.param == "real-stream":
        return RealCryptoProvider(rng, key_bits=512, use_aes=False)
    return SimCryptoProvider(rng)


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


# ---------------------------------------------------------------------------
# layered symmetric crypto (the circuit data path)
# ---------------------------------------------------------------------------
class TestLayeredPayload:
    def test_wrap_unwrap_roundtrip(self, provider):
        keys = [provider.new_symmetric_key() for _ in range(3)]
        body = provider.wrap_layers(keys, {"msg": "secret"}, 2048)
        assert isinstance(body, LayeredPayload)
        assert len(body.auths) == 3
        mid = provider.unwrap_layer(keys[0], body)
        assert isinstance(mid, LayeredPayload)
        assert len(mid.auths) == 2
        inner = provider.unwrap_layer(keys[1], mid)
        content = provider.unwrap_layer(keys[2], inner)
        assert content == {"msg": "secret"}

    def test_wrong_key_raises_at_every_layer(self, provider):
        keys = [provider.new_symmetric_key() for _ in range(3)]
        wrong = provider.new_symmetric_key()
        body = provider.wrap_layers(keys, "x", 100)
        with pytest.raises(CryptoError):
            provider.unwrap_layer(wrong, body)
        mid = provider.unwrap_layer(keys[0], body)
        with pytest.raises(CryptoError):
            provider.unwrap_layer(wrong, mid)

    def test_out_of_order_key_raises(self, provider):
        keys = [provider.new_symmetric_key() for _ in range(3)]
        body = provider.wrap_layers(keys, "x", 100)
        with pytest.raises(CryptoError):
            provider.unwrap_layer(keys[1], body)

    def test_single_layer(self, provider):
        keys = [provider.new_symmetric_key()]
        body = provider.wrap_layers(keys, [1, 2, 3], 50)
        assert provider.unwrap_layer(keys[0], body) == [1, 2, 3]

    def test_empty_keys_rejected(self, provider):
        with pytest.raises(ValueError):
            provider.wrap_layers([], "x", 10)

    def test_size_bytes_does_not_shrink(self, provider):
        keys = [provider.new_symmetric_key() for _ in range(3)]
        body = provider.wrap_layers(keys, "payload", 4096)
        mid = provider.unwrap_layer(keys[0], body)
        assert mid.size_bytes == body.size_bytes

    def test_charges_aes_not_rsa(self, provider):
        keys = [provider.new_symmetric_key() for _ in range(3)]
        before = provider.accountant.node_total_ms(7, "rsa")
        body = provider.wrap_layers(keys, "x", 1024, node=7)
        provider.unwrap_layer(keys[0], body, node=7)
        assert provider.accountant.node_total_ms(7, "rsa") == before
        assert provider.accountant.node_total_ms(7, "aes") > 0


class TestWrapLayersMatchesSingleTransforms:
    """``wrap_layers`` is nothing but the bulk cipher applied per layer."""

    @pytest.mark.parametrize("use_aes", [True, False])
    @pytest.mark.parametrize("n_keys", [1, 2, 3, 4, 5])
    def test_equals_layer_by_layer_transform(self, use_aes, n_keys):
        provider = RealCryptoProvider(random.Random(3), key_bits=512, use_aes=use_aes)
        transform = ctr_transform if use_aes else stream_transform
        keys = [provider.new_symmetric_key() for _ in range(n_keys)]
        content = {"seq": n_keys, "pad": "x" * 333}
        body = provider.wrap_layers(keys, content, 0)
        nonces, outermost = body.blob
        assert len(nonces) == len(body.auths) == n_keys
        # Reference: the transforms innermost-first, one at a time.
        expected = pickle.dumps(content)
        for key, nonce in zip(reversed(keys), reversed(nonces)):
            expected = transform(key, nonce, expected)
        assert outermost == expected
        # Every hop authenticates the ciphertext it receives and strips
        # exactly its own layer.
        layer = body
        for index, key in enumerate(keys[:-1]):
            layer = provider.unwrap_layer(key, layer)
            _nonces, ciphertext = layer.blob
            assert transform(key, nonces[index], expected) == ciphertext
            expected = ciphertext
        assert provider.unwrap_layer(keys[-1], layer) == content

    def test_empty_content_round_trips(self, provider):
        keys = [provider.new_symmetric_key() for _ in range(3)]
        layer = provider.wrap_layers(keys, b"", 0)
        for key in keys:
            layer = provider.unwrap_layer(key, layer)
        assert layer == b""

    @pytest.mark.parametrize("transform", [ctr_transform, stream_transform])
    def test_empty_body_transform(self, transform):
        assert transform(b"k" * 16, b"n" * 8, b"") == b""


# ---------------------------------------------------------------------------
# circuit setup onion
# ---------------------------------------------------------------------------
class TestCircuitSetup:
    def make(self, provider, n=3):
        keypairs = [provider.generate_keypair() for _ in range(n)]
        specs = [
            HopSpec(node_id=200 + i, public_key=p.public) for i, p in enumerate(keypairs)
        ]
        labels = [1000 + i for i in range(n)]
        hops = [
            CircuitHop(
                circuit_id=labels[i],
                key=provider.new_symmetric_key(),
                next_circuit_id=labels[i + 1] if i + 1 < n else None,
                lifetime=600.0,
            )
            for i in range(n)
        ]
        return keypairs, specs, hops

    def test_full_path_peeling(self, provider):
        keypairs, specs, hops = self.make(provider)
        packet = build_circuit_setup(provider, specs, hops)
        layer, fwd = peel(provider, keypairs[0], packet)
        assert layer.hop == hops[0]
        assert layer.next_hop.node_id == 201
        layer2, fwd2 = peel(provider, keypairs[1], fwd)
        assert layer2.hop == hops[1]
        layer3, fwd3 = peel(provider, keypairs[2], fwd2)
        assert layer3.hop == hops[2]
        assert layer3.next_hop is None and fwd3 is None

    def test_wrong_hop_cannot_peel(self, provider):
        keypairs, specs, hops = self.make(provider)
        packet = build_circuit_setup(provider, specs, hops)
        with pytest.raises(CryptoError):
            peel(provider, keypairs[1], packet)

    def test_path_hop_count_must_match(self, provider):
        keypairs, specs, hops = self.make(provider)
        with pytest.raises(ValueError):
            build_circuit_setup(provider, specs, hops[:-1])


# ---------------------------------------------------------------------------
# satellite regressions
# ---------------------------------------------------------------------------
class TestProviderScopedTraceIds:
    def test_two_providers_draw_identical_sequences(self):
        """Two Worlds in one process must number onions like two processes."""
        a = SimCryptoProvider(random.Random(1))
        b = SimCryptoProvider(random.Random(1))
        path_a = [HopSpec(node_id=1, public_key=a.generate_keypair().public)]
        path_b = [HopSpec(node_id=1, public_key=b.generate_keypair().public)]
        ids_a = [build_onion(a, path_a, "x", 10).trace_id for _ in range(3)]
        ids_b = [build_onion(b, path_b, "x", 10).trace_id for _ in range(3)]
        assert ids_a == ids_b == [1, 2, 3]

    def test_two_worlds_in_one_process_match(self):
        def first_trace(world: World) -> int:
            src, dst = world.natted_nodes()[0], world.natted_nodes()[1]
            attempt = src.wcl.send_to(contact_for(dst), "probe", 64)
            assert attempt is not None
            return attempt.trace_id

        w1 = World(WorldConfig(seed=23))
        w1.populate(30)
        w1.start_all()
        w1.run(120.0)
        t1 = first_trace(w1)
        # The second World starts after the first consumed its ids; with a
        # process-global counter t2 would continue where t1 left off.
        w2 = World(WorldConfig(seed=23))
        w2.populate(30)
        w2.start_all()
        w2.run(120.0)
        t2 = first_trace(w2)
        assert t1 == t2


class TestMixBatchBoundary:
    def test_pool_drains_at_its_boundary_only(self):
        """One flush per pool, at the next multiple of the interval."""
        world = World(WorldConfig(seed=5))
        world.populate(4)
        node = world.nodes[1]
        wcl = node.wcl
        from repro.core.onion import NextHop

        hop = NextHop(node_id=2)

        class FakePacket:
            def __init__(self, trace_id):
                self.trace_id = trace_id
                self.wire_size = 16

        wcl.enable_mix_batching(100.0)
        world.run(0.5)
        wcl._hold_for_mixing(hop, FakePacket(2))  # boundary at t=100
        wcl._hold_for_mixing(hop, FakePacket(1))  # joins the same pool
        world.run(50.0)
        assert len(wcl._mix_pool) == 2
        world.run(100.0)
        assert wcl._mix_pool == []
        wcl._hold_for_mixing(hop, FakePacket(3))  # a new pool, boundary t=200
        assert len(wcl._mix_pool) == 1


class TestDeliveryDelayIncludesBodyDecrypt:
    def test_upcall_delay_is_peel_plus_body(self):
        """The destination's receive upcall fires after header + body CPU."""
        world = World(WorldConfig(seed=9))
        world.populate(20)
        world.start_all()
        world.run(120.0)
        src, dst = world.natted_nodes()[0], world.natted_nodes()[1]
        provider = world.provider

        path_specs = None
        packet = None
        # Build an onion terminating at dst directly (unit-style: we invoke
        # handle_onion ourselves, so no mixes are needed on the path).
        path_specs = [HopSpec(node_id=dst.node_id, public_key=dst.wcl.public_key)]
        packet = build_onion(provider, path_specs, {"probe": 1}, 1024)

        arrivals = []
        dst.wcl.set_receive_upcall(lambda c, s: arrivals.append(world.sim.now))
        charged_before = provider.accountant.node_total_ms(dst.node_id)
        t0 = world.sim.now
        dst.wcl.handle_onion(packet)
        charged_ms = provider.accountant.node_total_ms(dst.node_id) - charged_before
        assert charged_ms > 0  # rsa peel + aes body both hit the accountant
        world.run(30.0)
        assert len(arrivals) == 1
        delay_s = arrivals[0] - t0
        # The scheduled delay must equal *everything* handle_onion charged
        # (header peel + body decrypt), not just the header peel.
        assert delay_s == pytest.approx(charged_ms / 1000.0, rel=1e-9)


# ---------------------------------------------------------------------------
# the receive funnel: whatever does not open is one ``misrouted`` count
# ---------------------------------------------------------------------------
_HOP = CircuitHop(circuit_id=7, key=b"k" * 16, next_circuit_id=None, lifetime=60.0)


def _onion(world, node, **changes):
    path = [HopSpec(node.node_id, node.wcl.public_key)]
    return replace(build_onion(world.provider, path, "x", 64), **changes)


def _setup(world, node, **changes):
    path = [HopSpec(node.node_id, node.wcl.public_key)]
    return replace(build_circuit_setup(world.provider, path, [_HOP]), **changes)


def _frame(world, node, body=None):
    """A frame on a circuit ``node`` terminates, under another key by default."""
    key = world.provider.new_symmetric_key()
    node.wcl._relay[7] = _RelayCircuit(
        key=key, next_hop=None, next_circuit_id=None, prev_peer=-1, expires_at=1e9,
    )
    if body is None:
        body = world.provider.wrap_layers([b"another key 16 b"], "x", 64)
    return CircuitFrame(circuit_id=7, body=body, trace_id=1)


def _sealed_for(node, blob):
    return Sealed(node.wcl.public_key.fingerprint, blob, 64)


# case -> (handler, packet builder taking (world, node, another node))
_UNOPENABLE = {
    "onion-other-key": ("handle_onion", lambda w, n, other: _onion(w, other)),
    "onion-header-blob-not-a-pair": (
        "handle_onion", lambda w, n, other: _onion(w, n, header=_sealed_for(n, 5))),
    "onion-body-blob-missing": (
        "handle_onion",
        lambda w, n, other: _onion(w, n, body=EncryptedPayload(None, b"t" * 32, 64))),
    "onion-body-auth-int": (
        "handle_onion",
        lambda w, n, other: _onion(w, n, body=EncryptedPayload((b"n" * 8, b"c"), 3, 64))),
    "setup-other-key": ("handle_circuit_setup", lambda w, n, other: _setup(w, other)),
    "setup-header-blob-not-a-pair": (
        "handle_circuit_setup",
        lambda w, n, other: _setup(w, n, header=_sealed_for(n, (b"w",)))),
    "frame-other-key": ("handle_circuit_data", lambda w, n, other: _frame(w, n)),
    "frame-no-nonce": (
        "handle_circuit_data",
        lambda w, n, other: _frame(w, n, LayeredPayload(((), b"x"), (b"t",), 64))),
    "frame-auth-int": (
        "handle_circuit_data",
        lambda w, n, other: _frame(w, n, LayeredPayload(((b"n" * 8,), b"x"), (5,), 64))),
    "frame-auths-not-a-tuple": (
        "handle_circuit_data",
        lambda w, n, other: _frame(w, n, LayeredPayload(((b"n" * 8,), b"x"), 5, 64))),
}
# The sim provider's sealed blob *is* the plaintext: it has no shape to get
# wrong, so a header that names our key opens whatever it holds.
_REAL_ONLY = {"onion-header-blob-not-a-pair", "setup-header-blob-not-a-pair"}


@functools.lru_cache(maxsize=None)
def _endpoints(provider):
    world = World(WorldConfig(
        seed=5, provider=provider, real_key_bits=512, real_use_aes=False,
    ))
    return world, world.add_node(NatType.OPEN), world.add_node(NatType.OPEN)


class TestReceiveFunnel:
    @pytest.mark.parametrize("provider,case", [
        (provider, case) for case in _UNOPENABLE for provider in ("real", "sim")
        if provider == "real" or case not in _REAL_ONLY
    ])
    def test_unopenable_packet_is_one_misrouted_count(self, provider, case):
        handler, build = _UNOPENABLE[case]
        world, node, other = _endpoints(provider)
        packet = build(world, node, other)
        before, pending = node.wcl.stats.misrouted, world.sim.pending()
        args = (other.node_id, packet) if handler == "handle_circuit_setup" else (packet,)
        getattr(node.wcl, handler)(*args)  # raises nothing
        assert node.wcl.stats.misrouted == before + 1
        assert world.sim.pending() == pending  # and schedules nothing
        assert node.wcl.stats.delivered == node.wcl.stats.forwarded == 0


# ---------------------------------------------------------------------------
# circuit lifecycle over the full stack
# ---------------------------------------------------------------------------
@pytest.fixture()
def circuit_world():
    w = World(WorldConfig(seed=47))
    w.populate(60)
    w.start_all()
    w.run(150.0)
    return w


class TestCircuitLifecycle:
    def send(self, world, src, dst, payload, received):
        dst.wcl.set_receive_upcall(lambda c, s: received.append(c))
        attempt = src.wcl.send_to(contact_for(dst), payload, 1024)
        world.run(30.0)
        return attempt

    def test_second_message_rides_the_circuit(self, circuit_world):
        w = circuit_world
        src, dst = w.natted_nodes()[0], w.natted_nodes()[1]
        src.wcl.enable_circuits()
        received = []
        a1 = self.send(w, src, dst, {"m": 1}, received)
        assert a1 is not None
        assert src.wcl.stats.circuit_setups == 1
        assert src.wcl.stats.circuit_sent == 0  # first went per-message
        a2 = self.send(w, src, dst, {"m": 2}, received)
        assert a2 is not None
        assert received == [{"m": 1}, {"m": 2}]
        assert src.wcl.stats.circuit_sent == 1
        assert dst.wcl.stats.circuit_delivered == 1
        forwarded = sum(n.wcl.stats.circuit_forwarded for n in w.alive_nodes())
        assert forwarded >= 2  # both mixes relayed the frame

    def test_circuit_frames_charge_no_rsa(self, circuit_world):
        w = circuit_world
        src, dst = w.natted_nodes()[2], w.natted_nodes()[3]
        src.wcl.enable_circuits()
        received = []
        self.send(w, src, dst, "warmup", received)
        circuit = src.wcl._circuits[dst.node_id]
        assert circuit.established
        acct = w.provider.accountant
        rsa_before = {
            n: acct.node_total_ms(n, "rsa")
            for n in (src.node_id, circuit.first_mix, circuit.second_mix, dst.node_id)
        }
        self.send(w, src, dst, "amortized", received)
        assert received[-1] == "amortized"
        for n, before in rsa_before.items():
            assert acct.node_total_ms(n, "rsa") == before

    def test_setup_loss_keeps_per_message_fallback(self, circuit_world):
        w = circuit_world
        src, dst = w.natted_nodes()[4], w.natted_nodes()[5]
        received = []
        dst.wcl.set_receive_upcall(lambda c, s: received.append(c))
        src.wcl.enable_circuits()
        # Swallow the setup packet: the handshake never completes.
        original = src.wcl.cm.send_via_session

        def dropping(node_id, kind, payload, size, category):
            if kind == "wcl.circuit_setup":
                return True  # lost in transit
            return original(node_id, kind, payload, size, category)

        src.wcl.cm.send_via_session = dropping
        try:
            for i in range(3):
                attempt = src.wcl.send_to(contact_for(dst), {"i": i}, 512)
                assert attempt is not None
                w.run(30.0)
        finally:
            src.wcl.cm.send_via_session = original
        # Every message fell back to the per-message onion path.
        assert received == [{"i": 0}, {"i": 1}, {"i": 2}]
        assert src.wcl.stats.circuit_sent == 0
        circuit = src.wcl._circuits[dst.node_id]
        assert not circuit.established

    def test_expiry_mid_stream_rekeys(self, circuit_world, monkeypatch):
        w = circuit_world
        src, dst = w.natted_nodes()[6], w.natted_nodes()[7]
        monkeypatch.setattr("repro.core.wcl.CIRCUIT_LIFETIME", 40.0)
        src.wcl.enable_circuits()
        received = []
        self.send(w, src, dst, "establish", received)
        old = src.wcl._circuits[dst.node_id]
        assert old.established
        self.send(w, src, dst, "on-circuit", received)
        assert src.wcl.stats.circuit_sent == 1
        w.run(60.0)  # past the lifetime: the circuit is now stale
        self.send(w, src, dst, "after-expiry", received)
        assert src.wcl.stats.circuit_rekeys == 1
        assert received[-1] == "after-expiry"  # went per-message, still arrived
        fresh = src.wcl._circuits[dst.node_id]
        assert fresh.circuit_id != old.circuit_id
        assert fresh.keys != old.keys
        self.send(w, src, dst, "on-new-circuit", received)
        assert received[-1] == "on-new-circuit"
        assert src.wcl.stats.circuit_sent == 2

    def test_misrouted_frame_counts(self, circuit_world):
        w = circuit_world
        node = w.natted_nodes()[8]
        provider = w.provider
        keys = [provider.new_symmetric_key()]
        body = provider.wrap_layers(keys, "stray", 64)
        before = node.wcl.stats.misrouted
        node.wcl.handle_circuit_data(
            CircuitFrame(circuit_id=999_999, body=body, trace_id=1)
        )
        assert node.wcl.stats.misrouted == before + 1

    def test_excluded_pair_tears_down_circuit(self, circuit_world):
        w = circuit_world
        src, dst = w.natted_nodes()[9], w.natted_nodes()[0]
        src.wcl.enable_circuits()
        received = []
        self.send(w, src, dst, "establish", received)
        circuit = src.wcl._circuits[dst.node_id]
        assert circuit.established
        # A retry excluding the circuit's pair implicates the path: the
        # circuit must be abandoned, the message re-routed per-message.
        attempt = src.wcl.send_to(
            contact_for(dst), "retry", 256,
            exclude={(circuit.first_mix, circuit.second_mix)},
        )
        assert attempt is not None
        assert (attempt.first_mix, attempt.second_mix) != (
            circuit.first_mix, circuit.second_mix
        )
        assert dst.node_id not in src.wcl._circuits
        w.run(30.0)
        assert received[-1] == "retry"


class TestCircuitModeOffIsInert:
    def test_default_config_runs_no_circuit_code(self):
        assert WhisperConfig().circuit_mode is False
        w = World(WorldConfig(seed=13, telemetry_enabled=True))
        w.populate(30)
        w.start_all()
        w.run(200.0)
        src, dst = w.natted_nodes()[0], w.natted_nodes()[1]
        received = []
        dst.wcl.set_receive_upcall(lambda c, s: received.append(c))
        assert src.wcl.send_to(contact_for(dst), "plain", 128) is not None
        w.run(30.0)
        assert received == ["plain"]
        for n in w.alive_nodes():
            stats = n.wcl.stats
            assert stats.circuit_setups == 0
            assert stats.circuit_sent == 0
            assert stats.circuit_forwarded == 0
            assert stats.circuit_delivered == 0
            assert not n.wcl._circuits and not n.wcl._relay
        assert '"wcl.circuit' not in w.telemetry.export_jsonl()

    def test_circuit_message_charges_under_half_an_onion(self):
        """The acceptance bar: circuit mode >= 2x cheaper per forward.

        One message over S->A->B->D under a jitter-free accountant: the
        per-message path pays build_onion + three peels + the body
        decrypt, the circuit path one wrap_layers + three unwrap_layers.
        """
        accountant = CpuAccountant()
        provider = RealCryptoProvider(
            random.Random(1012), accountant, key_bits=512, use_aes=False
        )
        keypairs = [provider.generate_keypair() for _ in range(3)]
        path = [
            HopSpec(node_id=101 + i, public_key=pair.public)
            for i, pair in enumerate(keypairs)
        ]
        content = {"seq": 0, "body": "x" * 512}

        packet = build_onion(provider, path, content, 1024, node=100)
        body = packet.body
        for hop, pair in enumerate(keypairs):
            layer, packet = peel(provider, pair, packet, node=101 + hop)
        assert provider.decrypt_payload(layer.key, body, node=103) == content
        onion_ms = sum(accountant.node_total_ms(n) for n in (100, 101, 102, 103))

        keys = [provider.new_symmetric_key() for _ in path]
        layered = provider.wrap_layers(keys, content, 1024, node=200)
        for hop, key in enumerate(keys):
            layered = provider.unwrap_layer(key, layered, node=201 + hop)
        assert layered == content
        circuit_ms = sum(accountant.node_total_ms(n) for n in (200, 201, 202, 203))

        assert 0 < circuit_ms <= onion_ms / 2

    def test_config_flag_enables_fleet_wide(self):
        w = World(
            WorldConfig(
                seed=13,
                whisper=WhisperConfig(circuit_mode=True),
            )
        )
        w.populate(30)
        w.start_all()
        w.run(200.0)
        for n in w.alive_nodes():
            assert n.wcl.circuit_mode
