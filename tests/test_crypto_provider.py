"""Tests for the crypto provider interface (real + simulated) and cost model."""

import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto import (
    CpuAccountant,
    CryptoError,
    RealCryptoProvider,
    SimCryptoProvider,
)
from repro.crypto.costmodel import RSA_DECRYPT_MS, aes_ms
from repro.crypto.provider import EncryptedPayload, LayeredPayload, Sealed
from repro.crypto.stream import tag
from repro.wire.codec import decode_value, encode_value


@pytest.fixture(params=["real", "sim"])
def provider(request):
    rng = random.Random(7)
    if request.param == "real":
        return RealCryptoProvider(rng, key_bits=512)
    return SimCryptoProvider(rng)


class TestProviderContract:
    """Behavioural contract both providers must honour identically."""

    def test_seal_open_roundtrip(self, provider):
        pair = provider.generate_keypair()
        obj = {"next": 42, "key": b"abc", "nested": [1, 2, 3]}
        sealed = provider.seal(pair.public, obj)
        assert provider.open(pair, sealed) == obj

    def test_open_with_wrong_key_raises(self, provider):
        pair = provider.generate_keypair()
        other = provider.generate_keypair()
        sealed = provider.seal(pair.public, "secret")
        with pytest.raises(CryptoError):
            provider.open(other, sealed)

    def test_sealed_box_has_positive_size(self, provider):
        pair = provider.generate_keypair()
        sealed = provider.seal(pair.public, "payload")
        assert sealed.size_bytes > 0

    def test_payload_roundtrip(self, provider):
        key = provider.new_symmetric_key()
        obj = {"entries": list(range(20))}
        enc = provider.encrypt_payload(key, obj, size_hint=2048)
        assert provider.decrypt_payload(key, enc) == obj

    def test_payload_wrong_key_raises(self, provider):
        key = provider.new_symmetric_key()
        other = provider.new_symmetric_key()
        enc = provider.encrypt_payload(key, "body", size_hint=128)
        with pytest.raises(CryptoError):
            provider.decrypt_payload(other, enc)

    def test_envelope_never_contains_key_bytes(self, provider):
        """Regression: the sim provider once stored the raw symmetric key as
        the envelope's ``auth`` field, leaking it to anyone holding the
        envelope.  The envelope's wire bytes may not contain the key."""
        key = provider.new_symmetric_key()
        enc = provider.encrypt_payload(key, {"m": "hello"}, size_hint=256)
        assert enc.auth != key
        assert key not in encode_value(enc)
        assert provider.decrypt_payload(key, enc) == {"m": "hello"}

    def test_sign_verify(self, provider):
        pair = provider.generate_keypair()
        signature = provider.sign(pair, ("passport", 17))
        assert provider.verify(pair.public, ("passport", 17), signature)

    def test_verify_rejects_tampered_object(self, provider):
        pair = provider.generate_keypair()
        signature = provider.sign(pair, ("passport", 17))
        assert not provider.verify(pair.public, ("passport", 18), signature)

    def test_verify_rejects_wrong_key(self, provider):
        pair = provider.generate_keypair()
        other = provider.generate_keypair()
        signature = provider.sign(pair, "obj")
        assert not provider.verify(other.public, "obj", signature)

    def test_keypairs_are_distinct(self, provider):
        a = provider.generate_keypair()
        b = provider.generate_keypair()
        assert a.public.fingerprint != b.public.fingerprint

    def test_symmetric_keys_are_random(self, provider):
        assert provider.new_symmetric_key() != provider.new_symmetric_key()


# Whatever a frame that passes ``decode_message`` can put in an envelope's
# untyped fields: any wire value, weighted towards the shapes the providers
# write (byte pairs, a nonce tuple beside a ciphertext, MAC tuples).
_SCALARS = (
    st.none() | st.booleans() | st.integers(-(2**70), 2**70)
    | st.binary(max_size=24) | st.text(max_size=6)
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple),
    max_leaves=6,
)
# One 200-character string twice in one object: equal after a wire round
# trip, but no longer the same object.
_SHARED = "g" * 200
_BYTES_TUPLES = st.lists(st.binary(max_size=8), max_size=3).map(tuple)
_BLOBS = (
    _VALUES
    | st.tuples(st.binary(max_size=80), st.binary(max_size=40))
    | st.tuples(_BYTES_TUPLES, st.binary(max_size=40))
)
_AUTHS = _VALUES | _BYTES_TUPLES | st.lists(_SCALARS, max_size=3).map(tuple)
_SIZES = st.integers(0, 4096)


@pytest.fixture(scope="module")
def keyed_providers():
    providers = (
        RealCryptoProvider(random.Random(7), key_bits=512, use_aes=False),
        SimCryptoProvider(random.Random(7)),
    )
    return [(p, p.generate_keypair(), p.new_symmetric_key()) for p in providers]


def _attempt(operation, secret, envelope):
    try:
        operation(secret, envelope)
    except CryptoError:
        pass


class TestMalformedEnvelopes:
    """The provider boundary raises only :class:`CryptoError`."""

    @staticmethod
    def attempt(operation, secret, envelope):
        _attempt(operation, secret, decode_value(encode_value(envelope)))

    @settings(max_examples=150, deadline=None)
    @given(blob=_BLOBS, size=_SIZES)
    def test_open(self, keyed_providers, blob, size):
        for provider, pair, _key in keyed_providers:
            self.attempt(
                provider.open, pair, Sealed(pair.public.fingerprint, blob, size)
            )

    @settings(max_examples=150, deadline=None)
    @given(blob=_BLOBS, auth=_VALUES, size=_SIZES)
    def test_decrypt_payload(self, keyed_providers, blob, auth, size):
        for provider, _pair, key in keyed_providers:
            self.attempt(
                provider.decrypt_payload, key, EncryptedPayload(blob, auth, size)
            )

    @settings(max_examples=150, deadline=None)
    @given(blob=_BLOBS, auths=_AUTHS, size=_SIZES)
    def test_unwrap_layer(self, keyed_providers, blob, auths, size):
        for provider, _pair, key in keyed_providers:
            self.attempt(provider.unwrap_layer, key, LayeredPayload(blob, auths, size))


# Raw Python values as a caller could hand them over, never wire-decoded:
# bytes-likes, tuples of any arity and depth, mixed element types.
_RAW = st.recursive(
    _SCALARS | st.binary(max_size=64).map(bytearray),
    lambda inner: st.tuples(inner) | st.tuples(inner, inner)
    | st.tuples(inner, inner, inner) | st.lists(inner, max_size=3),
    max_leaves=8,
)


class TestForgedEnvelopes:
    """Arbitrary bytes or tuples reach the provider boundary either as
    envelope fields or as a body under a key check that passes (what a
    key holder can forge); both providers raise only CryptoError."""

    @settings(max_examples=150, deadline=None)
    @given(blob=_RAW, auth=_RAW, size=_SIZES)
    def test_raw_fields(self, keyed_providers, blob, auth, size):
        for provider, pair, key in keyed_providers:
            _attempt(provider.open, pair, Sealed(pair.public.fingerprint, blob, size))
            _attempt(provider.decrypt_payload, key, EncryptedPayload(blob, auth, size))
            _attempt(provider.unwrap_layer, key, LayeredPayload(blob, auth, size))

    @settings(max_examples=150, deadline=None)
    @given(plaintext=st.binary(max_size=64), nonce=st.binary(max_size=12),
           layers=st.integers(1, 3), size=_SIZES)
    def test_forged_bodies(self, keyed_providers, plaintext, nonce, layers, size):
        for provider, pair, key in keyed_providers:
            wrapped, session_key, session_nonce = provider._wrap_key(pair.public)
            sealed_body = provider._bulk(session_key, session_nonce, plaintext)
            _attempt(
                provider.open, pair,
                Sealed(pair.public.fingerprint, (wrapped, sealed_body), size),
            )
            body = provider._bulk(key, nonce, plaintext)
            _attempt(
                provider.decrypt_payload, key,
                EncryptedPayload((nonce, body), tag(key, nonce + body), size),
            )
            nonces = (nonce,) * layers
            auths = (tag(key, nonce + body),) * layers
            _attempt(
                provider.unwrap_layer, key, LayeredPayload((nonces, body), auths, size)
            )

    def test_a_pickled_body_runs_nothing(self, keyed_providers):
        """A key holder seals, MACs and layers a pickle whose loading has a
        side effect; every envelope checks out, the body does not decode,
        and nothing runs.  Codec bytes under the same envelopes open."""
        _TRIPPED.clear()
        forged = pickle.dumps(_Tripwire())
        for provider, pair, key in keyed_providers:
            for body, expected in ((forged, None), (encode_value("benign"), "benign")):
                wrapped, session_key, session_nonce = provider._wrap_key(pair.public)
                sealed = Sealed(
                    pair.public.fingerprint,
                    (wrapped, provider._bulk(session_key, session_nonce, body)), 256,
                )
                nonce = provider._nonce()
                ciphertext = provider._bulk(key, nonce, body)
                mac = tag(key, nonce + ciphertext)
                for operation, secret, envelope in (
                    (provider.open, pair, sealed),
                    (provider.decrypt_payload, key,
                     EncryptedPayload((nonce, ciphertext), mac, 256)),
                    (provider.unwrap_layer, key,
                     LayeredPayload(((nonce,), ciphertext), (mac,), 256)),
                ):
                    if expected is not None:
                        assert operation(secret, envelope) == expected
                        continue
                    with pytest.raises(CryptoError):
                        operation(secret, envelope)
                    assert _TRIPPED == []


_TRIPPED: list[str] = []


def _trip(label):
    _TRIPPED.append(label)


class _Tripwire:
    """Pickles to bytes whose loading calls :func:`_trip`."""

    def __reduce__(self):
        return (_trip, ("loaded",))


def _tweaked(signature):
    """The signature with its last byte (or its digest) altered."""
    if isinstance(signature, bytes):
        return signature[:-1] + bytes([signature[-1] ^ 1])
    kind, fingerprint, digest = signature
    return (kind, fingerprint, digest + b"x")


def _counting_checks(provider):
    """Wrap ``provider``'s own signature check; the list counts its runs."""
    runs = []
    check = provider._check

    def counted(*args):
        runs.append(args)
        return check(*args)

    provider._check = counted
    return runs


@pytest.fixture(scope="module")
def verify_providers():
    providers = (
        RealCryptoProvider(random.Random(7), key_bits=512, use_aes=False),
        SimCryptoProvider(random.Random(7)),
    )
    return [(p, p.generate_keypair(), p.generate_keypair()) for p in providers]


class TestVerifyCache:
    """A remembered success answers for its exact triple and nothing else."""

    @settings(max_examples=60, deadline=None)
    @given(obj=_VALUES, other=_VALUES, junk=_VALUES)
    @example(obj=1, other=True, junk=None)  # equal, but their tags differ
    def test_a_changed_triple_gets_the_uncached_answer(
        self, verify_providers, obj, other, junk
    ):
        for provider, pair, other_pair in verify_providers:
            signature = provider.sign(pair, obj)
            assert provider.verify(pair.public, obj, signature)
            uncached = type(provider)(random.Random(0))
            for triple in (
                (other_pair.public, obj, signature),
                (pair.public, other, signature),
                (pair.public, obj, _tweaked(signature)),
                (pair.public, obj, junk),
                (pair.public, obj, provider.sign(pair, other)),
            ):
                assert provider.verify(*triple) == uncached.verify(*triple)

    @settings(max_examples=30, deadline=None)
    @given(calls=st.lists(st.booleans(), min_size=1, max_size=12),
           seed=st.integers(0, 2**32))
    def test_every_call_charges_one_verify(self, calls, seed):
        """Hit or miss, a call charges ``rsa_verify`` with the same jitter
        draw as charging it directly."""
        for cls in (RealCryptoProvider, SimCryptoProvider):
            accountant = CpuAccountant(rng=random.Random(seed))
            provider = cls(random.Random(7), accountant)
            pair = provider.generate_keypair()
            signature = provider.sign(pair, "obj")
            accountant.reset()
            for genuine in calls:
                provider.verify(
                    pair.public, "obj", signature if genuine else b"bad", node=3
                )
            direct = CpuAccountant(rng=random.Random(seed))
            direct.rsa_sign(3)
            direct.reset()
            for _ in calls:
                direct.rsa_verify(3)
            assert accountant.op_breakdown(3)["rsa_verify"].count == len(calls)
            assert accountant.node_total_ms(3) == direct.node_total_ms(3)

    @settings(max_examples=40, deadline=None)
    @given(obj=_VALUES)
    @example(obj=("new_key", _SHARED, _SHARED, 3))
    def test_a_signature_survives_the_wire_round_trip(self, verify_providers, obj):
        """What a provider signs is the object's codec bytes, so a receiver
        that decoded the object and its signature off the wire verifies
        them -- however the sender's objects shared references."""
        for provider, pair, _other in verify_providers:
            received, signature = decode_value(
                encode_value((obj, provider.sign(pair, obj)))
            )
            fresh = type(provider)(random.Random(0))
            assert fresh.verify(pair.public, received, signature)

    def test_first_sight_runs_the_check_and_providers_share_nothing(self):
        for cls in (RealCryptoProvider, SimCryptoProvider):
            first, second = cls(random.Random(7)), cls(random.Random(7))
            pair = first.generate_keypair()
            signature = first.sign(pair, ("passport", "g", 5))
            first_runs, second_runs = _counting_checks(first), _counting_checks(second)
            for _ in range(3):
                assert first.verify(pair.public, ("passport", "g", 5), signature)
            assert len(first_runs) == 1
            assert second.verify(pair.public, ("passport", "g", 5), signature)
            assert len(second_runs) == 1

    @pytest.mark.parametrize(
        "signature", [12345, "abc", None, ("sig", "x", b"y"), ["sig", "x", b"y"]]
    )
    def test_malformed_signature_is_false_and_never_cached(self, provider, signature):
        pair = provider.generate_keypair()
        runs = _counting_checks(provider)
        for _ in range(2):
            assert provider.verify(pair.public, "obj", signature) is False
        assert len(runs) == 2


class TestRealProviderOnly:
    def test_ciphertext_does_not_contain_plaintext(self):
        provider = RealCryptoProvider(random.Random(7), key_bits=512)
        pair = provider.generate_keypair()
        secret = "the private group membership list"
        sealed = provider.seal(pair.public, secret)
        wrapped, ciphertext = sealed.blob
        assert secret.encode() not in wrapped
        assert secret.encode() not in ciphertext

    def test_fast_stream_mode_roundtrips(self):
        provider = RealCryptoProvider(random.Random(7), key_bits=512, use_aes=False)
        pair = provider.generate_keypair()
        sealed = provider.seal(pair.public, [1, 2, 3])
        assert provider.open(pair, sealed) == [1, 2, 3]

    def test_tiny_modulus_rejected(self):
        with pytest.raises(ValueError):
            RealCryptoProvider(random.Random(7), key_bits=128)


class TestCostAccounting:
    def test_operations_charge_the_acting_node(self):
        accountant = CpuAccountant()
        provider = SimCryptoProvider(random.Random(7), accountant)
        pair = provider.generate_keypair()
        sealed = provider.seal(pair.public, "x", node=5)
        provider.open(pair, sealed, node=9)
        assert accountant.node_total_ms(5, "rsa_encrypt") > 0
        assert accountant.node_total_ms(9, "rsa_decrypt") > 0
        assert accountant.node_total_ms(5, "rsa_decrypt") == 0

    def test_aes_cost_scales_with_size(self):
        assert aes_ms(20_480) > aes_ms(1_024) > 0

    def test_rsa_dwarfs_aes(self):
        """The paper's Table II: RSA cost >> AES cost for 20 KB exchanges."""
        assert RSA_DECRYPT_MS > 100 * aes_ms(20_480 // 10)

    def test_op_breakdown_counts_each_op(self):
        accountant = CpuAccountant()
        accountant.rsa_decrypt(1)
        accountant.rsa_decrypt(1)
        accountant.aes(1, 1024)
        breakdown = accountant.op_breakdown(1)
        assert breakdown["rsa_decrypt"].count == 2
        assert breakdown["aes"].count == 1
        breakdown["aes"].add(1.0)  # a copy: the accountant's record is untouched
        assert accountant.op_breakdown(1)["aes"].count == 1

    def test_charge_returns_seconds(self):
        accountant = CpuAccountant()
        assert accountant.charge(1, "custom", 1500.0) == pytest.approx(1.5)

    def test_reset(self):
        accountant = CpuAccountant()
        accountant.rsa_decrypt(1)
        accountant.reset()
        assert accountant.node_total_ms(1) == 0.0
        assert accountant.nodes() == []
        accountant.aes(1, 1024)
        assert accountant.node_total_ms(1) == pytest.approx(aes_ms(1024))

    @settings(max_examples=50, deadline=None)
    @given(
        charges=st.lists(
            st.tuples(
                st.sampled_from(
                    ["rsa_decrypt", "rsa_encrypt", "rsa_sign", "rsa_verify",
                     "aes", "aes_layers"]
                ),
                st.integers(0, 3),  # node
                st.integers(0, 65_536),  # size (symmetric ops only)
                st.integers(1, 5),  # layers (aes_layers only)
            ),
            max_size=60,
        ),
        seed=st.integers(0, 2**32),
    )
    def test_running_total_matches_the_records(self, charges, seed):
        """The O(1) per-node total agrees with what the per-op records add
        up to, under load jitter, for any interleaving."""
        accountant = CpuAccountant(rng=random.Random(seed))
        for op, node, size, layers in charges:
            if op == "aes":
                accountant.aes(node, size)
            elif op == "aes_layers":
                accountant.aes_layers(node, size, layers)
            else:
                getattr(accountant, op)(node)
        for node in range(4):
            breakdown = accountant.op_breakdown(node)
            assert accountant.node_total_ms(node) == pytest.approx(
                sum(r.total_ms for r in breakdown.values()), abs=1e-9
            )
            assert accountant.node_total_ms(node, "rsa") == pytest.approx(
                sum(
                    r.total_ms for op, r in breakdown.items()
                    if op.startswith("rsa")
                ),
                abs=1e-9,
            )
            assert accountant.node_total_ms(node, "aes") == pytest.approx(
                breakdown["aes"].total_ms if "aes" in breakdown else 0.0,
                abs=1e-9,
            )
        accountant.reset()
        assert all(accountant.node_total_ms(node) == 0.0 for node in range(4))

    def test_sim_charges_follow_serialized_size(self):
        """Regression: the sim provider once charged a flat 256 bytes of AES
        per seal and ``size_hint`` per payload regardless of the object; it
        must charge by serialized body size like the real provider."""
        accountant = CpuAccountant()
        provider = SimCryptoProvider(random.Random(7), accountant)
        pair = provider.generate_keypair()
        small, big = "x", "x" * 50_000

        provider.seal(pair.public, small, node=1)
        small_ms = accountant.node_total_ms(1, "aes")
        provider.seal(pair.public, big, node=2)
        big_ms = accountant.node_total_ms(2, "aes")
        assert big_ms > small_ms > 0

        key = provider.new_symmetric_key()
        provider.encrypt_payload(key, small, 128, node=3)
        provider.encrypt_payload(key, big, 128, node=4)
        assert (
            accountant.node_total_ms(4, "aes")
            > accountant.node_total_ms(3, "aes")
            > 0
        )

    def test_sim_and_real_charge_same_order_of_magnitude(self):
        """The aligned sim charge should be comparable to the real one for
        the same object (both derive from the serialized body length)."""
        obj = {"entries": list(range(200))}
        sim_acct, real_acct = CpuAccountant(), CpuAccountant()
        sim = SimCryptoProvider(random.Random(7), sim_acct)
        real = RealCryptoProvider(random.Random(7), real_acct, key_bits=512)
        key = b"k" * 16
        sim.encrypt_payload(key, obj, 128, node=1)
        real.encrypt_payload(key, obj, 128, node=1)
        sim_ms = sim_acct.node_total_ms(1, "aes")
        real_ms = real_acct.node_total_ms(1, "aes")
        assert sim_ms > 0 and real_ms > 0
        assert 0.2 < sim_ms / real_ms < 5.0
