"""Tests for the from-scratch crypto primitives (primes, RSA, AES, stream)."""

import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import (
    CryptoError,
    RealCryptoProvider,
    aes,
    primes,
    rsa,
    stream,
)


class TestPrimes:
    def test_known_primes(self):
        for p in (2, 3, 5, 7, 97, 7919, 104729, 2**31 - 1):
            assert primes.is_probable_prime(p)

    def test_known_composites(self):
        for n in (0, 1, 4, 9, 561, 41041, 2**31, 7919 * 104729):
            assert not primes.is_probable_prime(n)

    def test_carmichael_numbers_rejected(self):
        # Fermat pseudoprimes to many bases; Miller-Rabin must catch them.
        for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 825265):
            assert not primes.is_probable_prime(n)

    def test_generated_prime_has_exact_bit_length(self):
        rng = random.Random(1)
        for bits in (16, 32, 64, 128):
            p = primes.generate_prime(bits, rng)
            assert p.bit_length() == bits
            assert primes.is_probable_prime(p)

    def test_too_small_size_rejected(self):
        with pytest.raises(ValueError):
            primes.generate_prime(4, random.Random(1))

    def test_deterministic_given_seed(self):
        assert primes.generate_prime(64, random.Random(5)) == primes.generate_prime(
            64, random.Random(5)
        )


@pytest.fixture(scope="module")
def keypair():
    return rsa.generate_keypair(512, random.Random(42))


class TestRsa:
    def test_roundtrip(self, keypair):
        rng = random.Random(1)
        ciphertext = rsa.encrypt(keypair.public, b"secret key material", rng)
        assert rsa.decrypt(keypair.private, ciphertext) == b"secret key material"

    def test_encryption_is_randomized(self, keypair):
        rng = random.Random(1)
        c1 = rsa.encrypt(keypair.public, b"msg", rng)
        c2 = rsa.encrypt(keypair.public, b"msg", rng)
        assert c1 != c2

    def test_ciphertext_differs_from_plaintext(self, keypair):
        plaintext = b"A" * 20
        ciphertext = rsa.encrypt(keypair.public, plaintext, random.Random(1))
        assert plaintext not in ciphertext

    def test_too_long_plaintext_rejected(self, keypair):
        max_len = keypair.public.max_payload_bytes
        with pytest.raises(ValueError):
            rsa.encrypt(keypair.public, b"x" * (max_len + 1), random.Random(1))

    def test_max_length_plaintext_roundtrips(self, keypair):
        data = b"y" * keypair.public.max_payload_bytes
        ciphertext = rsa.encrypt(keypair.public, data, random.Random(1))
        assert rsa.decrypt(keypair.private, ciphertext) == data

    def test_wrong_key_fails(self, keypair):
        other = rsa.generate_keypair(512, random.Random(99))
        ciphertext = rsa.encrypt(keypair.public, b"secret", random.Random(1))
        with pytest.raises(ValueError):
            rsa.decrypt(other.private, ciphertext)

    def test_sign_verify(self, keypair):
        signature = rsa.sign(keypair.private, b"the message")
        assert rsa.verify(keypair.public, b"the message", signature)

    def test_signature_rejects_tampered_message(self, keypair):
        signature = rsa.sign(keypair.private, b"the message")
        assert not rsa.verify(keypair.public, b"the massage", signature)

    def test_signature_rejects_wrong_key(self, keypair):
        other = rsa.generate_keypair(512, random.Random(99))
        signature = rsa.sign(keypair.private, b"the message")
        assert not rsa.verify(other.public, b"the message", signature)

    def test_fingerprint_stable_and_distinct(self, keypair):
        other = rsa.generate_keypair(512, random.Random(99))
        assert keypair.public.fingerprint() == keypair.public.fingerprint()
        assert keypair.public.fingerprint() != other.public.fingerprint()

    @settings(max_examples=25, deadline=None)
    @given(st.binary(min_size=0, max_size=53), st.integers(0, 2**32))
    def test_roundtrip_property(self, keypair, data, seed):
        ciphertext = rsa.encrypt(keypair.public, data, random.Random(seed))
        assert rsa.decrypt(keypair.private, ciphertext) == data


class TestAes:
    def test_fips197_vector(self):
        """Appendix C.1 of FIPS-197."""
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        cipher = aes.AES128(key)
        assert cipher.encrypt_block(plaintext) == expected

    def test_fips197_appendix_b_vector(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        expected = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")
        assert aes.AES128(key).encrypt_block(plaintext) == expected

    def test_sp800_38a_ctr_vector(self):
        """NIST SP 800-38A F.5.1 CTR-AES128, first block.

        Our CTR layout is nonce(8) || counter(8); the NIST vector uses a
        16-byte initial counter block, so we exercise the raw keystream via
        encrypt_block instead.
        """
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        counter_block = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
        keystream = aes.AES128(key).encrypt_block(counter_block)
        plaintext = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
        expected = bytes.fromhex("874d6191b620e3261bef6864990db6ce")
        assert bytes(a ^ b for a, b in zip(plaintext, keystream)) == expected

    def test_ctr_roundtrip(self):
        key = b"0123456789abcdef"
        nonce = b"NONCE123"
        data = b"The quick brown fox jumps over the lazy dog" * 3
        ciphertext = aes.ctr_transform(key, nonce, data)
        assert ciphertext != data
        assert aes.ctr_transform(key, nonce, ciphertext) == data

    def test_ctr_empty_data(self):
        assert aes.ctr_transform(b"k" * 16, b"n" * 8, b"") == b""

    def test_ctr_non_block_aligned(self):
        key, nonce = b"k" * 16, b"n" * 8
        data = b"seventeen bytes!!"
        assert len(data) == 17
        assert aes.ctr_transform(key, nonce, aes.ctr_transform(key, nonce, data)) == data

    def test_bad_key_size_rejected(self):
        with pytest.raises(ValueError):
            aes.AES128(b"short")

    def test_bad_block_size_rejected(self):
        with pytest.raises(ValueError):
            aes.AES128(b"k" * 16).encrypt_block(b"tiny")

    def test_bad_nonce_rejected(self):
        with pytest.raises(ValueError):
            aes.ctr_transform(b"k" * 16, b"short", b"data")

    @settings(max_examples=20, deadline=None)
    @given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
    def test_block_roundtrip_property(self, key, block):
        nonce = b"noncenon"
        ciphertext = aes.ctr_transform(key, nonce, block)
        keystream = aes.AES128(key).encrypt_block(nonce + bytes(8))
        assert ciphertext == bytes(a ^ b for a, b in zip(block, keystream))
        assert aes.ctr_transform(key, nonce, ciphertext) == block

    @settings(max_examples=20, deadline=None)
    @given(st.binary(min_size=0, max_size=200))
    def test_ctr_roundtrip_property(self, data):
        key, nonce = b"propkey_propkey_"[:16], b"noncenon"
        assert aes.ctr_transform(key, nonce, aes.ctr_transform(key, nonce, data)) == data


class TestStreamCipher:
    def test_roundtrip(self):
        key, nonce = b"key", b"nonce"
        data = b"x" * 1000
        ciphertext = stream.stream_transform(key, nonce, data)
        assert ciphertext != data
        assert stream.stream_transform(key, nonce, ciphertext) == data

    def test_different_keys_different_ciphertext(self):
        data = b"hello world" * 10
        c1 = stream.stream_transform(b"key1", b"n", data)
        c2 = stream.stream_transform(b"key2", b"n", data)
        assert c1 != c2

    def test_different_nonces_different_ciphertext(self):
        data = b"hello world" * 10
        c1 = stream.stream_transform(b"key", b"n1", data)
        c2 = stream.stream_transform(b"key", b"n2", data)
        assert c1 != c2

    def test_tag_detects_tampering(self):
        t = stream.tag(b"key", b"data")
        assert stream.verify_tag(b"key", b"data", t)
        assert not stream.verify_tag(b"key", b"datum", t)
        assert not stream.verify_tag(b"other", b"data", t)

    @settings(max_examples=25, deadline=None)
    @given(st.binary(max_size=300), st.binary(min_size=1, max_size=32))
    def test_roundtrip_property(self, data, key):
        nonce = b"fixednonce"
        assert stream.stream_transform(
            key, nonce, stream.stream_transform(key, nonce, data)
        ) == data

    @pytest.mark.parametrize("length", [1, 31, 32, 33, 4096])
    def test_keystream_is_shake256_of_key_and_nonce(self, length):
        key, nonce = bytes(range(16)), b"\x01\x02\x03\x04\x05\x06\x07\x08"
        expected = hashlib.shake_256(key + nonce).digest(length)
        assert stream.stream_transform(key, nonce, bytes(length)) == expected

    def test_empty_data(self):
        assert stream.stream_transform(b"key", b"nonce", b"") == b""

    def test_tag_is_keyed_blake2b(self):
        key = bytes(range(16))
        expected = hashlib.blake2b(b"data", key=key, digest_size=32).digest()
        assert stream.tag(key, b"data") == expected

    @pytest.mark.parametrize("key_length", [0, 16, 64, 200])
    def test_tag_accepts_any_key_length(self, key_length):
        key = bytes(i % 251 for i in range(key_length))
        t = stream.tag(key, b"data")
        assert len(t) == 32
        assert stream.verify_tag(key, b"data", t)
        assert not stream.verify_tag(key, b"datb", t)
        assert not stream.verify_tag(key + b"\x00", b"data", t)


def _flip(data: bytes, position: int, mask: int) -> bytes:
    position %= len(data)
    return data[:position] + bytes([data[position] ^ mask]) + data[position + 1:]


def _flip_item(items: tuple, index: int, position: int, mask: int) -> tuple:
    return items[:index] + (_flip(items[index], position, mask),) + items[index + 1:]


class TestLayerTampering:
    """Each circuit layer is encrypt-then-MAC over (nonce, ciphertext): a
    hop rejects any single-byte change to what it owns, with CryptoError
    and nothing else, and the hops before it notice nothing."""

    OBJ = {"app": "t", "text": "confidential", "n": 7}

    @staticmethod
    def _peel(provider, keys, layered, stop_at=None):
        for hop, key in enumerate(keys):
            if hop == stop_at:
                with pytest.raises(CryptoError):
                    provider.unwrap_layer(key, layered)
                return None
            layered = provider.unwrap_layer(key, layered)
        return layered

    @settings(max_examples=60, deadline=None)
    @given(
        use_aes=st.booleans(),
        layers=st.integers(1, 5),
        field=st.sampled_from(["ciphertext", "auth", "nonce"]),
        index=st.integers(0, 4),
        position=st.integers(0, 10_000),
        mask=st.integers(1, 255),
        seed=st.integers(0, 2**32),
    )
    def test_single_byte_flip_fails_at_the_owning_hop(
        self, use_aes, layers, field, index, position, mask, seed
    ):
        provider = RealCryptoProvider(random.Random(seed), use_aes=use_aes)
        keys = [provider.new_symmetric_key() for _ in range(layers)]
        layered = provider.wrap_layers(keys, self.OBJ, 0)
        assert self._peel(provider, keys, layered) == self.OBJ

        nonces, ciphertext = layered.blob
        auths = layered.auths
        owner = index % layers
        if field == "ciphertext":
            owner = 0  # only the outermost ciphertext is on the wire
            ciphertext = _flip(ciphertext, position, mask)
        elif field == "auth":
            auths = _flip_item(auths, owner, position, mask)
        else:
            nonces = _flip_item(nonces, owner, position, mask)
        tampered = dataclasses.replace(
            layered, blob=(nonces, ciphertext), auths=auths
        )
        self._peel(provider, keys, tampered, stop_at=owner)
