"""Crypto providers: one envelope implementation over two primitive sets.

All WHISPER layers (onion construction, passports, group keys) talk to a
:class:`CryptoProvider`.  It writes every envelope once, as bytes:

- :meth:`~CryptoProvider.seal` — a wrapped session key beside the body
  under the bulk cipher (Fig. 2's onion layers, invitations);
- :meth:`~CryptoProvider.encrypt_payload` — ``(nonce, ciphertext)`` and a
  MAC over both (a WCL message body);
- :meth:`~CryptoProvider.wrap_layers` — one nonce and one MAC per circuit
  hop, each MAC over the nonce and ciphertext that hop receives.

Every body, and every object a signature covers, is its
:mod:`repro.wire.codec` encoding: one fixed format, decoded without
running anything the bytes name.  A subclass supplies only the
primitives underneath:

- :class:`RealCryptoProvider` — AES-128-CTR or the :mod:`.stream`
  cipher, drawn nonces, RSA key wrap, measured sizes.  Used by unit
  tests, the security test-suite and the examples.
- :class:`SimCryptoProvider` — the identity cipher, empty nonces, a
  key-fingerprint check in place of RSA, and the paper's wire-size
  model.  Used for 1,000-node runs where pure-Python bignum math would
  dominate wall-clock time without affecting any measured quantity (the
  cost model charges calibrated CPU time either way).

A mix strips its layer of a circuit body and forwards the bytes without
decoding them; only the destination turns them back into the content.
Both raise :class:`CryptoError` — and nothing else — when opening with a
wrong key or an envelope of the wrong shape (``blob`` / ``auth`` / ``auths``
are untyped on the wire), so protocol code paths are identical.
"""

from __future__ import annotations

import itertools
import random
from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

from ..net.address import NodeId
from . import rsa
from .aes import ctr_transform
from .costmodel import CpuAccountant
from .stream import stream_transform, tag, verify_tag

__all__ = [
    "CryptoError",
    "PublicKey",
    "KeyPair",
    "Sealed",
    "EncryptedPayload",
    "LayeredPayload",
    "CryptoProvider",
    "RealCryptoProvider",
    "SimCryptoProvider",
    "make_provider",
]


class CryptoError(Exception):
    """Decryption/verification failure (wrong key, tampered data)."""


@dataclass(frozen=True)
class PublicKey:
    """Opaque circulating public key.

    ``material`` is an :class:`rsa.RsaPublicKey` for the real provider or a
    key identifier string for the simulated one.  ``fingerprint`` is stable
    and printable (used by group key histories).
    """

    material: Any
    fingerprint: str


@dataclass(frozen=True)
class KeyPair:
    public: PublicKey
    secret: Any  # RsaPrivateKey, or the sim key identifier


@dataclass(frozen=True)
class Sealed:
    """Asymmetrically sealed object (onion layer, invitation, ...);
    ``blob`` is ``(wrapped session key, ciphertext)``."""

    key_fingerprint: str
    blob: Any
    size_bytes: int


@dataclass(frozen=True)
class EncryptedPayload:
    """Symmetrically encrypted object (WCL message body); ``blob`` is
    ``(nonce, ciphertext)`` and ``auth`` the MAC over both."""

    blob: Any
    auth: Any
    size_bytes: int


@dataclass(frozen=True)
class LayeredPayload:
    """A circuit-mode body under N symmetric layers (outermost first).

    ``auths[0]`` authenticates the nonce and ciphertext as the *current*
    outermost hop receives them; unwrapping strips ``auths[0]`` and yields
    either another :class:`LayeredPayload` (a mix) or the plaintext object
    (the destination, when one auth remains).  ``size_bytes`` is the body's
    wire-size model and does not shrink per hop — only the per-layer MACs
    (accounted by the frame's ``wire_size``) come off.
    """

    blob: Any
    auths: tuple
    size_bytes: int


def _bytes_pair(blob: Any) -> tuple[bytes, bytes]:
    """An envelope body as :meth:`CryptoProvider.seal` and
    :meth:`~CryptoProvider.encrypt_payload` write it."""
    if (
        isinstance(blob, tuple) and len(blob) == 2
        and isinstance(blob[0], bytes) and isinstance(blob[1], bytes)
    ):
        return blob
    raise CryptoError("malformed envelope")


class CryptoProvider(ABC):
    """The envelopes, over the primitives a subclass supplies; charges the
    CPU accountant for every operation.

    Primitives: ``_bulk(key, nonce, data)`` (the self-inverse bulk
    cipher), ``_nonce``, ``_wrap_key`` / ``_unwrap_key`` (a seal's
    session key), ``_sized`` (the envelope size on record),
    ``generate_keypair``, ``sign`` and ``_check``.
    """

    _bulk: Callable[[bytes, bytes, bytes], bytes]

    def __init__(self, rng: random.Random, accountant: CpuAccountant | None = None) -> None:
        self._rng = rng
        self.accountant = accountant if accountant is not None else CpuAccountant()
        # Measurement-only trace ids (onion correlation for Fig. 7).  One
        # counter per provider — i.e. per World, since a World builds
        # exactly one provider — so two Worlds in one process draw the
        # same id sequences as two separate processes would.
        self._trace_ids = itertools.count(1)
        # (public key, codec bytes, signature) of every check that passed;
        # see :meth:`verify`.
        self._verified: set[tuple[PublicKey, bytes, Any]] = set()
        from ..wire import codec  # deferred: the codec imports this module

        self._codec = codec

    def next_trace_id(self) -> int:
        """Next measurement trace id (provider-scoped, starts at 1)."""
        return next(self._trace_ids)

    def new_symmetric_key(self) -> bytes:
        """A fresh random 128-bit key (the per-message key *k* of Fig. 2)."""
        return self._rng.getrandbits(128).to_bytes(16, "big")

    # ------------------------------------------------------------------
    # the envelopes
    # ------------------------------------------------------------------
    def seal(self, public: PublicKey, obj: Any, *, node: NodeId = -1) -> Sealed:
        """Asymmetrically encrypt a (small) object for the key holder."""
        body = self._encode(obj)
        wrapped, session_key, nonce = self._wrap_key(public)
        ciphertext = self._bulk(session_key, nonce, body)
        self.accountant.rsa_encrypt(node)
        self.accountant.aes(node, len(body))
        return Sealed(
            key_fingerprint=public.fingerprint,
            blob=(wrapped, ciphertext),
            size_bytes=self._sized(
                len(wrapped) + len(ciphertext), _MODELLED_SEAL_BYTES
            ),
        )

    def open(self, keypair: KeyPair, sealed: Sealed, *, node: NodeId = -1) -> Any:
        """Invert :meth:`seal`; raises CryptoError with the wrong keypair."""
        wrapped, ciphertext = _bytes_pair(sealed.blob)
        self.accountant.rsa_decrypt(node)
        session_key, nonce = self._unwrap_key(keypair, sealed.key_fingerprint, wrapped)
        body = self._bulk(session_key, nonce, ciphertext)
        self.accountant.aes(node, len(body))
        return self._plaintext(body, "seal does not open: corrupt body")

    def encrypt_payload(self, key: bytes, obj: Any, size_hint: int, *,
                        node: NodeId = -1) -> EncryptedPayload:
        """Symmetric bulk encryption of a message body, encrypt-then-MAC."""
        body = self._encode(obj)
        nonce = self._nonce()
        ciphertext = self._bulk(key, nonce, body)
        auth = tag(key, nonce + ciphertext)
        self.accountant.aes(node, max(len(body), size_hint))
        return EncryptedPayload(
            blob=(nonce, ciphertext), auth=auth,
            size_bytes=self._sized(max(len(ciphertext), size_hint), size_hint),
        )

    def decrypt_payload(self, key: bytes, enc: EncryptedPayload, *,
                        node: NodeId = -1) -> Any:
        """Invert :meth:`encrypt_payload`; raises CryptoError on mismatch."""
        nonce, ciphertext = _bytes_pair(enc.blob)
        if not verify_tag(key, nonce + ciphertext, enc.auth):
            raise CryptoError("payload authentication failed")
        body = self._bulk(key, nonce, ciphertext)
        self.accountant.aes(node, enc.size_bytes)
        return self._plaintext(body, "payload corrupt")

    def wrap_layers(self, keys: Sequence[bytes], obj: Any, size_hint: int, *,
                    node: NodeId = -1) -> LayeredPayload:
        """Encrypt ``obj`` under every key in ``keys`` (outermost first).

        The circuit-mode data path: symmetric crypto only, one layer per
        hop, each layer independently authenticated so a hop detects a
        wrong/expired key exactly like :meth:`decrypt_payload` does.
        """
        if not keys:
            raise ValueError("wrap_layers needs at least one key")
        body = self._encode(obj)
        nonces = tuple(self._nonce() for _ in keys)
        # Innermost (destination) layer first; each hop's MAC covers the
        # nonce and ciphertext that hop will receive.
        bulk = self._bulk
        auths: list[bytes] = [b""] * len(keys)
        data = body
        for index in range(len(keys) - 1, -1, -1):
            key, nonce = keys[index], nonces[index]
            data = bulk(key, nonce, data)
            auths[index] = tag(key, nonce + data)
        size = max(len(body), size_hint)
        self.accountant.aes_layers(node, size, len(keys))
        return LayeredPayload(
            blob=(nonces, data), auths=tuple(auths),
            size_bytes=self._sized(size, size_hint),
        )

    def unwrap_layer(self, key: bytes, layered: LayeredPayload, *,
                     node: NodeId = -1) -> Any:
        """Strip one layer; the plaintext object when it was the last.

        Returns a :class:`LayeredPayload` while layers remain, the
        decrypted object at the destination.  Raises :class:`CryptoError`
        when ``key`` does not authenticate the outermost layer.
        """
        blob, auths = layered.blob, layered.auths
        # One nonce and one MAC per remaining layer, ours first.
        if not (
            isinstance(auths, tuple) and auths
            and isinstance(blob, tuple) and len(blob) == 2
            and isinstance(blob[0], tuple) and len(blob[0]) == len(auths)
            and isinstance(blob[0][0], bytes) and isinstance(blob[1], bytes)
        ):
            raise CryptoError("malformed circuit layer")
        nonces, ciphertext = blob
        if not verify_tag(key, nonces[0] + ciphertext, auths[0]):
            raise CryptoError("circuit layer authentication failed")
        inner = self._bulk(key, nonces[0], ciphertext)
        self.accountant.aes(node, layered.size_bytes)
        if len(auths) == 1:
            return self._plaintext(inner, "circuit payload corrupt")
        return LayeredPayload(
            blob=(nonces[1:], inner), auths=auths[1:],
            size_bytes=layered.size_bytes,
        )

    def _encode(self, obj: Any) -> bytes:
        """``obj``'s wire-codec bytes: a body, or what a signature covers."""
        return self._codec.encode_value(obj)

    def _plaintext(self, body: bytes, failure: str) -> Any:
        # A wrong key, or a key holder's forgery, yields bytes that do not
        # decode: the codec raises only WireDecodeError on any input.
        try:
            return self._codec.decode_value(body)
        except self._codec.WireDecodeError as exc:
            raise CryptoError(failure) from exc

    # ------------------------------------------------------------------
    # signatures
    # ------------------------------------------------------------------
    @abstractmethod
    def sign(self, keypair: KeyPair, obj: Any, *, node: NodeId = -1) -> Any:
        """Signature over ``obj``'s wire-codec bytes."""

    def verify(self, public: PublicKey, obj: Any, signature: Any, *,
               node: NodeId = -1) -> bool:
        """Check a signature; False (not an exception) on mismatch.

        Every call charges one ``rsa_verify``.  The destination of each
        group message re-checks the sender's passport, so a triple that
        passed before is answered from a bounded per-provider set instead
        of re-running the host-side check; failures are never remembered.
        """
        self.accountant.rsa_verify(node)
        message = self._encode(obj)
        try:
            triple = (public, message, signature)
            if triple in self._verified:
                return True
        except TypeError:  # an unhashable signature off the wire
            return self._check(public, message, signature)
        if not self._check(public, message, signature):
            return False
        if len(self._verified) >= _VERIFIED_LIMIT:
            self._verified.clear()
        self._verified.add(triple)
        return True

    # ------------------------------------------------------------------
    # primitives
    # ------------------------------------------------------------------
    @abstractmethod
    def generate_keypair(self) -> KeyPair:
        """Create a fresh keypair (no CPU charge: keygen is off-cycle)."""

    @abstractmethod
    def _nonce(self) -> bytes:
        """A fresh nonce for one payload or circuit layer."""

    @abstractmethod
    def _wrap_key(self, public: PublicKey) -> tuple[bytes, bytes, bytes]:
        """``(wrapped, session key, nonce)`` for one seal to ``public``."""

    @abstractmethod
    def _unwrap_key(self, keypair: KeyPair, fingerprint: str,
                    wrapped: bytes) -> tuple[bytes, bytes]:
        """The ``(session key, nonce)`` in ``wrapped``; CryptoError when it
        was not wrapped for ``keypair``."""

    @abstractmethod
    def _sized(self, measured: int, modelled: int) -> int:
        """The size an envelope records: its own bytes or the model's."""

    @abstractmethod
    def _check(self, public: PublicKey, message: bytes, signature: Any) -> bool:
        """The provider's own check of ``signature`` over ``message``;
        False, never an exception, for a signature of the wrong shape."""


# ----------------------------------------------------------------------
class RealCryptoProvider(CryptoProvider):
    """RSA key wrap plus a symmetric bulk cipher.

    ``use_aes=True`` is the paper-fidelity cipher, this repo's pure-Python
    AES-128-CTR; ``use_aes=False`` is :func:`.stream.stream_transform`, one
    SHAKE-256 call and one big-int XOR per layer.  Either way payloads and
    circuit layers are charged as ``aes``.
    """

    def __init__(
        self,
        rng: random.Random,
        accountant: CpuAccountant | None = None,
        key_bits: int = 512,
        use_aes: bool = True,
    ) -> None:
        super().__init__(rng, accountant)
        if key_bits < 256:
            raise ValueError("hybrid sealing needs at least a 256-bit modulus")
        self._key_bits = key_bits
        self._bulk = ctr_transform if use_aes else stream_transform

    def generate_keypair(self) -> KeyPair:
        pair = rsa.generate_keypair(self._key_bits, self._rng)
        public = PublicKey(material=pair.public, fingerprint=pair.public.fingerprint())
        return KeyPair(public=public, secret=pair.private)

    def _nonce(self):
        return self._rng.getrandbits(64).to_bytes(8, "big")

    def _wrap_key(self, public):
        # Draw order: session key, nonce, then the RSA padding.
        session_key = self.new_symmetric_key()
        nonce = self._nonce()
        wrapped = rsa.encrypt(public.material, session_key + nonce, self._rng)
        return wrapped, session_key, nonce

    def _unwrap_key(self, keypair, fingerprint, wrapped):
        try:
            opened = rsa.decrypt(keypair.secret, wrapped)
        except ValueError as exc:
            raise CryptoError(f"seal does not open: {exc}") from exc
        if len(opened) != 24:
            raise CryptoError("seal does not open: bad session material")
        return opened[:16], opened[16:]

    def _sized(self, measured, modelled):
        return measured

    def sign(self, keypair, obj, *, node=-1):
        self.accountant.rsa_sign(node)
        return rsa.sign(keypair.secret, self._encode(obj))

    def _check(self, public, message, signature):
        return isinstance(signature, bytes) and rsa.verify(
            public.material, message, signature
        )


# ----------------------------------------------------------------------
def _identity(key: bytes, nonce: bytes, data: bytes) -> bytes:
    return data


class SimCryptoProvider(CryptoProvider):
    """Key-identity-enforced envelopes; same API surface and failure modes.

    Bodies are the wire codec's encoding, carried in the clear: access is
    enforced by the fingerprint a seal names and by the MACs, not by
    number theory.  Nonces and wrapped keys are empty, and envelopes record
    the paper's wire-size model (256 bytes a seal, ``size_hint`` a body).
    """

    _bulk = staticmethod(_identity)

    def __init__(self, rng: random.Random, accountant: CpuAccountant | None = None) -> None:
        super().__init__(rng, accountant)
        self._counter = 0

    def generate_keypair(self) -> KeyPair:
        self._counter += 1
        key_id = f"simkey-{self._counter}-{self._rng.getrandbits(32):08x}"
        return KeyPair(
            public=PublicKey(material=key_id, fingerprint=key_id),
            secret=key_id,
        )

    def _nonce(self):
        return b""

    def _wrap_key(self, public):
        return b"", b"", b""

    def _unwrap_key(self, keypair, fingerprint, wrapped):
        if fingerprint != keypair.public.fingerprint:
            raise CryptoError("seal does not open: wrong key")
        return b"", b""

    def _sized(self, measured, modelled):
        return modelled

    def sign(self, keypair, obj, *, node=-1):
        self.accountant.rsa_sign(node)
        return ("sig", keypair.public.fingerprint, self._encode(obj))

    def _check(self, public, message, signature):
        if not isinstance(signature, tuple) or len(signature) != 3:
            return False
        kind, fingerprint, digest = signature
        return (
            kind == "sig"
            and fingerprint == public.fingerprint
            and digest == message
        )


def make_provider(
    kind: str, rng: random.Random, accountant: CpuAccountant,
    key_bits: int = 512, use_aes: bool = True,
) -> CryptoProvider:
    """The provider a deployment names: ``"sim"`` (fast envelopes) or
    ``"real"`` (actual RSA; ``key_bits`` and ``use_aes`` configure only it)."""
    if kind == "sim":
        return SimCryptoProvider(rng, accountant)
    if kind == "real":
        return RealCryptoProvider(rng, accountant, key_bits=key_bits, use_aes=use_aes)
    raise ValueError(f"unknown provider: {kind!r}")


# A seal's size in the paper's wire model (what the sim provider records).
_MODELLED_SEAL_BYTES = 256
# Bound on a provider's remembered successful signature checks; cleared
# wholesale when full.
_VERIFIED_LIMIT = 4096
