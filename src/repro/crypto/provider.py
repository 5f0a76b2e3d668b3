"""Crypto providers: one interface, a real and a simulated implementation.

All WHISPER layers (onion construction, passports, group keys) talk to a
:class:`CryptoProvider`.  Two implementations exist:

- :class:`RealCryptoProvider` — genuine RSA (this repo's from-scratch
  implementation) with hybrid sealing (RSA-wrapped session key + bulk-
  encrypted body) and MAC'd payload encryption under AES-CTR or the
  :mod:`.stream` cipher.  Used by unit tests, the security test-suite
  and the examples; key size configurable.
- :class:`SimCryptoProvider` — structurally identical envelope objects
  with access control enforced by key identity instead of number theory.
  Used for 1,000-node experiment runs where pure-Python bignum math would
  dominate wall-clock time without affecting any measured quantity (the
  cost model charges calibrated CPU time either way).

Both raise :class:`CryptoError` — and nothing else — when opening with a
wrong key or an envelope of the wrong shape (``blob`` / ``auth`` / ``auths``
are untyped on the wire), so protocol code paths are identical.
"""

from __future__ import annotations

import itertools
import pickle
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
    """Asymmetrically sealed object (onion layer, invitation, ...)."""

    key_fingerprint: str
    blob: Any
    size_bytes: int


@dataclass(frozen=True)
class EncryptedPayload:
    """Symmetrically encrypted object (WCL message body)."""

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
    """An envelope body as :class:`RealCryptoProvider` writes it."""
    if (
        isinstance(blob, tuple) and len(blob) == 2
        and isinstance(blob[0], bytes) and isinstance(blob[1], bytes)
    ):
        return blob
    raise CryptoError("malformed envelope")


class CryptoProvider(ABC):
    """Factory + operations; charges the CPU accountant when one is set."""

    def __init__(self, rng: random.Random, accountant: CpuAccountant | None = None) -> None:
        self._rng = rng
        self.accountant = accountant if accountant is not None else CpuAccountant()
        # Measurement-only trace ids (onion correlation for Fig. 7).  One
        # counter per provider — i.e. per World, since a World builds
        # exactly one provider — so two Worlds in one process draw the
        # same id sequences as two separate processes would.
        self._trace_ids = itertools.count(1)
        # (public key, canonical bytes, signature) of every check that
        # passed; see :meth:`verify`.
        self._verified: set[tuple[PublicKey, bytes, Any]] = set()

    def next_trace_id(self) -> int:
        """Next measurement trace id (provider-scoped, starts at 1)."""
        return next(self._trace_ids)

    # ------------------------------------------------------------------
    @abstractmethod
    def generate_keypair(self) -> KeyPair:
        """Create a fresh keypair (no CPU charge: keygen is off-cycle)."""

    @abstractmethod
    def seal(self, public: PublicKey, obj: Any, *, node: NodeId = -1) -> Sealed:
        """Asymmetrically encrypt a (small) object for the key holder."""

    @abstractmethod
    def open(self, keypair: KeyPair, sealed: Sealed, *, node: NodeId = -1) -> Any:
        """Invert :meth:`seal`; raises CryptoError with the wrong keypair."""

    @abstractmethod
    def encrypt_payload(self, key: bytes, obj: Any, size_hint: int, *,
                        node: NodeId = -1) -> EncryptedPayload:
        """Symmetric bulk encryption of a message body."""

    @abstractmethod
    def decrypt_payload(self, key: bytes, enc: EncryptedPayload, *,
                        node: NodeId = -1) -> Any:
        """Invert :meth:`encrypt_payload`; raises CryptoError on mismatch."""

    def wrap_layers(self, keys: Sequence[bytes], obj: Any, size_hint: int, *,
                    node: NodeId = -1) -> LayeredPayload:
        """Encrypt ``obj`` under every key in ``keys`` (outermost first).

        The circuit-mode data path: symmetric crypto only, one layer per
        hop, each layer independently authenticated so a hop detects a
        wrong/expired key exactly like :meth:`decrypt_payload` does.
        """
        raise NotImplementedError

    def unwrap_layer(self, key: bytes, layered: LayeredPayload, *,
                     node: NodeId = -1) -> Any:
        """Strip one layer; the plaintext object when it was the last.

        Returns a :class:`LayeredPayload` while layers remain, the
        decrypted object at the destination.  Raises :class:`CryptoError`
        when ``key`` does not authenticate the outermost layer.
        """
        raise NotImplementedError

    @abstractmethod
    def sign(self, keypair: KeyPair, obj: Any, *, node: NodeId = -1) -> Any:
        """Signature over a canonical encoding of ``obj``."""

    def verify(self, public: PublicKey, obj: Any, signature: Any, *,
               node: NodeId = -1) -> bool:
        """Check a signature; False (not an exception) on mismatch.

        Every call charges one ``rsa_verify``.  The destination of each
        group message re-checks the sender's passport, so a triple that
        passed before is answered from a bounded per-provider set instead
        of re-running the host-side check; failures are never remembered.
        """
        self.accountant.rsa_verify(node)
        message = _canonical(obj)
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

    @abstractmethod
    def _check(self, public: PublicKey, message: bytes, signature: Any) -> bool:
        """The provider's own check of ``signature`` over ``message``;
        False, never an exception, for a signature of the wrong shape."""

    # ------------------------------------------------------------------
    def new_symmetric_key(self) -> bytes:
        """A fresh random 128-bit key (the per-message key *k* of Fig. 2)."""
        return self._rng.getrandbits(128).to_bytes(16, "big")

    def new_nonce(self) -> bytes:
        return self._rng.getrandbits(64).to_bytes(8, "big")


# ----------------------------------------------------------------------
class RealCryptoProvider(CryptoProvider):
    """RSA plus a symmetric bulk cipher, with pickle serialization.

    ``use_aes=True`` is the paper-fidelity cipher, this repo's pure-Python
    AES-128-CTR; ``use_aes=False`` is :func:`.stream.stream_transform`, one
    SHAKE-256 call and one big-int XOR per layer.  Either way payloads and
    circuit layers are encrypt-then-MAC (:func:`.stream.tag` over nonce and
    ciphertext, checked before decrypting) and charged as ``aes``.
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

    def seal(self, public, obj, *, node=-1):
        body = pickle.dumps(obj)
        session_key = self.new_symmetric_key()
        nonce = self.new_nonce()
        wrapped = rsa.encrypt(public.material, session_key + nonce, self._rng)
        ciphertext = self._bulk(session_key, nonce, body)
        self.accountant.rsa_encrypt(node)
        self.accountant.aes(node, len(body))
        return Sealed(
            key_fingerprint=public.fingerprint,
            blob=(wrapped, ciphertext),
            size_bytes=len(wrapped) + len(ciphertext),
        )

    def open(self, keypair, sealed, *, node=-1):
        wrapped, ciphertext = _bytes_pair(sealed.blob)
        try:
            opened = rsa.decrypt(keypair.secret, wrapped)
        except ValueError as exc:
            self.accountant.rsa_decrypt(node)
            raise CryptoError(f"seal does not open: {exc}") from exc
        self.accountant.rsa_decrypt(node)
        if len(opened) != 24:
            raise CryptoError("seal does not open: bad session material")
        session_key, nonce = opened[:16], opened[16:]
        body = self._bulk(session_key, nonce, ciphertext)
        self.accountant.aes(node, len(body))
        try:
            return pickle.loads(body)
        except Exception as exc:  # wrong key yields garbage bytes
            raise CryptoError("seal does not open: corrupt body") from exc

    def encrypt_payload(self, key, obj, size_hint, *, node=-1):
        body = pickle.dumps(obj)
        nonce = self.new_nonce()
        ciphertext = self._bulk(key, nonce, body)
        auth = tag(key, nonce + ciphertext)
        self.accountant.aes(node, max(len(body), size_hint))
        return EncryptedPayload(
            blob=(nonce, ciphertext), auth=auth,
            size_bytes=max(len(ciphertext), size_hint),
        )

    def decrypt_payload(self, key, enc, *, node=-1):
        nonce, ciphertext = _bytes_pair(enc.blob)
        if not verify_tag(key, nonce + ciphertext, enc.auth):
            raise CryptoError("payload authentication failed")
        body = self._bulk(key, nonce, ciphertext)
        self.accountant.aes(node, enc.size_bytes)
        try:
            return pickle.loads(body)
        except Exception as exc:
            raise CryptoError("payload corrupt") from exc

    def wrap_layers(self, keys, obj, size_hint, *, node=-1):
        if not keys:
            raise ValueError("wrap_layers needs at least one key")
        body = pickle.dumps(obj)
        nonces = tuple(self.new_nonce() for _ in keys)
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
        return LayeredPayload(blob=(nonces, data), auths=tuple(auths), size_bytes=size)

    def unwrap_layer(self, key, layered, *, node=-1):
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
            try:
                return pickle.loads(inner)
            except Exception as exc:
                raise CryptoError("circuit payload corrupt") from exc
        return LayeredPayload(
            blob=(nonces[1:], inner), auths=auths[1:],
            size_bytes=layered.size_bytes,
        )

    def sign(self, keypair, obj, *, node=-1):
        self.accountant.rsa_sign(node)
        return rsa.sign(keypair.secret, _canonical(obj))

    def _check(self, public, message, signature):
        return isinstance(signature, bytes) and rsa.verify(
            public.material, message, signature
        )


# ----------------------------------------------------------------------
class SimCryptoProvider(CryptoProvider):
    """Key-identity-enforced envelopes; same API surface and failure modes."""

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

    def seal(self, public, obj, *, node=-1):
        self.accountant.rsa_encrypt(node)
        # Charge the CPU model for the bytes the real provider would bulk-
        # encrypt (the serialized body), not a flat constant; ``size_bytes``
        # keeps the paper's wire-size model for bandwidth accounting.
        self.accountant.aes(node, len(_value_canonical(obj)))
        return Sealed(
            key_fingerprint=public.fingerprint,
            blob=obj,
            size_bytes=256,
        )

    def open(self, keypair, sealed, *, node=-1):
        self.accountant.rsa_decrypt(node)
        if sealed.key_fingerprint != keypair.public.fingerprint:
            raise CryptoError("seal does not open: wrong key")
        self.accountant.aes(node, len(_value_canonical(sealed.blob)))
        return sealed.blob

    def encrypt_payload(self, key, obj, size_hint, *, node=-1):
        body = _value_canonical(obj)
        self.accountant.aes(node, max(len(body), size_hint))
        # The envelope must never carry key material: authenticate with a
        # MAC over the canonical body, exactly like the real provider tags
        # its ciphertext.  (An earlier revision stored the raw symmetric key
        # as ``auth``, leaking it to anyone holding the envelope.)
        return EncryptedPayload(
            blob=obj, auth=tag(key, body), size_bytes=size_hint
        )

    def decrypt_payload(self, key, enc, *, node=-1):
        # Recompute the MAC under the presented key; a wrong key yields a
        # different tag, preserving the CryptoError failure mode.
        if not verify_tag(key, _value_canonical(enc.blob), enc.auth):
            raise CryptoError("payload key mismatch")
        self.accountant.aes(node, enc.size_bytes)
        return enc.blob

    def wrap_layers(self, keys, obj, size_hint, *, node=-1):
        if not keys:
            raise ValueError("wrap_layers needs at least one key")
        # MAC chain standing in for nested encryption: layer i tags the
        # next layer's tag (innermost tags the canonical body), so each
        # hop's key check composes exactly like peeling real ciphertext.
        body = _value_canonical(obj)
        chain = [tag(keys[-1], body)]
        for index in range(len(keys) - 2, -1, -1):
            chain.append(tag(keys[index], chain[-1]))
        self.accountant.aes_layers(node, max(len(body), size_hint), len(keys))
        return LayeredPayload(
            blob=obj, auths=tuple(reversed(chain)), size_bytes=size_hint
        )

    def unwrap_layer(self, key, layered, *, node=-1):
        auths = layered.auths
        if not (isinstance(auths, tuple) and auths):
            raise CryptoError("circuit layer authentication failed")
        inner_ref = (
            auths[1] if len(auths) > 1 else _value_canonical(layered.blob)
        )
        if not (isinstance(inner_ref, bytes) and verify_tag(key, inner_ref, auths[0])):
            raise CryptoError("circuit layer key mismatch")
        self.accountant.aes(node, layered.size_bytes)
        if len(auths) == 1:
            return layered.blob
        return LayeredPayload(
            blob=layered.blob, auths=auths[1:], size_bytes=layered.size_bytes
        )

    def sign(self, keypair, obj, *, node=-1):
        self.accountant.rsa_sign(node)
        return ("sig", keypair.public.fingerprint, _canonical(obj))

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


_CANONICAL_CACHE_LIMIT = 1024
# Bound on a provider's remembered successful signature checks; cleared
# wholesale when full, like the canonical-encoding memo below.
_VERIFIED_LIMIT = 4096


def _memo_by_identity(encode: Callable[[Any], bytes]) -> Callable[[Any], bytes]:
    """Memoize an encoding by object identity.

    The objects are immutable sim envelope bodies, encoded where they are
    sealed and again where they are opened: at the destination, the only
    hop that checks a body's MAC.  (Signed objects are built afresh for
    every check, so :func:`_canonical` is not memoized.)  The cache holds a
    strong reference to the object, which keeps its ``id`` from being reused
    while the entry lives; the identity check guards against reuse after a
    wholesale clear.
    """
    cache: dict[int, tuple[Any, bytes]] = {}

    def memoized(obj: Any) -> bytes:
        key = id(obj)
        hit = cache.get(key)
        if hit is not None and hit[0] is obj:
            return hit[1]
        data = encode(obj)
        if len(cache) >= _CANONICAL_CACHE_LIMIT:
            cache.clear()
        cache[key] = (obj, data)
        return data

    return memoized


@_memo_by_identity
def _value_canonical(obj: Any) -> bytes:
    """Value-based canonical encoding for the sim envelope MAC and charges.

    Pickle is identity-sensitive: it memoizes shared references, so an
    object that has been encode->decoded by the wire codec (which rebuilds
    the tree without the original sharing) can pickle to different bytes
    than the original even though the two are equal.  The MAC written at
    ``encrypt_payload`` must verify after a wire round-trip, so the
    canonical form is the wire codec's own deterministic value encoding;
    pickle remains the fallback for objects the wire cannot carry (which
    by definition never cross a codec boundary).
    """
    from ..wire.codec import WireEncodeError, encode_value  # deferred: codec imports us

    try:
        return encode_value(obj)
    except WireEncodeError:
        return pickle.dumps(obj)


def _canonical(obj: Any) -> bytes:
    """Stable canonical encoding (pickle) of a signed/authenticated object."""
    return pickle.dumps(obj)
