"""The fast bulk cipher and MAC: SHAKE-256 keystream, keyed BLAKE2b tag.

Pure-Python AES costs ~100 µs per 16-byte block; encrypting thousands of
20 KB PPSS view exchanges would dominate wall-clock time without changing
any protocol behaviour.  This cipher is the drop-in substitute: the whole
keystream comes out of one extendable-output call
(``shake_256(key + nonce).digest(len(data))``) and is applied with one
big-int XOR, so a layer costs two C calls whatever its length.  The MAC is
keyed BLAKE2b with a 32-byte digest, one C call per tag.  The *simulated*
CPU cost charged by the cost model remains the calibrated AES cost either
way.

Both primitives come from the stdlib's ``hashlib``; the composition
(encrypt-then-MAC with a nonce drawn per layer) is this repo's own and has
had no review, so it exists to make the simulated protocols perform a real
keyed, invertible, tamper-evident transformation, not to be deployed.
"""

from __future__ import annotations

import hashlib
import hmac

__all__ = [
    "stream_transform",
    "tag",
    "verify_tag",
]

_shake_256 = hashlib.shake_256
_blake2b = hashlib.blake2b


def stream_transform(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """XOR ``data`` with ``shake_256(key + nonce)``'s output (self-inverse)."""
    length = len(data)
    keystream = _shake_256(key + nonce).digest(length)
    value = int.from_bytes(data, "big") ^ int.from_bytes(keystream, "big")
    return value.to_bytes(length, "big")


def tag(key: bytes, data: bytes) -> bytes:
    """32-byte keyed-BLAKE2b authentication tag, for a key of any length.

    BLAKE2b takes at most 64 key bytes; a longer key is hashed down to 32
    first (what HMAC does with a key longer than its block).
    """
    if len(key) > _blake2b.MAX_KEY_SIZE:
        key = _blake2b(key, digest_size=32).digest()
    return _blake2b(data, key=key, digest_size=32).digest()


def verify_tag(key: bytes, data: bytes, expected: bytes) -> bool:
    # ``expected`` comes off the wire untyped: anything but bytes is no tag.
    return isinstance(expected, bytes) and hmac.compare_digest(tag(key, data), expected)
