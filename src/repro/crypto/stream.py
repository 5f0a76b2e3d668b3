"""A fast SHA-256-based stream cipher for large-scale simulation runs.

Pure-Python AES costs ~100 µs per 16-byte block; encrypting thousands of
20 KB PPSS view exchanges would dominate wall-clock time without changing
any protocol behaviour.  This keystream cipher (SHA-256 in counter mode —
the construction behind many DRBGs) is a drop-in substitute used by the
simulation crypto provider; the *simulated* CPU cost charged by the cost
model remains the calibrated AES cost either way.

The transform runs as one big-int XOR over the whole buffer instead of a
per-byte Python loop (the same hot-loop treatment the wire codec got:
CPython bignum XOR is a single C call).

Not intended as a production cipher; it exists so that the simulated
protocols still perform a real keyed, invertible transformation (tests
verify that ciphertext reveals nothing without the key and that tampering
is detectable via the MAC-like tag).
"""

from __future__ import annotations

import hashlib
import hmac

__all__ = [
    "stream_transform",
    "tag",
    "verify_tag",
]

_sha256 = hashlib.sha256


def stream_transform(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """XOR ``data`` with a SHA-256 counter keystream (self-inverse).

    Keystream block ``i`` is ``sha256(key + nonce + i.to_bytes(8))``; the
    stream is truncated to ``len(data)`` bytes before the XOR.
    """
    length = len(data)
    if length == 0:
        return b""
    prefix = key + nonce
    keystream = b"".join(
        _sha256(prefix + index.to_bytes(8, "big")).digest()
        for index in range((length + 31) // 32)
    )
    value = int.from_bytes(data, "big") ^ int.from_bytes(keystream[:length], "big")
    return value.to_bytes(length, "big")


def tag(key: bytes, data: bytes) -> bytes:
    """HMAC-SHA256 authentication tag."""
    return hmac.new(key, data, hashlib.sha256).digest()


def verify_tag(key: bytes, data: bytes, expected: bytes) -> bool:
    return hmac.compare_digest(tag(key, data), expected)
