"""Textbook-plus-padding RSA: key generation, encryption, signatures.

The WHISPER prototype uses RSA for onion-layer encryption and for signing
group passports; this module provides both from scratch.  Padding is a
PKCS#1-v1.5-style random pad (sufficient against the paper's
honest-but-curious adversary; we do not claim CCA security).  Signatures are
hash-then-exponentiate with SHA-256.

Key sizes are configurable: experiments default to small keys (fast pure
Python arithmetic) while the cost model charges simulated CPU time
calibrated for the 1024-bit keys of the paper era.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

from .primes import generate_prime

__all__ = ["RsaPublicKey", "RsaPrivateKey", "RsaKeyPair", "generate_keypair"]

_PUBLIC_EXPONENT = 65537


@dataclass(frozen=True)
class RsaPublicKey:
    """(n, e) — safe to circulate in gossip exchanges."""

    n: int
    e: int

    @property
    def max_payload_bytes(self) -> int:
        """Largest plaintext the padding scheme accommodates."""
        return self.n.bit_length() // 8 - 11

    def fingerprint(self) -> str:
        """Short stable identifier for logging and key history."""
        digest = hashlib.sha256(f"{self.n}:{self.e}".encode()).hexdigest()
        return digest[:16]


@dataclass(frozen=True)
class RsaPrivateKey:
    """(n, d) plus the CRT components for faster decryption."""

    n: int
    d: int
    p: int
    q: int
    d_p: int
    d_q: int
    q_inv: int

    def _decrypt_int(self, c: int) -> int:
        """CRT decryption: ~4x faster than a plain pow(c, d, n)."""
        m1 = pow(c % self.p, self.d_p, self.p)
        m2 = pow(c % self.q, self.d_q, self.q)
        h = (self.q_inv * (m1 - m2)) % self.p
        return m2 + h * self.q


@dataclass(frozen=True)
class RsaKeyPair:
    public: RsaPublicKey
    private: RsaPrivateKey


def generate_keypair(bits: int, rng: random.Random) -> RsaKeyPair:
    """Generate an RSA keypair with a ``bits``-bit modulus."""
    if bits < 128:
        raise ValueError(f"modulus too small for the padding scheme: {bits} bits")
    while True:
        p = generate_prime(bits // 2, rng)
        q = generate_prime(bits - bits // 2, rng)
        if p == q:
            continue
        n = p * q
        phi = (p - 1) * (q - 1)
        if math.gcd(_PUBLIC_EXPONENT, phi) != 1:
            continue
        d = pow(_PUBLIC_EXPONENT, -1, phi)
        if p < q:
            p, q = q, p  # CRT convention: p > q
        private = RsaPrivateKey(
            n=n, d=d, p=p, q=q,
            d_p=d % (p - 1), d_q=d % (q - 1), q_inv=pow(q, -1, p),
        )
        return RsaKeyPair(public=RsaPublicKey(n=n, e=_PUBLIC_EXPONENT), private=private)


# ----------------------------------------------------------------------
# encryption (PKCS#1-v1.5-style padding)
# ----------------------------------------------------------------------
def encrypt(public: RsaPublicKey, plaintext: bytes, rng: random.Random) -> bytes:
    """Encrypt ``plaintext`` (must fit ``public.max_payload_bytes``)."""
    k = (public.n.bit_length() + 7) // 8
    if len(plaintext) > k - 11:
        raise ValueError(
            f"plaintext too long: {len(plaintext)} > {k - 11} bytes"
        )
    pad_len = k - len(plaintext) - 3
    padding = b""
    while len(padding) < pad_len:  # non-zero bytes, drawn in bulk
        padding += rng.randbytes(pad_len - len(padding)).replace(b"\x00", b"")
    block = b"\x00\x02" + padding + b"\x00" + plaintext
    m = int.from_bytes(block, "big")
    c = pow(m, public.e, public.n)
    return c.to_bytes(k, "big")


def decrypt(private: RsaPrivateKey, ciphertext: bytes) -> bytes:
    """Invert :func:`encrypt`; raises ValueError on malformed padding."""
    k = (private.n.bit_length() + 7) // 8
    c = int.from_bytes(ciphertext, "big")
    if c >= private.n:
        raise ValueError("ciphertext out of range")
    m = private._decrypt_int(c)
    block = m.to_bytes(k, "big")
    if block[0] != 0 or block[1] != 2:
        raise ValueError("decryption error: bad padding header")
    try:
        separator = block.index(b"\x00", 2)
    except ValueError:
        raise ValueError("decryption error: missing padding separator") from None
    if separator < 10:
        raise ValueError("decryption error: padding too short")
    return block[separator + 1 :]


# ----------------------------------------------------------------------
# signatures (SHA-256, full-domain-ish)
# ----------------------------------------------------------------------
def sign(private: RsaPrivateKey, message: bytes) -> bytes:
    """Sign SHA-256(message) with the private exponent."""
    k = (private.n.bit_length() + 7) // 8
    digest = int.from_bytes(hashlib.sha256(message).digest(), "big") % private.n
    s = private._decrypt_int(digest)
    return s.to_bytes(k, "big")


def verify(public: RsaPublicKey, message: bytes, signature: bytes) -> bool:
    """Check a signature produced by :func:`sign`."""
    s = int.from_bytes(signature, "big")
    if s >= public.n:
        return False
    recovered = pow(s, public.e, public.n)
    digest = int.from_bytes(hashlib.sha256(message).digest(), "big") % public.n
    return recovered == digest
