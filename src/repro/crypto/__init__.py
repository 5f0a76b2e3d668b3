"""Cryptographic substrate: RSA, AES, providers, and the CPU cost model."""

from .aes import AES128, ctr_transform
from .costmodel import CpuAccountant, OpRecord
from .primes import generate_prime, is_probable_prime
from .provider import (
    CryptoError,
    CryptoProvider,
    EncryptedPayload,
    KeyPair,
    PublicKey,
    RealCryptoProvider,
    Sealed,
    SimCryptoProvider,
)
from .rsa import RsaKeyPair, RsaPrivateKey, RsaPublicKey, generate_keypair
from .stream import stream_transform, tag, verify_tag

__all__ = [
    "AES128",
    "CpuAccountant",
    "CryptoError",
    "CryptoProvider",
    "EncryptedPayload",
    "KeyPair",
    "OpRecord",
    "PublicKey",
    "RealCryptoProvider",
    "RsaKeyPair",
    "RsaPrivateKey",
    "RsaPublicKey",
    "Sealed",
    "SimCryptoProvider",
    "ctr_transform",
    "generate_keypair",
    "generate_prime",
    "is_probable_prime",
    "stream_transform",
    "tag",
    "verify_tag",
]
