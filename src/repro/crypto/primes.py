"""Prime generation for RSA key material.

Miller-Rabin probabilistic primality testing with a deterministic witness
set for small inputs and random witnesses above, plus trial division by
small primes to discard most composites cheaply.
"""

from __future__ import annotations

import random

__all__ = ["is_probable_prime", "generate_prime"]

_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
    149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
]

# Deterministic Miller-Rabin witnesses: correct for all n < 3.3e24
# (Sorenson & Webster).
_DETERMINISTIC_WITNESSES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]
_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981


def _miller_rabin_round(n: int, a: int, d: int, r: int) -> bool:
    """One Miller-Rabin round; True when ``n`` passes for witness ``a``."""
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_probable_prime(n: int, rng: random.Random | None = None, rounds: int = 20) -> bool:
    """Miller-Rabin primality test.

    Deterministic (and exact) below ~3.3e24; probabilistic with ``rounds``
    random witnesses above — error probability below 4^-rounds.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if n < _DETERMINISTIC_BOUND:
        witnesses = [a for a in _DETERMINISTIC_WITNESSES if a < n - 1]
    else:
        if rng is None:
            rng = random.Random()
        # Drawn as their rounds run: most composites fail the first.
        witnesses = (rng.randrange(2, n - 1) for _ in range(rounds))
    return all(_miller_rabin_round(n, a, d, r) for a in witnesses)


def generate_prime(bits: int, rng: random.Random) -> int:
    """Generate a random prime of exactly ``bits`` bits.

    The top two bits are forced to 1 so the product of two such primes has
    the full 2*bits length (standard RSA practice); the low bit is forced to
    1 for oddness.
    """
    if bits < 8:
        raise ValueError(f"prime size too small: {bits} bits")
    while True:
        candidate = rng.getrandbits(bits)
        candidate |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        if is_probable_prime(candidate, rng):
            return candidate
