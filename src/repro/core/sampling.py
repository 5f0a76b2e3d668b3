"""Seeded heavy-tail sampler for workload generation.

Application traffic is not uniform: DHT lookups concentrate on popular
keys (the classic Zipf shape measured in deployed P2P systems).  The
workload subsystem (:mod:`repro.workload`) draws them from the sampler
here.

Determinism contract: the sampler consumes *only* the ``random.Random``
instance it was given, draws exactly one ``random()`` double per sample,
and maps it through a precomputed table with pure float arithmetic — so
two same-seed runs produce byte-identical sample streams on every
platform CPython supports (the Mersenne Twister double stream and IEEE-754
arithmetic are both platform-stable).  ``tests/test_sampling.py`` pins
exact sequences to hold the contract.
"""

from __future__ import annotations

import random
from bisect import bisect_left

__all__ = ["ZipfSampler"]


class ZipfSampler:
    """Zipf-distributed ranks over ``{1, .., n}``: P(k) proportional to 1/k**s.

    Sampling inverts the precomputed cumulative distribution with a binary
    search — O(log n) per draw, one RNG double consumed, no rejection loop
    (rejection sampling draws a data-dependent number of doubles, which
    would make downstream RNG consumption depend on earlier samples and
    ruin cross-run trace comparisons when parameters change).
    """

    __slots__ = ("n", "exponent", "_rng", "_cdf")

    def __init__(self, n: int, exponent: float = 1.1, rng: random.Random | None = None) -> None:
        if n < 1:
            raise ValueError(f"ZipfSampler needs n >= 1, got {n}")
        if exponent <= 0:
            raise ValueError(f"Zipf exponent must be positive, got {exponent}")
        self.n = n
        self.exponent = exponent
        self._rng = rng if rng is not None else random.Random(0)
        weights = [1.0 / (k ** exponent) for k in range(1, n + 1)]
        total = 0.0
        cdf = []
        for w in weights:
            total += w
            cdf.append(total)
        # Normalize in place; force the final entry to exactly 1.0 so a
        # random() draw of 0.999... can never fall past the table.
        self._cdf = [c / total for c in cdf]
        self._cdf[-1] = 1.0

    def sample(self) -> int:
        """One rank in ``[1, n]``; rank 1 is the most popular."""
        u = self._rng.random()
        return bisect_left(self._cdf, u) + 1

    def probability(self, rank: int) -> float:
        """The exact model probability of ``rank`` (for shape tests)."""
        if not 1 <= rank <= self.n:
            raise ValueError(f"rank out of range: {rank}")
        lo = self._cdf[rank - 2] if rank >= 2 else 0.0
        return self._cdf[rank - 1] - lo
