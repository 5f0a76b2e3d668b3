"""Link latency and loss models for the two testbeds of the paper.

The paper evaluates WHISPER on (1) a 22-machine Gbps cluster hosting up to
1,000 nodes and (2) a 400-node PlanetLab slice.  We substitute parametric
models reproducing their qualitative delay behaviour:

- :class:`ClusterLatencyModel` — sub-millisecond, narrow distribution, no
  loss; plus a small per-message processing delay since up to ~45 WHISPER
  nodes share one physical machine.
- :class:`PlanetLabLatencyModel` — heavy-tailed wide-area delays (lognormal
  body, Pareto-ish tail from overloaded machines), a few percent message
  loss, and a fraction of persistently slow nodes (the paper mentions
  "heavily loaded PlanetLab machines with larger network delays and high
  message loss rates").
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod

from ..core.lru import LruCache
from .address import NodeId

__all__ = [
    "LatencyModel",
    "ClusterLatencyModel",
    "PlanetLabLatencyModel",
    "FixedLatencyModel",
]


class LatencyModel(ABC):
    """Samples one-way delays and loss for node pairs."""

    @abstractmethod
    def delay(self, src: NodeId, dst: NodeId, size_bytes: int) -> float:
        """One-way delay in seconds for a message of ``size_bytes``."""

    @abstractmethod
    def is_lost(self, src: NodeId, dst: NodeId) -> bool:
        """Whether the message is dropped in transit."""

    def caches(self) -> dict[str, LruCache]:
        """Internal memoization caches, keyed by telemetry counter prefix.

        The fabric publishes each cache's hit/miss counters under
        ``<prefix>.cache_hit`` / ``<prefix>.cache_miss``.  Stateless models
        have none.
        """
        return {}


class FixedLatencyModel(LatencyModel):
    """Constant delay, no loss.  For unit tests where timing must be exact."""

    def __init__(self, delay_s: float = 0.01) -> None:
        self._delay = delay_s

    def delay(self, src: NodeId, dst: NodeId, size_bytes: int) -> float:
        return self._delay

    def is_lost(self, src: NodeId, dst: NodeId) -> bool:
        return False


class ClusterLatencyModel(LatencyModel):
    """Gbps switched LAN with co-located simulated nodes.

    Delay = propagation (~0.1-0.3 ms) + transmission at 1 Gbps + a lognormal
    OS/scheduling jitter.  No loss.
    """

    def __init__(
        self,
        rng: random.Random,
        base_delay_s: float = 2e-4,
        bandwidth_bps: float = 1e9,
        jitter_mu: float = math.log(4e-4),
        jitter_sigma: float = 0.6,
    ) -> None:
        self._rng = rng
        self._base = base_delay_s
        self._bw = bandwidth_bps
        self._mu = jitter_mu
        self._sigma = jitter_sigma
        # Bound once: delay() runs once per message, and the attribute +
        # method-bind lookups are measurable at that volume.
        self._lognorm = rng.lognormvariate

    def delay(self, src: NodeId, dst: NodeId, size_bytes: int) -> float:
        # Keep the exact `size * 8 / bw` evaluation order: folding it to
        # `size * (8 / bw)` changes the result in the last ulp, and delays
        # feed the event clock that traces are byte-compared on.
        return (
            self._base
            + size_bytes * 8 / self._bw
            + self._lognorm(self._mu, self._sigma)
        )

    def is_lost(self, src: NodeId, dst: NodeId) -> bool:
        return False


class PlanetLabLatencyModel(LatencyModel):
    """Wide-area testbed with overloaded machines.

    Each node gets a *load factor*: most nodes are fine, a configurable
    fraction is persistently slow (5-20x).  Pairwise base RTTs come from
    synthetic geography (stable per pair).  On top: lognormal queueing jitter
    and uniform random loss.
    """

    def __init__(
        self,
        rng: random.Random,
        loss_rate: float = 0.03,
        slow_node_fraction: float = 0.15,
        min_one_way_s: float = 0.01,
        mean_one_way_s: float = 0.08,
        bandwidth_bps: float = 10e6,
    ) -> None:
        self._rng = rng
        self._loss = loss_rate
        self._slow_fraction = slow_node_fraction
        self._min = min_one_way_s
        self._mean = mean_one_way_s
        self._bw = bandwidth_bps
        # Bounded LRU (they grew per node / per pair forever before PR 5).
        # Capacities hold the largest experiment's working set outright; an
        # evicted entry is simply resampled on next touch, which keeps
        # same-seed determinism (both runs evict and resample identically).
        self._load: LruCache = LruCache(65_536)
        self._pair_base: LruCache = LruCache(1 << 20)

    def caches(self) -> dict[str, LruCache]:
        return {
            "net.latency.load": self._load,
            "net.latency.pair": self._pair_base,
        }

    def _load_factor(self, node: NodeId) -> float:
        # lookup(), not get(): capacity exceeds any working set we run, so
        # the LRU move-to-front would be dead weight four times per message.
        factor = self._load.lookup(node)
        if factor is None:
            if self._rng.random() < self._slow_fraction:
                factor = self._rng.uniform(5.0, 20.0)
            else:
                factor = self._rng.uniform(1.0, 2.0)
            self._load.put(node, factor)
        return factor

    def _base_delay(self, src: NodeId, dst: NodeId) -> float:
        key = (min(src, dst), max(src, dst))
        base = self._pair_base.lookup(key)
        if base is None:
            # Exponential spread around the mean, floored at the minimum:
            # mimics a mix of continental and intercontinental paths.
            base = self._min + self._rng.expovariate(1.0 / self._mean)
            self._pair_base.put(key, base)
        return base

    def delay(self, src: NodeId, dst: NodeId, size_bytes: int) -> float:
        base = self._base_delay(src, dst)
        load = max(self._load_factor(src), self._load_factor(dst))
        transmission = size_bytes * 8 / self._bw
        jitter = self._rng.lognormvariate(math.log(0.01), 1.0)
        return base + (transmission + jitter) * load

    def is_lost(self, src: NodeId, dst: NodeId) -> bool:
        load = max(self._load_factor(src), self._load_factor(dst))
        # Slow (overloaded) machines also lose more messages.
        effective = self._loss * (2.0 if load > 4.0 else 1.0)
        return self._rng.random() < effective
