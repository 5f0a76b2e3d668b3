"""Simulated CPU cost accounting for cryptographic operations.

The paper's Table II reports *measured* CPU time per PPSS cycle on 2.2 GHz
Core 2 Duo machines.  Our substrate executes (small-key or simulated)
crypto, so wall-clock time is meaningless; instead every operation charges a
*calibrated* cost to the node performing it.  Calibration constants are set
for the paper-era hardware and 1024/2048-bit RSA with 1 KB serialized keys:
RSA private-key operations in the ~45 ms range, public-key operations a
couple of ms, AES at tens of microseconds per kilobyte.

The WCL also uses the charged durations as processing delays, so Fig. 7's
breakdown (path build vs decrypt vs network) is reproducible.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..net.address import NodeId
from ..telemetry import NULL_TELEMETRY

if TYPE_CHECKING:
    from ..telemetry import Telemetry

__all__ = ["CpuAccountant", "OpRecord", "aes_ms"]

# Per-operation CPU costs in milliseconds, calibrated against Table II: with
# ~6 RSA decrypts per N-node PPSS cycle and the paper's 293 ms/cycle figure,
# one private-key operation lands in the ~45 ms range (RSA with 1 KB
# serialized keys through Lua/C bindings on a 2.2 GHz Core 2 Duo shared by
# ~45 emulated nodes).  Public-key operations with e=65537 are ~20x cheaper;
# AES streams at tens of microseconds per kilobyte.
RSA_DECRYPT_MS = 45.0  # private-key op (onion layer peel)
RSA_ENCRYPT_MS = 2.0  # public-key op (onion layer add)
RSA_SIGN_MS = 45.0  # private-key op (passport issuance)
RSA_VERIFY_MS = 2.0  # public-key op (passport check)
AES_MS_PER_KB = 0.016  # bulk symmetric encryption
AES_SETUP_MS = 0.005  # key schedule
# Lognormal sigma for per-operation load jitter (OS scheduling, co-hosted
# nodes contending for the CPU).  Applied only when the accountant is given
# an RNG.
JITTER_SIGMA = 0.25


def aes_ms(size_bytes: int) -> float:
    return AES_SETUP_MS + AES_MS_PER_KB * (size_bytes / 1024.0)


@dataclass
class OpRecord:
    """Accumulated cost of one operation type at one node."""

    count: int = 0
    total_ms: float = 0.0

    def add(self, ms: float) -> None:
        self.count += 1
        self.total_ms += ms


class CpuAccountant:
    """Records (node, operation) -> cost, plus a running total per node."""

    def __init__(self, rng: "random.Random | None" = None) -> None:
        self._rng = rng
        self._telemetry = NULL_TELEMETRY
        self._records: dict[NodeId, dict[str, OpRecord]] = defaultdict(
            lambda: defaultdict(OpRecord)
        )
        # Running per-node sum: the WCL reads it around every crypto step.
        self._totals: dict[NodeId, float] = defaultdict(float)

    def bind_telemetry(self, telemetry: "Telemetry") -> None:
        """Mirror every charged operation into telemetry counters.

        ``crypto.ms`` / ``crypto.ops`` are labelled (node, op) so Table II
        can read per-node AES vs RSA totals straight from the registry."""
        self._telemetry = telemetry

    def _jitter(self, ms: float) -> float:
        """Multiplicative load jitter; identity without an RNG (unit tests)."""
        if self._rng is None:
            return ms
        return ms * self._rng.lognormvariate(0.0, JITTER_SIGMA)

    # -- charging helpers; each returns the charged duration in seconds so
    # callers can also apply it as a processing delay.
    def charge(self, node: NodeId, op: str, ms: float) -> float:
        self._records[node][op].add(ms)
        self._totals[node] += ms
        tel = self._telemetry
        if tel.enabled:
            tel.counter("crypto.ms", node=node, op=op, layer="crypto").inc(ms)
            tel.counter("crypto.ops", node=node, op=op, layer="crypto").inc()
        return ms / 1000.0

    def rsa_decrypt(self, node: NodeId) -> float:
        return self.charge(node, "rsa_decrypt", self._jitter(RSA_DECRYPT_MS))

    def rsa_encrypt(self, node: NodeId) -> float:
        return self.charge(node, "rsa_encrypt", self._jitter(RSA_ENCRYPT_MS))

    def rsa_sign(self, node: NodeId) -> float:
        return self.charge(node, "rsa_sign", self._jitter(RSA_SIGN_MS))

    def rsa_verify(self, node: NodeId) -> float:
        return self.charge(node, "rsa_verify", self._jitter(RSA_VERIFY_MS))

    def aes(self, node: NodeId, size_bytes: int) -> float:
        return self.charge(node, "aes", self._jitter(aes_ms(size_bytes)))

    def aes_layers(self, node: NodeId, size_bytes: int, layers: int) -> float:
        """``layers`` symmetric passes over one body, charged as one op.

        The circuit-mode wrap runs all layers back to back in one call,
        so the model charges the combined cost with a single record update
        and one jitter draw (the layers execute back-to-back under the
        same load conditions).  The op name stays ``aes`` so Table II's
        AES-vs-RSA breakdown aggregates circuit traffic naturally.
        """
        return self.charge(node, "aes", self._jitter(aes_ms(size_bytes) * layers))

    # -- reporting
    def node_total_ms(self, node: NodeId, op_prefix: str = "") -> float:
        """Total milliseconds charged to ``node`` for ops matching the prefix."""
        if not op_prefix:
            return self._totals.get(node, 0.0)
        return sum(
            record.total_ms
            for op, record in self._records.get(node, {}).items()
            if op.startswith(op_prefix)
        )

    def op_breakdown(self, node: NodeId) -> dict[str, OpRecord]:
        """Per-operation records for a node (copies)."""
        return {
            op: OpRecord(record.count, record.total_ms)
            for op, record in self._records.get(node, {}).items()
        }

    def nodes(self) -> list[NodeId]:
        return list(self._records.keys())

    def reset(self) -> None:
        self._records.clear()
        self._totals.clear()
