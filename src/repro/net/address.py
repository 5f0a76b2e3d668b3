"""Node identities and network endpoints.

The simulation distinguishes a node's *identity* (:class:`NodeId`, stable for
the node's lifetime) from the *endpoints* packets travel between.  A public
node (P-node) listens on a globally reachable endpoint.  A natted node
(N-node) has a private endpoint; the outside world only ever sees external
endpoints allocated by its NAT device.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = ["NodeId", "Endpoint", "Protocol", "NodeKind"]


NodeId = int
"""Opaque, unique, stable node identifier."""


class Protocol(Enum):
    """Transport protocol — NAT lease times and hole-punching odds differ."""

    UDP = "udp"
    TCP = "tcp"


class NodeKind(Enum):
    """Public (directly reachable) vs natted node."""

    PUBLIC = "P"
    NATTED = "N"


@dataclass(frozen=True, slots=True)
class Endpoint:
    """An (host, port) pair.

    ``host`` strings are synthetic: ``"pub-<id>"`` for public hosts,
    ``"nat-<id>"`` for NAT devices' public interfaces and ``"priv-<id>"`` for
    private addresses behind a NAT.  Equality/hash make endpoints usable as
    dict keys for NAT mapping tables.
    """

    host: str
    port: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.host}:{self.port}"
