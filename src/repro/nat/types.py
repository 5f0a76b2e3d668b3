"""NAT device taxonomy.

The paper's SPLAY extension emulates "the 4 major types of NAT devices,
(full_cone, restricted_cone, port_restricted_cone, sym)".  The types differ
in two dimensions (RFC 3489 terminology):

- **mapping**: cone NATs reuse one external port per internal endpoint;
  symmetric NATs allocate a fresh external port per (internal, remote) pair,
  which makes the port unpredictable and defeats hole punching.
- **filtering**: which inbound sources may use a mapping.

Like the paper's Nylon layer, traversal relays any pair with a symmetric
side and punches every other pair.
"""

from __future__ import annotations

from enum import Enum

__all__ = ["NatType"]


class NatType(Enum):
    """The four emulated NAT behaviours, plus OPEN for P-nodes."""

    OPEN = "open"  # no NAT: public node
    FULL_CONE = "full_cone"
    RESTRICTED_CONE = "restricted_cone"
    PORT_RESTRICTED_CONE = "port_restricted_cone"
    SYMMETRIC = "sym"

    @property
    def is_natted(self) -> bool:
        return self is not NatType.OPEN

    @property
    def is_symmetric(self) -> bool:
        return self is NatType.SYMMETRIC


# The four types deployed "evenly split" in the paper's experiments.
EMULATED_TYPES = (
    NatType.FULL_CONE,
    NatType.RESTRICTED_CONE,
    NatType.PORT_RESTRICTED_CONE,
    NatType.SYMMETRIC,
)
