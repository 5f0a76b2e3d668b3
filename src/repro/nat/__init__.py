"""NAT emulation substrate: device behaviour, topology, traversal (Nylon)."""

from .device import DEFAULT_LEASES, Mapping, NatDevice
from .topology import NatAssignment, NatTopology
from .traversal import (
    MAX_ROUTE_LENGTH,
    ConnectionManager,
    NodeDescriptor,
    Session,
    TraversalPolicy,
)
from .types import EMULATED_TYPES, NatType

__all__ = [
    "ConnectionManager",
    "DEFAULT_LEASES",
    "EMULATED_TYPES",
    "Mapping",
    "MAX_ROUTE_LENGTH",
    "NatAssignment",
    "NatDevice",
    "NatTopology",
    "NatType",
    "NodeDescriptor",
    "Session",
    "TraversalPolicy",
]
