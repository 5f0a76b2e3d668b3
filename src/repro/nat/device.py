"""Message-level emulation of a NAT device.

Follows the RFC 5382/4787 behavioural model the paper's SPLAY extension
implements: association (mapping + filtering) rules are registered on
outbound traffic, expire after a per-protocol lease of inactivity, and
inbound packets are admitted or silently dropped according to the device
type's filtering rule.

Lease defaults follow the Cisco specification cited by the paper:
5 minutes for UDP, 24 hours for TCP.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..net.address import Endpoint, Protocol
from .types import NatType

__all__ = ["NatDevice", "Mapping", "DEFAULT_LEASES"]

DEFAULT_LEASES: dict[Protocol, float] = {
    Protocol.UDP: 300.0,  # 5 minutes
    Protocol.TCP: 86_400.0,  # 24 hours
}


@dataclass
class Mapping:
    """One association rule: internal endpoint <-> allocated external port."""

    internal: Endpoint
    external_port: int
    protocol: Protocol
    expires_at: float
    # Remotes this internal endpoint has sent to through this mapping;
    # consulted by the filtering rule.
    contacted_hosts: set[str] = field(default_factory=set)
    contacted_endpoints: set[Endpoint] = field(default_factory=set)
    # For symmetric NATs the mapping is bound to exactly one remote.
    bound_remote: Endpoint | None = None
    # The external endpoint remotes observe; fixed for the mapping's
    # lifetime, cached so outbound translation need not rebuild it.
    external: Endpoint | None = None


class NatDevice:
    """A single emulated NAT box fronting one or more internal endpoints."""

    def __init__(
        self,
        nat_id: int,
        nat_type: NatType,
        leases: dict[Protocol, float] | None = None,
        first_port: int = 40_000,
    ) -> None:
        if nat_type is NatType.OPEN:
            raise ValueError("OPEN is not a NAT device type")
        self.nat_id = nat_id
        self.nat_type = nat_type
        self.public_host = f"nat-{nat_id}"
        self._leases = dict(DEFAULT_LEASES if leases is None else leases)
        self._ports = itertools.count(first_port)
        # Mapping tables, keyed differently for cone vs symmetric devices.
        self._cone: dict[tuple[Endpoint, Protocol], Mapping] = {}
        self._sym: dict[tuple[Endpoint, Endpoint, Protocol], Mapping] = {}
        self._by_port: dict[tuple[int, Protocol], Mapping] = {}
        # Single-slot caches for the fabric hot path.  A simulated device
        # fronts one internal endpoint talking mostly UDP, so the last-used
        # mapping answers nearly every translate/filter without building a
        # tuple key and hashing into the tables.  The slots are advisory: a
        # miss falls through to the full lookup, and eviction/reset clears
        # them so they can never serve a dead mapping.
        self._out_slot: Mapping | None = None
        self._in_slot: Mapping | None = None
        self.dropped_inbound = 0  # filtered packets, for diagnostics

    # ------------------------------------------------------------------
    def lease(self, protocol: Protocol) -> float:
        return self._leases[protocol]

    def _expired(self, mapping: Mapping, now: float) -> bool:
        return now > mapping.expires_at

    def _evict(self, mapping: Mapping) -> None:
        if self._out_slot is mapping:
            self._out_slot = None
        if self._in_slot is mapping:
            self._in_slot = None
        self._by_port.pop((mapping.external_port, mapping.protocol), None)
        if self.nat_type.is_symmetric:
            assert mapping.bound_remote is not None
            self._sym.pop(
                (mapping.internal, mapping.bound_remote, mapping.protocol), None
            )
        else:
            self._cone.pop((mapping.internal, mapping.protocol), None)

    def _allocate(
        self, internal: Endpoint, remote: Endpoint, protocol: Protocol, now: float
    ) -> Mapping:
        port = next(self._ports)
        mapping = Mapping(
            internal=internal,
            external_port=port,
            protocol=protocol,
            expires_at=now + self.lease(protocol),
            bound_remote=remote if self.nat_type.is_symmetric else None,
            external=Endpoint(self.public_host, port),
        )
        self._by_port[(port, protocol)] = mapping
        if self.nat_type.is_symmetric:
            self._sym[(internal, remote, protocol)] = mapping
        else:
            self._cone[(internal, protocol)] = mapping
        return mapping

    # ------------------------------------------------------------------
    def outbound(
        self, internal: Endpoint, remote: Endpoint, protocol: Protocol, now: float
    ) -> Endpoint:
        """Translate an outgoing packet; registers/refreshes the association.

        Returns the external endpoint the remote will observe as the source.
        """
        m = self._out_slot
        if (
            m is not None
            and m.internal is internal  # topology interns the endpoint object
            and m.protocol is protocol
            and now <= m.expires_at
            and (m.bound_remote is None or m.bound_remote == remote)
        ):
            m.expires_at = now + self._leases[protocol]
            m.contacted_hosts.add(remote.host)
            m.contacted_endpoints.add(remote)
            return m.external
        if self.nat_type.is_symmetric:
            mapping = self._sym.get((internal, remote, protocol))
        else:
            mapping = self._cone.get((internal, protocol))
        if mapping is not None and self._expired(mapping, now):
            self._evict(mapping)
            mapping = None
        if mapping is None:
            mapping = self._allocate(internal, remote, protocol, now)
        mapping.expires_at = now + self.lease(protocol)
        mapping.contacted_hosts.add(remote.host)
        mapping.contacted_endpoints.add(remote)
        external = mapping.external
        if external is None:  # mapping predates the cache (restored state)
            external = mapping.external = Endpoint(self.public_host, mapping.external_port)
        self._out_slot = mapping
        return external

    def inbound(
        self, external_port: int, source: Endpoint, protocol: Protocol, now: float
    ) -> Endpoint | None:
        """Filter an incoming packet.

        Returns the internal endpoint to deliver to, or ``None`` when the
        packet must be silently dropped (no mapping, expired lease, or the
        source fails the type's filtering rule).
        """
        m = self._in_slot
        if (
            m is not None
            and m.external_port == external_port
            and m.protocol is protocol
            and now <= m.expires_at
        ):
            if not self._admits(m, source):
                self.dropped_inbound += 1
                return None
            m.expires_at = now + self._leases[protocol]
            return m.internal
        mapping = self._by_port.get((external_port, protocol))
        if mapping is None:
            self.dropped_inbound += 1
            return None
        if self._expired(mapping, now):
            self._evict(mapping)
            self.dropped_inbound += 1
            return None
        self._in_slot = mapping
        if not self._admits(mapping, source):
            self.dropped_inbound += 1
            return None
        # Established flows keep their association alive (TCP semantics;
        # for UDP this models keep-alive-by-traffic).
        mapping.expires_at = now + self.lease(protocol)
        return mapping.internal

    def _admits(self, mapping: Mapping, source: Endpoint) -> bool:
        if self.nat_type is NatType.FULL_CONE:
            return True
        if self.nat_type is NatType.RESTRICTED_CONE:
            return source.host in mapping.contacted_hosts
        if self.nat_type is NatType.PORT_RESTRICTED_CONE:
            return source in mapping.contacted_endpoints
        # SYMMETRIC: only the bound remote may use this mapping.
        return source == mapping.bound_remote

    # ------------------------------------------------------------------
    def reset_mappings(self) -> int:
        """Forget every association rule (the device rebooted).

        Established flows through this NAT die silently: inbound packets to
        the old external ports are filtered until fresh outbound traffic
        re-opens mappings — on *new* ports, so remotes holding the old
        endpoint keep missing.  Returns the number of rules wiped.
        """
        wiped = len(self._by_port)
        self._cone.clear()
        self._sym.clear()
        self._by_port.clear()
        self._out_slot = None
        self._in_slot = None
        return wiped
