"""Unit tests for the NAT device emulation (mapping + filtering rules)."""

import pytest

from repro.nat.device import NatDevice
from repro.nat.types import NatType
from repro.net.address import Endpoint, Protocol

INTERNAL = Endpoint("priv-1", 7000)
REMOTE_A = Endpoint("pub-100", 7000)
REMOTE_B = Endpoint("pub-200", 7000)
REMOTE_A_ALT_PORT = Endpoint("pub-100", 9999)


def make(nat_type: NatType) -> NatDevice:
    return NatDevice(nat_id=1, nat_type=nat_type)


class TestMappings:
    def test_open_type_rejected(self):
        with pytest.raises(ValueError):
            make(NatType.OPEN)

    def test_cone_reuses_mapping_across_remotes(self):
        device = make(NatType.FULL_CONE)
        ext1 = device.outbound(INTERNAL, REMOTE_A, Protocol.UDP, now=0.0)
        ext2 = device.outbound(INTERNAL, REMOTE_B, Protocol.UDP, now=1.0)
        assert ext1 == ext2

    def test_symmetric_allocates_per_remote(self):
        device = make(NatType.SYMMETRIC)
        ext1 = device.outbound(INTERNAL, REMOTE_A, Protocol.UDP, now=0.0)
        ext2 = device.outbound(INTERNAL, REMOTE_B, Protocol.UDP, now=1.0)
        assert ext1 != ext2

    def test_external_host_is_nat_public_interface(self):
        device = make(NatType.FULL_CONE)
        ext = device.outbound(INTERNAL, REMOTE_A, Protocol.UDP, now=0.0)
        assert ext.host == "nat-1"

    def test_mapping_expires_after_lease(self):
        device = make(NatType.FULL_CONE)
        ext = device.outbound(INTERNAL, REMOTE_A, Protocol.UDP, now=0.0)
        # Within the 300 s UDP lease the same mapping is reused.
        assert device.outbound(INTERNAL, REMOTE_A, Protocol.UDP, now=299.0) == ext
        # Past the (refreshed) lease a new port is allocated.
        assert device.outbound(INTERNAL, REMOTE_A, Protocol.UDP, now=299.0 + 301.0) != ext

    def test_tcp_lease_longer_than_udp(self):
        device = make(NatType.FULL_CONE)
        assert device.lease(Protocol.TCP) > device.lease(Protocol.UDP)

    def test_outbound_traffic_refreshes_lease(self):
        device = make(NatType.FULL_CONE)
        ext = device.outbound(INTERNAL, REMOTE_A, Protocol.UDP, now=0.0)
        for t in (200.0, 400.0, 600.0):
            assert device.outbound(INTERNAL, REMOTE_A, Protocol.UDP, now=t) == ext


class TestFiltering:
    def test_full_cone_admits_anyone(self):
        device = make(NatType.FULL_CONE)
        ext = device.outbound(INTERNAL, REMOTE_A, Protocol.UDP, now=0.0)
        assert device.inbound(ext.port, REMOTE_B, Protocol.UDP, now=1.0) == INTERNAL

    def test_restricted_cone_requires_contacted_host(self):
        device = make(NatType.RESTRICTED_CONE)
        ext = device.outbound(INTERNAL, REMOTE_A, Protocol.UDP, now=0.0)
        assert device.inbound(ext.port, REMOTE_B, Protocol.UDP, now=1.0) is None
        # Same host, different port: restricted cone admits it.
        assert (
            device.inbound(ext.port, REMOTE_A_ALT_PORT, Protocol.UDP, now=1.0)
            == INTERNAL
        )

    def test_port_restricted_requires_exact_endpoint(self):
        device = make(NatType.PORT_RESTRICTED_CONE)
        ext = device.outbound(INTERNAL, REMOTE_A, Protocol.UDP, now=0.0)
        assert device.inbound(ext.port, REMOTE_A_ALT_PORT, Protocol.UDP, now=1.0) is None
        assert device.inbound(ext.port, REMOTE_A, Protocol.UDP, now=1.0) == INTERNAL

    def test_symmetric_admits_only_bound_remote(self):
        device = make(NatType.SYMMETRIC)
        ext = device.outbound(INTERNAL, REMOTE_A, Protocol.UDP, now=0.0)
        assert device.inbound(ext.port, REMOTE_B, Protocol.UDP, now=1.0) is None
        assert device.inbound(ext.port, REMOTE_A, Protocol.UDP, now=1.0) == INTERNAL

    def test_unknown_port_dropped(self):
        device = make(NatType.FULL_CONE)
        assert device.inbound(55555, REMOTE_A, Protocol.UDP, now=0.0) is None
        assert device.dropped_inbound == 1

    def test_expired_mapping_drops_inbound(self):
        device = make(NatType.FULL_CONE)
        ext = device.outbound(INTERNAL, REMOTE_A, Protocol.UDP, now=0.0)
        assert device.inbound(ext.port, REMOTE_A, Protocol.UDP, now=1000.0) is None

    def test_inbound_refreshes_lease(self):
        device = make(NatType.FULL_CONE)
        ext = device.outbound(INTERNAL, REMOTE_A, Protocol.UDP, now=0.0)
        assert device.inbound(ext.port, REMOTE_A, Protocol.UDP, now=250.0) == INTERNAL
        # Without the inbound refresh this would be past the original lease.
        assert device.inbound(ext.port, REMOTE_A, Protocol.UDP, now=500.0) == INTERNAL
