"""Tests for the passive link-observer attacker model."""

from repro.net.address import Endpoint
from repro.net.observer import LinkObserver, ObservedPacket


def _packet(sender, receiver, kind="pss.request", payload="ct", size=64, time=1.0):
    return ObservedPacket(
        time=time,
        sender=sender,
        receiver=receiver,
        src_endpoint=Endpoint(f"h{sender}", 1000),
        dst_endpoint=Endpoint(f"h{receiver}", 2000),
        kind=kind,
        payload=payload,
        size_bytes=size,
    )


class TestWatchFiltering:
    def test_watched_link_matches_direction(self):
        obs = LinkObserver()
        obs.watch(1, 2)
        assert obs.wants(1, 2)
        assert not obs.wants(2, 1)  # links are directed
        assert not obs.wants(1, 3)
        assert not obs.wants(3, 2)

    def test_watch_all_taps_everything(self):
        obs = LinkObserver()
        obs.watch_all()
        assert obs.wants(1, 2)
        assert obs.wants(99, 98)
        assert obs.wants(5, None)

    def test_unwatched_observer_wants_nothing(self):
        obs = LinkObserver()
        assert not obs.wants(1, 2)
        assert not obs.wants(1, None)


class TestLostPackets:
    def test_lost_packet_matches_watched_sender(self):
        # A lost/filtered packet has no receiver; the wiretap on any of the
        # sender's links still sees it leave.
        obs = LinkObserver()
        obs.watch(1, 2)
        assert obs.wants(1, None)
        assert not obs.wants(3, None)

    def test_lost_packet_recorded_with_none_receiver(self):
        obs = LinkObserver()
        obs.watch(1, 2)
        obs.record(_packet(1, None))
        assert len(obs.packets) == 1
        assert obs.packets[0].receiver is None


class TestRecording:
    def test_record_preserves_wire_view(self):
        obs = LinkObserver()
        obs.watch(4, 5)
        obs.record(_packet(4, 5, payload=b"\x01\x02", size=2, time=7.5))
        packet = obs.packets[0]
        assert packet.time == 7.5
        assert packet.payload == b"\x01\x02"
        assert packet.size_bytes == 2
        assert packet.src_endpoint == Endpoint("h4", 1000)
