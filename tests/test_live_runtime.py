"""Live runtime: asyncio scheduler semantics and the UDP fabric.

Three strata:

- unit: :class:`AsyncioScheduler` satisfies the :class:`Clock` protocol
  (as does the simulator), with sim-compatible cancel semantics;
- integration: a four-node WHISPER stack on real UDP sockets inside one
  process — PSS converges, a private group forms, an onion-routed app
  message is delivered and answered;
- system: ``examples/live_chat.py`` as two OS processes over loopback
  (the CI live-smoke assertion).
"""

import dataclasses
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro import wire
from repro.core.node import WhisperConfig
from repro.core.ppss import MemberState, PpssConfig
from repro.pss.gossip import PssConfig
from repro.runtime import AsyncioScheduler, LiveRuntime
from repro.sim.clock import Cancellable, Clock
from repro.sim.engine import Simulator
from repro.sim.process import Timer

from .wire_samples import crc_frame

REPO_ROOT = Path(__file__).resolve().parent.parent


def fast_config() -> WhisperConfig:
    return WhisperConfig(
        pss=PssConfig(exchange_keys=True, cycle_time=0.5, response_timeout=2.0),
        ppss=PpssConfig(cycle_time=1.0, join_retry_every=1.0, response_timeout=3.0),
    )


class TestClockProtocol:
    def test_simulator_satisfies_clock(self):
        assert isinstance(Simulator(), Clock)

    def test_asyncio_scheduler_satisfies_clock(self):
        scheduler = AsyncioScheduler()
        try:
            assert isinstance(scheduler, Clock)
        finally:
            scheduler.close()

    def test_handles_are_cancellable(self):
        scheduler = AsyncioScheduler()
        try:
            handle = scheduler.schedule(60.0, lambda: None)
            assert isinstance(handle, Cancellable)
            assert not handle.cancelled
            handle.cancel()
            handle.cancel()  # idempotent
            assert handle.cancelled
        finally:
            scheduler.close()


class TestAsyncioScheduler:
    def test_now_advances_with_wall_clock(self):
        scheduler = AsyncioScheduler()
        try:
            t0 = scheduler.now
            scheduler.run_for(0.05)
            assert scheduler.now >= t0 + 0.04
        finally:
            scheduler.close()

    def test_scheduled_callback_fires_cancelled_does_not(self):
        scheduler = AsyncioScheduler()
        fired = []
        try:
            scheduler.schedule(0.01, lambda: fired.append("a"))
            doomed = scheduler.schedule(0.01, lambda: fired.append("b"))
            doomed.cancel()
            scheduler.run_for(0.1)
            assert fired == ["a"]
        finally:
            scheduler.close()

    def test_schedule_at_absolute_time(self):
        scheduler = AsyncioScheduler()
        fired = []
        try:
            scheduler.schedule_at(scheduler.now + 0.01, lambda: fired.append(1))
            scheduler.run_for(0.1)
            assert fired == [1]
        finally:
            scheduler.close()

    def test_negative_delay_rejected(self):
        scheduler = AsyncioScheduler()
        try:
            with pytest.raises(ValueError):
                scheduler.schedule(-0.1, lambda: None)
            with pytest.raises(ValueError):
                scheduler.schedule_at(scheduler.now - 1.0, lambda: None)
        finally:
            scheduler.close()

    def test_sim_timer_helper_runs_on_live_clock(self):
        """The sim's Timer (used by PSS/PPSS) works unchanged on asyncio."""
        scheduler = AsyncioScheduler()
        fired = []
        try:
            timer = Timer(scheduler, lambda: fired.append(1))
            timer.start(0.01)
            assert timer.armed
            scheduler.run_for(0.1)
            assert fired == [1]
            assert not timer.armed
        finally:
            scheduler.close()


class TestLiveStack:
    """Four unmodified WhisperNodes on real UDP sockets, one process."""

    def test_gossip_group_and_onion_delivery(self):
        rt = LiveRuntime(seed=5, provider="real", key_bits=512, whisper=fast_config())
        try:
            for nid in (1, 2, 3, 4):
                rt.add_node(nid)
            rt.start([rt.descriptor(1)])

            # PSS exchange: every node learns peers beyond the introducer.
            assert rt.run_until(
                lambda: all(len(n.pss.view) >= 2 for n in rt.nodes.values()),
                timeout=20,
            ), "PSS never converged over live sockets"

            # CB: onion building needs two keyed mixes.
            assert rt.run_until(
                lambda: all(
                    len(n.backlog.entries()) >= 2 for n in rt.nodes.values()
                ),
                timeout=20,
            ), "connection backlogs never filled"

            leader = rt.nodes[1].create_group("live-room")
            joiner = rt.nodes[3].join_group(leader.invite())
            assert rt.run_until(
                lambda: joiner.state is MemberState.MEMBER, timeout=30
            ), "onion-routed group join failed"

            got = []
            leader.set_app_handler(lambda payload, reply_to: got.append(payload))
            joiner.send_app(
                leader.self_contact(), {"app": "t", "text": "live"}, 256
            )
            assert rt.run_until(lambda: bool(got), timeout=20)
            assert got[0]["text"] == "live"

            # Real frames moved: the fabric's accountant charged measured
            # datagram bytes, onion-routed WCL traffic among them.
            assert rt.network.stats.delivered > 0
            assert rt.accountant.totals(1).up_bytes > 0
            assert rt.network.accountant.totals(3).up_by_category["wcl"] > 0
        finally:
            rt.close()

    def test_real_provider_carries_a_circuit_message(self):
        """A live node on the real provider's fast cipher: an app message
        crosses an established circuit as real layered ciphertext."""
        config = dataclasses.replace(fast_config(), circuit_mode=True)
        rt = LiveRuntime(seed=11, provider="real", key_bits=512, whisper=config)
        try:
            for nid in range(1, 6):
                rt.add_node(nid)
            rt.start([rt.descriptor(1)])
            assert rt.run_until(
                lambda: all(
                    len(n.backlog.entries()) >= 2 for n in rt.nodes.values()
                ),
                timeout=20,
            ), "connection backlogs never filled"
            leader = rt.nodes[1].create_group("live-circuit")
            joiner = rt.nodes[4].join_group(leader.invite())
            assert rt.run_until(
                lambda: joiner.state is MemberState.MEMBER, timeout=30
            ), "group join failed"

            got = []
            leader.set_app_handler(lambda payload, reply_to: got.append(payload))
            src, dst = rt.nodes[4].wcl, rt.nodes[1].wcl
            # The first message goes per-message and initiates the setup.
            joiner.send_app(leader.self_contact(), {"app": "t", "n": 1}, 256)
            assert rt.run_until(
                lambda: any(c.established for c in src._circuits.values()),
                timeout=20,
            ), "circuit never established"
            before = dst.stats.circuit_delivered
            joiner.send_app(leader.self_contact(), {"app": "t", "n": 2}, 256)
            assert rt.run_until(
                lambda: dst.stats.circuit_delivered > before
                and {"app": "t", "n": 2} in got,
                timeout=20,
            ), "no message delivered over the circuit"
            assert src.stats.circuit_sent >= 1
        finally:
            rt.close()

    def test_send_from_closed_endpoint_is_dropped_silently(self):
        rt = LiveRuntime(seed=6, provider="sim", whisper=fast_config())
        try:
            rt.add_node(1)
            endpoint = rt.network.endpoints[1]
            rt.network.close_endpoint(1)
            before = rt.network.stats.filtered
            rt.network.send(1, endpoint, "nat.ping", {"from": 1}, 16, category="nat")
            assert rt.network.stats.filtered == before + 1
        finally:
            rt.close()

    def test_garbage_datagram_is_counted_and_dropped(self):
        rt = LiveRuntime(seed=7, provider="sim", whisper=fast_config())
        try:
            rt.add_node(1)
            rt.network._on_datagram(1, b"not a wire frame", ("127.0.0.1", 9))
            assert rt.network.stats.rejected == 1
            assert rt.network.stats.delivered == 0
        finally:
            rt.close()

    def test_hostile_datagram_is_rejected_and_the_node_keeps_serving(self):
        """A ~40 KB ``nat.data`` frame with a valid CRC whose body nests
        lists 20,000 deep reaches a node's socket: it is counted as one
        rejected datagram, and the next good frame is still delivered."""
        frame = crc_frame("nat.data", b"\x07\x01" * 20000 + b"\x00")
        rt = LiveRuntime(seed=8, provider="sim", whisper=fast_config())
        sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            rt.add_node(1)
            rt.start([])
            target = rt.network.endpoints[1]
            sender.sendto(frame, (target.host, target.port))
            assert rt.run_until(lambda: rt.network.stats.rejected == 1, timeout=5)
            delivered = rt.network.stats.delivered
            sender.sendto(
                wire.encode_message("nat.ping", {"from": 2}), (target.host, target.port)
            )
            assert rt.run_until(
                lambda: rt.network.stats.delivered > delivered, timeout=5
            )
            assert rt.network.stats.rejected == 1
        finally:
            sender.close()
            rt.close()


class TestTwoProcessSmoke:
    def test_live_chat_example_end_to_end(self):
        """The CI live-smoke assertion: two OS processes, loopback UDP."""
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "examples" / "live_chat.py")],
            capture_output=True,
            text=True,
            timeout=150,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "CHAT_OK" in result.stdout
