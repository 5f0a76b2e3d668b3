"""The fabric data path under reconfiguration.

``Network.send`` / ``_deliver`` are one plain-Python closure pair that
tests its optional features per message.  Two properties used to hold by
construction when each configuration had its own generated code and are
pinned here instead: a feature that is attached but inert changes nothing
observable, and every reconfiguration call takes effect on the very next
message.
"""

from __future__ import annotations

import traceback

import pytest

from repro import wire
from repro.faults import FaultInjector
from repro.harness import World, WorldConfig
from repro.nat.types import NatType
from repro.net.address import Endpoint
from repro.net.observer import LinkObserver

from .helpers import MiniWorld


# ---------------------------------------------------------------------------
# (a) inert features are invisible
# ---------------------------------------------------------------------------
class DeafObserver(LinkObserver):
    def wants(self, sender, receiver) -> bool:
        return False


def _run(mid_run=None) -> tuple[str, int]:
    world = World(WorldConfig(seed=21, telemetry_enabled=True))
    world.populate(60)
    world.start_all()
    world.run(30.0)
    if mid_run is not None:
        mid_run(world)
    world.run(60.0)
    return world.telemetry.export_jsonl(), world.sim.events_processed


class TestInertFeaturesAreInvisible:
    @pytest.fixture(scope="class")
    def bare(self):
        return _run()

    def test_observer_that_wants_nothing(self, bare):
        observer = DeafObserver()
        assert _run(lambda world: world.network.add_observer(observer)) == bare
        assert observer.packets == []

    def test_fault_injector_without_a_plan(self, bare):
        assert _run(lambda world: FaultInjector(world)) == bare


# ---------------------------------------------------------------------------
# (b) reconfiguration takes effect on the next send
# ---------------------------------------------------------------------------
class DropEverything:
    def on_send(self, src, dst_hint):
        return "test"

    def on_deliver(self, src, owner):
        return None


class Fabric:
    """Two public nodes; ``ping()`` sends 1 -> 2 and returns what arrived."""

    def __init__(self) -> None:
        self.world = MiniWorld()
        self.network = self.world.network
        self.received: list = []
        for node_id in (1, 2):
            self.world.topology.add_node(node_id, NatType.OPEN)
        self.network.attach(1, lambda message: None)
        self.network.attach(2, self.received.append)
        self.dst: Endpoint = self.world.topology.assignment(2).local_endpoint

    def ping(self, payload: object = "ping") -> list:
        del self.received[:]
        self.network.send(1, self.dst, "nat.ping", payload, 40)
        self.world.run(1.0)
        return list(self.received)


class TestReconfigurationAppliesToTheNextMessage:
    def test_fault_hook_installed_and_cleared(self):
        fabric = Fabric()
        assert len(fabric.ping()) == 1
        fabric.network.set_fault_hook(DropEverything())
        assert fabric.ping() == []
        assert fabric.network.stats.lost == 1
        fabric.network.set_fault_hook(None)
        assert len(fabric.ping()) == 1
        assert fabric.network.stats.lost == 1

    def test_observer_added_mid_run(self):
        fabric = Fabric()
        fabric.ping()
        tap = LinkObserver()
        tap.watch_all()
        fabric.network.add_observer(tap)
        assert tap.packets == []
        fabric.ping()
        assert [(p.sender, p.receiver, p.kind) for p in tap.packets] == [
            (1, 2, "nat.ping")
        ]

    def test_wire_mode_switched_mid_run(self):
        fabric = Fabric()
        payload = {"from": 1}
        (message,) = fabric.ping(payload)
        assert message.payload is payload  # "off": the sender's object
        fabric.network.set_wire_mode("verify")
        (message,) = fabric.ping(payload)
        assert message.payload == payload
        assert message.payload is not payload  # went through the codec
        assert fabric.network.wire_audit.kinds["nat.ping"].count == 1
        with pytest.raises(wire.WireEncodeError):
            fabric.ping(object())  # not encodable: fails at the sender
        fabric.network.set_wire_mode("off")
        (message,) = fabric.ping(payload)
        assert message.payload is payload

    def test_foreign_router_installed_mid_run(self):
        fabric = Fabric()
        elsewhere = Endpoint("pub-999", 5000)
        fabric.network.send(1, elsewhere, "nat.ping", None, 40)
        fabric.world.run(1.0)
        assert fabric.network.stats.filtered == 1  # nobody there
        routed: list = []
        fabric.network.set_foreign_router(
            lambda src, message, category, transit: routed.append(
                (src, message.dst, category, transit)
            )
        )
        fabric.network.send(1, elsewhere, "nat.ping", None, 40, category="other")
        fabric.world.run(1.0)
        assert routed == [(1, elsewhere, "other", 0.01)]
        assert fabric.network.stats.filtered == 1
        assert len(fabric.ping()) == 1  # local destinations are not routed


class TestDataPathStaysWrappable:
    def test_send_and_deliver_are_instance_attributes(self):
        fabric = Fabric()
        network = fabric.network
        assert "send" in vars(network) and "_deliver" in vars(network)
        sends, deliveries = [], []
        original_send, original_deliver = network.send, network._deliver

        def spy_send(src_node, dst, kind, *args, **kwargs):
            sends.append(kind)
            return original_send(src_node, dst, kind, *args, **kwargs)

        def spy_deliver(src_node, message, category):
            deliveries.append(message.kind)
            return original_deliver(src_node, message, category)

        network.send = spy_send
        # send() resolves net._deliver per call, so a wrapper assigned
        # after the closures were built still sees every delivery.
        network._deliver = spy_deliver
        assert len(fabric.ping()) == 1
        assert sends == deliveries == ["nat.ping"]

    def test_crash_in_a_handler_tracebacks_through_network_py(self):
        fabric = Fabric()

        def broken(message):
            raise RuntimeError("handler bug")

        fabric.network.attach(2, broken)
        with pytest.raises(RuntimeError) as info:
            fabric.ping()
        text = "".join(traceback.format_exception(info.value))
        assert "network.py" in text and "handler(message)" in text
        assert 'File "<string>"' not in text
