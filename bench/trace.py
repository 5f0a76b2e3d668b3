"""Outside-in span tracer for the traced benchmark run.

The program is not edited: :meth:`Tracer.install` replaces the layers'
public entry points (and the callbacks handed to the schedulers) with
timing wrappers *before* a world is built, and :meth:`Tracer.uninstall`
puts the originals back.  Every wrapper opens a span on one stack:

- a layer's **self time** is its spans' duration minus the part covered by
  child spans, so the self times of all layers partition the root span
  exactly (that is the closure check in ``bench/check.py``);
- spans that belong to one of the first ``max_messages`` benchmark
  messages are kept individually (id, parent, message id, name, start,
  end); everything else only feeds the per-layer and per-name aggregates.

A message id follows the work it causes three ways: synchronous nesting,
callbacks scheduled from inside a span (the wrapper remembers the span
that scheduled it), and — in the simulator, where the receiver sees the
sender's payload object — the identity of the payload handed to
``Network.send``.  Real sockets break the third link, so in ``live_udp``
a message id covers the source side only.

What the wrappers cannot see stays in the enclosing span: the compiled
fabric ``_deliver`` and the heap are part of ``sim`` self time, socket
syscalls and the asyncio loop part of ``runtime`` self time.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
import types
from collections import defaultdict
from typing import Any, Callable

__all__ = ["LAYERS", "Tracer"]

LAYERS = (
    "sim", "net", "nat", "pss", "wcl", "ppss", "crypto", "wire",
    "runtime", "harness", "bench", "unmapped",
)

# Module prefix -> layer; first match wins.  ``repro.core.node`` is the
# dispatch glue between fabric, traversal and WCL: it only ever runs
# inside a traversal span, so it is counted there.
_MODULE_LAYERS = (
    ("repro.sim", "sim"),
    ("repro.net", "net"),
    ("repro.nat", "nat"),
    ("repro.pss", "pss"),
    ("repro.core.ppss", "ppss"),
    ("repro.core.group", "ppss"),
    ("repro.core.election", "ppss"),
    ("repro.core.contact", "ppss"),
    ("repro.core.node", "nat"),
    ("repro.core", "wcl"),
    ("repro.crypto", "crypto"),
    ("repro.wire", "wire"),
    ("repro.runtime", "runtime"),
    ("repro.harness", "harness"),
    ("bench", "bench"),
)

_clock = time.perf_counter_ns
_INHERIT = -1  # trace_id default: take the message id of the enclosing span


def _layer_of(module: str) -> str:
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "unmapped"


class _Callback:
    """A scheduled callback that fires inside a span of its owner's layer."""

    __slots__ = ("tracer", "callback", "layer", "name", "trace_id", "parent")

    def __init__(self, tracer, callback, layer, name, trace_id, parent):
        self.tracer = tracer
        self.callback = callback
        self.layer = layer
        self.name = name
        self.trace_id = trace_id
        self.parent = parent

    def __call__(self, *args: Any) -> Any:
        tracer = self.tracer
        if not tracer.recording:
            return self.callback(*args)
        return tracer.run(
            self.callback, self.layer, self.name, args, None,
            self.trace_id, self.parent,
        )


class Tracer:
    """Span stack, per-layer self times, and the patches that feed them."""

    def __init__(self, max_messages: int = 2000) -> None:
        self.recording = False
        self.max_messages = max_messages
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.messages_traced = 0
        self._stack: list[list] = []  # frames: [child_ns, trace_id, span_id]
        self._span_ids = itertools.count(1)
        # id(payload) -> (payload, trace_id, span_id); holding the payload
        # keeps its id from being reused while the message is in flight.
        self._in_flight: dict[int, tuple[object, int, int]] = {}
        self._names: dict[object, tuple[str, str]] = {}
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def run(
        self,
        fn: Callable[..., Any],
        layer: str,
        name: str,
        args: tuple = (),
        kwargs: dict | None = None,
        trace_id: int | None = _INHERIT,
        parent: int = 0,
    ) -> Any:
        """Call ``fn`` inside a span; the caller checked ``recording``.

        ``trace_id`` None means "belongs to no kept message"."""
        stack = self._stack
        if trace_id == _INHERIT:
            trace_id = None
            if stack:
                top = stack[-1]
                trace_id = top[1]
                parent = top[2]
        frame = [0, trace_id, next(self._span_ids) if trace_id is not None else 0]
        stack.append(frame)
        start = _clock()
        try:
            if kwargs:
                return fn(*args, **kwargs)
            return fn(*args)
        finally:
            end = _clock()
            stack.pop()
            duration = end - start
            self.self_ns[layer] += duration - frame[0]
            self.calls[name] += 1
            self.total_ns[name] += duration
            if stack:
                stack[-1][0] += duration
            if trace_id is not None:
                self.spans.append((frame[2], parent, trace_id, name, start, end))

    def wrap(self, fn: Callable[..., Any], layer: str, name: str) -> Callable[..., Any]:
        """``fn`` timed as a span of ``layer`` whenever the tracer records."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.recording:
                return fn(*args, **kwargs)
            return tracer.run(fn, layer, name, args, kwargs)

        return traced

    def message(self, fn: Callable[..., Any], name: str, *args: Any) -> Any:
        """Run the benchmark's own send of one message as a root span.

        The first ``max_messages`` calls get a message id that every span
        they cause inherits."""
        if not self.recording:
            return fn(*args)
        trace_id = None
        if self.messages_traced < self.max_messages:
            self.messages_traced += 1
            trace_id = self.messages_traced
        return self.run(fn, "bench", name, args, None, trace_id, 0)

    def callback(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap a callback handed to a scheduler, timer or session request.

        The span that hands it over becomes the parent of the span it
        fires in, which is how a message id crosses simulated time."""
        if isinstance(fn, _Callback):
            return fn
        layer, name = self._describe(fn)
        trace_id, parent = None, 0
        if self.recording and self._stack:
            top = self._stack[-1]
            trace_id, parent = top[1], top[2]
        return _Callback(self, fn, layer, name, trace_id, parent)

    def _describe(self, fn: Callable[..., Any]) -> tuple[str, str]:
        """(layer, span name) of a callable, from the module that owns it."""
        target = fn
        while isinstance(target, functools.partial):
            target = target.func
        owner = getattr(target, "__self__", None)
        bound = owner is not None and not isinstance(owner, types.ModuleType)
        if bound:
            key: object = (type(owner), getattr(target, "__name__", "?"))
        else:
            key = getattr(target, "__code__", None) or type(target)
        known = self._names.get(key)
        if known is not None:
            return known
        qualname = getattr(target, "__qualname__", type(target).__name__)
        if bound:
            module = type(owner).__module__
        else:
            module = getattr(target, "__module__", None) or ""
            if not module and qualname.startswith("Network."):
                module = "repro.net.network"  # exec-compiled fabric code
        layer = _layer_of(module)
        known = (layer, f"{layer}:{qualname}")
        self._names[key] = known
        return known

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin recording a phase with empty aggregates."""
        self.self_ns.clear()
        self.calls.clear()
        self.total_ns.clear()
        self.recording = True

    def stop(self) -> dict[str, Any]:
        """End the phase; returns its aggregates in seconds."""
        self.recording = False
        return {
            "self_s": {layer: self.self_ns.get(layer, 0) / 1e9 for layer in LAYERS},
            "spans": {
                name: {"calls": self.calls[name], "total_s": self.total_ns[name] / 1e9}
                for name in sorted(self.calls)
            },
        }

    def dump(self, path, meta: dict[str, Any]) -> None:
        """Write aggregates and the per-message spans kept in memory."""
        names = sorted({span[3] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        origin = min((span[4] for span in self.spans), default=0)
        document = {
            **meta,
            "span_fields": ["id", "parent", "message", "name", "start_ns", "end_ns"],
            "names": names,
            "messages": self.messages_traced,
            "spans": [
                [sid, parent, trace, index[name], start - origin, end - origin]
                for sid, parent, trace, name, start, end in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))

    # ------------------------------------------------------------------
    # patches
    # ------------------------------------------------------------------
    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _span_method(self, cls: type, attr: str, layer: str) -> None:
        if attr in cls.__dict__:
            fn = cls.__dict__[attr]
            self._patch(cls, attr, self.wrap(fn, layer, f"{layer}:{cls.__name__}.{attr}"))

    def _callback_arg(self, cls: type, attr: str, position: int, keyword: str) -> None:
        """Patch ``cls.attr`` so its callback argument fires inside a span."""
        original = cls.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def patched(self, *args: Any, **kwargs: Any) -> Any:
            if keyword in kwargs:
                kwargs[keyword] = tracer.callback(kwargs[keyword])
            elif len(args) > position:
                args = (
                    *args[:position], tracer.callback(args[position]),
                    *args[position + 1:],
                )
            return original(self, *args, **kwargs)

        self._patch(cls, attr, patched)

    def install(self) -> None:
        """Patch the public entry points of every layer (undo: uninstall)."""
        from repro import wire
        from repro.core.ppss import PrivatePeerSamplingService
        from repro.core.wcl import WhisperCommunicationLayer
        from repro.crypto.provider import (
            CryptoProvider, RealCryptoProvider, SimCryptoProvider,
        )
        from repro.harness.sharded import ShardedWorld
        from repro.nat.traversal import ConnectionManager
        from repro.net.network import Network
        from repro.pss.gossip import PeerSamplingService
        from repro.runtime.clock import AsyncioScheduler
        from repro.runtime.live import LiveNetwork
        from repro.sim.engine import Simulator
        from repro.sim.process import PeriodicTask, Timer

        # Callbacks first: the span methods below wrap what these produce.
        for scheduler in (Simulator, AsyncioScheduler):
            self._callback_arg(scheduler, "schedule", 1, "callback")
            self._callback_arg(scheduler, "schedule_at", 1, "callback")
        self._callback_arg(Timer, "__init__", 1, "callback")
        self._callback_arg(PeriodicTask, "__init__", 2, "callback")
        self._callback_arg(ConnectionManager, "ensure_session", 1, "on_ready")
        self._callback_arg(ConnectionManager, "ensure_session", 2, "on_fail")
        for fabric in (Network, LiveNetwork):
            self._patch_attach(fabric)

        self._span_method(Simulator, "run", "sim")
        self._span_method(ShardedWorld, "run_windows", "harness")
        for attr in ("run_for", "run_until"):
            self._span_method(AsyncioScheduler, attr, "runtime")
        # Real sockets deliver a decoded copy: no payload identity to follow.
        self._patch(LiveNetwork, "send", self._traced_send(LiveNetwork.__dict__["send"], None))
        for attr in ("ensure_session", "send_via_session", "handle_message"):
            self._span_method(ConnectionManager, attr, "nat")
        self._span_method(PeerSamplingService, "handle_message", "pss")
        for attr in (
            "send_to", "handle_onion", "handle_circuit_setup", "handle_circuit_ack",
            "handle_circuit_data", "handle_circuit_teardown",
        ):
            self._span_method(WhisperCommunicationLayer, attr, "wcl")
        for attr in ("send_app", "handle_message"):
            self._span_method(PrivatePeerSamplingService, attr, "ppss")
        for provider in (CryptoProvider, RealCryptoProvider, SimCryptoProvider):
            for attr, member in list(provider.__dict__.items()):
                if attr.startswith("_") or not isinstance(member, types.FunctionType):
                    continue
                if getattr(member, "__isabstractmethod__", False):
                    continue
                self._span_method(provider, attr, "crypto")
        for attr in ("encode_message", "decode_message"):
            fn = getattr(wire, attr)
            self._undo.append((wire, attr, fn))
            setattr(wire, attr, self.wrap(fn, "wire", f"wire:{attr}"))

    def _patch_attach(self, fabric: type) -> None:
        original = fabric.__dict__["attach"]
        tracer = self

        @functools.wraps(original)
        def attach(self, node_id: int, handler: Callable[[Any], None]) -> None:
            layer, name = tracer._describe(handler)
            in_flight = tracer._in_flight

            def on_message(message: Any) -> None:
                if not tracer.recording:
                    return handler(message)
                link = in_flight.pop(id(message.payload), None) if in_flight else None
                if link is None:
                    return tracer.run(handler, layer, name, (message,))
                return tracer.run(handler, layer, name, (message,), None, link[1], link[2])

            return original(self, node_id, on_message)

        self._patch(fabric, "attach", attach)

    def _traced_send(self, send: Callable[..., Any], index: int | None) -> Callable[..., Any]:
        """``send`` as a ``net`` span.  With ``index`` (the position of the
        ``payload`` argument) it also tags a kept message's payload, so the
        receiving handler's span joins the same message."""
        tracer = self

        @functools.wraps(send)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.recording:
                return send(*args, **kwargs)
            stack = tracer._stack
            if index is not None and stack and stack[-1][1] is not None:
                payload = kwargs["payload"] if "payload" in kwargs else args[index]
                top = stack[-1]
                tracer._in_flight[id(payload)] = (payload, top[1], top[2])
            return tracer.run(send, "net", "net:Network.send", args, kwargs)

        return traced

    def wrap_network(self, network: Any) -> None:
        """Wrap a sim fabric's compiled ``send`` (an instance attribute, so
        it can only be wrapped once the network exists — and must be before
        any node is created)."""
        network.send = self._traced_send(network.send, 3)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
