"""Span-based tracing over the simulated clock.

A span is a named interval ``[start, end]`` attributed to a node and a
protocol layer, optionally keyed by a *trace id* — for WCL onions the
measurement-only ``OnionPacket.trace_id``, which correlates everything one
confidential message causes across the network: the source's path build,
each mix's layer decrypt, NAT relay forwards, and the final delivery.

Three recording styles cover the stack's needs:

- ``start(...)`` / ``end(span)`` for intervals that straddle simulated
  events (a PPSS exchange from first attempt to outcome);
- ``span(...)`` as a context manager for work nested inside one callback —
  nested uses parent automatically (the active-span stack is sound because
  the simulator is single-threaded);
- ``instant(...)`` for point events (an onion hitting the wire).

The tracer never mutates protocol behaviour and consumes no randomness, so
a run with tracing enabled is event-for-event identical to one without.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = ["Span", "Tracer", "NOOP_SPAN"]


@dataclass(slots=True)
class Span:
    """One named interval on the simulated timeline."""

    span_id: int
    name: str
    start: float
    end: float | None = None
    trace_id: int | None = None
    node: int | None = None
    layer: str | None = None
    parent_id: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Span length in simulated seconds (0.0 while unfinished)."""
        return (self.end - self.start) if self.end is not None else 0.0


# Shared placeholder returned by a disabled tracer: callers can pass it back
# to ``end`` (a no-op) without branching on the enabled flag.
NOOP_SPAN = Span(span_id=0, name="", start=0.0, end=0.0)


class Tracer:
    """Records spans against an external clock (the simulator's)."""

    def __init__(
        self, clock: Callable[[], float] | None = None, enabled: bool = True
    ) -> None:
        self.enabled = enabled
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._next_id = 1
        self._spans: list[Span] = []
        self._by_trace: dict[int, list[Span]] = {}
        self._stack: list[Span] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def start(
        self,
        name: str,
        *,
        trace_id: int | None = None,
        node: int | None = None,
        layer: str | None = None,
        parent: Span | None = None,
        at: float | None = None,
        **attrs: Any,
    ) -> Span:
        """Open a span; ``parent`` defaults to the innermost active ``span()``."""
        if not self.enabled:
            return NOOP_SPAN
        if parent is None and self._stack:
            parent = self._stack[-1]
        span = Span(
            span_id=self._next_id,
            name=name,
            start=self._clock() if at is None else at,
            trace_id=trace_id,
            node=node,
            layer=layer,
            parent_id=parent.span_id if parent is not None else None,
            attrs=attrs,
        )
        self._next_id += 1
        self._spans.append(span)
        if trace_id is not None:
            self._by_trace.setdefault(trace_id, []).append(span)
        return span

    def end(self, span: Span, *, at: float | None = None, **attrs: Any) -> None:
        """Close a span (idempotent for the no-op placeholder)."""
        if span is NOOP_SPAN or not self.enabled:
            return
        span.end = self._clock() if at is None else at
        if attrs:
            span.attrs.update(attrs)

    def instant(
        self,
        name: str,
        *,
        trace_id: int | None = None,
        node: int | None = None,
        layer: str | None = None,
        at: float | None = None,
        **attrs: Any,
    ) -> Span:
        """A zero-duration point event."""
        span = self.start(
            name, trace_id=trace_id, node=node, layer=layer, at=at, **attrs
        )
        self.end(span, at=span.start)
        return span

    @contextmanager
    def span(
        self,
        name: str,
        *,
        trace_id: int | None = None,
        node: int | None = None,
        layer: str | None = None,
        **attrs: Any,
    ) -> Iterator[Span]:
        """Context manager for synchronous work; nests via the active stack."""
        span = self.start(
            name, trace_id=trace_id, node=node, layer=layer, **attrs
        )
        if span is not NOOP_SPAN:
            self._stack.append(span)
        try:
            yield span
        finally:
            if span is not NOOP_SPAN:
                self._stack.pop()
            self.end(span)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def spans(self) -> list[Span]:
        """All spans in creation order (deterministic across same-seed runs)."""
        return self._spans

    def __len__(self) -> int:
        return len(self._spans)

    def spans_by_trace(self, trace_id: int) -> list[Span]:
        """Every span tied to one trace id, ordered by (start, span id)."""
        spans = self._by_trace.get(trace_id, [])
        return sorted(spans, key=lambda s: (s.start, s.span_id))

    def trace_ids(self) -> list[int]:
        """All trace ids seen, in first-appearance order."""
        return list(self._by_trace.keys())

    def spans_named(self, name: str) -> list[Span]:
        return [s for s in self._spans if s.name == name]
