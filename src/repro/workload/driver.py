"""Open-loop workload driver: offered load on a clock, accounting on the side.

The driver is the *mechanism* half of the subsystem: it turns interarrival
processes into scheduled emission callbacks and keeps per-stream delivery
accounts.  It is deliberately clock-agnostic — anything satisfying the
:class:`repro.sim.clock.Clock` protocol works, so the same driver runs on
the discrete-event :class:`~repro.sim.engine.Simulator` and on the live
:class:`~repro.runtime.clock.AsyncioScheduler` unchanged.

Open-loop means arrivals are scheduled from the arrival process alone:
the next emission goes on the clock *before* the current one is resolved,
and nothing about delivery failures, timeouts or backpressure delays it.
That is the property that makes saturation measurable — a closed-loop
generator would slow itself down and hide the overload.  Each stream
tracks its cadence on an **absolute** schedule (``start + k*interval``
via ``schedule_at``), so float drift cannot accumulate across thousands
of packets.

Accounting vocabulary (per stream and driver-wide):

- *offered*: arrivals the process generated (scheduled emissions fired);
- *emitted*: offered arrivals whose send action was actually attempted
  (a stream whose sender is dead can offer without emitting);
- *completed*: operations confirmed finished (packet delivered, lookup
  answered, join reached MEMBER);
- *failed*: operations confirmed dead (timeout, error callback);
- *lag*: ``offered - completed - failed`` — in-flight depth when the
  system keeps up, a monotonically growing debt when it does not.  This
  is the open-loop lag gauge (``workload.lag``).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable

from ..parallel import derive_seed

if TYPE_CHECKING:
    from ..sim.clock import Cancellable, Clock
    from ..telemetry import Telemetry

__all__ = ["StreamAccount", "OpenLoopStream", "WorkloadDriver"]


class StreamAccount:
    """Exact per-stream ledger; the report layer reads these fields."""

    __slots__ = (
        "sid", "kind", "offered", "emitted", "completed", "failed",
        "bytes_offered", "bytes_delivered", "first_at", "last_completion_at",
    )

    def __init__(self, sid: str, kind: str) -> None:
        self.sid = sid
        self.kind = kind
        self.offered = 0
        self.emitted = 0
        self.completed = 0
        self.failed = 0
        self.bytes_offered = 0
        self.bytes_delivered = 0
        self.first_at: float | None = None
        self.last_completion_at: float | None = None

    @property
    def resolved(self) -> int:
        return self.completed + self.failed

    @property
    def lag(self) -> int:
        return self.offered - self.resolved

    @property
    def delivery_ratio(self) -> float:
        return self.completed / self.offered if self.offered else 0.0

    def goodput(self, now: float) -> float:
        """Delivered bytes per second over the stream's active window."""
        if self.first_at is None or self.bytes_delivered == 0:
            return 0.0
        end = self.last_completion_at if self.last_completion_at is not None else now
        window = end - self.first_at
        if window <= 0:
            return float(self.bytes_delivered)
        return self.bytes_delivered / window


class OpenLoopStream:
    """One arrival process: emit ``action`` on an absolute-time cadence.

    ``interval`` is either a float (constant bitrate) or a zero-argument
    callable returning the next gap (e.g. exponential draws for Poisson
    arrivals) — the callable pulls from the stream's private RNG stream,
    so arrival processes across streams never interleave entropy.  The
    stream stops after ``count`` arrivals or once the next arrival would
    land past ``until``, whichever comes first.
    """

    __slots__ = (
        "sid", "driver", "action", "interval", "count", "until",
        "rng", "_emitted_seq", "_start", "_next_at", "_epoch",
        "_handle", "_done",
    )

    def __init__(
        self,
        sid: str,
        driver: "WorkloadDriver",
        action: Callable[[int, float], bool],
        interval: float | Callable[[], float],
        start: float,
        count: int | None = None,
        until: float | None = None,
    ) -> None:
        if count is None and until is None:
            raise ValueError(f"stream {sid}: need a count or until stop condition")
        self.sid = sid
        self.driver = driver
        self.action = action
        self.interval = interval
        self.count = count
        self.until = until
        self.rng = random.Random(derive_seed(driver.seed, "stream", sid))
        self._emitted_seq = 0
        self._start = start
        self._next_at = start
        self._epoch = 0.0  # clock time at arm(); stream times are relative to it
        self._handle: "Cancellable | None" = None
        self._done = False

    @property
    def done(self) -> bool:
        return self._done

    def arm(self) -> None:
        """Anchor the cadence at the clock's current time and schedule.

        Spec times (``start``, ``until``) are relative to arming, so the
        same spec works whether the world armed it at t=0 or after a long
        convergence phase.
        """
        self._epoch = self.driver.clock.now
        self._next_at = self._start
        self._schedule()

    def stop(self) -> None:
        self._done = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _gap(self) -> float:
        gap = self.interval() if callable(self.interval) else self.interval
        if gap <= 0:
            raise ValueError(f"stream {self.sid}: non-positive interarrival {gap}")
        return gap

    def _schedule(self) -> None:
        if self._done:
            return
        if self.count is not None and self._emitted_seq >= self.count:
            self._done = True
            return
        if self.until is not None and self._next_at > self.until:
            self._done = True
            return
        # The target stays on the absolute grid (epoch + k*interval), but
        # the wait is issued as a clamped *delay*: on a wall clock the loop
        # can run late — or advance between two `now` reads — leaving the
        # target in the past, and a strict schedule_at would raise.  Firing
        # immediately without shifting _next_at preserves the open-loop
        # rate; on the simulator the clamp never engages and the event
        # lands exactly at the target time.
        delay = max(0.0, self._epoch + self._next_at - self.driver.clock.now)
        self._handle = self.driver.clock.schedule(delay, self._fire)

    def _fire(self) -> None:
        self._handle = None
        seq = self._emitted_seq
        self._emitted_seq += 1
        now = self.driver.clock.now
        # Open-loop: the *next* arrival goes on the clock before this one's
        # action runs, so a slow or failing action can never throttle the
        # offered load.
        self._next_at = self._next_at + self._gap()
        self._schedule()
        self.driver._on_arrival(self.sid, seq, now, self.action)


class WorkloadDriver:
    """Owns the streams, the accounts, and the telemetry instruments."""

    def __init__(self, clock: "Clock", telemetry: "Telemetry", seed: int) -> None:
        self.clock = clock
        self.telemetry = telemetry
        self.seed = seed
        self.streams: dict[str, OpenLoopStream] = {}
        self.accounts: dict[str, StreamAccount] = {}
        self._lag_gauge = telemetry.metrics.gauge("workload.lag", layer="workload")

    # ------------------------------------------------------------------
    # stream lifecycle
    # ------------------------------------------------------------------
    def add_stream(
        self,
        sid: str,
        kind: str,
        action: Callable[[int, float], bool],
        interval: float | Callable[[], float],
        start: float = 0.0,
        count: int | None = None,
        until: float | None = None,
    ) -> OpenLoopStream:
        """Register a stream; ``action(seq, now) -> emitted?`` does the send.

        The action returns True when it actually attempted the operation
        (the arrival then counts as *emitted*) and False when it could not
        (dead sender, missing group) — the arrival stays *offered* either
        way, and un-emitted arrivals are immediately accounted as failed.
        """
        if sid in self.streams:
            raise ValueError(f"duplicate stream id {sid!r}")
        stream = OpenLoopStream(sid, self, action, interval, start, count, until)
        self.streams[sid] = stream
        self.accounts[sid] = StreamAccount(sid, kind)
        return stream

    def arm(self) -> None:
        """Put every stream's first arrival on the clock."""
        for sid in sorted(self.streams):
            self.streams[sid].arm()

    def stop(self) -> None:
        for stream in self.streams.values():
            stream.stop()

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _on_arrival(
        self,
        sid: str,
        seq: int,
        now: float,
        action: Callable[[int, float], bool],
    ) -> None:
        account = self.accounts[sid]
        account.offered += 1
        if account.first_at is None:
            account.first_at = now
        metrics = self.telemetry.metrics
        metrics.counter(
            "workload.offered", stream=sid, kind=account.kind, layer="workload"
        ).inc()
        self._lag_gauge.add(1)
        if action(seq, now):
            account.emitted += 1
            metrics.counter(
                "workload.emitted", stream=sid, kind=account.kind, layer="workload"
            ).inc()
        else:
            # Could not even attempt the operation — resolve it as failed
            # right away so lag only measures genuinely in-flight work.
            self._resolve(account, now, ok=False, nbytes=0, latency=None)

    def note_completion(
        self,
        sid: str,
        latency: float | None = None,
        nbytes: int = 0,
        ok: bool = True,
    ) -> None:
        """Record the outcome of one in-flight operation on stream ``sid``."""
        account = self.accounts[sid]
        self._resolve(account, self.clock.now, ok=ok, nbytes=nbytes, latency=latency)

    def _resolve(
        self,
        account: StreamAccount,
        now: float,
        ok: bool,
        nbytes: int,
        latency: float | None,
    ) -> None:
        metrics = self.telemetry.metrics
        if ok:
            account.completed += 1
            account.last_completion_at = now
            account.bytes_delivered += nbytes
            metrics.counter(
                "workload.completed",
                stream=account.sid, kind=account.kind, layer="workload",
            ).inc()
            if nbytes:
                metrics.counter(
                    "workload.delivered_bytes",
                    stream=account.sid, kind=account.kind, layer="workload",
                ).inc(nbytes)
            if latency is not None:
                metrics.histogram(
                    "workload.latency",
                    stream=account.sid, kind=account.kind, layer="workload",
                ).observe(latency)
        else:
            account.failed += 1
            metrics.counter(
                "workload.dropped",
                stream=account.sid, kind=account.kind, layer="workload",
            ).inc()
        self._lag_gauge.add(-1)

    def note_offered_bytes(self, sid: str, nbytes: int) -> None:
        self.accounts[sid].bytes_offered += nbytes

    # ------------------------------------------------------------------
    # driver-wide views
    # ------------------------------------------------------------------
    @property
    def offered(self) -> int:
        return sum(a.offered for a in self.accounts.values())

    @property
    def completed(self) -> int:
        return sum(a.completed for a in self.accounts.values())

    @property
    def failed(self) -> int:
        return sum(a.failed for a in self.accounts.values())

    @property
    def lag(self) -> int:
        """Offered-but-unresolved operations across all streams."""
        return sum(a.lag for a in self.accounts.values())
