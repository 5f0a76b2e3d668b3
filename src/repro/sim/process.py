"""Periodic processes on top of the event engine.

Gossip protocols are cycle-driven: every node runs an "active thread" that
wakes up once per cycle (PSS: 10 s, PPSS: 60 s in the paper).  The
:class:`PeriodicTask` helper encapsulates that pattern, including the random
initial phase used to de-synchronize nodes (without it, every node would
gossip at the exact same instant — an artifact real deployments do not have).
"""

from __future__ import annotations

import random
from typing import Any, Callable

from .clock import Cancellable, Clock

__all__ = ["ExponentialBackoff", "PeriodicTask", "Timer"]


class PeriodicTask:
    """Invoke a callback every ``period`` seconds until stopped.

    The first invocation happens after ``initial_delay`` (commonly a random
    phase in ``[0, period)``).  Stopping is idempotent and takes effect
    immediately: a pending tick is cancelled.
    """

    def __init__(
        self,
        sim: Clock,
        period: float,
        callback: Callable[[], Any],
        initial_delay: float | None = None,
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self._sim = sim
        self._period = period
        self._callback = callback
        self._event: Cancellable | None = None
        self._stopped = False
        delay = period if initial_delay is None else initial_delay
        self._event = sim.schedule(delay, self._fire)

    @property
    def running(self) -> bool:
        return not self._stopped

    def stop(self) -> None:
        """Stop the task; any pending tick is cancelled."""
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        if self._stopped:
            return
        # Schedule the next tick before running the callback so a callback
        # that raises does not silently kill the task's cadence in tests
        # that catch the exception.
        self._event = self._sim.schedule(self._period, self._fire)
        self._callback()


class ExponentialBackoff:
    """Deterministic exponential backoff with seeded jitter.

    Retrying failed exchanges on a fixed cadence makes every retry wave hit
    the network at once (and keeps hammering a partner that is partitioned
    away); growing the delay geometrically and jittering it breaks both up.
    The jitter draws from the *caller's* seeded RNG, so same-seed runs back
    off identically — a requirement for byte-identical telemetry traces.

    ``delay(attempt)`` returns ``base * factor**attempt`` capped at ``cap``,
    scaled by a uniform factor in ``[1 - jitter, 1 + jitter]``; attempt 0 is
    the first (non-backed-off) try.
    """

    def __init__(
        self,
        base: float,
        factor: float = 2.0,
        cap: float | None = None,
        jitter: float = 0.2,
        rng: random.Random | None = None,
    ) -> None:
        if base <= 0:
            raise ValueError(f"backoff base must be positive, got {base}")
        if factor < 1.0:
            raise ValueError(f"backoff factor must be >= 1, got {factor}")
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"backoff jitter must be in [0, 1), got {jitter}")
        self._base = base
        self._factor = factor
        self._cap = cap
        self._jitter = jitter
        self._rng = rng

    def delay(self, attempt: int) -> float:
        """The delay before retry number ``attempt`` (0 = first try)."""
        raw = self._base * self._factor ** max(attempt, 0)
        if self._cap is not None:
            raw = min(raw, self._cap)
        if self._jitter and self._rng is not None:
            raw *= self._rng.uniform(1.0 - self._jitter, 1.0 + self._jitter)
        return raw


class Timer:
    """A one-shot timer that can be rescheduled or cancelled.

    Used for timeouts (e.g. WCL path construction retry timers).  Restarting
    an armed timer cancels the previous deadline.
    """

    def __init__(self, sim: Clock, callback: Callable[[], Any]) -> None:
        self._sim = sim
        self._callback = callback
        self._event: Cancellable | None = None

    @property
    def armed(self) -> bool:
        return self._event is not None and not self._event.cancelled

    def start(self, delay: float) -> None:
        """Arm (or re-arm) the timer to fire ``delay`` seconds from now."""
        self.cancel()
        self._event = self._sim.schedule(delay, self._fire)

    def cancel(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._callback()
