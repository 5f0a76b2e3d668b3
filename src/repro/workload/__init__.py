"""Deterministic heavy-traffic workload subsystem (open-loop generators).

The workload package drives application traffic over the deployed WHISPER
stack — constant-bitrate streams inside private groups, Zipf-popular
T-Chord lookups, flash-crowd joins, hundreds of concurrent groups — while
keeping the repo's determinism contract: same seed ⇒ byte-identical
telemetry, at any worker count, because every random draw derives from the
workload seed and arrivals ride the deterministic clock.

Layering:

- :mod:`.spec` — frozen traffic-model descriptions (what to offer);
- :mod:`.driver` — clock-agnostic open-loop scheduling + per-stream
  accounting (how to offer it and what happened);
- :mod:`.attach` — binding a spec to a :class:`~repro.harness.world.World`
  (groups, rings, sinks, joiners);
- :mod:`.scenarios` — the named catalogue used by ``repro.experiments
  load``.
"""

from .driver import OpenLoopStream, StreamAccount, WorkloadDriver
from .scenarios import SCENARIOS, build_scenario, world_size
from .spec import (
    CbrStreams,
    CoverTraffic,
    FlashCrowd,
    WorkloadSpec,
    ZipfLookups,
)

__all__ = [
    "CbrStreams",
    "CoverTraffic",
    "FlashCrowd",
    "OpenLoopStream",
    "SCENARIOS",
    "StreamAccount",
    "WorkloadDriver",
    "WorkloadSpec",
    "ZipfLookups",
    "build_scenario",
    "world_size",
]
