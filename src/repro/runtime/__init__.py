"""Live runtime: the WHISPER stack on real sockets and a real clock.

The protocol layers are written against two structural interfaces — the
:class:`repro.sim.clock.Clock` scheduling surface and the network fabric's
``send``/``attach``/``topology`` surface.  The simulator implements both
deterministically; this package implements both *live*:

- :class:`AsyncioScheduler` — ``Clock`` backed by an asyncio event loop;
- :class:`LiveNetwork` — the fabric surface backed by one UDP socket per
  hosted node, every datagram a :mod:`repro.wire` frame;
- :class:`LiveRuntime` — the deployment core over scheduler + network,
  hosting unmodified :class:`~repro.core.node.WhisperNode` stacks inside
  one OS process;
- :class:`NodeSupervisor` — liveness probing, crash/wedge detection and
  restart-with-backoff for multi-node hosts (soak runs).

``examples/live_chat.py`` uses this to run a PSS exchange and an
onion-routed private message between two OS processes over loopback;
``python -m repro.experiments soak`` hosts ~100 supervised nodes in one
process and drives them through a scripted fault schedule.
"""

from .clock import AsyncioScheduler, ScheduledCall
from .live import SEND_QUEUE_LIMIT, LiveNetwork, LiveNetworkStats, LiveRuntime
from .supervisor import NodeSupervisor, SupervisorConfig, SupervisorStats

__all__ = [
    "AsyncioScheduler",
    "ScheduledCall",
    "LiveNetwork",
    "LiveNetworkStats",
    "LiveRuntime",
    "NodeSupervisor",
    "SEND_QUEUE_LIMIT",
    "SupervisorConfig",
    "SupervisorStats",
]
