"""Workload specifications: *what* traffic to offer, declared as data.

A :class:`WorkloadSpec` bundles a group deployment shape (how many PPSS
groups, how many members each) with a tuple of traffic models.  Four
models cover the load shapes confidential-messaging middleware must carry:

- :class:`CbrStreams` — constant-bitrate streams inside private groups,
  the DC-nets VoIP shape (fixed packet cadence, fixed payload);
- :class:`ZipfLookups` — T-Chord lookups whose keys follow a Zipf
  popularity law (heavy head, long tail) with Poisson arrivals;
- :class:`FlashCrowd` — a burst of group-join attempts compressed into a
  short window (the "everyone joins the channel at once" event);
- :class:`CoverTraffic` — decoy CBR per group member, the anonymity
  countermeasure ablated by the ``anonymity`` experiment: not payload but
  chaff, emitted so a traffic-analysis adversary cannot tell active
  senders from idle members;
- multi-group mode is not a separate model: a spec with hundreds of
  ``groups`` and one stream per group *is* the concurrent-groups
  workload (see :mod:`repro.workload.scenarios`).

A spec can also switch on batched mixing at WCL relays
(``mix_batch_interval``), the second anonymity countermeasure — a
deployment knob rather than a traffic model, carried here so ablation
variants stay picklable sweep points.

Specs are frozen and picklable, so sweep workers can receive them, and
carry no RNG state — every random decision downstream derives from the
driver seed via :func:`repro.parallel.derive_seed`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "CbrStreams",
    "CoverTraffic",
    "FlashCrowd",
    "WorkloadSpec",
    "ZipfLookups",
]


@dataclass(frozen=True)
class CbrStreams:
    """Constant-bitrate private-group streams (VoIP-like).

    ``streams`` concurrent flows, each emitting a ``payload``-byte packet
    every ``interval`` seconds from ``start`` for ``duration`` seconds.
    Streams are assigned round-robin over the spec's groups; sender and
    receiver are distinct members of the stream's group.
    """

    streams: int = 8
    interval: float = 0.5
    payload: int = 160  # 20 ms G.711 frame, the DC-nets VoIP unit
    start: float = 0.0
    duration: float = 120.0

    def __post_init__(self) -> None:
        if self.streams < 1:
            raise ValueError("CbrStreams needs at least one stream")
        if self.interval <= 0:
            raise ValueError("CBR interval must be positive")
        if self.payload < 1:
            raise ValueError("CBR payload must be positive")
        if self.duration <= 0:
            raise ValueError("CBR duration must be positive")

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class ZipfLookups:
    """Zipf-keyed T-Chord lookups at ``rate`` per second (open-loop Poisson).

    Keys are drawn from ``{1..keys}`` with exponent ``exponent``; queriers
    are uniform over the ring members.  The ring lives in the spec's first
    group.
    """

    rate: float = 2.0
    keys: int = 500
    exponent: float = 1.1
    start: float = 0.0
    duration: float = 120.0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("lookup rate must be positive")
        if self.keys < 1:
            raise ValueError("need at least one key")
        if self.duration <= 0:
            raise ValueError("lookup duration must be positive")

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class FlashCrowd:
    """``joiners`` group-join attempts spread uniformly over ``spread`` s.

    All joins target the spec's first group; completion means the joiner
    reached MEMBER state before ``deadline`` seconds elapsed.
    """

    joiners: int = 20
    at: float = 0.0
    spread: float = 10.0
    deadline: float = 180.0

    def __post_init__(self) -> None:
        if self.joiners < 1:
            raise ValueError("a flash crowd needs at least one joiner")
        if self.spread <= 0:
            raise ValueError("flash-crowd spread must be positive")
        if self.deadline <= 0:
            raise ValueError("flash-crowd deadline must be positive")

    @property
    def end(self) -> float:
        return self.at + self.spread + self.deadline


@dataclass(frozen=True)
class CoverTraffic:
    """Decoy emissions: every group member sends chaff on a fixed cadence.

    Each member of each group emits a ``payload``-byte decoy every
    ``interval`` seconds to a rotating fellow member, from ``start`` for
    ``duration`` seconds.  Decoys ride the same onion construction as
    application payloads (``ppss.send_cover``), are discarded at the
    receiver, and resolve the moment they are emitted — they are a
    countermeasure, not offered load, so they must not show up as lag.
    """

    interval: float = 0.5
    payload: int = 160  # match the CBR unit so decoys are indistinguishable
    start: float = 0.0
    duration: float = 120.0

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("cover-traffic interval must be positive")
        if self.payload < 1:
            raise ValueError("cover-traffic payload must be positive")
        if self.duration <= 0:
            raise ValueError("cover-traffic duration must be positive")

    @property
    def end(self) -> float:
        return self.start + self.duration


TrafficModel = CbrStreams | ZipfLookups | FlashCrowd | CoverTraffic


@dataclass(frozen=True)
class WorkloadSpec:
    """One complete workload: a group deployment plus its traffic models."""

    name: str
    groups: int = 4
    members_per_group: int = 6
    models: tuple[TrafficModel, ...] = field(default_factory=tuple)
    # Groups gossip faster than the paper's 60 s default so load runs
    # converge within experiment timescales (matches fig9's choice).
    cycle_time: float = 30.0
    # Batched mixing at WCL relays (anonymity countermeasure): None = off,
    # the default — existing specs keep byte-identical traces.
    mix_batch_interval: float | None = None

    def __post_init__(self) -> None:
        if self.groups < 1:
            raise ValueError("a workload needs at least one group")
        if self.members_per_group < 1:
            raise ValueError("groups need at least one member besides the leader")
        if self.mix_batch_interval is not None and self.mix_batch_interval <= 0:
            raise ValueError("mix batch interval must be positive")
        for model in self.models:
            if not isinstance(
                model, (CbrStreams, ZipfLookups, FlashCrowd, CoverTraffic)
            ):
                raise TypeError(f"not a traffic model: {model!r}")

    def horizon(self) -> float:
        """Sim seconds (from arming) until the last model goes quiet."""
        return max((model.end for model in self.models), default=0.0)

    def model(self, kind: type) -> TrafficModel | None:
        """The first model of ``kind``, or None."""
        for model in self.models:
            if isinstance(model, kind):
                return model
        return None
