"""Quantifying relationship anonymity against partial link observation.

The paper's threat model grants the attacker *some* links but "not all
three links on the path" (Section III-A): a WCL message is linkable —
i.e. the attacker learns that S and D communicate — only if it observes
every hop of the onion path and chains them.  This module measures that
boundary empirically: given a fully-taped run (a global
:class:`~repro.net.observer.LinkObserver`) it reconstructs each onion's
hop sequence from the measurement trace ids and computes, for an adversary
controlling a random fraction of links, how many confidential messages it
could fully trace.

For a path with h wire hops and an adversary observing each link
independently with probability p, the analytic exposure is p^h — the
empirical sweep in :func:`adversary_sweep` should straddle that curve,
and the paths-of-4-nodes design keeps it negligible for realistic p.

This module is the exposure half of :mod:`repro.adversary`; the
traffic-analysis attacks that work *below* full-path observation live in
:mod:`repro.adversary.attacks`.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass

from ..core.onion import CircuitFrame, CircuitSetupPacket, OnionPacket
from ..net.address import NodeId
from ..net.observer import ObservedPacket

__all__ = [
    "TRAVERSAL_CAP",
    "carries_onion",
    "carries_trace",
    "OnionFlow",
    "extract_flows",
    "exposure",
    "adversary_sweep",
]

TRAVERSAL_CAP = 64
"""Maximum payload-graph items visited when hunting for onion trace ids.

Relay wrappers (``nat.data`` / ``nat.relay``) nest payloads in dicts; a
hostile or cyclic structure must terminate the walk rather than loop, so
deeply nested wrappers simply report "no trace found"."""

# Every packet that travels a WCL path hop by hop under one trace id: the
# per-message onion, and in circuit mode the setup onion and data frames.
_ONION_TYPES = (OnionPacket, CircuitSetupPacket, CircuitFrame)


def _trace_ids(payload: object) -> Iterator[int]:
    """Trace ids of the onion-bearing packets in a wire payload, walking
    ``nat.data`` / ``nat.relay`` wrappers.  Measurement-only: trace ids
    exist for instrumentation and would not appear on a real wire."""
    stack, steps = [payload], 0
    while stack and steps < TRAVERSAL_CAP:
        steps += 1
        item = stack.pop()
        if isinstance(item, _ONION_TYPES):
            yield item.trace_id
        elif isinstance(item, dict):
            stack.extend(item.values())


def carries_trace(payload: object, trace_id: int) -> bool:
    """Does this wire payload carry the onion with ``trace_id``?"""
    return trace_id in _trace_ids(payload)


def carries_onion(payload: object) -> bool:
    """Does this wire payload carry *any* onion?

    The traffic-analysis attacks use this to pick onion-bearing frames out
    of the session stream (``nat.data`` wraps everything).  It models the
    framing signature a real eavesdropper keys on — onion frames have a
    distinctive fixed size — without revealing which onion: only presence
    is reported, never a trace id, so the attacks cannot accidentally
    correlate by instrumentation state.
    """
    return next(_trace_ids(payload), None) is not None


@dataclass(frozen=True)
class OnionFlow:
    """One onion's journey: the ordered wire hops it traversed."""

    trace_id: int
    hops: tuple[tuple[NodeId, NodeId], ...]

    @property
    def source(self) -> NodeId:
        """The true sender S (ground truth, not attacker knowledge)."""
        return self.hops[0][0]

    @property
    def destination(self) -> NodeId:
        """The true destination D."""
        return self.hops[-1][1]

    def links(self) -> set[tuple[NodeId, NodeId]]:
        """The directed links an adversary must observe to trace the flow."""
        return set(self.hops)


def extract_flows(
    packets: list[ObservedPacket], min_hops: int = 2
) -> list[OnionFlow]:
    """Group a wiretap's packets into per-onion hop sequences.

    Packets whose receiver is unknown (lost/filtered) are skipped; flows
    with fewer than ``min_hops`` observed hops (partially-lost onions) are
    dropped, since their end-to-end pair cannot be established even by the
    ground truth.

    Repeated observations of the same directed hop are collapsed: an onion
    path never legitimately revisits a link, so a repeat is a duplicate
    delivery — fault-shaping directives (``duplicate``/``reorder``) can
    land the copy *after* the next hop was already observed, which is why
    the dedup keys on the whole flow rather than just the previous hop.
    """
    by_trace: dict[int, list[ObservedPacket]] = {}
    for packet in packets:
        if packet.receiver is None:
            continue
        for trace_id in set(_trace_ids(packet.payload)):
            by_trace.setdefault(trace_id, []).append(packet)
    flows = []
    for trace_id, trace_packets in sorted(by_trace.items()):
        trace_packets.sort(key=lambda p: p.time)
        hops: list[tuple[NodeId, NodeId]] = []
        seen: set[tuple[NodeId, NodeId]] = set()
        for packet in trace_packets:
            hop = (packet.sender, packet.receiver)
            if hop not in seen:
                seen.add(hop)
                hops.append(hop)
        if len(hops) >= min_hops:
            flows.append(OnionFlow(trace_id=trace_id, hops=tuple(hops)))
    return flows


def exposure(
    flows: list[OnionFlow], observed_links: set[tuple[NodeId, NodeId]]
) -> float:
    """Fraction of flows the adversary can fully trace (all hops observed)."""
    if not flows:
        return 0.0
    traced = sum(
        1 for flow in flows if flow.links() <= observed_links
    )
    return traced / len(flows)


def adversary_sweep(
    flows: list[OnionFlow],
    rng: random.Random,
    link_fractions: tuple[float, ...] = (0.1, 0.25, 0.5, 0.75, 0.9),
    trials: int = 20,
) -> dict[float, float]:
    """Mean exposure for adversaries owning random link subsets.

    For each fraction p, samples ``trials`` random subsets of all links that
    ever carried an onion — drawn from the caller's ``rng`` only — and
    averages :func:`exposure` over them.
    """
    all_links = sorted({link for flow in flows for link in flow.links()})
    results: dict[float, float] = {}
    for fraction in link_fractions:
        k = round(len(all_links) * fraction)
        total = 0.0
        for _ in range(trials):
            observed = set(rng.sample(all_links, k)) if k else set()
            total += exposure(flows, observed)
        results[fraction] = total / trials
    return results
