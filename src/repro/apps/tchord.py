"""T-Chord: a Chord DHT bootstrapped by gossip inside a private group [15].

This is the paper's flagship application (Section V-G): 60 nodes of a
400-node deployment operate a private index.  T-Chord uses the T-Man
framework to converge to the Chord ring — every node gossips (ring id,
contact) profiles and keeps, per link type, the best matches: the closest
clockwise node (successor), the closest counterclockwise (predecessor) and
the finger targets.  Ring neighbours are made persistent through the PPSS
connection pool so lookups can use them directly.

Lookups are routed recursively along fingers/successors; the node
responsible for the key answers the querying node *directly* with a single
WCL path, using the contact information shipped with the query (identity,
public key and Π P-nodes) — exactly the scheme described for Fig. 9.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

from ..core.contact import PrivateContact
from ..core.ppss import PrivatePeerSamplingService
from ..net.address import NodeId
from ..sim.clock import Clock
from ..sim.process import Timer
from .chord import (
    FingerTable,
    RingNeighbours,
    RingPeer,
    chord_id,
    distance_cw,
    in_interval,
    key_id,
)
from .tman import TManEntry, TManProtocol

__all__ = ["TChordNode", "LookupResult", "TChordStats"]

MAX_HOPS = 32
SUCCESSOR_SLOTS = 3
PREDECESSOR_SLOTS = 3
FINGER_SLOTS = 8


@dataclass(frozen=True, slots=True)
class LookupResult:
    key: str
    owner_id: NodeId
    owner_ring_id: int
    hops: int
    latency: float


@dataclass
class TChordStats:
    """Counters for one T-Chord instance."""

    lookups_started: int = 0
    lookups_completed: int = 0
    lookups_timed_out: int = 0
    queries_forwarded: int = 0
    queries_answered: int = 0


@dataclass
class _PendingLookup:
    key: str
    started_at: float
    callback: Callable[[LookupResult | None], None]
    timer: Timer | None = None


class TChordNode:
    """One node's T-Chord instance over one private group."""

    def __init__(
        self,
        ppss: PrivatePeerSamplingService,
        sim: Clock,
        rng: random.Random,
        cycle_time: float = 20.0,
        lookup_timeout: float = 30.0,
    ) -> None:
        self.ppss = ppss
        self._sim = sim
        self._rng = rng
        self.ring_id = chord_id(ppss.node_id)
        self.neighbours = RingNeighbours(self.ring_id)
        self.fingers = FingerTable(self.ring_id)
        self.successor: TManEntry | None = None
        self.predecessor: TManEntry | None = None
        self._contacts: dict[NodeId, PrivateContact] = {}
        self.lookup_timeout = lookup_timeout
        self.stats = TChordStats()
        self._pending: dict[int, _PendingLookup] = {}
        # Per-instance qids: answers are routed back to the origin and
        # resolved against *its* pending map, so uniqueness per node
        # suffices.  A module-level counter would leak state between runs
        # in one process (its value is encoded into query bodies, where
        # the serialized length feeds the charged crypto cost) and break
        # the workers-equivalence determinism contract.
        self._query_counter = itertools.count(1)
        self.tman = TManProtocol(
            name="tchord",
            ppss=ppss,
            sim=sim,
            rng=rng,
            profile=self.ring_id,
            selector=self._select,
            cycle_time=cycle_time,
            on_view_change=self._rebuild_links,
        )
        ppss.set_app_handler(self._on_app)

    def stop(self) -> None:
        self.tman.stop()
        for pending in self._pending.values():
            if pending.timer is not None:
                pending.timer.cancel()
        self._pending.clear()

    # ------------------------------------------------------------------
    # T-Man ranking: per-link-type selection (Section V-G)
    # ------------------------------------------------------------------
    def _select(self, own_ring_id: int, candidates: list[TManEntry]) -> list[TManEntry]:
        peers = {
            e.node_id: RingPeer(node_id=e.node_id, ring_id=e.profile)
            for e in candidates
        }
        by_id = {e.node_id: e for e in candidates}
        keep: dict[NodeId, TManEntry] = {}
        ring = list(peers.values())
        for peer in self.neighbours.successor_list(ring, SUCCESSOR_SLOTS):
            keep[peer.node_id] = by_id[peer.node_id]
        # Predecessor side: closest counterclockwise.
        ordered_ccw = sorted(
            (p for p in ring if p.ring_id != self.ring_id),
            key=lambda p: distance_cw(p.ring_id, self.ring_id),
        )
        for peer in ordered_ccw[:PREDECESSOR_SLOTS]:
            keep[peer.node_id] = by_id[peer.node_id]
        # Finger targets: rebuild a scratch table over all candidates.
        scratch = FingerTable(self.ring_id)
        for peer in ring:
            scratch.consider(peer)
        for peer in scratch.known_peers()[:FINGER_SLOTS]:
            keep[peer.node_id] = by_id[peer.node_id]
        return list(keep.values())

    def _rebuild_links(self, entries: list[TManEntry]) -> None:
        self._contacts = {e.node_id: e.contact for e in entries}
        ring = [RingPeer(node_id=e.node_id, ring_id=e.profile) for e in entries]
        by_id = {e.node_id: e for e in entries}
        successor_peer = self.neighbours.best_successor(ring)
        predecessor_peer = self.neighbours.best_predecessor(ring)
        self.successor = by_id.get(successor_peer.node_id) if successor_peer else None
        self.predecessor = (
            by_id.get(predecessor_peer.node_id) if predecessor_peer else None
        )
        self.fingers = FingerTable(self.ring_id)
        for peer in ring:
            self.fingers.consider(peer)
        # Ring links become persistent connections (Section IV-C).
        if self.successor is not None:
            self.ppss.pin_contact(self.successor.contact)
        if self.predecessor is not None:
            self.ppss.pin_contact(self.predecessor.contact)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def lookup(
        self, key: str, callback: Callable[[LookupResult | None], None]
    ) -> None:
        """Find the node responsible for ``key``; None on timeout."""
        self.stats.lookups_started += 1
        qid = next(self._query_counter)
        pending = _PendingLookup(
            key=key, started_at=self._sim.now, callback=callback
        )
        pending.timer = Timer(self._sim, lambda: self._lookup_timeout(qid))
        pending.timer.start(self.lookup_timeout)
        self._pending[qid] = pending
        query = {
            "app": "tchord",
            "op": "query",
            "qid": qid,
            "key": key,
            "kid": key_id(key),
            "origin": self.ppss.self_contact(),
            "origin_id": self.ppss.node_id,
            "hops": 0,
        }
        self._route(query)

    def _lookup_timeout(self, qid: int) -> None:
        pending = self._pending.pop(qid, None)
        if pending is None:
            return
        self.stats.lookups_timed_out += 1
        pending.callback(None)

    def _route(self, query: dict) -> None:
        kid: int = query["kid"]
        hops: int = query["hops"]
        if hops > MAX_HOPS:
            return  # routing loop safety valve; origin will time out
        successor_peer = (
            RingPeer(self.successor.node_id, self.successor.profile)
            if self.successor is not None
            else None
        )
        at_origin = hops == 0 and query["origin_id"] == self.ppss.node_id
        if successor_peer is None:
            # Degenerate ring: we are alone, we own everything.
            self._answer(query, owner_id=self.ppss.node_id, owner_ring=self.ring_id)
            return
        # Case 1: we own the key (it falls between our predecessor and us).
        if self.predecessor is not None and in_interval(
            kid, self.predecessor.profile, self.ring_id
        ):
            if not at_origin:
                self._answer(
                    query, owner_id=self.ppss.node_id, owner_ring=self.ring_id
                )
                return
            # The paper routes every query through the ring even for keys
            # held by the querying node (min delay ~190 ms in Fig. 9): hand
            # the query to our predecessor, which will resolve it back to us
            # and reply over a WCL path.
            if self.predecessor is not None:
                self._forward_query(query, self.predecessor.node_id)
                return
        # Case 2: our successor owns the key.  At the origin we still ship
        # the query to the successor so the answer travels a WCL path.
        if in_interval(kid, self.ring_id, successor_peer.ring_id):
            if not at_origin:
                self._answer(
                    query, owner_id=successor_peer.node_id,
                    owner_ring=successor_peer.ring_id,
                )
                return
            self._forward_query(query, successor_peer.node_id)
            return
        # Case 3: forward to the closest preceding finger (or successor).
        next_peer = self.fingers.closest_preceding(kid) or successor_peer
        if not self._forward_query(query, next_peer.node_id):
            self._answer(
                query, owner_id=successor_peer.node_id,
                owner_ring=successor_peer.ring_id,
            )

    def _forward_query(self, query: dict, next_node: NodeId) -> bool:
        contact = self._contacts.get(next_node)
        if contact is None:
            return False
        forwarded = dict(query)
        forwarded["hops"] = query["hops"] + 1
        self.stats.queries_forwarded += 1
        self.ppss.send_app(contact, forwarded, 160, include_self_contact=False)
        return True

    def _answer(self, query: dict, owner_id: NodeId, owner_ring: int) -> None:
        """Reply straight to the querying node over a single WCL path."""
        self.stats.queries_answered += 1
        answer = {
            "app": "tchord",
            "op": "answer",
            "qid": query["qid"],
            "key": query["key"],
            "owner_id": owner_id,
            "owner_ring": owner_ring,
            "hops": query["hops"],
        }
        origin: PrivateContact = query["origin"]
        if origin.node_id == self.ppss.node_id:
            self._deliver_answer(answer)
        else:
            self.ppss.send_app(origin, answer, 128, include_self_contact=False)

    def _deliver_answer(self, answer: dict) -> None:
        pending = self._pending.pop(answer["qid"], None)
        if pending is None:
            return  # duplicate or post-timeout answer
        if pending.timer is not None:
            pending.timer.cancel()
        self.stats.lookups_completed += 1
        pending.callback(
            LookupResult(
                key=pending.key,
                owner_id=answer["owner_id"],
                owner_ring_id=answer["owner_ring"],
                hops=answer["hops"],
                latency=self._sim.now - pending.started_at,
            )
        )

    # ------------------------------------------------------------------
    def _on_app(self, payload: dict, reply_to: PrivateContact | None) -> None:
        if self.tman.handle_payload(payload, reply_to):
            return
        if payload.get("app") != "tchord":
            return
        if payload["op"] == "query":
            self._route(payload)
        elif payload["op"] == "answer":
            self._deliver_answer(payload)
