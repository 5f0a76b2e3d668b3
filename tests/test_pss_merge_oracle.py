"""Differential test: the one-pass PSS merge against the implementation it replaced.

``ReferenceMerge`` holds ``_merge`` / ``_compress_route`` / ``_view_put`` /
``_enforce_public_floor`` / ``_enforce_public_cap`` copied verbatim from
``PeerSamplingService`` as of the commit before the exchange path moved into
:meth:`View.merge` (they drive a view through its public, absolute-aged
API only).  The property test runs both on the same generated exchange and
requires the same view in the same slot order — the population the next
``sample`` draws from — the same ``has_session`` call sequence (that call
deletes lease-expired sessions) and the same next sample.
"""

import random
from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.nat.traversal import MAX_ROUTE_LENGTH, NodeDescriptor
from repro.nat.types import NatType
from repro.net.address import Endpoint, NodeId, NodeKind
from repro.pss.gossip import PeerSamplingService, PssConfig
from repro.pss.view import View, ViewEntry

SELF_ID = 0


class SessionLog:
    """The slice of a ConnectionManager the merge touches."""

    def __init__(self, open_sessions: frozenset[int]) -> None:
        self.open_sessions = open_sessions
        self.calls: list[int] = []

    def has_session(self, peer: int) -> bool:
        self.calls.append(peer)
        return peer in self.open_sessions


class ReferenceMerge:
    """The pre-``View.merge`` exchange path, verbatim."""

    def __init__(self, view: View, cm: SessionLog, policy) -> None:
        self.node_id = SELF_ID
        self.view = view
        self.cm = cm
        self.policy = policy

    def _merge(
        self,
        received: list[ViewEntry],
        sender: NodeDescriptor,
        sent: list[ViewEntry],
    ) -> None:
        """Cyclon-style merge with the healer's freshest-wins duplicates.

        Received entries (the sender's fresh self-descriptor is treated as
        one of them on the passive side) fill empty view slots first, then
        replace the entries we shipped to the partner, then — healing — the
        oldest remaining entries.  Afterwards the WHISPER bias re-instates
        the Pi P-node floor from the union of everything seen.
        """
        incoming = [self._compress_route(e) for e in received]
        incoming.append(ViewEntry(descriptor=sender, age=0))
        replaceable = [e.node_id for e in sent if e.node_id in self.view]
        evicted: dict[NodeId, ViewEntry] = {}
        for entry in sorted(incoming, key=lambda e: (e.age, e.node_id)):
            if entry.node_id == self.node_id:
                continue
            if entry.descriptor.route_too_long():
                continue
            current = self.view.get(entry.node_id)
            if current is not None:
                if entry.age < current.age:
                    self._view_put(entry)
                continue
            if len(self.view) < self.view.capacity:
                self._view_put(entry)
            elif replaceable:
                victim = replaceable.pop(0)
                removed = self.view.get(victim)
                if removed is not None:
                    evicted[victim] = removed
                self.view.remove(victim)
                self._view_put(entry)
            else:
                oldest = self.view.oldest()
                if oldest is not None and oldest.age > entry.age:
                    evicted[oldest.node_id] = oldest
                    self.view.remove(oldest.node_id)
                    self._view_put(entry)
        self._enforce_public_floor(incoming, evicted)
        self._enforce_public_cap(incoming, evicted)

    def _compress_route(self, entry: ViewEntry) -> ViewEntry:
        """Drop the rendezvous chain when we can reach the node ourselves.

        Nylon keeps reachability as node-local state: a node that holds an
        open (NAT-traversed) session to B does not need the forwarding chain
        an entry travelled with.  Compression keeps routes short and stops
        natted entries from attriting at the route-length cap as they
        circulate — P-node entries never grow routes, so without this the
        overlay would slowly skew public.
        """
        descriptor = entry.descriptor
        if descriptor.is_public or not descriptor.route:
            return entry
        if self.cm.has_session(descriptor.node_id):
            return ViewEntry(
                descriptor=NodeDescriptor(
                    descriptor.node_id,
                    descriptor.kind,
                    descriptor.nat_type,
                    descriptor.public_endpoint,
                    (),
                ),
                age=entry.age,
            )
        return entry

    def _enforce_public_cap(
        self, incoming: list[ViewEntry], evicted: dict[NodeId, ViewEntry]
    ) -> None:
        """Aggressive load-limiting variant (ablation): P-nodes above the Pi
        freshest are swapped back out for N-node candidates when available,
        capping P-node view presence near Pi."""
        pi = getattr(self.policy, "pi", 0)
        if not getattr(self.policy, "cap_public", False) or pi <= 0:
            return
        publics = sorted(
            self.view.public_entries(), key=lambda e: (e.age, e.node_id)
        )
        surplus = publics[pi:]
        if not surplus:
            return
        pool: dict[NodeId, ViewEntry] = {}
        for entry in list(evicted.values()) + list(incoming):
            if entry.is_public or entry.node_id == self.node_id:
                continue
            if entry.node_id in self.view or entry.descriptor.route_too_long():
                continue
            current = pool.get(entry.node_id)
            if current is None or entry.age < current.age:
                pool[entry.node_id] = entry
        replacements = sorted(pool.values(), key=lambda e: (e.age, e.node_id))
        # Oldest surplus P-nodes go first.
        for victim in reversed(surplus):
            if not replacements:
                break
            self.view.remove(victim.node_id)
            self._view_put(replacements.pop(0))

    def _view_put(self, entry: ViewEntry) -> None:
        self.view.put(entry)

    def _enforce_public_floor(
        self, incoming: list[ViewEntry], evicted: dict[NodeId, ViewEntry]
    ) -> None:
        """Section III-B-1: keep at least Pi P-nodes in the view, using the
        freshest P-node candidates from the view and the received entries."""
        pi = getattr(self.policy, "pi", 0)
        if pi <= 0:
            return
        deficit = pi - self.view.count_public()
        if deficit <= 0:
            return
        pool: dict[NodeId, ViewEntry] = {}
        for entry in list(evicted.values()) + list(incoming):
            if not entry.is_public or entry.node_id == self.node_id:
                continue
            if entry.node_id in self.view:
                continue
            current = pool.get(entry.node_id)
            if current is None or entry.age < current.age:
                pool[entry.node_id] = entry
        candidates = sorted(pool.values(), key=lambda e: (e.age, e.node_id))
        for candidate in candidates[:deficit]:
            if len(self.view) >= self.view.capacity:
                victims = [e for e in self.view.entries() if not e.is_public]
                if not victims:
                    break
                victim = max(victims, key=lambda e: (e.age, e.node_id))
                self.view.remove(victim.node_id)
            self._view_put(candidate)


# ----------------------------------------------------------------------
# generated exchanges
# ----------------------------------------------------------------------
NODE_IDS = st.integers(SELF_ID, 14)  # small pool: duplicates and self entries
AGES = st.integers(0, 6)  # narrow range: age ties


def _natted(node_id: int, route: tuple[int, ...]) -> NodeDescriptor:
    return NodeDescriptor(node_id, NodeKind.NATTED, NatType.FULL_CONE, route=route)


def _public(node_id: int) -> NodeDescriptor:
    return NodeDescriptor(
        node_id, NodeKind.PUBLIC, NatType.OPEN, Endpoint(f"pub-{node_id}", 7000)
    )


@st.composite
def descriptors(draw) -> NodeDescriptor:
    node_id = draw(NODE_IDS)
    if draw(st.booleans()):
        return _public(node_id)
    route = draw(st.lists(st.integers(20, 29), max_size=MAX_ROUTE_LENGTH + 2))
    return _natted(node_id, tuple(route))


def view_entries(**kwargs):
    return st.lists(st.builds(ViewEntry, descriptors(), AGES), **kwargs)


@st.composite
def exchanges(draw) -> dict:
    capacity = draw(st.integers(3, 8))
    pi = draw(st.sampled_from([0, 2, 3]))
    policy = draw(st.sampled_from(["healer", "biased", "aggressive"]))
    held = draw(
        view_entries(max_size=capacity, unique_by=lambda e: e.node_id).filter(
            lambda entries: all(e.node_id != SELF_ID for e in entries)
        )
    )
    # Nodes put after some cycles sit at negative stored ages, in later slots.
    late = [e for e in held if draw(st.booleans())]
    return {
        "capacity": capacity,
        "pi": pi,
        "policy": policy,
        "held": [e for e in held if e not in late],
        "cycles": draw(st.integers(0, 5)),
        "late": late,
        "received": draw(view_entries(max_size=9)),
        "sender": draw(descriptors()),
        # What was shipped: entries still held, and some long gone.
        "sent": draw(view_entries(max_size=6, unique_by=lambda e: e.node_id)),
        "sessions": draw(st.frozensets(NODE_IDS, max_size=6)),
    }


def make_policy(case: dict) -> SimpleNamespace:
    """What the reference reads: ``.pi`` and ``.cap_public``."""
    pi = 0 if case["policy"] == "healer" else case["pi"]
    return SimpleNamespace(pi=pi, cap_public=case["policy"] == "aggressive")


def fill(view: View, case: dict) -> None:
    view.replace_all(case["held"])
    for _ in range(case["cycles"]):
        view.increment_ages()
    for entry in case["late"]:
        view.put(entry)


# Node 9 is shipped, evicted for the sender, and arrives again at the same
# age over another route without getting back in; the cap then needs an
# N-node, and the evicted copy (route 21) must win the tie over the received
# one (route 22).
EVICTED_COPY_WINS_TIE = {
    "capacity": 4, "pi": 2, "policy": "aggressive", "cycles": 0, "late": [],
    "held": [
        ViewEntry(_natted(9, (21,)), 3), ViewEntry(_public(1), 0),
        ViewEntry(_public(2), 1), ViewEntry(_public(3), 2),
    ],
    "received": [ViewEntry(_natted(9, (22,)), 3)],
    "sender": _public(4),
    "sent": [ViewEntry(_natted(9, (21,)), 3)],
    "sessions": frozenset(),
}


@settings(max_examples=600, deadline=None)
@given(case=exchanges())
@example(case=EVICTED_COPY_WINS_TIE)
def test_one_pass_merge_matches_the_reference(case):
    log = SessionLog(case["sessions"])
    policy = make_policy(case)
    service = PeerSamplingService(
        SELF_ID, log, sim=None, rng=random.Random(1),
        config=PssConfig(view_size=case["capacity"]),
        pi=policy.pi, cap_public=policy.cap_public,
    )
    fill(service.view, case)
    reference_log = SessionLog(case["sessions"])
    reference = ReferenceMerge(View(case["capacity"]), reference_log, policy)
    fill(reference.view, case)
    assert service.view.entries() == reference.view.entries()

    service._merge(case["received"], case["sender"], sent=case["sent"])
    reference._merge(case["received"], case["sender"], sent=case["sent"])

    assert service.view.entries() == reference.view.entries()  # slot order too
    assert log.calls == reference_log.calls
    assert service.view.sample(random.Random(7), 3) == reference.view.sample(
        random.Random(7), 3
    )
