"""Attacker model: passive observation of individual links.

The paper's threat model lets an attacker observe the traffic on *some*
links (but not all links of a multi-hop path).  :class:`LinkObserver`
implements that adversary for tests and security experiments: it taps every
message whose (sender, receiver) node pair matches a watched link — or all
links in "global observer" mode used by invariant checks — and records what
an eavesdropper would see: the observed endpoints, size, kind tag, and the
payload object travelling the wire (ciphertext objects if the protocols do
their job).
"""

from __future__ import annotations

from dataclasses import dataclass

from .address import Endpoint, NodeId

__all__ = ["LinkObserver", "ObservedPacket"]


@dataclass(frozen=True)
class ObservedPacket:
    """One packet as seen on the wire."""

    time: float
    sender: NodeId
    receiver: NodeId | None  # None when the packet was filtered/lost
    src_endpoint: Endpoint
    dst_endpoint: Endpoint
    kind: str
    payload: object
    size_bytes: int


class LinkObserver:
    """Records packets on watched links.

    ``watch(a, b)`` taps the directed link a->b; ``watch_all()`` turns the
    observer into a global wiretap (used by tests asserting that *no* link
    ever carries plaintext — a stronger condition than the threat model
    requires).
    """

    def __init__(self) -> None:
        self._links: set[tuple[NodeId, NodeId]] = set()
        self._all = False
        self.packets: list[ObservedPacket] = []

    def watch(self, sender: NodeId, receiver: NodeId) -> None:
        self._links.add((sender, receiver))

    def watch_all(self) -> None:
        self._all = True

    def wants(self, sender: NodeId, receiver: NodeId | None) -> bool:
        if self._all:
            return True
        if receiver is None:
            return any(s == sender for s, _ in self._links)
        return (sender, receiver) in self._links

    def record(self, packet: ObservedPacket) -> None:
        self.packets.append(packet)
