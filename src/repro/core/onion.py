"""Onion path construction and peeling (Fig. 2 of the paper).

A WCL message from S to D travels S -> A -> B -> D where A and B are mixes.
S encrypts the pair ``(k, ⊥)`` with D's public key, then wraps layers for B
and A, each holding the identity of the next hop and the remaining onion.
The content itself is encrypted once with the fresh symmetric key ``k``.

Because a mix cannot tell whether the *next-to-next* hop is ⊥, neither A nor
B learns whether they neighbour the source or the destination — that is the
relationship-anonymity argument of Section III-A, and the property the
security tests assert.

``trace_id`` is simulation instrumentation only: it lets the measurement
harness correlate per-hop timings for Fig. 7 without giving protocol code
any extra information (nothing in the protocol reads it; anonymity tests
deliberately ignore it, as the real wire format would not carry it).
Trace ids are drawn from the provider (one counter per World), so two
Worlds in one process number their onions exactly as two processes would.

Circuit mode (HORNET/Sphinx-style amortization) adds a second packet
family: a :class:`CircuitSetupPacket` is a one-shot onion whose layers
install per-hop symmetric keys, after which :class:`CircuitFrame` data
packets traverse the same path with symmetric crypto only (see
:meth:`~repro.crypto.provider.CryptoProvider.wrap_layers`).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

from ..crypto.provider import (
    CryptoProvider,
    EncryptedPayload,
    KeyPair,
    LayeredPayload,
    PublicKey,
    Sealed,
)
from ..net.address import Endpoint, NodeId
from ..net.message import sizes

__all__ = [
    "NextHop",
    "OnionLayer",
    "OnionPacket",
    "HopSpec",
    "build_onion",
    "peel",
    "CircuitHop",
    "CircuitSetupLayer",
    "CircuitSetupPacket",
    "CircuitFrame",
    "build_circuit_setup",
]


@dataclass(frozen=True, slots=True)
class NextHop:
    """Forwarding instruction found inside a decrypted layer."""

    node_id: NodeId
    # Set when the hop must be contacted directly at a public endpoint
    # (the next-to-last hop B is always a P-node; a public destination D
    # also carries its endpoint).  None means "use your open session".
    public_endpoint: Endpoint | None = None


@dataclass(frozen=True, slots=True)
class OnionLayer:
    """Plaintext of one onion layer.

    Exactly one of the two shapes exists on the wire: intermediate layers
    have ``next_hop`` + ``inner``; the destination layer has ``next_hop is
    None`` and carries the symmetric content key ``k``.
    """

    next_hop: NextHop | None
    inner: Sealed | None
    key: bytes | None


@dataclass(frozen=True, slots=True)
class OnionPacket:
    """What actually travels on each hop: header onion + encrypted body."""

    header: Sealed
    body: EncryptedPayload
    trace_id: int  # measurement-only; see module docstring

    @property
    def wire_size(self) -> int:
        return self.header.size_bytes + self.body.size_bytes


@dataclass(frozen=True, slots=True)
class HopSpec:
    """One hop as known to the source when preparing the path."""

    node_id: NodeId
    public_key: PublicKey
    public_endpoint: Endpoint | None = None


def _seal_layers(
    provider: CryptoProvider,
    path: list[HopSpec],
    make_layer: Callable[[int, NextHop | None, Sealed | None], object],
    node: NodeId,
) -> Sealed:
    """Fig. 2's layering, the one loop every onion family goes through.

    Seals the destination's layer first, then wraps backwards from the
    next-to-last hop: the layer for ``path[i]`` is
    ``make_layer(i, next hop, everything sealed so far)`` under that hop's
    public key (``next hop`` and the inner onion are None at the
    destination).  The result is sized by the wire model — one layer
    overhead per hop — not by what the provider's envelopes add up to.
    """
    if not path:
        raise ValueError("an onion path needs at least the destination hop")
    next_hop = sealed = None
    for index in range(len(path) - 1, -1, -1):
        hop = path[index]
        layer = make_layer(index, next_hop, sealed)
        sealed = provider.seal(hop.public_key, layer, node=node)
        next_hop = NextHop(node_id=hop.node_id, public_endpoint=hop.public_endpoint)
    return replace(sealed, size_bytes=len(path) * sizes.onion_layer_overhead)


def build_onion(
    provider: CryptoProvider,
    path: list[HopSpec],
    content: object,
    content_size: int,
    *,
    node: NodeId = -1,
) -> OnionPacket:
    """Construct the onion packet for ``path`` = [A, B, D] (mixes first).

    The paper fixes paths at four nodes (S, two mixes, D); the function
    accepts any number >= 1 of hops so the colluding-attacker extension
    (footnote 2: f mixes tolerate f-1 colluders) works unchanged.
    """
    key = provider.new_symmetric_key()  # drawn before the seals draw theirs
    header = _seal_layers(
        provider, path,
        # Only the destination's layer (no next hop) carries the content key.
        lambda index, next_hop, inner: OnionLayer(
            next_hop=next_hop, inner=inner, key=key if next_hop is None else None
        ),
        node,
    )
    body = provider.encrypt_payload(key, content, content_size, node=node)
    return OnionPacket(header=header, body=body, trace_id=provider.next_trace_id())


def peel(
    provider: CryptoProvider,
    keypair: KeyPair,
    packet: OnionPacket | CircuitSetupPacket,
    *,
    node: NodeId = -1,
) -> tuple[
    OnionLayer | CircuitSetupLayer, OnionPacket | CircuitSetupPacket | None
]:
    """Decrypt our layer of a data onion or a circuit-setup onion.

    Returns ``(layer, forward_packet)``; ``forward_packet`` is None when we
    are the destination.  Raises CryptoError when the header was not
    prepared for our key (mis-routed packet).
    """
    layer = provider.open(keypair, packet.header, node=node)
    if layer.next_hop is None:
        return layer, None
    assert layer.inner is not None
    shrunk = replace(
        layer.inner,
        size_bytes=max(
            sizes.onion_layer_overhead,
            packet.header.size_bytes - sizes.onion_layer_overhead,
        ),
    )
    return layer, replace(packet, header=shrunk)


# ---------------------------------------------------------------------------
# circuit mode (amortized RSA: asymmetric work at setup only)
# ---------------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class CircuitHop:
    """Per-hop circuit state installed by one setup layer.

    ``circuit_id`` is the label this hop matches on incoming data frames;
    ``next_circuit_id`` is the label it rewrites outgoing frames to (None
    at the destination).  Labels are per-link, Tor style: no hop learns
    any other hop's label, so frames cannot be chained across a mix by id.
    """

    circuit_id: int
    key: bytes
    next_circuit_id: int | None
    lifetime: float  # seconds of validity from installation


@dataclass(frozen=True, slots=True)
class CircuitSetupLayer:
    """Plaintext of one circuit-setup onion layer."""

    hop: CircuitHop
    next_hop: NextHop | None  # None at the destination
    inner: Sealed | None


@dataclass(frozen=True, slots=True)
class CircuitSetupPacket:
    """The setup onion: a header-only packet (no body travels with it)."""

    header: Sealed
    trace_id: int  # measurement-only; see module docstring

    @property
    def wire_size(self) -> int:
        return self.header.size_bytes


@dataclass(frozen=True, slots=True)
class CircuitFrame:
    """A data frame on an established circuit: symmetric layers only."""

    circuit_id: int
    body: LayeredPayload
    trace_id: int  # measurement-only; see module docstring

    @property
    def wire_size(self) -> int:
        return (
            self.body.size_bytes
            + sizes.circuit_header
            + sizes.circuit_layer_mac * len(self.body.auths)
        )


def build_circuit_setup(
    provider: CryptoProvider,
    path: list[HopSpec],
    hops: list[CircuitHop],
    *,
    node: NodeId = -1,
) -> CircuitSetupPacket:
    """Construct the setup onion installing ``hops`` along ``path``.

    ``path`` and ``hops`` run mixes-first, destination last, exactly like
    :func:`build_onion`'s path; ``hops[i].next_circuit_id`` must be
    ``hops[i+1].circuit_id`` (None for the destination).  Charges one
    ``rsa_encrypt`` per layer, like the per-message builder — the point of
    circuits is that this price is paid once, not per message.
    """
    if len(path) != len(hops):
        raise ValueError(f"{len(path)} path hops but {len(hops)} circuit hops")
    header = _seal_layers(
        provider, path,
        lambda index, next_hop, inner: CircuitSetupLayer(
            hop=hops[index], next_hop=next_hop, inner=inner
        ),
        node,
    )
    return CircuitSetupPacket(header=header, trace_id=provider.next_trace_id())
