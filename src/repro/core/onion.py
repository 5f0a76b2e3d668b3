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

    def with_header(self, header: Sealed) -> "OnionPacket":
        return replace(self, header=header)


@dataclass(frozen=True, slots=True)
class HopSpec:
    """One hop as known to the source when preparing the path."""

    node_id: NodeId
    public_key: PublicKey
    public_endpoint: Endpoint | None = None


def build_onion(
    provider: CryptoProvider,
    path: list[HopSpec],
    content: object,
    content_size: int,
    *,
    node: NodeId = -1,
    context: str = "",
) -> OnionPacket:
    """Construct the onion packet for ``path`` = [A, B, D] (mixes first).

    The paper fixes paths at four nodes (S, two mixes, D); the function
    accepts any number >= 1 of hops so the colluding-attacker extension
    (footnote 2: f mixes tolerate f-1 colluders) works unchanged.
    """
    if not path:
        raise ValueError("onion path needs at least the destination hop")
    key = provider.new_symmetric_key()
    destination = path[-1]
    layer = OnionLayer(next_hop=None, inner=None, key=key)
    sealed = provider.seal(destination.public_key, layer, node=node, context=context)
    # Wrap layers from the next-to-last hop backwards (Fig. 2).
    for hop_index in range(len(path) - 2, -1, -1):
        hop = path[hop_index]
        next_spec = path[hop_index + 1]
        layer = OnionLayer(
            next_hop=NextHop(
                node_id=next_spec.node_id,
                public_endpoint=next_spec.public_endpoint,
            ),
            inner=sealed,
            key=None,
        )
        sealed = provider.seal(hop.public_key, layer, node=node, context=context)
    # Account for the per-layer wire overhead the real system would have.
    sealed = replace(
        sealed, size_bytes=len(path) * sizes.onion_layer_overhead
    )
    body = provider.encrypt_payload(
        key, content, content_size, node=node, context=context
    )
    return OnionPacket(header=sealed, body=body, trace_id=provider.next_trace_id())


def peel(
    provider: CryptoProvider,
    keypair: KeyPair,
    packet: OnionPacket | CircuitSetupPacket,
    *,
    node: NodeId = -1,
    context: str = "",
) -> tuple[
    OnionLayer | CircuitSetupLayer, OnionPacket | CircuitSetupPacket | None
]:
    """Decrypt our layer of a data onion or a circuit-setup onion.

    Returns ``(layer, forward_packet)``; ``forward_packet`` is None when we
    are the destination.  Raises CryptoError when the header was not
    prepared for our key (mis-routed packet).
    """
    layer = provider.open(keypair, packet.header, node=node, context=context)
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
    return layer, packet.with_header(shrunk)


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

    def with_header(self, header: Sealed) -> "CircuitSetupPacket":
        return replace(self, header=header)


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
    context: str = "",
) -> CircuitSetupPacket:
    """Construct the setup onion installing ``hops`` along ``path``.

    ``path`` and ``hops`` run mixes-first, destination last, exactly like
    :func:`build_onion`'s path; ``hops[i].next_circuit_id`` must be
    ``hops[i+1].circuit_id`` (None for the destination).  Charges one
    ``rsa_encrypt`` per layer, like the per-message builder — the point of
    circuits is that this price is paid once, not per message.
    """
    if not path:
        raise ValueError("circuit path needs at least the destination hop")
    if len(path) != len(hops):
        raise ValueError(f"{len(path)} path hops but {len(hops)} circuit hops")
    layer = CircuitSetupLayer(hop=hops[-1], next_hop=None, inner=None)
    sealed = provider.seal(path[-1].public_key, layer, node=node, context=context)
    for hop_index in range(len(path) - 2, -1, -1):
        next_spec = path[hop_index + 1]
        layer = CircuitSetupLayer(
            hop=hops[hop_index],
            next_hop=NextHop(
                node_id=next_spec.node_id,
                public_endpoint=next_spec.public_endpoint,
            ),
            inner=sealed,
        )
        sealed = provider.seal(
            path[hop_index].public_key, layer, node=node, context=context
        )
    sealed = replace(sealed, size_bytes=len(path) * sizes.onion_layer_overhead)
    return CircuitSetupPacket(header=sealed, trace_id=provider.next_trace_id())
