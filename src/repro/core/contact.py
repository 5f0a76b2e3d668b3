"""Private contact records: how PPSS entries describe reachable members.

A :class:`PrivateContact` carries everything a source needs to build a WCL
path to a group member (Section IV-B): the member's identity and public key,
and — for N-node members — Π P-node *gateways* (identity + public key pairs)
usable as the next-to-last hop, because those P-nodes hold an open
NAT-traversed session towards the member.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto.provider import PublicKey
from ..nat.traversal import NodeDescriptor
from ..net.address import NodeId
from ..net.message import sizes

__all__ = ["Gateway", "PrivateContact"]


@dataclass(frozen=True, slots=True)
class Gateway:
    """A keyed hop: a node's descriptor and the public key to seal for it.

    Advertised inside a :class:`PrivateContact` it is a P-node that can
    reach the contact directly (next-to-last hop B); it is also the slot
    type of the connection backlog those advertisements are drawn from, and
    what WCL's mix selection works on.
    """

    descriptor: NodeDescriptor
    key: PublicKey

    @property
    def node_id(self) -> NodeId:
        return self.descriptor.node_id

    @property
    def is_public(self) -> bool:
        return self.descriptor.is_public


@dataclass(frozen=True, slots=True)
class PrivateContact:
    """A confidentially-reachable group member."""

    descriptor: NodeDescriptor
    key: PublicKey
    gateways: tuple[Gateway, ...] = ()

    @property
    def node_id(self) -> NodeId:
        """Identity of the member this contact reaches."""
        return self.descriptor.node_id

    @property
    def is_public(self) -> bool:
        """Whether the member is directly reachable (P-node)."""
        return self.descriptor.is_public

    def wire_size(self) -> int:
        """Serialized size (Section V-E: N-node entries carry Π keys)."""
        return sizes.private_view_entry(len(self.gateways))
