"""Seeded random payload generators, one per registered message kind.

The codec property tests need realistic payloads for every kind in the
registry — including awkward cases (None-able fields, empty buffers,
nested onions, piggybacked election state).  Generators are
deterministic given the ``random.Random`` they are handed, so test
failures reproduce from the seed alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.contact import Gateway, PrivateContact
from repro.core.election import Heartbeat, Proposal
from repro.core.group import (
    GroupKeyring,
    issue_accreditation,
    issue_passport,
)
from repro.core.onion import CircuitFrame, CircuitHop, HopSpec, build_circuit_setup, build_onion
from repro.core.ppss import PrivateViewEntry
from repro.crypto.provider import CryptoProvider, SimCryptoProvider
from repro.nat.traversal import NodeDescriptor
from repro.nat.types import NatType
from repro.net.address import Endpoint, NodeKind
from repro.pss.view import ViewEntry
from repro.wire.registry import registered_kinds

__all__ = ["SampleContext", "sample_payload", "sample_kinds"]


@dataclass
class SampleContext:
    """Shared state for payload generation (keys are expensive to mint)."""

    rng: random.Random
    provider: CryptoProvider
    group: str = "sample-group"
    keyring: GroupKeyring = field(init=False)

    def __post_init__(self) -> None:
        self.keyring = GroupKeyring(group=self.group)
        self.keyring.become_leader(self.provider.generate_keypair())

    @classmethod
    def fresh(cls, seed: int = 0, provider: CryptoProvider | None = None) -> "SampleContext":
        rng = random.Random(seed)
        if provider is None:
            provider = SimCryptoProvider(random.Random(seed + 1))
        return cls(rng=rng, provider=provider)

    # -- building blocks ---------------------------------------------------
    def node_id(self) -> int:
        return self.rng.randrange(1, 10_000)

    def endpoint(self) -> Endpoint:
        return Endpoint(f"pub-{self.rng.randrange(1, 500)}", self.rng.randrange(1024, 65535))

    def descriptor(self) -> NodeDescriptor:
        if self.rng.random() < 0.5:
            return NodeDescriptor(
                node_id=self.node_id(),
                kind=NodeKind.PUBLIC,
                nat_type=NatType.OPEN,
                public_endpoint=self.endpoint(),
            )
        return NodeDescriptor(
            node_id=self.node_id(),
            kind=NodeKind.NATTED,
            nat_type=self.rng.choice(
                [t for t in NatType if t is not NatType.OPEN]
            ),
            public_endpoint=None,
            route=tuple(self.node_id() for _ in range(self.rng.randrange(0, 3))),
        )

    def view_buffer(self) -> list[ViewEntry]:
        return [
            ViewEntry(descriptor=self.descriptor(), age=self.rng.randrange(0, 30))
            for _ in range(self.rng.randrange(0, 6))
        ]

    def public_key(self):
        return self.provider.generate_keypair().public

    def contact(self) -> PrivateContact:
        gateways = tuple(
            Gateway(descriptor=self.descriptor(), key=self.public_key())
            for _ in range(self.rng.randrange(0, 3))
        )
        return PrivateContact(
            descriptor=self.descriptor(), key=self.public_key(), gateways=gateways
        )

    def private_buffer(self) -> list[PrivateViewEntry]:
        return [
            PrivateViewEntry(contact=self.contact(), age=self.rng.randrange(0, 10))
            for _ in range(self.rng.randrange(0, 4))
        ]

    def passport(self):
        return issue_passport(self.provider, self.keyring, self.node_id())

    def heartbeat(self) -> Heartbeat | None:
        if self.rng.random() < 0.4:
            return None
        return Heartbeat(
            leader_id=self.node_id(),
            epoch=self.rng.randrange(1, 5),
            seq=self.rng.randrange(0, 1000),
        )

    def election(self) -> dict[str, Any] | None:
        if self.rng.random() < 0.5:
            return None
        return {
            "proposal": Proposal(
                value=self.rng.getrandbits(32),
                node_id=self.node_id(),
                epoch=self.rng.randrange(1, 5),
            )
        }

    def new_key(self) -> dict[str, Any] | None:
        if self.rng.random() < 0.7:
            return None
        keypair = self.provider.generate_keypair()
        return {
            "group": self.group,
            "leader_id": self.node_id(),
            "leader_key": self.keyring.leader_keypair.public,
            "key": keypair.public,
            "signature": self.provider.sign(
                self.keyring.leader_keypair,
                ("new_key", self.group, keypair.public.fingerprint),
            ),
        }

    def circuit_setup(self):
        path = [
            HopSpec(
                node_id=self.node_id(),
                public_key=self.public_key(),
                public_endpoint=self.endpoint() if self.rng.random() < 0.5 else None,
            )
            for _ in range(self.rng.randrange(2, 4))
        ]
        labels = [self.rng.getrandbits(48) for _ in path]
        hops = [
            CircuitHop(
                circuit_id=labels[index],
                key=self.provider.new_symmetric_key(),
                next_circuit_id=labels[index + 1] if index + 1 < len(path) else None,
                lifetime=float(self.rng.randrange(60, 1200)),
            )
            for index in range(len(path))
        ]
        return build_circuit_setup(self.provider, path, hops)

    def circuit_frame(self):
        keys = [
            self.provider.new_symmetric_key()
            for _ in range(self.rng.randrange(2, 5))
        ]
        body = self.provider.wrap_layers(
            keys, self._exchange_body("ppss.request"), 256
        )
        return CircuitFrame(
            circuit_id=self.rng.getrandbits(48),
            body=body,
            trace_id=self.provider.next_trace_id(),
        )

    def onion(self):
        path = [
            HopSpec(
                node_id=self.node_id(),
                public_key=self.public_key(),
                public_endpoint=self.endpoint() if self.rng.random() < 0.5 else None,
            )
            for _ in range(self.rng.randrange(2, 4))
        ]
        content = self._exchange_body("ppss.request")
        return build_onion(self.provider, path, content, 256)

    def _gossip_body(self) -> dict[str, Any]:
        return {
            "sender": self.descriptor(),
            "buffer": self.view_buffer(),
            "key": self.public_key() if self.rng.random() < 0.5 else None,
        }

    def _exchange_body(self, msg_type: str) -> dict[str, Any]:
        return {
            "type": msg_type,
            "group": self.group,
            "xid": self.rng.getrandbits(32),
            "sender": self.contact(),
            "passport": self.passport(),
            "buffer": self.private_buffer(),
            "hb": self.heartbeat(),
            "election": self.election(),
            "new_key": self.new_key(),
        }

    def _pcp_body(self, msg_type: str) -> dict[str, Any]:
        return {
            "type": msg_type,
            "group": self.group,
            "sender": self.contact(),
            "passport": self.passport(),
            "hb": self.heartbeat(),
            "election": self.election(),
            "new_key": self.new_key(),
        }


def _inner_kind_payload(ctx: SampleContext) -> tuple[str, Any, int]:
    """A random session kind + payload to ride inside nat.data / nat.relay."""
    inner_kinds = ("pss.request", "nat.sping", "wcl.cb_probe", "nat.connect_fail")
    kind = ctx.rng.choice(inner_kinds)
    payload = sample_payload(kind, ctx)
    return kind, payload, ctx.rng.randrange(16, 2048)


_BUILDERS: dict[str, Callable[[SampleContext], Any]] = {
    "nat.hello": lambda ctx: {"from": ctx.node_id()},
    "nat.ping": lambda ctx: {"from": ctx.node_id()},
    "nat.pong": lambda ctx: {"from": ctx.node_id(), "observed": ctx.endpoint()},
    "nat.sping": lambda ctx: {"from": ctx.node_id()},
    "nat.spong": lambda ctx: {"from": ctx.node_id()},
    "nat.connect": lambda ctx: {
        "target": ctx.node_id(),
        "requester": ctx.node_id(),
        "requester_nat": ctx.rng.choice(list(NatType)),
        "requester_external": ctx.endpoint() if ctx.rng.random() < 0.5 else None,
        "remaining": [ctx.node_id() for _ in range(ctx.rng.randrange(0, 3))],
        "path_taken": [ctx.node_id() for _ in range(ctx.rng.randrange(1, 4))],
    },
    "nat.connect_fail": lambda ctx: {
        "path": [ctx.node_id() for _ in range(ctx.rng.randrange(0, 4))],
        "target": ctx.node_id(),
        "reason": "rv lost target",
    },
    "nat.punch_offer": lambda ctx: {
        "requester": ctx.node_id(),
        "requester_nat": ctx.rng.choice(list(NatType)),
        "requester_external": ctx.endpoint() if ctx.rng.random() < 0.5 else None,
        "reply_path": [ctx.node_id() for _ in range(ctx.rng.randrange(1, 4))],
        "rv": ctx.node_id(),
    },
    "nat.punch_accept": lambda ctx: {
        "path": [ctx.node_id() for _ in range(ctx.rng.randrange(0, 3))],
        "target": ctx.node_id(),
        "requester": ctx.node_id(),
        "punch": ctx.rng.random() < 0.5,
        "target_external": ctx.endpoint() if ctx.rng.random() < 0.5 else None,
        "rv": ctx.node_id(),
    },
    "pss.request": lambda ctx: ctx._gossip_body(),
    "pss.response": lambda ctx: ctx._gossip_body(),
    "wcl.onion": lambda ctx: ctx.onion(),
    "wcl.circuit_setup": lambda ctx: ctx.circuit_setup(),
    "wcl.circuit_data": lambda ctx: ctx.circuit_frame(),
    "wcl.circuit_ack": lambda ctx: {"circuit": ctx.rng.getrandbits(48)},
    "wcl.circuit_teardown": lambda ctx: {"circuit": ctx.rng.getrandbits(48)},
    "wcl.cb_probe": lambda ctx: {"sender": ctx.descriptor()},
    "wcl.cb_probe_ack": lambda ctx: {"sender": ctx.descriptor(), "key": ctx.public_key()},
    "ppss.request": lambda ctx: ctx._exchange_body("ppss.request"),
    "ppss.response": lambda ctx: ctx._exchange_body("ppss.response"),
    "ppss.app": lambda ctx: {
        "type": "ppss.app",
        "group": ctx.group,
        "sender_id": ctx.node_id(),
        "passport": ctx.passport(),
        "payload": {"app": "chat", "text": "hello", "seq": ctx.rng.randrange(0, 99)},
        "reply_to": ctx.contact() if ctx.rng.random() < 0.5 else None,
    },
    "ppss.pcp_refresh": lambda ctx: ctx._pcp_body("ppss.pcp_refresh"),
    "ppss.pcp_ack": lambda ctx: ctx._pcp_body("ppss.pcp_ack"),
    "group.join": lambda ctx: {
        "type": "group.join",
        "group": ctx.group,
        "accreditation": issue_accreditation(
            ctx.provider, ctx.keyring,
            ctx.node_id() if ctx.rng.random() < 0.5 else None,
            expires_at=3600.0,
        ),
        "joiner": ctx.contact(),
    },
    "group.welcome": lambda ctx: {
        "type": "group.welcome",
        "group": ctx.group,
        "passport": ctx.passport(),
        "key_history": [ctx.keyring.current],
        "seed": ctx.private_buffer(),
    },
}


def _nat_data(ctx: SampleContext) -> dict[str, Any]:
    kind, payload, size = _inner_kind_payload(ctx)
    return {"from": ctx.node_id(), "kind": kind, "payload": payload, "inner_size": size}


def _nat_relay(ctx: SampleContext) -> dict[str, Any]:
    kind, payload, size = _inner_kind_payload(ctx)
    return {
        "target": ctx.node_id(),
        "chain": [ctx.node_id() for _ in range(ctx.rng.randrange(0, 3))],
        "origin": ctx.node_id(),
        "kind": kind,
        "payload": payload,
        "inner_size": size,
    }


_BUILDERS["nat.data"] = _nat_data
_BUILDERS["nat.relay"] = _nat_relay

_missing = set(registered_kinds()) - set(_BUILDERS)
assert not _missing, f"sample builders missing for kinds: {sorted(_missing)}"


def sample_kinds() -> tuple[str, ...]:
    """Kinds covered by the generators (== every registered kind)."""
    return registered_kinds()


def sample_payload(kind: str, ctx: SampleContext) -> Any:
    """A random, schema-valid payload for ``kind`` drawn from ``ctx.rng``."""
    builder = _BUILDERS.get(kind)
    if builder is None:
        raise KeyError(f"no sample builder for message kind {kind!r}")
    return builder(ctx)
