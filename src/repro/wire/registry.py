"""Versioned message frames and the per-kind schema registry.

A wire frame is::

    magic "WF" | version (1 byte) | kind id (uvarint) |
    body length (uvarint) | body (TLV value) | crc32 (4 bytes, big-endian)

The CRC covers everything before it, so truncation and bit flips are
rejected before any payload decoding happens.  ``version`` is the format
generation: a v1 decoder refuses frames from any other generation with a
clean :class:`~repro.wire.codec.WireDecodeError` instead of guessing.

Every message kind the stack produces is registered as a
:class:`MessageSpec`: a stable numeric wire id (append-only, never
renumbered), the traffic category it is accounted under, and a shape
check — either a payload dataclass type or the exact set of dict keys the
protocol layer emits.  The shape check runs on *both* encode and decode,
so a frame that decodes structurally but violates the protocol schema is
rejected at the boundary, not deep inside a handler.

The registry covers three strata:

- fabric kinds — the only frames that actually hit a socket
  (``nat.data``/``nat.hello``/``nat.ping``/``nat.pong``); everything else
  rides inside ``nat.data``;
- session kinds — traversal control and app payloads multiplexed over
  sessions (``nat.connect``, ``pss.request``, ``wcl.onion``, ...);
- content kinds — PPSS/group bodies that travel inside onion payloads
  (``ppss.request``, ``group.join``, ...), keys as
  ``tests/test_core_records.py`` pins them.  ``ppss.cover`` is deliberately
  not registered: a decoy is sized as the app payload it imitates and rides
  as a plain value in its onion body.  A keyed hop inside any body is one
  struct, ``Gateway`` (id 12), the connection backlog's own slot record.

Session and content kinds are encoded recursively as values inside their
carrier, but each also frames standalone so the property tests can
round-trip every kind in isolation.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any

from .codec import (
    LruCache,
    WireDecodeError,
    WireEncodeError,
    _encode_into,
    _uvarint_len,
    _write_uvarint,
    decode_value,
    value_size,
)
from ..core.onion import CircuitFrame, CircuitSetupPacket, OnionPacket

__all__ = [
    "WIRE_VERSION",
    "MessageSpec",
    "DecodedMessage",
    "spec_for",
    "category_for",
    "registered_kinds",
    "encode_message",
    "decode_message",
    "encoded_size",
]

WIRE_MAGIC = b"WF"
WIRE_VERSION = 1


@dataclass(frozen=True, slots=True)
class MessageSpec:
    """Schema entry for one protocol message kind."""

    kind: str
    wire_id: int
    category: str
    required: frozenset[str] = frozenset()
    optional: frozenset[str] = frozenset()
    payload_type: type | None = None  # non-dict payloads (e.g. OnionPacket)

    def check(self, payload: Any, *, exc: type[Exception]) -> None:
        """Raise ``exc`` unless ``payload`` matches this kind's shape."""
        if self.payload_type is not None:
            if type(payload) is not self.payload_type:
                raise exc(
                    f"{self.kind}: payload must be {self.payload_type.__name__}, "
                    f"got {type(payload).__name__}"
                )
            return
        if not isinstance(payload, dict):
            raise exc(f"{self.kind}: payload must be a dict, got {type(payload).__name__}")
        if payload.keys() == self.required:  # exact match: the common case
            return
        keys = set(payload)
        missing = self.required - keys
        if missing:
            raise exc(f"{self.kind}: missing fields {sorted(missing)}")
        unknown = keys - self.required - self.optional
        if unknown:
            raise exc(f"{self.kind}: unknown fields {sorted(unknown)}")


@dataclass(frozen=True, slots=True)
class DecodedMessage:
    """A successfully decoded frame."""

    kind: str
    payload: Any
    version: int = WIRE_VERSION
    encoded_size: int = 0


def _spec(
    kind: str,
    wire_id: int,
    category: str,
    required: tuple[str, ...] = (),
    optional: tuple[str, ...] = (),
    payload_type: type | None = None,
) -> MessageSpec:
    return MessageSpec(
        kind=kind,
        wire_id=wire_id,
        category=category,
        required=frozenset(required),
        optional=frozenset(optional),
        payload_type=payload_type,
    )


_GOSSIP = ("sender", "buffer", "key")
_PPSS_EXCHANGE = (
    "type", "group", "xid", "sender", "passport", "buffer", "hb", "election", "new_key",
)
_PPSS_PCP = ("type", "group", "sender", "passport", "hb", "election", "new_key")

# Wire ids are part of the format: append only, never renumber.
_SPECS: tuple[MessageSpec, ...] = (
    # --- fabric kinds: the only frames that hit a socket -------------------
    _spec("nat.hello", 1, "nat", required=("from",)),
    _spec("nat.ping", 2, "nat", required=("from",)),
    _spec("nat.pong", 3, "nat", required=("from", "observed")),
    _spec("nat.data", 4, "nat", required=("from", "kind", "payload", "inner_size")),
    # --- session kinds: traversal control over nat.data --------------------
    _spec("nat.sping", 5, "nat", required=("from",)),
    _spec("nat.spong", 6, "nat", required=("from",)),
    _spec(
        "nat.connect", 7, "nat",
        required=(
            "target", "requester", "requester_nat", "requester_external",
            "remaining", "path_taken",
        ),
    ),
    _spec("nat.connect_fail", 8, "nat", required=("path", "target", "reason")),
    _spec(
        "nat.punch_offer", 9, "nat",
        required=(
            "requester", "requester_nat", "requester_external", "reply_path", "rv",
        ),
    ),
    _spec(
        "nat.punch_accept", 10, "nat",
        required=("path", "target", "requester", "punch", "target_external", "rv"),
    ),
    _spec(
        "nat.relay", 11, "nat.relay",
        required=("target", "chain", "origin", "kind", "payload", "inner_size"),
    ),
    # --- session kinds: application payloads over nat.data -----------------
    _spec("pss.request", 12, "pss", required=_GOSSIP),
    _spec("pss.response", 13, "pss", required=_GOSSIP),
    _spec("wcl.onion", 14, "wcl", payload_type=OnionPacket),
    _spec("wcl.cb_probe", 15, "wcl.cb", required=("sender",)),
    _spec("wcl.cb_probe_ack", 16, "wcl.cb", required=("sender", "key")),
    # --- content kinds: PPSS/group bodies inside onion payloads ------------
    _spec("ppss.request", 17, "wcl", required=_PPSS_EXCHANGE),
    _spec("ppss.response", 18, "wcl", required=_PPSS_EXCHANGE),
    _spec(
        "ppss.app", 19, "wcl",
        required=("type", "group", "sender_id", "passport", "payload", "reply_to"),
    ),
    _spec("ppss.pcp_refresh", 20, "wcl", required=_PPSS_PCP),
    _spec("ppss.pcp_ack", 21, "wcl", required=_PPSS_PCP),
    _spec("group.join", 22, "wcl", required=("type", "group", "accreditation", "joiner")),
    _spec(
        "group.welcome", 23, "wcl",
        required=("type", "group", "passport", "key_history", "seed"),
    ),
    # --- session kinds: circuit-mode WCL (amortized RSA) -------------------
    _spec("wcl.circuit_setup", 24, "wcl", payload_type=CircuitSetupPacket),
    _spec("wcl.circuit_data", 25, "wcl", payload_type=CircuitFrame),
    _spec("wcl.circuit_ack", 26, "wcl", required=("circuit",)),
    _spec("wcl.circuit_teardown", 27, "wcl", required=("circuit",)),
)

_SPEC_BY_KIND: dict[str, MessageSpec] = {s.kind: s for s in _SPECS}
_SPEC_BY_ID: dict[int, MessageSpec] = {s.wire_id: s for s in _SPECS}
assert len(_SPEC_BY_KIND) == len(_SPECS), "duplicate message kind"
assert len(_SPEC_BY_ID) == len(_SPECS), "duplicate wire id"


def registered_kinds() -> tuple[str, ...]:
    """All message kinds the codec knows, in wire-id order."""
    return tuple(s.kind for s in _SPECS)


def spec_for(kind: str) -> MessageSpec:
    spec = _SPEC_BY_KIND.get(kind)
    if spec is None:
        raise WireEncodeError(f"unregistered message kind: {kind!r}")
    return spec


def category_for(kind: str) -> str:
    """Traffic category a message kind is accounted under."""
    return spec_for(kind).category


def _read_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    # Bounds-checked, unlike the codec's: a frame header is outside input
    # read before anything has vouched for its length.
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise WireDecodeError("truncated frame header")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


# Per-kind frame head (magic | version | wire-id uvarint), precomputed so
# the encode hot path starts from one constant bytes object.
_HEAD_BY_KIND: dict[str, bytes] = {}
for _s in _SPECS:
    _head = bytearray(WIRE_MAGIC)
    _head.append(WIRE_VERSION)
    _write_uvarint(_head, _s.wire_id)
    _HEAD_BY_KIND[_s.kind] = bytes(_head)


def encode_message(kind: str, payload: Any, cache: LruCache | None = None) -> bytes:
    """Encode one protocol message to a complete wire frame.

    ``cache`` is an optional encode cache (see :mod:`repro.wire.codec`)
    serving repeated hot immutable structs from memory.
    """
    spec = spec_for(kind)
    spec.check(payload, exc=WireEncodeError)
    body = bytearray()
    _encode_into(body, payload, cache)
    frame = bytearray(_HEAD_BY_KIND[kind])
    _write_uvarint(frame, len(body))
    frame += body
    # zlib.crc32 accepts any buffer: no bytes() copy of the head needed.
    crc = zlib.crc32(frame) & 0xFFFFFFFF
    frame += crc.to_bytes(4, "big")
    return bytes(frame)


def decode_message(data: bytes) -> DecodedMessage:
    """Decode and validate a wire frame produced by :func:`encode_message`."""
    if len(data) < 8:
        raise WireDecodeError(f"frame too short ({len(data)} bytes)")
    if data[:2] != WIRE_MAGIC:
        raise WireDecodeError("bad magic")
    version = data[2]
    if version != WIRE_VERSION:
        raise WireDecodeError(f"unsupported wire version {version}")
    wire_id, pos = _read_uvarint(data, 3)
    spec = _SPEC_BY_ID.get(wire_id)
    if spec is None:
        raise WireDecodeError(f"unknown wire id {wire_id}")
    length, pos = _read_uvarint(data, pos)
    if len(data) != pos + length + 4:
        raise WireDecodeError(
            f"frame length mismatch: header says {length} body bytes, "
            f"frame has {len(data) - pos - 4}"
        )
    # Zero-copy from here: CRC and body decoding run over memoryview
    # slices of the original frame instead of copied byte strings.
    view = memoryview(data)
    crc = zlib.crc32(view[:-4]) & 0xFFFFFFFF
    if crc != int.from_bytes(data[-4:], "big"):
        raise WireDecodeError("frame checksum mismatch")
    payload = decode_value(view[pos : pos + length])
    spec.check(payload, exc=WireDecodeError)
    return DecodedMessage(
        kind=spec.kind, payload=payload, version=version, encoded_size=len(data)
    )


def encoded_size(kind: str, payload: Any, cache: LruCache | None = None) -> int:
    """Exact on-the-wire frame size for a message.

    Matches ``len(encode_message(kind, payload))`` byte for byte (pinned by
    test): the body is encoded for its length, but there is no frame
    assembly and no CRC.
    """
    spec = spec_for(kind)
    spec.check(payload, exc=WireEncodeError)
    body_len = value_size(payload, cache)
    return len(_HEAD_BY_KIND[kind]) + _uvarint_len(body_len) + body_len + 4
