"""Deterministic binary wire format for WHISPER protocol messages.

Everything the stack puts on the network — gossip views with piggybacked
keys, connection-backlog probes, NAT traversal and rendezvous control,
onion layers, PPSS exchanges and app messages — has a registered schema
here and encodes to a tag-length-value byte string:

- :mod:`repro.wire.codec` — the recursive TLV value codec plus the struct
  and enum tables for every domain dataclass that crosses the wire;
- :mod:`repro.wire.registry` — versioned, CRC-protected message frames,
  one :class:`MessageSpec` per protocol message kind (shape check, wire
  id, traffic category);
- :mod:`repro.wire.audit` — measured-vs-estimated size bookkeeping used
  when the sim network runs with the codec enabled.

The same frames travel over the in-sim fabric (loopback pass-through) and
real UDP datagrams (:mod:`repro.runtime`), so byte sizes measured in the
simulator are the sizes a deployment pays.
"""

from .codec import (
    LruCache,
    WireDecodeError,
    WireEncodeError,
    WireError,
    decode_blob,
    decode_value,
    encode_blob,
    encode_value,
    reference_encode_value,
    value_size,
)
from .registry import (
    WIRE_VERSION,
    DecodedMessage,
    MessageSpec,
    category_for,
    decode_message,
    encode_message,
    encoded_size,
    registered_kinds,
    spec_for,
)
from .audit import WireAudit

__all__ = [
    "WIRE_VERSION",
    "DecodedMessage",
    "LruCache",
    "MessageSpec",
    "WireAudit",
    "WireDecodeError",
    "WireEncodeError",
    "WireError",
    "category_for",
    "decode_blob",
    "decode_message",
    "decode_value",
    "encode_blob",
    "encode_message",
    "encode_value",
    "encoded_size",
    "reference_encode_value",
    "registered_kinds",
    "spec_for",
    "value_size",
]
