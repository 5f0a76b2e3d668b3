"""Recursive tag-length-value codec for protocol payload values.

Every value a WHISPER message may carry encodes to a deterministic byte
string: a one-byte type tag followed by a type-specific body.  Scalars use
varints (unbounded, zigzag for signed — RSA moduli are plain Python ints)
or fixed-width floats; containers are count-prefixed and preserve
insertion order, so ``encode(decode(encode(x))) == encode(x)`` holds
byte-for-byte.  Domain dataclasses (descriptors, view entries, keys,
sealed envelopes, onions, contacts, passports, election records) are
*structs*: a registered numeric id plus a field count plus each field
value in declaration order.  Enums carry a registered id and the member
index.

The struct/enum tables double as the schema registry: encoding an
unregistered type raises :class:`WireEncodeError` immediately instead of
silently pickling, which is what keeps the format stable and
language-independent in principle.  Field counts are written per struct so
a decoder can reject frames produced by a schema it does not know.

Hot path layout (the ``wire_mode="verify"/"measured"`` cost):

- encoding dispatches on ``type(obj)`` through :data:`_ENCODERS`, a table
  of **precompiled closures** built once at import time — per-struct
  encoders carry their tag/id/field-count prefix as a single constant
  ``bytes`` and load each declared field with a plain attribute access,
  so no reflective ``dataclasses.fields``/``getattr`` work happens per
  message (the reference implementation survives as
  :func:`reference_encode_value` and the test suite pins byte-identity);
- decoding runs over a :class:`memoryview` (no body copy per frame) via
  the tag-indexed :data:`_DECODERS` table, with per-struct decoders that
  construct dataclasses positionally;
- :func:`value_size` is ``len(encode_value(...))``: size-only callers
  (``encoded_size``, ``wire_mode="measured"`` accounting) take the same
  traversal and the same encode-cache hits as a real encode;
- hot immutable structs (descriptors, circulating public keys, view
  entries) can be served from an optional per-network LRU **encode
  cache** (:class:`~repro.core.lru.LruCache`): pass it as ``cache=`` and
  repeated encodes of the same frozen value become one dict hit.

Framing (magic, version, message kind, CRC) lives one level up in
:mod:`repro.wire.registry`; this module also provides :func:`encode_blob`
/ :func:`decode_blob`, a minimal CRC-checked container for out-of-band
objects such as the invitation handed between the two ``live_chat``
processes.
"""

from __future__ import annotations

import linecache
import struct as _struct
import zlib
from dataclasses import fields as _dc_fields
from enum import Enum
from typing import Any, Callable

from ..core.contact import Gateway, PrivateContact
from ..core.election import Heartbeat, Proposal
from ..core.group import Accreditation, Invitation, Passport
from ..core.lru import LruCache
from ..core.onion import (
    CircuitFrame,
    CircuitHop,
    CircuitSetupLayer,
    CircuitSetupPacket,
    HopSpec,
    NextHop,
    OnionLayer,
    OnionPacket,
)
from ..core.ppss import PrivateViewEntry
from ..crypto.provider import EncryptedPayload, LayeredPayload, PublicKey, Sealed
from ..crypto.rsa import RsaPublicKey
from ..nat.traversal import NodeDescriptor
from ..nat.types import NatType
from ..net.address import Endpoint, NodeKind, Protocol
from ..pss.view import ViewEntry

__all__ = [
    "WireError",
    "WireEncodeError",
    "WireDecodeError",
    "encode_value",
    "decode_value",
    "value_size",
    "reference_encode_value",
    "encode_blob",
    "decode_blob",
    "LruCache",
]


class WireError(Exception):
    """Base class for codec failures."""


class WireEncodeError(WireError):
    """A value cannot be represented in the wire format."""


class WireDecodeError(WireError):
    """Bytes do not form a valid wire value/frame."""


# ---------------------------------------------------------------------------
# type tags

_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_BYTES = 0x05
_T_STR = 0x06
_T_LIST = 0x07
_T_TUPLE = 0x08
_T_DICT = 0x09
_T_STRUCT = 0x0A
_T_ENUM = 0x0B

# Registered domain dataclasses.  Wire ids are part of the format: append
# only, never renumber.  Fields are taken from dataclass declaration order.
_STRUCT_TABLE: list[tuple[int, type]] = [
    (1, Endpoint),
    (2, NodeDescriptor),
    (3, ViewEntry),
    (4, PublicKey),
    (5, RsaPublicKey),
    (6, Sealed),
    (7, EncryptedPayload),
    (8, NextHop),
    (9, OnionLayer),
    (10, OnionPacket),
    (11, HopSpec),
    (12, Gateway),
    (13, PrivateContact),
    (14, PrivateViewEntry),
    (15, Passport),
    (16, Accreditation),
    (17, Invitation),
    (18, Heartbeat),
    (19, Proposal),
    (20, LayeredPayload),
    (21, CircuitHop),
    (22, CircuitSetupLayer),
    (23, CircuitSetupPacket),
    (24, CircuitFrame),
]

_ENUM_TABLE: list[tuple[int, type]] = [
    (1, NatType),
    (2, NodeKind),
    (3, Protocol),
]

# Hot *immutable* structs worth serving from the encode cache.  The bar is
# high: a cache hit still hashes the dataclass (all fields), so caching only
# pays when re-encoding costs far more than hashing.  That is true for the
# public-key structs gossip re-ships every cycle (varint-encoding a large
# modulus dwarfs hashing it) and false for small churny records like
# ViewEntry, whose age field changes every cycle and which encodes in less
# time than a lookup — measured, caching those was a net loss.
_CACHED_STRUCTS = {PublicKey, RsaPublicKey}

_STRUCT_BY_TYPE: dict[type, tuple[int, tuple[str, ...]]] = {}
_STRUCT_BY_ID: dict[int, tuple[type, tuple[str, ...]]] = {}
for _sid, _cls in _STRUCT_TABLE:
    _names = tuple(f.name for f in _dc_fields(_cls))
    _STRUCT_BY_TYPE[_cls] = (_sid, _names)
    _STRUCT_BY_ID[_sid] = (_cls, _names)

_ENUM_BY_TYPE: dict[type, tuple[int, tuple[Any, ...]]] = {}
_ENUM_BY_ID: dict[int, tuple[Any, ...]] = {}
for _eid, _ecls in _ENUM_TABLE:
    _members = tuple(_ecls)
    _ENUM_BY_TYPE[_ecls] = (_eid, _members)
    _ENUM_BY_ID[_eid] = _members


# ---------------------------------------------------------------------------
# varints

def _write_uvarint(buf: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            buf.append(byte | 0x80)
        else:
            buf.append(byte)
            return


def _uvarint_bytes(value: int) -> bytes:
    buf = bytearray()
    _write_uvarint(buf, value)
    return bytes(buf)


def _uvarint_len(value: int) -> int:
    return ((value.bit_length() + 6) // 7) or 1


def _read_uvarint(data, pos: int) -> tuple[int, int]:
    # No explicit bounds check: running off the end raises IndexError,
    # which the decode entry points translate to "truncated value".
    result = 0
    shift = 0
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            return result, pos
        shift += 7


def _zigzag(value: int) -> int:
    return value * 2 if value >= 0 else -value * 2 - 1


# ---------------------------------------------------------------------------
# compiled encoders: type -> closure(buf, obj, cache)

_ENCODERS: dict[type, Callable[[bytearray, Any, LruCache | None], None]] = {}

_pack_float = _struct.Struct(">d").pack
_unpack_float = _struct.Struct(">d").unpack_from


def _encode_fallback(obj: Any) -> None:
    """Raise the schema error for a type outside the dispatch table."""
    if isinstance(obj, Enum):
        raise WireEncodeError(
            f"unregistered enum type on the wire: {type(obj).__name__}"
        )
    raise WireEncodeError(f"unregistered type on the wire: {type(obj).__name__}")


def _encode_into(buf: bytearray, obj: Any, cache: LruCache | None) -> None:
    try:
        enc = _ENCODERS[obj.__class__]
    except KeyError:
        _encode_fallback(obj)
    enc(buf, obj, cache)


def _enc_none(buf, obj, cache):
    buf.append(_T_NONE)


def _enc_bool(buf, obj, cache):
    buf.append(_T_TRUE if obj else _T_FALSE)


# Tag+payload for every single-byte zigzag int (|value| < 64), i.e. almost
# every id, age, count and hop index on the wire: one `+=` instead of a
# varint loop.
_INT1 = tuple(bytes((_T_INT, v)) for v in range(0x80))


def _enc_int(buf, obj, cache):
    v = obj + obj if obj >= 0 else -obj - obj - 1
    if v < 0x80:
        buf += _INT1[v]
        return
    append = buf.append
    append(_T_INT)
    while v > 0x7F:
        append((v & 0x7F) | 0x80)
        v >>= 7
    append(v)


def _enc_float(buf, obj, cache):
    buf.append(_T_FLOAT)
    buf += _pack_float(obj)


def _enc_bytes(buf, obj, cache):
    append = buf.append
    append(_T_BYTES)
    n = len(obj)
    while n > 0x7F:
        append((n & 0x7F) | 0x80)
        n >>= 7
    append(n)
    buf += obj


# Wire strings draw from a small, heavily repeated vocabulary (payload
# dict keys, message kinds, host addresses), so short strings memoize
# their full TLV encoding: one dict probe (str hashes are cached on the
# object) replaces encode + varint + copy.  Pure value->bytes map, bounded,
# shared across Worlds — no effect on determinism.
_STR_ENC_MEMO: dict[str, bytes] = {}
_STR_MEMO_LIMIT = 8192


def _enc_str(buf, obj, cache):
    try:
        buf += _STR_ENC_MEMO[obj]
        return
    except KeyError:
        pass
    raw = obj.encode("utf-8")
    n = len(raw)
    if n < 0x80:
        enc = bytes((_T_STR, n)) + raw
        if len(_STR_ENC_MEMO) < _STR_MEMO_LIMIT:
            _STR_ENC_MEMO[obj] = enc
        buf += enc
        return
    append = buf.append
    append(_T_STR)
    while n > 0x7F:
        append((n & 0x7F) | 0x80)
        n >>= 7
    append(n)
    buf += raw


def _make_seq_encoder(tag: int):
    def enc(buf, obj, cache, _tag=tag, _E=_ENCODERS, _fb=_encode_fallback):
        append = buf.append
        append(_tag)
        n = len(obj)
        while n > 0x7F:
            append((n & 0x7F) | 0x80)
            n >>= 7
        append(n)
        for item in obj:
            try:
                e = _E[item.__class__]
            except KeyError:
                _fb(item)
            e(buf, item, cache)

    return enc


def _enc_dict(buf, obj, cache, _E=_ENCODERS, _fb=_encode_fallback):
    append = buf.append
    append(_T_DICT)
    n = len(obj)
    while n > 0x7F:
        append((n & 0x7F) | 0x80)
        n >>= 7
    append(n)
    for key, value in obj.items():
        try:
            e = _E[key.__class__]
        except KeyError:
            _fb(key)
        e(buf, key, cache)
        try:
            e = _E[value.__class__]
        except KeyError:
            _fb(value)
        e(buf, value, cache)


def _compile_function(name: str, lines: list[str], bindings: dict[str, Any]):
    """Compile the generated function ``name`` with a readable traceback.

    ``lines`` hold one ``def <name>(...)``; ``bindings`` are the globals it
    runs against.  The source is compiled under a pseudo-filename unique
    to the function and registered with :mod:`linecache`, so a crash
    inside generated code formats with the offending source line rather
    than a bare ``File "<string>"``.
    """
    source = "\n".join(lines) + "\n"
    filename = f"<repro.wire.codec:{name}>"
    linecache.cache[filename] = (
        len(source), None, source.splitlines(True), filename,
    )
    exec(compile(source, filename, "exec"), bindings)  # noqa: S102 - fixed template, schema-derived
    function = bindings[name]
    function.__qualname__ = name
    return function


def _make_struct_encoder(sid: int, cls: type, names: tuple[str, ...]):
    """Compile one struct's encoder: prefix + each field unrolled inline.

    The generated function loads each field with a plain attribute access
    and dispatches through the encoder table directly — no attrgetter
    tuple, no per-field loop machinery.
    """
    prefix = (
        bytes([_T_STRUCT]) + _uvarint_bytes(sid) + _uvarint_bytes(len(names))
    )
    function_name = f"_encode_{cls.__name__}"
    lines = [
        f"def {function_name}(buf, obj, cache, _prefix=_prefix, _E=_E, _fb=_fb):",
        "    buf += _prefix",
    ]
    for name in names:
        lines += [
            f"    v = obj.{name}",
            "    try:",
            "        e = _E[v.__class__]",
            "    except KeyError:",
            "        _fb(v)",
            "    e(buf, v, cache)",
        ]
    encode_fields = _compile_function(
        function_name, lines,
        {"_prefix": prefix, "_E": _ENCODERS, "_fb": _encode_fallback},
    )

    if cls not in _CACHED_STRUCTS:
        return encode_fields

    def encode_cached(buf, obj, cache, _encode=encode_fields):
        if cache is not None:
            try:
                data = cache.get(obj)
            except TypeError:  # unhashable field snuck in: encode directly
                data = None
            else:
                if data is not None:
                    buf += data
                    return
                start = len(buf)
                _encode(buf, obj, cache)
                cache.put(obj, bytes(buf[start:]))
                return
        _encode(buf, obj, cache)

    return encode_cached


def _make_enum_encoder(eid: int, members: tuple[Any, ...]):
    table = {
        member: bytes([_T_ENUM]) + _uvarint_bytes(eid) + _uvarint_bytes(index)
        for index, member in enumerate(members)
    }

    def enc(buf, obj, cache, _table=table):
        buf += _table[obj]

    return enc


def _build_tables() -> None:
    _ENCODERS[type(None)] = _enc_none
    _ENCODERS[bool] = _enc_bool
    _ENCODERS[int] = _enc_int
    _ENCODERS[float] = _enc_float
    _ENCODERS[bytes] = _enc_bytes
    _ENCODERS[str] = _enc_str
    _ENCODERS[list] = _make_seq_encoder(_T_LIST)
    _ENCODERS[tuple] = _make_seq_encoder(_T_TUPLE)
    _ENCODERS[dict] = _enc_dict
    for sid, cls in _STRUCT_TABLE:
        names = _STRUCT_BY_TYPE[cls][1]
        _ENCODERS[cls] = _make_struct_encoder(sid, cls, names)
    for eid, ecls in _ENUM_TABLE:
        members = _ENUM_BY_TYPE[ecls][1]
        _ENCODERS[ecls] = _make_enum_encoder(eid, members)


_build_tables()


def encode_value(obj: Any, cache: LruCache | None = None) -> bytes:
    """Encode one payload value to TLV bytes (no frame header)."""
    buf = bytearray()
    enc = _ENCODERS.get(obj.__class__)
    if enc is None:
        _encode_fallback(obj)
    enc(buf, obj, cache)
    return bytes(buf)


def value_size(obj: Any, cache: LruCache | None = None) -> int:
    """Exact ``len(encode_value(obj, cache))``."""
    return len(encode_value(obj, cache))


# ---------------------------------------------------------------------------
# reference encoder (the original reflective implementation)
#
# Kept as the semantics oracle: the test suite asserts the compiled tables
# produce byte-identical output over the full sample corpus.  Slow, simple,
# obviously correct.

def _reference_encode_into(buf: bytearray, obj: Any) -> None:
    if obj is None:
        buf.append(_T_NONE)
        return
    kind = type(obj)
    if kind is bool:
        buf.append(_T_TRUE if obj else _T_FALSE)
    elif kind is int:
        buf.append(_T_INT)
        _write_uvarint(buf, _zigzag(obj))
    elif kind is float:
        buf.append(_T_FLOAT)
        buf += _struct.pack(">d", obj)
    elif kind is bytes:
        buf.append(_T_BYTES)
        _write_uvarint(buf, len(obj))
        buf += obj
    elif kind is str:
        raw = obj.encode("utf-8")
        buf.append(_T_STR)
        _write_uvarint(buf, len(raw))
        buf += raw
    elif kind is list:
        buf.append(_T_LIST)
        _write_uvarint(buf, len(obj))
        for item in obj:
            _reference_encode_into(buf, item)
    elif kind is tuple:
        buf.append(_T_TUPLE)
        _write_uvarint(buf, len(obj))
        for item in obj:
            _reference_encode_into(buf, item)
    elif kind is dict:
        buf.append(_T_DICT)
        _write_uvarint(buf, len(obj))
        for key, value in obj.items():
            _reference_encode_into(buf, key)
            _reference_encode_into(buf, value)
    elif kind in _STRUCT_BY_TYPE:
        sid, names = _STRUCT_BY_TYPE[kind]
        buf.append(_T_STRUCT)
        _write_uvarint(buf, sid)
        _write_uvarint(buf, len(names))
        for name in names:
            _reference_encode_into(buf, getattr(obj, name))
    elif kind in _ENUM_BY_TYPE:
        eid, members = _ENUM_BY_TYPE[kind]
        buf.append(_T_ENUM)
        _write_uvarint(buf, eid)
        _write_uvarint(buf, members.index(obj))
    elif isinstance(obj, Enum):
        raise WireEncodeError(f"unregistered enum type on the wire: {kind.__name__}")
    else:
        raise WireEncodeError(f"unregistered type on the wire: {kind.__name__}")


def reference_encode_value(obj: Any) -> bytes:
    """The pre-compilation reflective encoder (oracle for the fast path)."""
    buf = bytearray()
    _reference_encode_into(buf, obj)
    return bytes(buf)


# ---------------------------------------------------------------------------
# decoding (tag-indexed dispatch over bytes or memoryview)

def _dec_none(data, pos):
    return None, pos


def _dec_true(data, pos):
    return True, pos


def _dec_false(data, pos):
    return False, pos


def _dec_int(data, pos):
    # Single-byte varints (almost every int on the wire) decode inline;
    # the loop only runs for multi-byte values.
    raw = data[pos]
    pos += 1
    if raw >= 0x80:
        raw &= 0x7F
        shift = 7
        while True:
            byte = data[pos]
            pos += 1
            raw |= (byte & 0x7F) << shift
            if byte < 0x80:
                break
            shift += 7
    if raw & 1:
        return -((raw + 1) >> 1), pos
    return raw >> 1, pos


def _dec_float(data, pos):
    try:
        value = _unpack_float(data, pos)[0]
    except _struct.error as exc:
        raise WireDecodeError("truncated float") from exc
    return value, pos + 8


def _dec_bytes(data, pos):
    length = data[pos]
    pos += 1
    if length >= 0x80:
        length, pos = _read_uvarint(data, pos - 1)
    end = pos + length
    if end > len(data):
        raise WireDecodeError("truncated bytes")
    return bytes(data[pos:end]), end


# Decode-side twin of ``_STR_ENC_MEMO``: raw utf-8 bytes -> str.  Serving
# repeated wire strings from the memo skips the utf-8 decode *and* returns
# a str whose hash is already computed, which speeds up building the
# payload dicts they key.
_STR_DEC_MEMO: dict[bytes, str] = {}


def _dec_str(data, pos):
    length = data[pos]
    pos += 1
    if length >= 0x80:
        length, pos = _read_uvarint(data, pos - 1)
    end = pos + length
    raw = bytes(data[pos:end])
    try:
        return _STR_DEC_MEMO[raw], end
    except KeyError:
        pass
    if len(raw) != length:
        raise WireDecodeError("truncated string")
    try:
        value = str(raw, "utf-8")
    except UnicodeDecodeError as exc:
        raise WireDecodeError("malformed utf-8 string") from exc
    if length < 0x80 and len(_STR_DEC_MEMO) < _STR_MEMO_LIMIT:
        _STR_DEC_MEMO[raw] = value
    return value, end


def _dec_list(data, pos):
    count = data[pos]
    pos += 1
    if count >= 0x80:
        count, pos = _read_uvarint(data, pos - 1)
    items = []
    append = items.append
    decoders = _DECODERS
    for _ in range(count):
        tag = data[pos]
        if tag == 0x03:  # single-byte int fast path (_T_INT)
            raw = data[pos + 1]
            if raw < 0x80:
                append(-((raw + 1) >> 1) if raw & 1 else raw >> 1)
                pos += 2
                continue
        item, pos = decoders[tag](data, pos + 1)
        append(item)
    return items, pos


def _dec_tuple(data, pos):
    items, pos = _dec_list(data, pos)
    return tuple(items), pos


def _dec_dict(data, pos):
    count = data[pos]
    pos += 1
    if count >= 0x80:
        count, pos = _read_uvarint(data, pos - 1)
    out: dict[Any, Any] = {}
    decoders = _DECODERS
    memo = _STR_DEC_MEMO
    for _ in range(count):
        # Keys are overwhelmingly short memoized strings: decode them
        # inline (tag 0x06 = _T_STR) and only fall back on a memo miss.
        if data[pos] == 0x06:
            length = data[pos + 1]
            end = pos + 2 + length
            if length < 0x80:
                try:
                    key = memo[bytes(data[pos + 2:end])]
                    pos = end
                except KeyError:
                    key, pos = _dec_str(data, pos + 1)
            else:
                key, pos = _dec_str(data, pos + 1)
        else:
            key, pos = decoders[data[pos]](data, pos + 1)
        tag = data[pos]
        if tag == 0x03:  # single-byte int fast path (_T_INT)
            raw = data[pos + 1]
            if raw < 0x80:
                out[key] = -((raw + 1) >> 1) if raw & 1 else raw >> 1
                pos += 2
                continue
        value, pos = decoders[tag](data, pos + 1)
        out[key] = value
    return out, pos


_STRUCT_DECODERS: dict[int, Callable] = {}


def _dec_struct(data, pos):
    sid = data[pos]
    pos += 1
    if sid >= 0x80:
        sid, pos = _read_uvarint(data, pos - 1)
    try:
        dec = _STRUCT_DECODERS[sid]
    except KeyError:
        raise WireDecodeError(f"unknown struct id {sid}") from None
    return dec(data, pos)


# Flat (id << 8 | index) -> member table: every registered enum has a
# single-byte id and fewer than 128 members, so the common case is one
# arithmetic dict probe.
_ENUM_FLAT: dict[int, Any] = {
    (eid << 8) | index: member
    for eid, members in _ENUM_BY_ID.items()
    for index, member in enumerate(members)
}


def _dec_enum(data, pos):
    try:
        return _ENUM_FLAT[(data[pos] << 8) | data[pos + 1]], pos + 2
    except KeyError:
        pass
    eid = data[pos]
    pos += 1
    if eid >= 0x80:
        eid, pos = _read_uvarint(data, pos - 1)
    members = _ENUM_BY_ID.get(eid)
    if members is None:
        raise WireDecodeError(f"unknown enum id {eid}")
    index = data[pos]
    pos += 1
    if index >= 0x80:
        index, pos = _read_uvarint(data, pos - 1)
    if index >= len(members):
        raise WireDecodeError(f"enum id {eid}: member index {index} out of range")
    return members[index], pos


def _dec_unknown_tag(data, pos):
    raise WireDecodeError(f"unknown type tag 0x{data[pos - 1]:02x}")


# Tag-indexed dispatch, padded to 256 entries so ``data[pos]`` can index
# directly without a range check; unknown tags land on the raising entry.
_DECODERS: tuple[Callable, ...] = (
    _dec_none,      # 0x00
    _dec_true,      # 0x01
    _dec_false,     # 0x02
    _dec_int,       # 0x03
    _dec_float,     # 0x04
    _dec_bytes,     # 0x05
    _dec_str,       # 0x06
    _dec_list,      # 0x07
    _dec_tuple,     # 0x08
    _dec_dict,      # 0x09
    _dec_struct,    # 0x0A
    _dec_enum,      # 0x0B
) + (_dec_unknown_tag,) * (256 - 12)


def _decode_at(data, pos: int, _D=_DECODERS) -> tuple[Any, int]:
    """Decode one value from ``data`` (bytes or memoryview) at ``pos``.

    Bounds are enforced by IndexError: the public entry points translate
    any stray IndexError into ``WireDecodeError("truncated value")``, so
    the hot path carries no explicit length checks.
    """
    return _D[data[pos]](data, pos + 1)


def _make_struct_decoder(sid: int, cls: type, names: tuple[str, ...]):
    """Compile one struct's decoder: field count check + unrolled fields.

    Registered structs always have < 128 fields, so a canonical frame
    writes the count as one byte; a first byte that does not equal the
    known count (including the continuation-bit case) is a schema
    mismatch and takes the slow diagnostic path.
    """
    n = len(names)
    assert n < 0x80, f"{cls.__name__}: field count {n} exceeds one varint byte"
    label = cls.__name__
    # Declared field types guide per-field fast paths.  They are a hint,
    # not a contract: the generated code checks the wire tag first and
    # falls back to generic dispatch, so a field holding something other
    # than its annotation still decodes correctly.
    annotations = {f.name: f.type for f in _dc_fields(cls)}
    variables = [f"v{i}" for i in range(n)]
    function_name = f"_decode_{label}"
    lines = [
        f"def {function_name}(data, pos, _cls=_cls, _D=_D, _memo=_memo, _ds=_ds,"
        " _mismatch=_mismatch, _err=_err):",
        f"    if data[pos] != {n}:",
        "        _mismatch(data, pos)",
        "    pos += 1",
    ]
    for v, name in zip(variables, names):
        hint = annotations.get(name)
        hint = hint if isinstance(hint, str) else getattr(hint, "__name__", "")
        if hint == "int":
            lines += [
                "    if data[pos] == 3:",  # _T_INT, single-byte payload
                "        raw = data[pos + 1]",
                "        if raw < 0x80:",
                f"            {v} = -((raw + 1) >> 1) if raw & 1 else raw >> 1",
                "            pos += 2",
                "        else:",
                f"            {v}, pos = _D[3](data, pos + 1)",
                "    else:",
                f"        {v}, pos = _D[data[pos]](data, pos + 1)",
            ]
        elif hint == "str":
            lines += [
                "    if data[pos] == 6:",  # _T_STR, short memoized payload
                "        L = data[pos + 1]",
                "        end = pos + 2 + L",
                "        if L < 0x80:",
                "            try:",
                f"                {v} = _memo[bytes(data[pos + 2:end])]",
                "                pos = end",
                "            except KeyError:",
                f"                {v}, pos = _ds(data, pos + 1)",
                "        else:",
                f"            {v}, pos = _ds(data, pos + 1)",
                "    else:",
                f"        {v}, pos = _D[data[pos]](data, pos + 1)",
            ]
        else:
            lines.append(f"    {v}, pos = _D[data[pos]](data, pos + 1)")
    lines += [
        "    try:",
        f"        return _cls({', '.join(variables)}), pos",
        "    except (TypeError, ValueError) as exc:",
        f"        raise _err('struct {label}: ' + str(exc)) from exc",
    ]

    def mismatch(data, pos, _n=n, _label=label):
        count, _ = _read_uvarint(data, pos)
        raise WireDecodeError(
            f"struct {_label}: schema mismatch "
            f"({count} fields on wire, {_n} known)"
        )

    return _compile_function(function_name, lines, {
        "_cls": cls, "_D": _DECODERS, "_memo": _STR_DEC_MEMO, "_ds": _dec_str,
        "_mismatch": mismatch, "_err": WireDecodeError,
    })


for _sid, _cls in _STRUCT_TABLE:
    _STRUCT_DECODERS[_sid] = _make_struct_decoder(
        _sid, _cls, _STRUCT_BY_TYPE[_cls][1]
    )


def decode_value(data) -> Any:
    """Decode TLV bytes back to a payload value; rejects trailing bytes."""
    try:
        obj, pos = _decode_at(data, 0)
    except IndexError:
        raise WireDecodeError("truncated value") from None
    if pos != len(data):
        raise WireDecodeError(f"{len(data) - pos} trailing bytes after value")
    return obj


# ---------------------------------------------------------------------------
# out-of-band blobs (invitations etc.)

_BLOB_MAGIC = b"WB"
_BLOB_VERSION = 1


def encode_blob(obj: Any) -> bytes:
    """Encode an out-of-band object (e.g. an Invitation) with CRC framing."""
    body = encode_value(obj)
    head = _BLOB_MAGIC + bytes([_BLOB_VERSION])
    crc = zlib.crc32(head + body) & 0xFFFFFFFF
    return head + body + crc.to_bytes(4, "big")


def decode_blob(data: bytes) -> Any:
    """Decode a blob produced by :func:`encode_blob`."""
    if len(data) < 7 or data[:2] != _BLOB_MAGIC:
        raise WireDecodeError("not a wire blob")
    if data[2] != _BLOB_VERSION:
        raise WireDecodeError(f"unsupported blob version {data[2]}")
    body, trailer = data[3:-4], data[-4:]
    crc = zlib.crc32(data[:-4]) & 0xFFFFFFFF
    if crc.to_bytes(4, "big") != trailer:
        raise WireDecodeError("blob checksum mismatch")
    return decode_value(body)
