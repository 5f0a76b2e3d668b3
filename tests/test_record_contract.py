"""The hot gossip records keep the frozen-dataclass contract.

``NodeDescriptor``, ``ViewEntry`` and ``Gateway`` set their slots through
the slots' own member descriptors in a hand-written ``__init__`` instead of
the generated one.  Everything else a frozen, slotted dataclass promises
must hold unchanged: assignment raises, equality and hashing follow the
field tuple, the field order the codec's struct table reads, keyword and
default construction (``dataclasses.replace``, the codec's decoders),
pickling, and the compiled encoder's bytes.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.core.contact import Gateway
from repro.crypto.provider import PublicKey
from repro.nat.traversal import NodeDescriptor
from repro.nat.types import NatType
from repro.net.address import Endpoint, NodeKind
from repro.pss.view import ViewEntry
from repro.wire.codec import decode_value, encode_value, reference_encode_value

NATTED = NodeDescriptor(7, NodeKind.NATTED, NatType.FULL_CONE, None, (3, 4))
PUBLIC = NodeDescriptor(
    9, NodeKind.PUBLIC, NatType.OPEN, public_endpoint=Endpoint("pub-9", 7000)
)
KEY = PublicKey(material="simkey-1", fingerprint="simkey-1")

FIELDS = {
    NodeDescriptor: ("node_id", "kind", "nat_type", "public_endpoint", "route"),
    ViewEntry: ("descriptor", "age"),
    Gateway: ("descriptor", "key"),
}
SAMPLES = {
    "natted": NATTED,
    "public": PUBLIC,
    "entry": ViewEntry(NATTED, 3),
    "entry-default-age": ViewEntry(PUBLIC),
    "gateway": Gateway(PUBLIC, KEY),
    "gateway-by-keyword": Gateway(descriptor=NATTED, key=KEY),
}
RECORDS = list(SAMPLES.values())


def field_tuple(record) -> tuple:
    return tuple(getattr(record, name) for name in FIELDS[type(record)])


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_field_names_and_order(cls):
    assert tuple(f.name for f in dataclasses.fields(cls)) == FIELDS[cls]


@pytest.mark.parametrize("record", RECORDS, ids=list(SAMPLES))
class TestRecordContract:
    def test_assignment_raises(self, record):
        for name in FIELDS[type(record)]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, name)

    def test_equality_and_hash_follow_the_field_tuple(self, record):
        cls = type(record)
        twin = cls(*field_tuple(record))
        assert twin == record and twin is not record
        assert hash(twin) == hash(record) == hash(field_tuple(record))
        for other in RECORDS:
            same = type(other) is cls and field_tuple(other) == field_tuple(record)
            assert (other == record) is same

    def test_keyword_construction_and_replace(self, record):
        cls = type(record)
        values = dict(zip(FIELDS[cls], field_tuple(record)))
        assert cls(**values) == record
        assert dataclasses.replace(record) == record
        first = FIELDS[cls][0]
        changed = dataclasses.replace(record, **{first: values[first]})
        assert changed == record

    def test_pickle_round_trip(self, record):
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and type(copy) is type(record)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(copy, FIELDS[type(record)][0], None)

    def test_compiled_encoder_matches_the_reference(self, record):
        assert encode_value(record) == reference_encode_value(record)
        assert decode_value(encode_value(record)) == record


def test_defaults():
    bare = NodeDescriptor(5, NodeKind.NATTED, NatType.SYMMETRIC)
    assert bare.public_endpoint is None and bare.route == ()
    assert ViewEntry(bare).age == 0
    assert repr(ViewEntry(bare, 2)) == f"ViewEntry(descriptor={bare!r}, age=2)"
    with pytest.raises(TypeError):
        Gateway(bare)


def test_via_builds_a_new_descriptor_for_natted_nodes_only():
    assert PUBLIC.via(1) is PUBLIC
    shipped = NATTED.via(1)
    assert shipped == dataclasses.replace(NATTED, route=(1, 3, 4))
    assert NATTED.route == (3, 4)
