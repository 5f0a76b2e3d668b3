"""Wire codec: round-trips, rejection paths, and the sim codec pass-through.

Acceptance criteria pinned here:

- every registered message kind round-trips encode -> decode -> encode
  byte-identically, for both crypto providers, over many random payloads;
- truncated or corrupted frames and foreign wire versions are rejected
  with a clean ``WireDecodeError``;
- same-seed sim runs with the codec-backed transport enabled export
  byte-identical telemetry traces, and ``"verify"`` mode produces the
  *same* trace as ``"off"`` (the codec is semantically invisible);
- the registry's traffic categories stay inside the accountant's closed
  category set.
"""

import random

import pytest

from repro import wire
from repro.crypto.provider import RealCryptoProvider
from repro.harness.world import World, WorldConfig
from repro.net.bandwidth import KNOWN_CATEGORIES, BandwidthAccountant
from .wire_samples import SampleContext, sample_kinds, sample_payload


def _trace(config: WorldConfig) -> str:
    world = World(config)
    world.populate(16)
    world.start_all()
    leader = world.nodes[1].create_group("codec-check")
    world.sim.run(until=30.0)
    invitation = leader.invite()
    world.nodes[5].join_group(invitation)
    world.sim.run(until=120.0)
    return world.telemetry.export_jsonl()


class TestRoundTrip:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_every_kind_round_trips_byte_identically(self, seed):
        ctx = SampleContext.fresh(seed=seed)
        for kind in sample_kinds():
            for _ in range(5):
                payload = sample_payload(kind, ctx)
                frame = wire.encode_message(kind, payload)
                decoded = wire.decode_message(frame)
                assert decoded.kind == kind
                assert wire.encode_message(decoded.kind, decoded.payload) == frame

    def test_round_trips_with_real_crypto_material(self):
        provider = RealCryptoProvider(random.Random(11), key_bits=512)
        ctx = SampleContext.fresh(seed=11, provider=provider)
        for kind in sample_kinds():
            payload = sample_payload(kind, ctx)
            frame = wire.encode_message(kind, payload)
            assert wire.encode_message(kind, wire.decode_message(frame).payload) == frame

    def test_encoded_size_matches_frame_length(self):
        ctx = SampleContext.fresh(seed=4)
        payload = sample_payload("pss.request", ctx)
        assert wire.encoded_size("pss.request", payload) == len(
            wire.encode_message("pss.request", payload)
        )

    def test_value_codec_preserves_dict_insertion_order(self):
        value = {"b": 1, "a": 2, "c": 3}
        decoded = wire.decode_value(wire.encode_value(value))
        assert list(decoded) == ["b", "a", "c"]

    def test_value_codec_handles_huge_and_negative_ints(self):
        for value in (0, -1, 1, -(2**521), 2**521 + 17):
            assert wire.decode_value(wire.encode_value(value)) == value

    def test_blob_round_trip(self):
        ctx = SampleContext.fresh(seed=5)
        payload = sample_payload("group.join", ctx)
        assert wire.decode_blob(wire.encode_blob(payload)) == payload


class TestRejection:
    def _frame(self, seed=9):
        ctx = SampleContext.fresh(seed=seed)
        return wire.encode_message("pss.request", sample_payload("pss.request", ctx))

    def test_every_truncation_is_rejected(self):
        frame = self._frame()
        for cut in range(len(frame)):
            with pytest.raises(wire.WireDecodeError):
                wire.decode_message(frame[:cut])

    def test_garbage_bytes_rejected(self):
        frame = bytearray(self._frame())
        rng = random.Random(13)
        for _ in range(50):
            corrupted = bytearray(frame)
            i = rng.randrange(len(corrupted))
            corrupted[i] ^= 1 + rng.randrange(255)
            with pytest.raises(wire.WireDecodeError):
                wire.decode_message(bytes(corrupted))

    def test_pure_noise_rejected(self):
        rng = random.Random(17)
        for length in (0, 1, 7, 8, 40, 200):
            with pytest.raises(wire.WireDecodeError):
                wire.decode_message(rng.randbytes(length))

    def test_unknown_version_rejected_cleanly(self):
        frame = bytearray(self._frame())
        frame[2] = wire.WIRE_VERSION + 1
        with pytest.raises(wire.WireDecodeError, match="version"):
            wire.decode_message(bytes(frame))

    def test_trailing_bytes_rejected(self):
        with pytest.raises(wire.WireDecodeError):
            wire.decode_message(self._frame() + b"\x00")

    def test_unregistered_kind_refused_at_encode(self):
        with pytest.raises(wire.WireEncodeError):
            wire.encode_message("nat.mystery", {"from": 1})

    def test_schema_violation_refused_at_encode(self):
        with pytest.raises(wire.WireEncodeError, match="missing"):
            wire.encode_message("nat.pong", {"from": 1})  # no "observed"
        with pytest.raises(wire.WireEncodeError, match="unknown"):
            wire.encode_message("nat.ping", {"from": 1, "extra": 2})

    def test_unregistered_python_type_refused(self):
        with pytest.raises(wire.WireEncodeError, match="unregistered"):
            wire.encode_value({1: object()})

    def test_tampered_blob_rejected(self):
        blob = bytearray(wire.encode_blob({"x": 1}))
        blob[-1] ^= 0xFF
        with pytest.raises(wire.WireDecodeError):
            wire.decode_blob(bytes(blob))


class TestCategories:
    def test_registry_categories_are_known_to_the_accountant(self):
        for kind in wire.registered_kinds():
            assert wire.category_for(kind) in KNOWN_CATEGORIES, kind

    def test_unknown_category_raises_at_record_time(self):
        accountant = BandwidthAccountant()
        with pytest.raises(ValueError, match="unknown traffic category"):
            accountant.record(1, 2, 100, "mystery-bucket")

    def test_registered_extra_category_accepted(self):
        accountant = BandwidthAccountant()
        accountant.register_category("experiment.extra")
        accountant.record(1, 2, 100, "experiment.extra")
        assert accountant.totals(1).up_bytes == 100


class TestSimCodecPassThrough:
    """The codec-backed sim transport preserves behaviour and determinism."""

    def test_same_seed_traces_byte_identical_with_codec_enabled(self):
        config = WorldConfig(seed=31, telemetry_enabled=True, wire_mode="measured")
        assert _trace(config) == _trace(config)

    def test_verify_mode_is_semantically_invisible(self):
        """encode->decode on every send must not change any protocol decision.

        The codec's own bookkeeping counters (``wire.encode.cache_*``) only
        exist when the codec runs, so they are the one permitted difference
        between the traces; every span and every protocol-level metric must
        still match byte for byte.
        """
        off = _trace(WorldConfig(seed=32, telemetry_enabled=True, wire_mode="off"))
        verify = _trace(
            WorldConfig(seed=32, telemetry_enabled=True, wire_mode="verify")
        )
        verify_lines = verify.splitlines(keepends=True)
        codec_only = [l for l in verify_lines if '"wire.encode.cache_' in l]
        rest = [l for l in verify_lines if '"wire.encode.cache_' not in l]
        for line in codec_only:  # every extra line is a codec counter
            assert '"kind":"counter"' in line and '"layer":"wire"' in line
        assert off == "".join(rest)

    def test_audit_collects_fabric_kinds(self):
        world = World(WorldConfig(seed=33, wire_mode="measured"))
        world.populate(12)
        world.start_all()
        world.sim.run(until=60.0)
        audit = world.network.wire_audit
        assert "nat.data" in audit.kinds
        for row in audit.table():
            assert row["min_measured"] > 0

    def test_bad_wire_mode_rejected(self):
        with pytest.raises(ValueError):
            World(WorldConfig(wire_mode="sideways"))


class TestCompiledFastPath:
    """PR 5's compiled encoders must be indistinguishable from the
    reference implementation they replaced, byte for byte."""

    def test_compiled_matches_reference_over_sample_corpus(self):
        for seed in (0, 7, 23):
            ctx = SampleContext.fresh(seed=seed)
            for kind in sample_kinds():
                payload = sample_payload(kind, ctx)
                assert wire.encode_value(payload) == wire.reference_encode_value(
                    payload
                ), f"compiled/reference divergence for {kind}"

    def test_encoded_size_matches_frame_length_over_corpus(self):
        """The size accumulator must agree with the real frame, always."""
        for seed in (0, 7, 23):
            ctx = SampleContext.fresh(seed=seed)
            for kind in sample_kinds():
                payload = sample_payload(kind, ctx)
                assert wire.encoded_size(kind, payload) == len(
                    wire.encode_message(kind, payload)
                ), f"size accumulator drift for {kind}"

    def test_value_size_matches_encoding_length(self):
        values = [
            None, True, False, 0, -1, 127, 128, -(2**63), 2**63 - 1,
            0.0, -1.5, b"", b"\x00" * 300, "", "café ☃",
            [], (), {}, [[], [[]]], {"k": [1, (2, 3), {"n": None}]},
        ]
        for value in values:
            assert wire.value_size(value) == len(wire.encode_value(value))

    def test_zigzag_leb128_boundary_values(self):
        """Every varint continuation boundary and the i64 edges round-trip
        and match the reference encoder."""
        boundaries = []
        for bits in range(0, 70, 7):
            for base in (1 << bits, (1 << bits) - 1, (1 << bits) + 1):
                boundaries += [base, -base]
        boundaries += [0, 2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 2**64 + 9]
        for value in boundaries:
            blob = wire.encode_value(value)
            assert blob == wire.reference_encode_value(value)
            assert wire.decode_value(blob) == value
            assert wire.value_size(value) == len(blob)

    def test_empty_and_nested_containers_round_trip(self):
        values = [
            [], (), {}, [()], ([],), {"": []}, [[[[]]]],
            {"outer": {"inner": {}}, "list": [(), [{}], b""]},
            [None, True, -0.0, "", b"", {}],
        ]
        for value in values:
            blob = wire.encode_value(value)
            assert blob == wire.reference_encode_value(value)
            decoded = wire.decode_value(blob)
            assert decoded == value
            # tuples and lists are distinct on the wire
            assert type(decoded) is type(value)

    def test_decode_accepts_memoryview_slices(self):
        ctx = SampleContext.fresh(seed=9)
        payload = sample_payload("pss.request", ctx)
        blob = wire.encode_value(payload)
        assert wire.decode_value(memoryview(blob)) == payload

    def test_unregistered_type_still_rejected(self):
        class NotOnTheWire:
            pass

        with pytest.raises(wire.WireEncodeError):
            wire.encode_value(NotOnTheWire())
        with pytest.raises(wire.WireEncodeError):
            wire.value_size(NotOnTheWire())

    def test_generated_decoder_traceback_shows_its_source(self):
        """A crash inside generated code must format with the generated
        line and a per-function pseudo-filename, not ``File "<string>"``."""
        import traceback
        from dataclasses import dataclass

        from repro.wire import codec

        @dataclass(init=False)  # a generated __init__ is itself "<string>"
        class Exploding:
            value: int

            def __init__(self, value):
                raise ValueError("constructor refuses")

        decode = codec._make_struct_decoder(99, Exploding, ("value",))
        assert decode.__qualname__ == decode.__name__ == "_decode_Exploding"
        frame = bytes([1]) + wire.encode_value(5)  # one field: the int 5
        with pytest.raises(wire.WireDecodeError, match="constructor refuses") as info:
            decode(frame, 0)
        text = "".join(traceback.format_exception(info.value))
        assert 'File "<repro.wire.codec:_decode_Exploding>"' in text
        assert "return _cls(v0), pos" in text
        assert 'File "<string>"' not in text

    def test_generated_encoder_traceback_shows_its_source(self):
        import traceback

        from repro.net.address import Endpoint

        broken = Endpoint.__new__(Endpoint)  # no fields set: obj.host raises
        with pytest.raises(AttributeError) as info:
            wire.encode_value(broken)
        text = "".join(traceback.format_exception(info.value))
        assert 'File "<repro.wire.codec:_encode_Endpoint>"' in text
        assert "v = obj.host" in text


class TestEncodeCache:
    def test_cached_encode_is_byte_identical(self):
        from repro.core.lru import LruCache

        ctx = SampleContext.fresh(seed=13)
        cache = LruCache(64)
        for kind in sample_kinds():
            payload = sample_payload(kind, ctx)
            plain = wire.encode_message(kind, payload)
            # twice: miss-populate, then serve from cache
            assert wire.encode_message(kind, payload, cache) == plain
            assert wire.encode_message(kind, payload, cache) == plain
            assert wire.encoded_size(kind, payload, cache) == len(plain)
        assert cache.hits > 0

    def test_cache_in_fabric_matches_uncached_traces(self):
        """A verify-mode world's trace must not depend on cache capacity
        (the cache only changes *how* bytes are produced, never which)."""
        baseline = _trace(
            WorldConfig(seed=35, telemetry_enabled=True, wire_mode="verify")
        )
        again = _trace(
            WorldConfig(seed=35, telemetry_enabled=True, wire_mode="verify")
        )
        assert baseline == again


class TestLruCache:
    def test_eviction_order_and_counters(self):
        from repro.core.lru import LruCache

        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"; "b" is now oldest
        cache.put("c", 3)  # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.hits == 3
        assert cache.misses == 1
        assert cache.evictions == 1

    def test_peek_does_not_touch_recency_or_counters(self):
        from repro.core.lru import LruCache

        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1
        assert cache.hits == 0 and cache.misses == 0
        cache.put("c", 3)  # "a" is still oldest: peek must not refresh
        assert cache.peek("a") is None
        assert cache.peek("b") == 2

    def test_capacity_validation(self):
        from repro.core.lru import LruCache

        with pytest.raises(ValueError):
            LruCache(0)

    def test_publish_emits_deltas_only(self):
        from repro.core.lru import LruCache
        from repro.telemetry import Telemetry

        telemetry = Telemetry(enabled=True)
        cache = LruCache(4)
        cache.put("k", 1)
        cache.get("k")
        cache.get("absent")
        cache.publish(telemetry, "test.cache", layer="net")
        cache.publish(telemetry, "test.cache", layer="net")  # no-op delta
        hits = telemetry.counter("test.cache.cache_hit", layer="net").value
        misses = telemetry.counter("test.cache.cache_miss", layer="net").value
        assert hits == 1
        assert misses == 1
        cache.get("k")
        cache.publish(telemetry, "test.cache", layer="net")
        assert telemetry.counter("test.cache.cache_hit", layer="net").value == 2
