"""Tests for the telemetry subsystem: metrics, spans, deterministic export."""

import pytest

from repro.harness.world import World, WorldConfig
from repro.telemetry import (
    NOOP_SPAN,
    NULL_TELEMETRY,
    MetricsRegistry,
    Telemetry,
    Tracer,
    load_jsonl,
)
from repro.telemetry.instruments import (
    NOOP_COUNTER,
    NOOP_GAUGE,
    NOOP_HISTOGRAM,
)


class TestCounters:
    def test_inc_and_value(self):
        reg = MetricsRegistry()
        counter = reg.counter("msgs", node=1)
        counter.inc()
        counter.inc(2.5)
        assert reg.collect("msgs")[(("node", 1),)].value == pytest.approx(3.5)

    def test_cached_by_name_and_labels(self):
        reg = MetricsRegistry()
        assert reg.counter("msgs", node=1) is reg.counter("msgs", node=1)
        assert reg.counter("msgs", node=1) is not reg.counter("msgs", node=2)
        # Label order is irrelevant.
        assert reg.counter("x", a=1, b=2) is reg.counter("x", b=2, a=1)

    def test_monotonic(self):
        counter = MetricsRegistry().counter("msgs")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("msgs")
        with pytest.raises(TypeError):
            reg.gauge("msgs")

    def test_untouched_value_is_zero(self):
        assert MetricsRegistry().counter("never", node=3).value == 0


class TestGaugesAndHistograms:
    def test_gauge_set_and_add(self):
        gauge = MetricsRegistry().gauge("pending")
        gauge.set(10)
        gauge.add(-3)
        assert gauge.value == 7

    def test_histogram_observe(self):
        hist = MetricsRegistry().histogram("rtt")
        for value in (1.0, 2.0, 3.0, 4.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == pytest.approx(10.0)
        assert hist.quantile(50) == pytest.approx(2.5)

    def test_aggregate_pools_histograms(self):
        reg = MetricsRegistry()
        reg.histogram("rtt", node=1).observe(1.0)
        reg.histogram("rtt", node=2).observe(3.0)
        summary = reg.aggregate("rtt")
        assert summary["count"] == 2
        assert summary["min"] == 1.0 and summary["max"] == 3.0
        assert summary["p50"] == pytest.approx(2.0)

    def test_aggregate_sums_counters(self):
        reg = MetricsRegistry()
        reg.counter("msgs", node=1).inc(4)
        reg.counter("msgs", node=2).inc(6)
        assert reg.aggregate("msgs") == {"count": 2, "sum": 10}

    def test_values_by_label(self):
        reg = MetricsRegistry()
        reg.counter("bytes", node=1, layer="net").inc(100)
        reg.counter("bytes", node=2, layer="net").inc(50)
        by_node = {
            dict(labels)["node"]: metric.value
            for labels, metric in reg.collect("bytes").items()
        }
        assert by_node == {1: 100, 2: 50}


class TestSpans:
    def _tracer(self):
        clock = [0.0]
        tracer = Tracer(clock=lambda: clock[0])
        return tracer, clock

    def test_start_end(self):
        tracer, clock = self._tracer()
        span = tracer.start("work", trace_id=9, node=1, layer="wcl", ms=5.0)
        clock[0] = 2.0
        tracer.end(span)
        assert span.start == 0.0 and span.end == 2.0
        assert span.duration == 2.0
        assert span.attrs == {"ms": 5.0}
        assert tracer.spans_by_trace(9) == [span]

    def test_explicit_end_time(self):
        tracer, _clock = self._tracer()
        span = tracer.start("cpu", at=1.0)
        tracer.end(span, at=1.5)
        assert span.duration == pytest.approx(0.5)

    def test_nesting_via_context_manager(self):
        tracer, _clock = self._tracer()
        with tracer.span("outer") as outer:
            with tracer.span("middle") as middle:
                inner = tracer.start("inner")
                tracer.end(inner)
        assert outer.parent_id is None
        assert middle.parent_id == outer.span_id
        assert inner.parent_id == middle.span_id

    def test_instant_is_zero_duration(self):
        tracer, clock = self._tracer()
        clock[0] = 4.2
        span = tracer.instant("sent", trace_id=1)
        assert span.start == span.end == 4.2

    def test_spans_by_trace_sorted_by_time(self):
        tracer, _clock = self._tracer()
        late = tracer.start("b", trace_id=5, at=3.0)
        early = tracer.start("a", trace_id=5, at=1.0)
        assert tracer.spans_by_trace(5) == [early, late]


class TestNoopMode:
    def test_disabled_registry_hands_out_shared_noops(self):
        reg = MetricsRegistry(enabled=False)
        assert reg.counter("msgs", node=1) is NOOP_COUNTER
        assert reg.gauge("g") is NOOP_GAUGE
        assert reg.histogram("h") is NOOP_HISTOGRAM
        NOOP_COUNTER.inc(100)
        NOOP_GAUGE.set(7)
        NOOP_HISTOGRAM.observe(1.0)
        assert len(reg) == 0
        assert reg.aggregate("msgs") == {}

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        span = tracer.start("work", trace_id=1)
        assert span is NOOP_SPAN
        tracer.end(span)  # must be a harmless no-op
        with tracer.span("outer"):
            pass
        assert len(tracer) == 0

    def test_null_telemetry_is_inert(self):
        NULL_TELEMETRY.counter("x", node=1).inc()
        NULL_TELEMETRY.instant("y", trace_id=2)
        assert len(NULL_TELEMETRY.metrics) == 0
        assert len(NULL_TELEMETRY.tracer) == 0


def _run_world(telemetry_enabled, seed=31, nodes=15, duration=45.0):
    world = World(WorldConfig(seed=seed, telemetry_enabled=telemetry_enabled))
    world.populate(nodes)
    world.start_all()
    world.run(duration)
    return world


class TestDeterministicExport:
    def test_same_seed_runs_export_byte_identical(self, tmp_path):
        texts = []
        for i in range(2):
            world = _run_world(telemetry_enabled=True)
            path = tmp_path / f"run{i}.jsonl"
            texts.append(world.telemetry.export_jsonl(str(path)))
            assert path.read_text(encoding="utf-8") == texts[-1]
        assert texts[0] == texts[1]

    def test_export_round_trips(self, tmp_path):
        world = _run_world(telemetry_enabled=True)
        path = tmp_path / "trace.jsonl"
        world.telemetry.export_jsonl(str(path))
        spans, metrics = load_jsonl(str(path))
        assert len(spans) == len(world.telemetry.tracer.spans)
        names = {m["name"] for m in metrics}
        assert "sim.events" in names and "net.up_bytes" in names
        # Renumbered ids are dense and start at 1.
        assert min(s.span_id for s in spans) == 1
        assert max(s.span_id for s in spans) == len(spans)

    def test_load_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text('{"kind":"meta","format":"not-telemetry"}\n')
        with pytest.raises(ValueError):
            load_jsonl(str(path))

    def test_disabled_world_exports_meta_only(self):
        world = _run_world(telemetry_enabled=False)
        lines = world.telemetry.export_jsonl().strip().split("\n")
        assert len(lines) == 1 and '"kind":"meta"' in lines[0]


class TestBehaviouralTransparency:
    def test_enabled_and_disabled_runs_are_event_identical(self):
        enabled = _run_world(telemetry_enabled=True)
        disabled = _run_world(telemetry_enabled=False)
        assert enabled.sim.events_processed == disabled.sim.events_processed
        assert enabled.sim.now == disabled.sim.now
        views_on = {
            n.node_id: n.pss.view.node_ids() for n in enabled.alive_nodes()
        }
        views_off = {
            n.node_id: n.pss.view.node_ids() for n in disabled.alive_nodes()
        }
        assert views_on == views_off


class TestStackInstrumentation:
    def test_world_capture_covers_all_layers(self):
        world = _run_world(telemetry_enabled=True, duration=60.0)
        metrics = world.telemetry.metrics
        assert metrics.aggregate("sim.events")["sum"] > 0
        assert metrics.aggregate("net.up_bytes")["sum"] > 0
        assert metrics.aggregate("pss.cycles")["sum"] > 0
        assert metrics.aggregate("nat.connects")["sum"] > 0
        # nat.connect spans carry outcomes for every traversal attempt.
        connects = world.telemetry.spans_named("nat.connect")
        assert connects and all(s.finished for s in connects)

    def test_cache_counters_include_the_last_sends_lookups(self):
        world = _run_world(telemetry_enabled=True, seed=33)
        metrics = world.telemetry.metrics
        for name, stats in world.network.cache_stats().items():
            for outcome, count in (("hit", stats["hits"]), ("miss", stats["misses"])):
                exported = metrics.aggregate(f"{name}.cache_{outcome}")
                assert exported.get("sum", 0) == count, (name, outcome)

    def test_wcl_spans_reconstruct_an_onion_journey(self):
        # Drive a PPSS group so real onions flow, then follow one trace.
        world = _run_world(telemetry_enabled=True, nodes=20, duration=90.0)
        founder = world.public_nodes()[0]
        group = founder.create_group("g")
        joiners = [n for n in world.alive_nodes() if n is not founder][:4]
        for node in joiners:
            node.join_group(group.invite(node.node_id))
        world.run(240.0)
        tel = world.telemetry
        delivered = tel.spans_named("wcl.delivered")
        assert delivered, "no onion completed its journey"
        trace = tel.spans_by_trace(delivered[0].trace_id)
        names = [s.name for s in trace]
        assert any(n.endswith(".build") for n in names)
        assert any(n.endswith(".sent") for n in names)
        assert "wcl.peel" in names
        # The journey is time-ordered: build first, delivery last.
        assert names[-1] == "wcl.delivered" or "wcl.peel" in names[-1]


class TestHistogramReservoir:
    """PR 6: histogram memory is O(1) via deterministic reservoir sampling."""

    def test_exact_below_the_cap(self):
        from repro.telemetry.instruments import Histogram

        hist = Histogram("h", (), reservoir=100)
        for i in range(100):
            hist.observe(float(i))
        assert not hist.saturated
        assert len(hist.samples) == 100
        assert hist.count == 100
        assert hist.quantile(50) == pytest.approx(49.5)

    def test_memory_bounded_past_100k_samples(self):
        from repro.telemetry.instruments import Histogram

        cap = 512
        hist = Histogram("latency", (("layer", "workload"),), reservoir=cap)
        n = 120_000
        for i in range(n):
            hist.observe(float(i % 1000))
        assert hist.saturated
        assert len(hist.samples) == cap  # O(1) memory, not O(n)
        # Totals stay exact regardless of sampling.
        assert hist.count == n
        assert hist.sum == pytest.approx(sum(float(i % 1000) for i in range(n)))
        assert hist.min == 0.0 and hist.max == 999.0
        # Quantiles remain sane estimates of the uniform 0..999 shape.
        trio = hist.percentiles()
        assert trio["p50"] == pytest.approx(500.0, abs=120.0)
        assert trio["p95"] == pytest.approx(950.0, abs=60.0)
        assert trio["p99"] == pytest.approx(990.0, abs=30.0)

    def test_reservoir_is_deterministic(self):
        from repro.telemetry.instruments import Histogram

        def build():
            hist = Histogram("rtt", (("node", 4),), reservoir=64)
            for i in range(5000):
                hist.observe(float((i * 37) % 211))
            return hist

        assert build().samples == build().samples

    def test_reservoir_depends_on_identity(self):
        # Different (name, labels) identities seed different reservoirs, so
        # two hot histograms cannot shadow each other's sampling decisions.
        from repro.telemetry.instruments import Histogram

        def build(name):
            hist = Histogram(name, (), reservoir=32)
            for i in range(2000):
                hist.observe(float(i))
            return hist

        assert build("a").samples != build("b").samples

    def test_aggregate_totals_exact_past_saturation(self):
        from repro.telemetry.instruments import Histogram

        reg = MetricsRegistry()
        # Registry histograms use the default cap; emulate saturation with
        # a hand-built small-reservoir instrument registered alongside.
        small = Histogram("mix", (("node", 1),), reservoir=16)
        reg._metrics[("mix", (("node", 1),))] = small
        for i in range(1000):
            small.observe(float(i))
        summary = reg.aggregate("mix")
        assert summary["count"] == 1000
        assert summary["sum"] == pytest.approx(sum(range(1000)))
        assert summary["min"] == 0.0 and summary["max"] == 999.0
