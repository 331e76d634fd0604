"""Unit tests for the exporters: JSON-lines round-trip, Prometheus
text exposition, and the human-readable renderings."""

import json

import pytest

from repro.observability.export import (
    PERCENTILES,
    metric_to_dict,
    parse_jsonl,
    render_table,
    render_trace,
    snapshot,
    span_to_dict,
    to_jsonl,
    to_prometheus,
    write_jsonl,
)
from repro.observability.metrics import Histogram, MetricsRegistry
from repro.observability.tracing import SpanTracer


@pytest.fixture
def populated_registry():
    registry = MetricsRegistry()
    registry.counter("queries_total", {"engine": "QHL"}).inc(3)
    registry.gauge("treewidth").set(7)
    h = registry.histogram(
        "query_seconds", {"engine": "QHL"}, buckets=(0.001, 0.01, 0.1)
    )
    for value in (0.0005, 0.002, 0.003, 0.05, 0.5):
        h.observe(value)
    return registry


class TestJsonLines:
    def test_round_trip(self, populated_registry):
        text = to_jsonl(populated_registry)
        records = parse_jsonl(text)
        assert len(records) == 3
        by_name = {r["name"]: r for r in records}
        assert by_name["queries_total"]["value"] == 3.0
        assert by_name["queries_total"]["labels"] == {"engine": "QHL"}
        assert by_name["treewidth"]["value"] == 7.0
        hist = by_name["query_seconds"]
        assert hist["count"] == 5
        assert hist["min"] == 0.0005
        assert hist["max"] == 0.5
        assert hist["buckets"][-1] == {"le": "+Inf", "count": 1}
        assert set(hist["percentiles"]) == {f"p{q}" for q in PERCENTILES}

    def test_every_line_is_valid_json(self, populated_registry):
        for line in to_jsonl(populated_registry).splitlines():
            json.loads(line)

    def test_write_jsonl_returns_count(self, populated_registry, tmp_path):
        path = tmp_path / "metrics.jsonl"
        count = write_jsonl(populated_registry, path)
        assert count == 3
        assert parse_jsonl(path.read_text()) == snapshot(populated_registry)

    def test_parse_accepts_iterable_of_lines(self, populated_registry):
        lines = to_jsonl(populated_registry).splitlines()
        assert parse_jsonl(lines) == parse_jsonl("\n".join(lines))

    def test_empty_histogram_has_null_min_max(self):
        record = metric_to_dict(Histogram("h"))
        assert record["min"] is None
        assert record["max"] is None
        assert record["count"] == 0


class TestPrometheus:
    def test_type_and_help_emitted_once_per_name(self):
        registry = MetricsRegistry()
        registry.counter("q_total", {"e": "a"}, help="queries").inc()
        registry.counter("q_total", {"e": "b"}).inc()
        text = to_prometheus(registry)
        assert text.count("# TYPE q_total counter") == 1
        assert text.count("# HELP q_total queries") == 1
        assert 'q_total{e="a"} 1' in text
        assert 'q_total{e="b"} 1' in text

    def test_histogram_buckets_are_cumulative(self, populated_registry):
        text = to_prometheus(populated_registry)
        assert 'query_seconds_bucket{engine="QHL",le="0.001"} 1' in text
        assert 'query_seconds_bucket{engine="QHL",le="0.01"} 3' in text
        assert 'query_seconds_bucket{engine="QHL",le="0.1"} 4' in text
        # The +Inf bucket always equals the total count.
        assert 'query_seconds_bucket{engine="QHL",le="+Inf"} 5' in text
        assert 'query_seconds_count{engine="QHL"} 5' in text
        assert 'query_seconds_sum{engine="QHL"}' in text

    def test_unlabelled_metric_has_no_braces(self):
        registry = MetricsRegistry()
        registry.gauge("width").set(4)
        assert "width 4" in to_prometheus(registry)

    def test_empty_registry_exports_empty_string(self):
        assert to_prometheus(MetricsRegistry()) == ""


class TestRenderings:
    def test_table_lists_every_metric(self, populated_registry):
        table = render_table(populated_registry)
        assert 'queries_total{engine="QHL"}' in table
        assert "treewidth" in table
        assert "p50=" in table and "p99=" in table

    def test_empty_table_placeholder(self):
        assert render_table(MetricsRegistry()) == "(no metrics recorded)"

    def test_span_to_dict_is_json_serialisable(self):
        tracer = SpanTracer()
        with tracer.span("root") as root:
            root.set("k", 2)
            with tracer.span("child"):
                pass
        data = span_to_dict(tracer.last())
        json.dumps(data)
        assert data["name"] == "root"
        assert data["counters"] == {"k": 2.0}
        assert data["children"][0]["name"] == "child"

    def test_render_trace_shows_nesting_and_counters(self):
        tracer = SpanTracer()
        with tracer.span("qhl.query") as root:
            root.set("hoplinks", 3)
            with tracer.span("lca"):
                pass
            with tracer.span("concatenation"):
                pass
        text = render_trace(tracer.last())
        lines = text.splitlines()
        assert lines[0].startswith("qhl.query")
        assert "hoplinks=3" in lines[0]
        assert any("├─ lca" in line for line in lines)
        assert any("└─ concatenation" in line for line in lines)


class TestRoundTripAndMerge:
    """JSON-lines -> registry -> Prometheus parity, and merging —
    the wire format supervised workers use to ship metric deltas."""

    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("hits_total", {"engine": "QHL"}).inc(4)
        registry.gauge("entries").set(12)
        h = registry.histogram("lat_seconds", buckets=(0.01, 0.1))
        for value in (0.005, 0.05, 0.5):
            h.observe(value)
        return registry

    def test_jsonl_to_registry_prometheus_parity(self):
        from repro.observability.export import registry_from_records

        original = self._registry()
        records = parse_jsonl(to_jsonl(original))
        rebuilt = registry_from_records(records)
        assert to_prometheus(rebuilt) == to_prometheus(original)
        assert snapshot(rebuilt) == snapshot(original)

    def test_merge_into_empty_registry_equals_source(self):
        from repro.observability.export import merge_records

        original = self._registry()
        target = MetricsRegistry()
        merged = merge_records(target, snapshot(original))
        assert merged == 3
        assert to_prometheus(target) == to_prometheus(original)

    def test_merge_accumulates_counters_and_histograms(self):
        from repro.observability.export import merge_records

        target = self._registry()
        merge_records(target, snapshot(self._registry()))
        assert target.counter("hits_total", {"engine": "QHL"}).value == 8
        assert target.gauge("entries").value == 12  # last writer wins
        h = target.histogram("lat_seconds", buckets=(0.01, 0.1))
        assert h.count == 6
        assert h.min == 0.005
        assert h.max == 0.5

    def test_merge_rejects_mismatched_bucket_bounds(self):
        from repro.observability.export import merge_records

        source = MetricsRegistry()
        source.histogram("lat_seconds", buckets=(0.25,)).observe(0.1)
        target = self._registry()
        with pytest.raises(ValueError):
            merge_records(target, snapshot(source))

    def test_merge_into_disabled_registry_is_a_no_op(self):
        from repro.observability.export import merge_records
        from repro.observability.metrics import NULL_REGISTRY

        assert merge_records(NULL_REGISTRY, snapshot(self._registry())) == 0

    def test_span_from_dict_inverts_span_to_dict(self):
        from repro.observability.export import span_from_dict

        tracer = SpanTracer()
        with tracer.span("root") as root:
            root.set("k", 2)
            with tracer.span("child") as child:
                child.add("n", 3)
        data = span_to_dict(tracer.last())
        rebuilt = span_from_dict(data)
        assert span_to_dict(rebuilt) == data
