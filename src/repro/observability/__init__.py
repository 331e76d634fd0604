"""Observability: metrics registry, span tracing, exporters.

The always-available instrumentation layer the ROADMAP's production
goal needs: engines and builders report into a swappable
:class:`MetricsRegistry` and :class:`SpanTracer`, both of which default
to no-ops so the query hot path pays (almost) nothing until a caller
opts in.  Trace ids (:mod:`~repro.observability.propagation`) join a
run's spans, failure rows and flight records; worker spans and metric
deltas come home in the supervisor's result files; and the query flight
recorder (:mod:`~repro.observability.flight`) keeps the last queries.  See
``docs/observability.md`` for the full tour.
"""

from repro.observability.export import (
    merge_record,
    merge_records,
    metric_from_dict,
    metric_to_dict,
    parse_jsonl,
    registry_from_records,
    render_table,
    render_trace,
    snapshot,
    span_from_dict,
    span_to_dict,
    to_jsonl,
    to_prometheus,
    write_jsonl,
)
from repro.observability.flight import (
    NULL_FLIGHT_RECORDER,
    FlightRecord,
    FlightRecorder,
    NullFlightRecorder,
    get_flight_recorder,
    load_flight,
    set_flight_recorder,
    use_flight_recorder,
)
from repro.observability.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    observe_query,
    set_registry,
    use_registry,
)
from repro.observability.propagation import new_trace_id
from repro.observability.tracing import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanTracer,
    get_tracer,
    set_tracer,
    use_tracer,
    walk,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "NULL_FLIGHT_RECORDER",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "Counter",
    "FlightRecord",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullFlightRecorder",
    "NullRegistry",
    "NullTracer",
    "Span",
    "SpanTracer",
    "get_flight_recorder",
    "get_registry",
    "get_tracer",
    "load_flight",
    "merge_record",
    "merge_records",
    "metric_from_dict",
    "metric_to_dict",
    "new_trace_id",
    "observe_query",
    "parse_jsonl",
    "registry_from_records",
    "render_table",
    "render_trace",
    "set_flight_recorder",
    "set_registry",
    "set_tracer",
    "snapshot",
    "span_from_dict",
    "span_to_dict",
    "to_jsonl",
    "to_prometheus",
    "use_flight_recorder",
    "use_registry",
    "use_tracer",
    "walk",
    "write_jsonl",
]
