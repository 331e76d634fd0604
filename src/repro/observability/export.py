"""Exporters: JSON-lines, Prometheus text exposition, and tables.

Three consumers, three formats:

* :func:`to_jsonl` / :func:`write_jsonl` — one JSON object per metric,
  for offline analysis of a run (the CLI's ``--metrics-out``);
  :func:`parse_jsonl` round-trips it.
* :func:`to_prometheus` — the Prometheus text exposition format
  (``# TYPE`` headers, cumulative ``_bucket{le=...}`` samples), so a
  scrape endpoint needs nothing beyond serving this string.
* :func:`render_table` and :func:`render_trace` — human-readable views
  for terminals: a metric table and an indented span tree.

Snapshots are also the wire format between processes: a supervised
worker puts its per-task registry :func:`snapshot` and span tree
(:func:`span_to_dict`) in the task's result file, and the pool folds
the records back in with :func:`merge_records` (counters add, gauges
take the incoming value, histograms add bucket-wise) and rebuilds the
spans with :func:`span_from_dict`, so a fan-out run ends with one
registry and one trace covering both sides of the fork.
:func:`metric_from_dict` / :func:`registry_from_records` rebuild live
metrics from records.
"""

from __future__ import annotations

import json
from typing import Iterable

from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    Metric,
    MetricsRegistry,
)
from repro.observability.tracing import Span

PERCENTILES = (50, 90, 95, 99)


# ----------------------------------------------------------------------
# Snapshots and JSON-lines
# ----------------------------------------------------------------------
def metric_to_dict(metric: Metric) -> dict:
    """A plain-data snapshot of one metric."""
    record: dict = {
        "type": metric.kind,
        "name": metric.name,
        "labels": dict(metric.labels),
        "help": metric.help,
    }
    if isinstance(metric, Histogram):
        record["count"] = metric.count
        record["sum"] = metric.sum
        record["min"] = metric.min if metric.count else None
        record["max"] = metric.max if metric.count else None
        record["buckets"] = [
            {"le": bound, "count": count}
            for bound, count in zip(metric.bounds, metric.counts, strict=False)
        ]
        record["buckets"].append(
            {"le": "+Inf", "count": metric.counts[-1]}
        )
        record["percentiles"] = {
            f"p{q}": metric.percentile(q) for q in PERCENTILES
        }
    else:
        record["value"] = metric.value
    return record


def snapshot(registry) -> list[dict]:
    """Snapshot every metric of ``registry`` as plain dicts."""
    return [metric_to_dict(metric) for metric in registry.metrics()]


def to_jsonl(registry) -> str:
    """One JSON object per line, one line per metric."""
    return "\n".join(
        json.dumps(record, sort_keys=True) for record in snapshot(registry)
    )


def write_jsonl(registry, path) -> int:
    """Write :func:`to_jsonl` output to ``path``; returns metric count."""
    records = snapshot(registry)
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return len(records)


def parse_jsonl(text: str | Iterable[str]) -> list[dict]:
    """Parse JSON-lines text (or an iterable of lines) back to dicts."""
    lines = text.splitlines() if isinstance(text, str) else text
    return [json.loads(line) for line in lines if line.strip()]


# ----------------------------------------------------------------------
# Reconstruction and merging (the cross-process half of a snapshot)
# ----------------------------------------------------------------------
def _histogram_shape(record: dict) -> tuple[tuple[float, ...], list[int]]:
    """Bucket bounds (without ``+Inf``) and per-bucket counts."""
    buckets = record["buckets"]
    bounds = tuple(float(entry["le"]) for entry in buckets[:-1])
    counts = [int(entry["count"]) for entry in buckets]
    return bounds, counts


def metric_from_dict(record: dict) -> Metric:
    """Rebuild a live metric from a :func:`metric_to_dict` record."""
    kind = record["type"]
    name = record["name"]
    labels = record.get("labels") or {}
    help_text = record.get("help", "")
    if kind in ("counter", "gauge"):
        cls = Counter if kind == "counter" else Gauge
        metric = cls(name, labels, help_text)
        metric.value = float(record["value"])
        return metric
    if kind == "histogram":
        bounds, counts = _histogram_shape(record)
        hist = Histogram(name, labels, help_text, buckets=bounds)
        hist.counts = counts
        hist.count = int(record["count"])
        hist.sum = float(record["sum"])
        if record.get("min") is not None:
            hist.min = float(record["min"])
        if record.get("max") is not None:
            hist.max = float(record["max"])
        return hist
    raise ValueError(f"unknown metric type {kind!r} for {name!r}")


def merge_record(registry, record: dict) -> Metric:
    """Fold one snapshot record into ``registry`` (get-or-create + add).

    Counters accumulate, gauges take the incoming value (last writer
    wins, matching worker-then-parent ordering), histograms accumulate
    bucket-wise and widen ``min``/``max``.  Histogram bucket bounds
    must match the already-registered metric.
    """
    kind = record["type"]
    name = record["name"]
    labels = record.get("labels") or {}
    help_text = record.get("help", "")
    if kind == "counter":
        counter = registry.counter(name, labels, help=help_text)
        counter.inc(float(record["value"]))
        return counter
    if kind == "gauge":
        gauge = registry.gauge(name, labels, help=help_text)
        gauge.set(float(record["value"]))
        return gauge
    if kind == "histogram":
        bounds, counts = _histogram_shape(record)
        hist = registry.histogram(name, labels, help=help_text,
                                  buckets=bounds)
        if hist.bounds != bounds:
            raise ValueError(
                f"histogram {name!r} bucket bounds mismatch: "
                f"{hist.bounds} != {bounds}"
            )
        for i, count in enumerate(counts):
            hist.counts[i] += count
        hist.count += int(record["count"])
        hist.sum += float(record["sum"])
        if record.get("min") is not None:
            hist.min = min(hist.min, float(record["min"]))
        if record.get("max") is not None:
            hist.max = max(hist.max, float(record["max"]))
        return hist
    raise ValueError(f"unknown metric type {kind!r} for {name!r}")


def merge_records(registry, records: Iterable[dict]) -> int:
    """Merge snapshot records into ``registry``; returns how many.

    A no-op (returning 0) on a disabled registry, so callers can merge
    unconditionally.
    """
    if not registry.enabled:
        return 0
    merged = 0
    for record in records:
        merge_record(registry, record)
        merged += 1
    return merged


def registry_from_records(records: Iterable[dict]) -> MetricsRegistry:
    """A fresh registry rebuilt from snapshot records."""
    registry = MetricsRegistry()
    for record in records:
        registry.attach(metric_from_dict(record))
    return registry


# ----------------------------------------------------------------------
# Prometheus text exposition format
# ----------------------------------------------------------------------
def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return f"{value:.10g}"


def _format_labels(labels: dict, extra: dict | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(
        f'{key}="{value}"' for key, value in sorted(merged.items())
    )
    return "{" + body + "}"


def to_prometheus(registry) -> str:
    """The registry in Prometheus text exposition format."""
    lines: list[str] = []
    typed: set[str] = set()
    for metric in registry.metrics():
        if metric.name not in typed:
            typed.add(metric.name)
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, Histogram):
            cumulative = 0
            for bound, count in zip(
                metric.bounds, metric.counts, strict=False
            ):
                cumulative += count
                labels = _format_labels(
                    metric.labels, {"le": _format_value(bound)}
                )
                lines.append(f"{metric.name}_bucket{labels} {cumulative}")
            labels = _format_labels(metric.labels, {"le": "+Inf"})
            lines.append(f"{metric.name}_bucket{labels} {metric.count}")
            base = _format_labels(metric.labels)
            lines.append(
                f"{metric.name}_sum{base} {_format_value(metric.sum)}"
            )
            lines.append(f"{metric.name}_count{base} {metric.count}")
        else:
            labels = _format_labels(metric.labels)
            lines.append(
                f"{metric.name}{labels} {_format_value(metric.value)}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# Human-readable renderings
# ----------------------------------------------------------------------
def _format_seconds(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} us"
    if seconds < 1:
        return f"{seconds * 1e3:.1f} ms"
    return f"{seconds:.2f} s"


def render_table(registry) -> str:
    """A fixed-width table of every metric, histograms as percentiles."""
    rows = []
    for metric in registry.metrics():
        name = metric.name + _format_labels(metric.labels)
        if isinstance(metric, Histogram):
            detail = (
                f"count={metric.count} mean={_format_seconds(metric.mean)} "
                + " ".join(
                    f"p{q}={_format_seconds(metric.percentile(q))}"
                    for q in PERCENTILES
                )
            )
        else:
            detail = _format_value(metric.value)
        rows.append((name, metric.kind, detail))
    if not rows:
        return "(no metrics recorded)"
    width = max(len(name) for name, _, _ in rows)
    return "\n".join(
        f"{name:<{width}}  {kind:>9}  {detail}" for name, kind, detail in rows
    )


def span_to_dict(span: Span) -> dict:
    """A plain-data snapshot of one span tree (JSON-serialisable)."""
    return {
        "name": span.name,
        "duration_s": span.duration,
        "counters": dict(span.counters),
        "children": [span_to_dict(child) for child in span.children],
    }


def span_from_dict(data: dict) -> Span:
    """Rebuild a :class:`Span` tree from :func:`span_to_dict` output.

    The rebuilt spans carry no tracer (they are finished records, not
    open regions); ``started`` is not preserved across processes.
    """
    span = Span(str(data.get("name", "")))
    span.duration = float(data.get("duration_s", 0.0))
    span.counters = {
        str(key): float(value)
        for key, value in (data.get("counters") or {}).items()
    }
    span.children = [
        span_from_dict(child) for child in data.get("children") or []
    ]
    return span


def render_trace(span: Span) -> str:
    """An indented tree view of one span with durations and counters."""
    lines: list[str] = []

    def emit(node: Span, prefix: str, is_last: bool, is_root: bool) -> None:
        connector = "" if is_root else ("└─ " if is_last else "├─ ")
        counters = "".join(
            f" {key}={value:g}" for key, value in node.counters.items()
        )
        lines.append(
            f"{prefix}{connector}{node.name:<24} "
            f"{_format_seconds(node.duration):>10}{counters}"
        )
        child_prefix = prefix if is_root else (
            prefix + ("   " if is_last else "│  ")
        )
        for i, child in enumerate(node.children):
            emit(child, child_prefix, i == len(node.children) - 1, False)

    emit(span, "", True, True)
    return "\n".join(lines)
