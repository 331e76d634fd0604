"""The declared metric-name registry: one source of truth for every
metric this package emits.

PRs 1-4 accumulated ~44 metric names across five subsystems, each
declared implicitly at its instrumentation site and documented (or not)
by hand in ``docs/observability.md`` — the classic docs/code drift.
This module is the fix: every ``qhl_*`` / ``service_*`` / ``ingest_*``
/ ``audit_*`` / ``build_*`` metric the code emits **must** be declared
here, and every declared metric must be emitted somewhere.  Both
directions are machine-checked:

* lint rule **QHL004** (``repro.lint``) statically cross-checks the
  registry against every ``registry.counter/gauge/histogram(...)``
  call site in ``src/``;
* ``tests/lint/test_registry_crosscheck.py`` asserts the metric table
  in ``docs/observability.md`` stays a subset of this registry.

The registry is data, not behaviour: instrumentation sites keep the
get-or-create pattern of :class:`~repro.observability.metrics.
MetricsRegistry` and are *not* required to route through this module.
"""

from __future__ import annotations

from typing import NamedTuple


class MetricSpec(NamedTuple):
    """Declared shape of one metric."""

    kind: str  # "counter" | "gauge" | "histogram"
    labels: tuple[str, ...]
    help: str


#: Every metric name the package emits, with its declared shape.
#: QHL004 fails the lint run when a code literal is missing here or an
#: entry here is emitted nowhere.
METRICS: dict[str, MetricSpec] = {
    # -- query pipeline (PR 1) -----------------------------------------
    "qhl_query_seconds": MetricSpec(
        "histogram", ("engine",), "end-to-end query latency"),
    "qhl_phase_seconds": MetricSpec(
        "histogram", ("engine", "phase"), "per-phase query latency"),
    "qhl_queries_total": MetricSpec(
        "counter", ("engine",), "answered queries"),
    "qhl_hoplinks_total": MetricSpec(
        "counter", ("engine",), "hoplinks visited (Figure 7 left)"),
    "qhl_concatenations_total": MetricSpec(
        "counter", ("engine",), "path concatenations (Figures 7-8)"),
    "qhl_label_lookups_total": MetricSpec(
        "counter", ("engine",), "skyline label fetches"),
    # -- index build (PR 1) --------------------------------------------
    "qhl_index_build_seconds": MetricSpec(
        "gauge", ("phase",), "build phase durations"),
    "qhl_index_treewidth": MetricSpec(
        "gauge", (), "tree decomposition width"),
    "qhl_index_treeheight": MetricSpec(
        "gauge", (), "tree decomposition height"),
    "qhl_index_label_bytes": MetricSpec(
        "gauge", (), "label store payload size"),
    "qhl_index_label_entries": MetricSpec(
        "gauge", (), "skyline entries across all labels"),
    "qhl_index_max_skyline_set": MetricSpec(
        "gauge", (), "largest skyline set in the labels"),
    "qhl_index_pruning_bytes": MetricSpec(
        "gauge", (), "bytes of the four pruning condition columns"),
    "qhl_index_pruning_conditions": MetricSpec(
        "gauge", (), "stored pruning conditions"),
    "qhl_label_vertex_seconds": MetricSpec(
        "histogram", (), "per-vertex label construction time"),
    "qhl_label_build_seconds": MetricSpec(
        "gauge", (), "total label construction time"),
    "qhl_label_joins_total": MetricSpec(
        "counter", (), "skyline joins during label construction"),
    # -- workload harness (PR 1) ---------------------------------------
    "qhl_workload_query_seconds": MetricSpec(
        "histogram", ("engine", "workload"), "harness per-query latency"),
    "qhl_workload_phase_seconds": MetricSpec(
        "histogram", ("phase",), "query-set generation phase latency"),
    "qhl_workload_queries": MetricSpec(
        "gauge", ("set",), "queries generated per Q1..Q5 set"),
    "qhl_workload_failures_total": MetricSpec(
        "counter", ("engine", "workload", "error"),
        "harness queries that raised instead of answering"),
    # -- batch + cache (PR 3) ------------------------------------------
    "qhl_batch_queries_total": MetricSpec(
        "counter", ("engine",), "queries answered through the batch API"),
    "qhl_batch_workers": MetricSpec(
        "gauge", (), "process-pool size of the last batch run"),
    "qhl_cache_hits_total": MetricSpec(
        "counter", (), "skyline cache lookups answered from the cache"),
    "qhl_cache_misses_total": MetricSpec(
        "counter", (), "skyline cache lookups that missed"),
    "qhl_cache_evictions_total": MetricSpec(
        "counter", (), "skyline cache LRU evictions"),
    "qhl_cache_entries": MetricSpec(
        "gauge", (), "skyline frontiers currently cached"),
    "qhl_cache_invalidations_total": MetricSpec(
        "counter", (), "whole-cache invalidations after label updates"),
    # -- batch execution -----------------------------------------------
    "qhl_batch_deadline_exceeded_total": MetricSpec(
        "counter", ("engine",),
        "batch queries that ran out of per-query budget"),
    # -- serving layer (PR 2) ------------------------------------------
    "service_queries_total": MetricSpec(
        "counter", ("tier",), "queries answered per ladder tier"),
    "service_fallback_total": MetricSpec(
        "counter", ("from", "to", "reason"), "ladder tier fallbacks"),
    "service_deadline_exceeded_total": MetricSpec(
        "counter", ("engine",), "queries that ran out of budget"),
    "service_breaker_transitions_total": MetricSpec(
        "counter", ("tier", "state"), "circuit breaker state changes"),
    "service_index_load_failures_total": MetricSpec(
        "counter", (), "index loads that failed and degraded the service"),
    "service_index_audit_failures_total": MetricSpec(
        "counter", (), "indexes rejected by the require_audit gate"),
    # -- flight recorder (PR 6) ----------------------------------------
    "service_flight_records_total": MetricSpec(
        "counter", ("outcome",),
        "flight-recorder records by query outcome"),
    "service_flight_slow_total": MetricSpec(
        "counter", (),
        "queries over the flight-recorder slow threshold"),
    "service_flight_dumps_total": MetricSpec(
        "counter", ("reason",), "flight-recorder dumps by trigger"),
    # -- validating ingestion (PR 4) -----------------------------------
    "ingest_files_total": MetricSpec(
        "counter", ("format",), "network files ingested"),
    "ingest_edges_total": MetricSpec(
        "counter", ("format", "action"), "edges by ingestion outcome"),
    "ingest_skipped_lines_total": MetricSpec(
        "counter", ("format",), "unparseable lines skipped in lenient mode"),
    "ingest_lcc_fallback_total": MetricSpec(
        "counter", ("format",),
        "disconnected inputs reduced to their largest component"),
    "ingest_vertices_dropped_total": MetricSpec(
        "counter", ("format",), "vertices outside the kept component"),
    # -- index audit (PR 4) --------------------------------------------
    "audit_seconds": MetricSpec(
        "gauge", (), "duration of the last index audit"),
    "audit_runs_total": MetricSpec(
        "counter", ("status",), "index audits by outcome"),
    "audit_checks_total": MetricSpec(
        "counter", ("check", "status"), "individual audit checks run"),
    "audit_problems_total": MetricSpec(
        "counter", ("check",), "problems found by audit checks"),
    # -- worker supervision (PR 7) -------------------------------------
    "supervisor_spawns_total": MetricSpec(
        "counter", ("worker",),
        "worker processes spawned (including respawns)"),
    "supervisor_restarts_total": MetricSpec(
        "counter", ("worker",), "workers respawned after a death"),
    "supervisor_deaths_total": MetricSpec(
        "counter", ("worker", "reason"), "worker deaths by cause"),
    "supervisor_heartbeat_stalls_total": MetricSpec(
        "counter", ("worker",),
        "workers killed for a stalled heartbeat"),
    "supervisor_breaker_open_total": MetricSpec(
        "counter", ("worker",),
        "restart circuit breakers tripped open"),
    "supervisor_requeues_total": MetricSpec(
        "counter", (), "tasks requeued after a worker death"),
    "supervisor_quarantined_total": MetricSpec(
        "counter", (), "poison tasks pulled from rotation"),
    "supervisor_workers": MetricSpec(
        "gauge", (), "live worker processes under supervision"),
    # -- checkpointed builds (PR 4) ------------------------------------
    "build_checkpoint_levels_total": MetricSpec(
        "counter", (), "label-build levels persisted as checkpoints"),
    "build_resume_levels_restored_total": MetricSpec(
        "counter", (), "label-build levels restored from checkpoints"),
    "build_resume_restored_vertices": MetricSpec(
        "gauge", (), "vertices whose labels came from checkpoints"),
    # -- live updates & epochs (PR 9) ----------------------------------
    "update_epoch": MetricSpec(
        "gauge", (), "journal sequence number of the serving epoch"),
    "update_backlog": MetricSpec(
        "gauge", (), "acknowledged update batches not yet published"),
    "update_staleness_seconds": MetricSpec(
        "gauge", (), "age of the oldest pending update batch"),
    "update_batches_total": MetricSpec(
        "counter", ("status",), "journalled update batches by outcome"),
    "update_edges_total": MetricSpec(
        "counter", (), "edge-metric deltas applied to published epochs"),
    "update_rollbacks_total": MetricSpec(
        "counter", ("reason",),
        "update batches rolled back, by failure stage"),
    "update_repair_seconds": MetricSpec(
        "histogram", (),
        "incremental repair wall time per published batch"),
}

#: The declared names alone, for membership tests.
METRIC_NAMES: frozenset[str] = frozenset(METRICS)
