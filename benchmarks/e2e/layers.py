"""Per-layer tracing for the ``--trace 1`` run, applied from outside.

Nothing in the program is changed: :class:`Tracer` replaces module
attributes and class methods of each layer with timing wrappers while
a traced segment runs, and puts the originals back afterwards (the
untraced run never imports this module).  Each wrapper records a span
``(name, start, end, parent, request)`` on a per-thread stack; the
outermost span of a thread is the *request* (a service query, a batch
replay query, a reference query, an update batch).  A span's self time
is its duration minus its children's, and each request folds its spans
into per-name totals, so a layer metric is "p50 over requests of the
time that request spent in the layer".

A wrap target that no longer exists (a refactor moved it) is reported:
every metric that depends on it comes out as ``null`` with a warning,
and the rest of the run is unaffected.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
from array import array
from collections import Counter, defaultdict
from statistics import median
from time import perf_counter_ns

from common import percentile
from workloads import observed

QUERY_ROOTS = ("service", "engine")
#: Requests per root kind whose spans are written to the trace file.
KEEP_REQUESTS = 500


# ----------------------------------------------------------------------
# Hooks: extra facts a wrapper reads off arguments and results.
def _pruning_useful(rec, args, result, _dur, root, _token):
    """Algorithm 4 was useful when a candidate is not an initial one."""
    if root not in QUERY_ROOTS:
        return
    initial = {tuple(separator) for _child, separator in args[1]}
    rec.count["prune_calls"] += 1
    if any(candidate not in initial for candidate in result):
        rec.count["prune_useful"] += 1


def _engine_counts(rec, _args, result, _dur, root, _token):
    if root not in QUERY_ROOTS:
        return
    stats = result.stats
    rec.count["engine_queries"] += 1
    rec.count["candidates"] += stats.candidates
    rec.count["hoplinks"] += stats.hoplinks
    rec.count["concatenations"] += stats.concatenations
    rec.count["label_lookups"] += stats.label_lookups


def _cache_before(args):
    cache = args[0].cache
    return cache.hits, cache.evictions


def _cache_after(rec, args, result, dur, root, token):
    if root not in QUERY_ROOTS:
        return
    cache = args[0].cache
    hits, evictions = token
    rec.count["cache_queries"] += 1
    rec.count["cache_evictions"] += cache.evictions - evictions
    if cache.hits > hits:
        rec.count["cache_hits"] += 1
        rec.samples["hit_us"].append(dur / 1e3)
    else:
        rec.count["cache_misses"] += 1
        rec.count["miss_concatenations"] += result.stats.concatenations
        rec.samples["miss_us"].append(dur / 1e3)


def _fallback(rec, args, result, _dur, root, _token):
    if root != "service":
        return
    rec.count["service_queries"] += 1
    if result.engine != args[0].tiers[0]:
        rec.count["fallbacks"] += 1


#: ``(module, attribute path, span name, scope, before, after, only_under)``
TARGETS = (
    ("repro.service.ladder", "QueryService.query", "service", "query",
     None, _fallback, None),
    ("repro.core.qhl", "QHLEngine.query", "engine", "query",
     None, _engine_counts, None),
    ("repro.core.flat", "FlatQHLEngine.query", "engine", "query",
     None, _engine_counts, None),
    ("repro.perf.cached_engine", "CachedQHLEngine.query", "engine", "query",
     _cache_before, _cache_after, None),
    ("repro.baselines.csp2hop", "CSP2HopEngine.query", "csp2hop", "query",
     None, None, None),
    ("repro.hierarchy.lca", "LCAIndex.relation", "lca", "query",
     None, None, None),
    ("repro.core.qhl", "initial_separators", "sep_init", "query",
     None, None, None),
    ("repro.core.flat", "initial_separators", "sep_init", "query",
     None, None, None),
    ("repro.perf.cached_engine", "initial_separators", "sep_init", "query",
     None, None, None),
    ("repro.core.qhl", "candidate_separators", "cond_prune", "query",
     None, _pruning_useful, None),
    ("repro.core.flat", "candidate_separators", "cond_prune", "query",
     None, _pruning_useful, None),
    ("repro.core.qhl", "estimated_cost", "hop_select", "query",
     None, None, None),
    ("repro.core.flat", "_estimated_cost", "hop_select", "query",
     None, None, None),
    ("repro.perf.cached_engine", "estimated_cost", "hop_select", "query",
     None, None, None),
    ("repro.core.qhl", "concat_best_under", "concat", "query",
     None, None, None),
    ("repro.core.flat", "sweep_best_pair", "concat", "query",
     None, None, None),
    ("repro.core.qhl", "expand", "expand", "query", None, None, None),
    ("repro.perf.cached_engine", "expand", "expand", "query",
     None, None, None),
    ("repro.dynamic.epochs", "EpochManager.apply", "update", "update",
     None, None, None),
    ("repro.dynamic.journal", "UpdateJournal.append", "journal", "update",
     None, None, None),
    ("repro.dynamic.updates", "DynamicQHLIndex.clone", "clone", "update",
     None, None, None),
    ("repro.dynamic.updates", "DynamicQHLIndex.apply_deltas", "repair",
     "update", None, None, None),
    ("repro.graph.network", "RoadNetwork.from_edges", "net_rebuild",
     "update", None, None, "repair"),
    ("repro.dynamic.updates", "build_pruning_index", "prune_rebuild",
     "update", None, None, None),
    ("repro.dynamic.epochs", "audit_index", "audit", "update",
     None, None, None),
    ("repro.dynamic.epochs", "Epoch.__init__", "publish", "update",
     None, None, None),
    ("repro.dynamic.journal", "UpdateJournal.mark_published", "publish",
     "update", None, None, None),
)

#: Span names each wrapper-based metric is computed from.
DEPENDS = {
    "hierarchy.lca_us": ("lca",),
    "core.separator_init_us": ("sep_init",),
    "core.condition_pruning_us": ("cond_prune",),
    "core.pruning_useful_ratio": ("cond_prune",),
    "core.hoplink_select_us": ("hop_select",),
    "core.concat_us": ("concat",),
    "core.engine_us_p50": ("engine",),
    "core.candidates_per_query": ("engine",),
    "core.hoplinks_per_query": ("engine",),
    "core.concatenations_per_query": ("engine",),
    "core.label_lookups_per_query": ("engine",),
    "skyline.path_expand_us": ("expand",),
    "perf.cache_hit_ratio": ("engine",),
    "perf.cache_evictions_per_kq": ("engine",),
    "perf.hit_us_p50": ("engine",),
    "perf.miss_us_p50": ("engine",),
    "perf.miss_concatenations_per_query": ("engine",),
    "service.self_us_p50": ("service", "engine"),
    "service.fallback_ratio": ("service",),
    "baselines.csp2hop_us_p50": ("csp2hop",),
    "dynamic.journal_append_ms": ("update", "journal"),
    "dynamic.clone_ms": ("update", "clone"),
    "dynamic.repair_sweeps_ms": ("update", "repair", "net_rebuild",
                                 "prune_rebuild"),
    "dynamic.network_rebuild_ms": ("update", "net_rebuild"),
    "dynamic.pruning_rebuild_ms": ("update", "prune_rebuild"),
    "dynamic.publish_ms": ("update", "publish"),
    "resilience.audit_ms": ("update", "audit"),
}


def _resolve(module_name: str, path: str):
    """``(owner, attribute, original descriptor)``, or ``None`` if gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        original = owner.__dict__.get(attr)
    else:
        original = getattr(owner, attr, None)
    if original is None:
        return None
    return owner, attr, original


class Tracer:
    """Installs the wrappers for traced segments and keeps the spans."""

    enabled = True

    def __init__(self) -> None:
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._origin = perf_counter_ns()
        #: (root name, span name) -> per-request self / total time, µs.
        self.self_us: dict = defaultdict(lambda: array("d"))
        self.total_us: dict = defaultdict(lambda: array("d"))
        self.count: Counter = Counter()
        self.samples: dict = defaultdict(list)
        self.spans: list[tuple] = []
        self._kept_requests: Counter = Counter()
        self.missing: list[str] = []
        self._installed: dict[int, bool] = {}
        self._targets = []
        for n, (module, path, name, scope, before, after, under) in (
            enumerate(TARGETS)
        ):
            resolved = _resolve(module, path)
            if resolved is None:
                self.missing.append(f"{module}.{path}")
                continue
            owner, attr, original = resolved
            wrapper = self._wrap(original, name, before, after, under)
            self._targets.append((n, scope, owner, attr, original, wrapper))
        self.missing_spans = {
            TARGETS[i][2] for i, (module, path, *_rest) in enumerate(TARGETS)
            if f"{module}.{path}" in self.missing
        }
        for target in self.missing:
            print(f"warning: trace target {target} not found; metrics "
                  "that depend on it are reported as null", file=sys.stderr)

    # ------------------------------------------------------------------
    def set(self, on: bool, scope: str = "all") -> None:
        """Install (``on``) or remove the wrappers of ``scope``."""
        for n, target_scope, owner, attr, original, wrapper in self._targets:
            if scope != "all" and target_scope != scope:
                continue
            if self._installed.get(n, False) == on:
                continue
            setattr(owner, attr, wrapper if on else original)
            self._installed[n] = on

    def _wrap(self, original, name, before, after, only_under):
        is_classmethod = isinstance(original, classmethod)
        fn = original.__func__ if is_classmethod else original
        tls = self._tls
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(tls, "stack", None)
            if stack is None:
                stack = tls.stack = []
                tls.acc = {}
            if only_under is not None and (
                not stack or stack[-1][0] != only_under
            ):
                return fn(*args, **kwargs)
            token = before(args) if before is not None else None
            frame = [name, perf_counter_ns(), 0, next(ids),
                     stack[-1][3] if stack else 0]
            if not stack:
                tls.request = frame[3]
                tls.keep = self._kept_requests[name] < KEEP_REQUESTS
                self._kept_requests[name] += 1
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                root = stack[0][0] if stack else name
                self._close(frame, end, stack, tls)
            if after is not None:
                after(self, args, result, end - frame[1], root, token)
            return result

        return classmethod(wrapper) if is_classmethod else wrapper

    def _close(self, frame, end, stack, tls) -> None:
        name, start, children, span_id, parent = frame
        duration = end - start
        acc = tls.acc
        own, total = acc.get(name, (0, 0))
        acc[name] = (own + duration - children, total + duration)
        if stack:
            stack[-1][2] += duration
        if tls.keep:
            self.spans.append((tls.request, span_id, parent, name,
                               threading.get_ident(), start, end))
        if not stack:
            for span_name, (own_ns, total_ns) in acc.items():
                self.self_us[(name, span_name)].append(own_ns / 1e3)
                self.total_us[(name, span_name)].append(total_ns / 1e3)
            acc.clear()

    # ------------------------------------------------------------------
    def p50(self, span: str, roots=QUERY_ROOTS, total: bool = False
            ) -> float:
        """p50 over requests of their time in ``span`` (0 if never)."""
        table = self.total_us if total else self.self_us
        values = []
        for root in roots:
            values.extend(table.get((root, span), ()))
        return percentile(sorted(values), 0.5) if values else 0.0

    def write_spans(self, path: str) -> None:
        """Write the kept spans, one JSON object per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for request, span_id, parent, name, thread, start, end in (
                self.spans
            ):
                handle.write(json.dumps({
                    "request": request, "id": span_id, "parent": parent,
                    "name": name, "thread": thread,
                    "start_us": (start - self._origin) / 1e3,
                    "end_us": (end - self._origin) / 1e3,
                }) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, outcome, workload: str) -> dict:
    """Every per-layer metric of one traced run (``None`` = unmeasurable)."""
    t, c = tracer, tracer.count
    m = dict(outcome.layer)
    m.update({
        "hierarchy.lca_us": t.p50("lca"),
        "core.separator_init_us": t.p50("sep_init"),
        "core.condition_pruning_us": t.p50("cond_prune", total=True),
        "core.hoplink_select_us": t.p50("hop_select", total=True),
        "core.pruning_useful_ratio": _ratio(c["prune_useful"],
                                            c["prune_calls"]),
        "core.concat_us": t.p50("concat"),
        "core.engine_us_p50": t.p50("engine", total=True),
        "core.candidates_per_query": _ratio(c["candidates"],
                                            c["engine_queries"]),
        "core.hoplinks_per_query": _ratio(c["hoplinks"], c["engine_queries"]),
        "core.concatenations_per_query": _ratio(c["concatenations"],
                                                c["engine_queries"]),
        "core.label_lookups_per_query": _ratio(c["label_lookups"],
                                               c["engine_queries"]),
        "skyline.path_expand_us": t.p50("expand"),
        "perf.cache_hit_ratio": _ratio(c["cache_hits"], c["cache_queries"]),
        "perf.cache_evictions_per_kq": _ratio(1000 * c["cache_evictions"],
                                              c["cache_queries"]),
        "perf.hit_us_p50": _p50(t.samples["hit_us"]),
        "perf.miss_us_p50": _p50(t.samples["miss_us"]),
        "perf.miss_concatenations_per_query": _ratio(
            c["miss_concatenations"], c["cache_misses"]),
        "service.self_us_p50": t.p50("service", roots=("service",)),
        "service.fallback_ratio": _ratio(c["fallbacks"],
                                         c["service_queries"]),
        "baselines.csp2hop_us_p50": t.p50("csp2hop", roots=("csp2hop",),
                                          total=True),
        "dynamic.journal_append_ms": _ms(t, "journal"),
        "dynamic.clone_ms": _ms(t, "clone"),
        "dynamic.repair_sweeps_ms": _ms(t, "repair", own=True),
        "dynamic.network_rebuild_ms": _ms(t, "net_rebuild"),
        "dynamic.pruning_rebuild_ms": _ms(t, "prune_rebuild"),
        "dynamic.publish_ms": _ms(t, "publish"),
        "resilience.audit_ms": _ms(t, "audit"),
    })
    m.update(_workload_layer_metrics(outcome, workload))
    for metric, spans in DEPENDS.items():
        if any(span in tracer.missing_spans for span in spans):
            m[metric] = None
    return m


def _p50(values) -> float:
    return percentile(sorted(values), 0.5) if values else 0.0


def _ms(tracer: Tracer, span: str, own: bool = False) -> float:
    """p50 over update batches of the batch's time in ``span``, in ms."""
    return tracer.p50(span, roots=("update",), total=not own) / 1e3


def _workload_layer_metrics(outcome, workload: str) -> dict:
    """The per-layer metrics read off the workload's own timings."""
    segments = outcome.segments
    m = {
        f"loadgen.{name}": value
        for name, value in observed(workload, segments).items()
    }
    m.update({
        "perf.batch_wall_ms_p50": 0.0,
        "perf.batch_parallel_efficiency": 0.0,
        "dynamic.staleness_p50_ms": 0.0,
        "dynamic.labels_checked": 0.0,
        "dynamic.label_useful_ratio": 0.0,
        "dynamic.shortcut_useful_ratio": 0.0,
        "loadgen.late_p99_ms": 0.0,
    })
    if workload == "bulk-long":
        rounds = [s for s in segments if "batch_walls" in s.extra]
        walls = sorted(w for s in rounds for w in s.extra["batch_walls"])
        m["perf.batch_wall_ms_p50"] = percentile(walls, 0.5) * 1e3
        m["perf.batch_parallel_efficiency"] = median(
            s.extra["efficiency"] for s in rounds)
        # The sequential replay, untraced then traced.
        replay = {s.traced: s for s in segments if s.extra.get("replay")}
        overhead = replay[True].wall / replay[False].wall - 1
    elif workload == "rush-hour":
        # Same estimator as loadgen.query_p50_us: the pooled call time.
        def calls(traced: bool) -> list[float]:
            return [x for s in segments if s.traced == traced
                    for x in s.latencies]

        overhead = _p50(calls(True)) / _p50(calls(False)) - 1
    else:
        # Same estimator as loadgen.query_p50_us: the median round.
        overhead = (
            median(_p50(s.latencies) for s in segments if s.traced)
            / median(_p50(s.latencies) for s in segments if not s.traced)
            - 1
        )
    if workload == "rush-hour":
        extra = outcome.extra
        reports = [u["report"] for u in extra["updates"]
                   if not u.get("failed")]
        if reports:
            m["dynamic.staleness_p50_ms"] = median(
                u["staleness"] for u in extra["updates"]
                if not u.get("failed")) * 1e3
            m["dynamic.labels_checked"] = median(
                r.labels_checked for r in reports)
            m["dynamic.label_useful_ratio"] = _ratio(
                sum(r.labels_changed for r in reports),
                sum(r.labels_checked for r in reports))
            m["dynamic.shortcut_useful_ratio"] = _ratio(
                sum(r.shortcuts_changed for r in reports),
                sum(r.shortcuts_checked for r in reports))
        m["loadgen.late_p99_ms"] = percentile(
            sorted(extra["late"]), 0.99) * 1e3
    m["observability.trace_overhead_ratio"] = overhead
    return m
