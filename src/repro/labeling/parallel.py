"""Level-parallel label construction.

The sequential top-down sweep (:func:`repro.labeling.builder.
build_labels`) computes, per vertex ``v`` and ancestor ``u``::

    P(v, u) = skyline(  ⋃_{w ∈ X(v)\\{v}}  S(v, w) ⊗ P(w, u)  )

Every ``w ∈ X(v)\\{v}`` is a *strict ancestor* of ``v`` in the tree, so
``P(v, ·)`` depends only on labels of strictly shallower vertices —
which makes each tree-decomposition **depth level an independent
batch** (the partition the hierarchical-cut-labelling line of work
parallelises over).  This module builds each level across a process
pool and merges the per-vertex label rows back in deterministic
top-down order, so the resulting store is *value-identical* to the
sequential build: identical ``(weight, cost)`` sequences for every
``(v, u)`` pair, identical compact serialisation bytes
(:func:`repro.storage.compact.pack_labels`, provenance columns
included), identical query answers and expanded paths.  Entries that
cross a process boundary come back as pickled copies;
:func:`merge_level` relinks each copy to the parent's own shortcut and
label entries before storing it, so the provenance DAG shares objects
exactly as a sequential build's does and packs to the same rows
instead of a pool of copies.

Each level runs on a :class:`~repro.supervise.pool.SupervisedPool`.
Its workers are forked, so they inherit the tree and the partially
built store by memory snapshot instead of pickling them; one fresh
fleet per level keeps each snapshot current.  A worker SIGKILLed
mid-level is respawned (re-forking the current store snapshot, which
is still exactly "everything shallower than this level") and its lost
vertex chunk recomputed, so the build completes byte-identically
instead of dying.  Unlike the batch fan-out, a label build cannot
tolerate missing vertices — a quarantined (poison) chunk or an
exhausted fleet raises instead of degrading.  Platforms without the
``fork`` start method (or ``workers <= 1``) fall back to the
sequential sweep.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from operator import itemgetter

from repro.exceptions import (
    TaskQuarantinedError,
    WorkerRestartExhaustedError,
)
from repro.hierarchy.tree import TreeDecomposition
from repro.labeling.labels import LabelStore
from repro.observability.metrics import get_registry
from repro.observability.tracing import get_tracer
from repro.skyline.entries import Entry
from repro.skyline.set_ops import SkylineSet, join_union
from repro.supervise.pool import SupervisedPool
from repro.supervise.supervisor import SupervisionConfig, fork_available

#: Levels smaller than this are built inline — forking a pool costs
#: more than computing a handful of vertices.
MIN_PARALLEL_LEVEL = 8

# Worker-side state, inherited by fork (set immediately before each
# level's pool is created, read-only in the children).
_TREE: TreeDecomposition | None = None
_STORE: LabelStore | None = None


def label_set(
    tree: TreeDecomposition, store: LabelStore, v: int, u: int
) -> SkylineSet:
    """``P(v, u)``: the label recurrence for one vertex-ancestor pair.

    The parts are ``S(v, w) ⊗ P(w, u)`` for each hub ``w ∈ X(v)\\{v}``
    in bag order, with ``S(v, u)`` itself standing in for the join when
    ``w == u``.  The dynamic repair sweep's per-pair form;
    :func:`label_rows_for` builds the same rows for a whole vertex.
    """
    shortcuts_v = tree.shortcuts[v]
    return join_union([
        (shortcuts_v[w], None if w == u else store.get(w, u), w)
        for w in tree.bag[v]
    ])


def label_rows_for(
    tree: TreeDecomposition,
    store: LabelStore,
    v: int,
) -> tuple[list[tuple[int, SkylineSet]], int]:
    """The complete label of ``v``: ``([(u, P(v, u))], joins)``.

    Pure function of the tree and the labels of ``v``'s strict
    ancestors; the single per-vertex kernel shared by the sequential
    and parallel builders, so the two cannot drift.  ``joins`` counts
    the skyline joins performed (the build-cost unit the sequential
    builder reports).

    Each row is :func:`label_set`'s, with the lookups hoisted: hub
    ``w`` and ancestor ``u`` are on one root path, so ``P(w, u)`` sits
    in the label of the deeper of the two, and comparing depths picks
    that label without the store's two-sided ``get``.
    """
    hubs = tree.bag[v]  # X(v)\{v}, all ancestors of X(v)
    depth, label = tree.depth, store.label
    shortcuts_v = tree.shortcuts[v]
    hub_parts = [(shortcuts_v[w], w, depth[w], label(w)) for w in hubs]
    rows: list[tuple[int, SkylineSet]] = []
    joins = 0
    for u in tree.ancestors(v):
        depth_u, label_u = depth[u], label(u)
        rows.append((u, join_union([
            (s_vw, None if w == u
             else label_w[u] if depth_w > depth_u else label_u[w], w)
            for s_vw, w, depth_w, label_w in hub_parts
        ])))
        joins += len(hubs) - (u in hubs)
    return rows, joins


def _level_chunk(payload, span, heartbeat):
    """Supervised-pool entrypoint: a contiguous run of one level's
    vertices, built from the forked snapshot.

    When the parent observes, the worker runs this call under a fresh
    registry (and ``span`` is the recorded ``labels.worker-chunk``
    root), so per-vertex build latency lands in
    ``qhl_label_vertex_seconds`` and join counts in
    ``qhl_label_joins_total``; the pool merges both into the parent
    registry when it loads the chunk's result.  Every vertex beats the
    heartbeat so a slow level never reads as a stall.
    """
    registry = get_registry()
    out = []
    joins = 0
    for v in payload:
        heartbeat()
        vertex_started = time.perf_counter()
        rows, vertex_joins = label_rows_for(_TREE, _STORE, v)
        if registry.enabled:
            registry.histogram(
                "qhl_label_vertex_seconds",
                help="per-vertex label construction time",
            ).observe(time.perf_counter() - vertex_started)
        joins += vertex_joins
        out.append((v, rows))
    if registry.enabled and joins:
        registry.counter(
            "qhl_label_joins_total",
            help="skyline joins during label construction",
        ).inc(joins)
    span.set("vertices", len(out))
    span.set("joins", joins)
    return out


def _split_vertices(payload):
    """Decompose a vertex-chunk payload into singleton chunks."""
    return [[v] for v in payload]


def merge_level(
    tree: TreeDecomposition,
    store: LabelStore,
    rows_by_vertex: list[tuple[int, list[tuple[int, SkylineSet]]]],
) -> None:
    """Store one level's label rows, relinking copied provenance.

    Rows computed in a worker, or restored from a checkpoint, are
    pickled copies: their children are copies of the parent's
    shortcut and label entries.  Each row of ``P(v, u)`` is relinked
    to the parent's own objects, matched by ``(weight, cost)``, which
    is unique within a skyline set:

    * a label join at hub ``w`` gets the entry of ``S(v, w)`` as its
      left child and the entry of ``P(w, u)`` as its right child;
    * an entry copied from ``S(v, u)`` becomes that shortcut's entry.

    Rows already made of the parent's objects are stored unchanged.
    """
    for v, rows in rows_by_vertex:
        shortcuts_v = tree.shortcuts[v]
        for u, acc in rows:
            if store.store_paths:
                acc = [
                    _relinked(entry, u, shortcuts_v, store)
                    for entry in acc
                ]
            store.set(v, u, acc)


def _relinked(
    entry: Entry, u: int, shortcuts_v: dict[int, SkylineSet],
    store: LabelStore,
) -> Entry:
    """``entry`` of ``P(v, u)`` over the parent's own objects."""
    w = entry[2]
    if w is None:
        return entry
    # An edge tag is no hub of v, so an edge entry takes this branch too.
    if w == u or w not in shortcuts_v:
        return _same(shortcuts_v[u], entry)  # copied from S(v, u)
    left, right = entry[3], entry[4]
    own_left = _same(shortcuts_v[w], left)
    own_right = _same(store.get(w, u), right)
    if own_left is left and own_right is right:
        return entry
    return (entry[0], entry[1], w, own_left, own_right)


def _same(entries: SkylineSet, entry: Entry) -> Entry:
    """The member of ``entries`` with ``entry``'s ``(weight, cost)``, or
    ``entry`` itself when there is none."""
    i = bisect_left(entries, entry[1], key=itemgetter(1))
    if i < len(entries) and entries[i][:2] == entry[:2]:
        return entries[i]
    return entry


def depth_levels(tree: TreeDecomposition) -> list[list[int]]:
    """Tree vertices grouped by depth, root level first.

    Within a level, vertices keep their top-down-order positions, so
    the merge order is deterministic.
    """
    levels: dict[int, list[int]] = {}
    for v in tree.topdown_order:
        levels.setdefault(tree.depth[v], []).append(v)
    return [levels[d] for d in sorted(levels)]


def level_rows(
    tree: TreeDecomposition,
    store: LabelStore,
    level: list[int],
    workers: int,
    supervision: SupervisionConfig | None = None,
) -> tuple[list[tuple[int, list[tuple[int, SkylineSet]]]], int]:
    """Label rows for one depth level: ``([(v, rows)], joins)``.

    The single per-level kernel shared by :func:`build_labels_parallel`
    and the checkpointed builder
    (:func:`repro.resilience.checkpoint.build_labels_checkpointed`), so
    the two cannot drift.  ``store`` must already hold every strictly
    shallower level.  Levels smaller than :data:`MIN_PARALLEL_LEVEL`
    (or ``workers < 2``, or platforms without ``fork``) are computed
    inline.  The returned join count covers only the inline path; on
    the pool path joins come back in the workers' result files as
    ``qhl_label_joins_total`` metric deltas instead (when a registry is
    live).

    Raises :class:`~repro.exceptions.TaskQuarantinedError` /
    :class:`~repro.exceptions.WorkerRestartExhaustedError` when a
    vertex could not be computed — an incomplete label store is not a
    degraded result, it is a broken index.
    """
    global _TREE, _STORE
    level = [v for v in level if v != tree.root]
    if not level:
        return [], 0
    if (
        workers < 2
        or len(level) < MIN_PARALLEL_LEVEL
        or not fork_available()
    ):
        out = []
        joins = 0
        for v in level:
            rows, vertex_joins = label_rows_for(tree, store, v)
            out.append((v, rows))
            joins += vertex_joins
        return out, joins
    tracer = get_tracer()
    chunk_size = max(1, len(level) // (workers * 4))
    chunks = [
        level[i:i + chunk_size] for i in range(0, len(level), chunk_size)
    ]
    # Set before the fleet forks, so the children (respawns included)
    # see the store as built up to, and excluding, this level.
    _TREE, _STORE = tree, store
    try:
        with tracer.span("labels.level-fanout") as parent:
            parent.set("workers", workers)
            parent.set("vertices", len(level))
            pool = SupervisedPool(
                _level_chunk,
                workers,
                config=supervision,
                label="labels.worker-chunk",
                split=_split_vertices,
            )
            report = pool.run(chunks)
            if report.spans:
                parent.children.extend(report.spans)
        if report.failures:
            lost = report.failures[0]
            detail = (
                f"level of {len(level)} vertices lost chunk "
                f"{lost.payload!r} ({lost.reason}: {lost.message})"
            )
            if lost.reason == "quarantined":
                raise TaskQuarantinedError(detail)
            raise WorkerRestartExhaustedError(detail)
        rows_by_vertex: dict[int, list] = {}
        for chunk_out in report.results.values():
            for v, rows in chunk_out:
                rows_by_vertex[v] = rows
        # Reassemble in level order — independent of which worker (or
        # which retry) computed each vertex — so the merge into the
        # store stays deterministic and the build byte-identical.
        out = [(v, rows_by_vertex[v]) for v in level]
    finally:
        _TREE = _STORE = None
    return out, 0


def build_labels_parallel(
    tree: TreeDecomposition,
    store_paths: bool = True,
    workers: int = 2,
    supervision: SupervisionConfig | None = None,
) -> LabelStore:
    """Parallel :func:`~repro.labeling.builder.build_labels`.

    Value-identical to the sequential build (see the module docstring
    for exactly what "identical" means).  ``workers`` caps each
    level's supervised pool (deaths healed by respawn + recompute;
    ``supervision`` overrides its policy); levels smaller than
    :data:`MIN_PARALLEL_LEVEL` are built inline.
    """
    if workers < 2 or not fork_available():
        from repro.labeling.builder import build_labels

        return build_labels(tree, store_paths=store_paths)

    started = time.perf_counter()
    store = LabelStore(tree.num_vertices, store_paths=store_paths)
    registry = get_registry()
    levels = depth_levels(tree)
    parallel_vertices = 0

    with get_tracer().span("labels.parallel-sweep") as span:
        for level in levels:
            rows_by_vertex, _joins = level_rows(
                tree, store, level, workers, supervision=supervision,
            )
            merge_level(tree, store, rows_by_vertex)
            if len(rows_by_vertex) >= MIN_PARALLEL_LEVEL:
                parallel_vertices += len(rows_by_vertex)
        span.set("vertices", tree.num_vertices)
        span.set("levels", len(levels))
        span.set("parallel_vertices", parallel_vertices)
        span.set("workers", workers)

    store.build_seconds = time.perf_counter() - started
    if registry.enabled:
        registry.gauge("qhl_label_build_seconds").set(store.build_seconds)
        registry.gauge(
            "qhl_label_build_workers",
            help="process-pool size of the last label build",
        ).set(workers)
        registry.gauge(
            "qhl_label_build_levels",
            help="depth levels (independent batches) in the last build",
        ).set(len(levels))
        registry.gauge(
            "qhl_label_build_parallel_vertices",
            help="vertices whose labels were built in worker processes",
        ).set(parallel_vertices)
    return store
