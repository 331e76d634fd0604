"""Label construction for CSP-2Hop / QHL (paper §2.3 and [20]).

Processes tree nodes top-down.  For each vertex ``v`` and each ancestor
``u`` of ``X(v)``::

    P(v, u) = skyline(  ⋃_{w ∈ X(v)\\{v}}  S(v, w) ⊗ P(w, u)  )

where ``S(v, w)`` are the elimination shortcuts and ``P(w, w)`` is the
zero path.  Correctness: ``X(v)\\{v}`` separates ``v`` from everything
higher (Lemma 1); take any v-u path and split it at the first vertex ``w``
eliminated after ``v`` — the prefix is dominated by a member of
``S(v, w)`` (its interior was eliminated before ``v``) and the suffix by a
member of ``P(w, u)``.  Both ``w`` and ``u`` are ancestors of ``X(v)``,
hence chain-comparable, so the needed ``P(w, u)`` was computed earlier in
the top-down sweep and is found by the store's symmetric lookup.

The per-vertex kernel is :func:`label_rows_for`; :func:`label_set` is
its per-pair form for the dynamic repair sweep.  One sweep serves
:func:`build_labels`, which keeps every label as objects for the
dynamic index, and :func:`build_label_columns`, the static build, which
writes each label into flat columns and keeps only the current
root-to-leaf chain of them.  A checkpointed static build runs the same
sweep in segments (:mod:`repro.resilience.checkpoint`).
"""

from __future__ import annotations

import time
from operator import itemgetter
from typing import TYPE_CHECKING

from repro.exceptions import IndexBuildError
from repro.hierarchy.tree import TreeDecomposition
from repro.labeling.labels import LabelStore
from repro.observability.metrics import get_registry
from repro.observability.tracing import get_tracer
from repro.skyline.set_ops import SkylineSet, join_union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.checkpoint import (
        BuildBudget,
        CheckpointStore,
        SegmentedSweep,
    )
    from repro.storage.compact import LabelColumnWriter
    from repro.storage.flat import FlatLabelStore


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
    ancestors; the single per-vertex kernel of both builders.
    ``joins`` counts the skyline joins performed (the build-cost unit
    the builder reports).

    Each row is :func:`label_set`'s, with the lookups hoisted: hub
    ``w`` and ancestor ``u`` are on one root path, so ``P(w, u)`` sits
    in the label of the deeper of the two at the shallower one's depth,
    and comparing depths picks that slot without the store's ``get``.
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
             else label_w[depth_u] if depth_w > depth_u
             else label_u[depth_w], w)
            for s_vw, w, depth_w, label_w in hub_parts
        ])))
        joins += len(hubs) - (u in hubs)
    return rows, joins


def build_labels(
    tree: TreeDecomposition, store_paths: bool = True
) -> LabelStore:
    """Build the full 2-hop skyline labels from a tree decomposition.

    Parameters
    ----------
    tree:
        The decomposition (with shortcuts) from
        :func:`repro.hierarchy.build_tree_decomposition`.
    store_paths:
        Must match the flag the decomposition was built with; entries
        without provenance cannot regain it here.

    Returns
    -------
    LabelStore
        Labels for every vertex, with ``build_seconds`` filled in.
    """
    started = time.perf_counter()
    store = LabelStore(tree.parent, tree.depth, store_paths=store_paths)
    _sweep(tree, store)
    store.build_seconds = time.perf_counter() - started
    _record_build_seconds(store.build_seconds)
    return store


def build_label_columns(
    tree: TreeDecomposition,
    store_paths: bool = True,
    checkpoint: "CheckpointStore | str | None" = None,
    resume: bool = False,
    budget: "BuildBudget | None" = None,
) -> "FlatLabelStore":
    """Build the labels straight into flat columns.

    The sweep of :func:`build_labels`, with each vertex's label written
    into a :class:`~repro.storage.compact.LabelColumnWriter` as soon as
    it is computed.  ``tree.topdown_order`` is a depth-first preorder,
    and a label is read only by the labels of its subtree, so a label
    is dropped once its subtree is done: only the current root-to-leaf
    chain of labels ever exists as objects.  The columns, provenance
    included when ``store_paths``, equal ``pack_labels`` of
    :func:`build_labels`'s store byte for byte.

    Parameters
    ----------
    checkpoint:
        A :class:`~repro.resilience.checkpoint.CheckpointStore` or
        directory path.  When given, the sweep saves each completed
        segment of the top-down order there, and ``resume=True``
        rebuilds the labels of the saved segments from their files
        instead of computing them (see
        :class:`repro.resilience.checkpoint.SegmentedSweep`).  The
        columns are the same either way.
    resume, budget:
        Resume flag and optional
        :class:`~repro.resilience.checkpoint.BuildBudget` watchdog;
        both require ``checkpoint``.
    """
    from repro.storage.compact import LabelColumnWriter
    from repro.storage.flat import FlatLabelStore

    started = time.perf_counter()
    segments = None
    if checkpoint is not None:
        from repro.resilience.checkpoint import SegmentedSweep

        segments = SegmentedSweep(
            tree, checkpoint, store_paths, resume=resume, budget=budget
        )
    elif resume or budget is not None:
        raise IndexBuildError(
            "resume and a build budget need a checkpoint directory: the "
            "watchdog checkpoints-then-raises so --resume can continue"
        )
    store = LabelStore(tree.parent, tree.depth, store_paths=store_paths)
    writer = LabelColumnWriter(tree.num_vertices, provenance=store_paths)
    _sweep(tree, store, writer, segments)
    with get_tracer().span("labels.columns"):
        labels = FlatLabelStore.from_compact(writer.finish())
    labels.build_seconds = time.perf_counter() - started
    _record_build_seconds(labels.build_seconds)
    return labels


def _sweep(
    tree: TreeDecomposition,
    store: LabelStore,
    writer: "LabelColumnWriter | None" = None,
    segments: "SegmentedSweep | None" = None,
) -> None:
    """Compute every label top-down into ``store``.

    With a ``writer``, each label is also written into it, and dropped
    from ``store`` once its subtree is done.  With ``segments`` (which
    needs a writer), the top-down order runs segment by segment, with
    the kernel and the consumer of written labels that
    :meth:`SegmentedSweep.begin` gives for each.
    """
    registry = get_registry()
    observed = registry.enabled
    vertex_seconds = registry.histogram(
        "qhl_label_vertex_seconds",
        help="per-vertex label construction time",
    )
    joins = 0
    parent = tree.parent
    order = tree.topdown_order
    chain: list[int] = []  # the entered vertices, root first
    bounds = [0, len(order)] if segments is None else segments.bounds

    with get_tracer().span("labels.topdown-sweep") as span:
        for k in range(len(bounds) - 1):
            rows_for, saved = label_rows_for, None
            if segments is not None:
                rows_for, saved = segments.begin(k)
            timed = observed and rows_for is label_rows_for
            for v in order[bounds[k]:bounds[k + 1]]:
                if writer is not None:
                    while chain and chain[-1] != parent[v]:
                        u = chain.pop()
                        writer.leave(u)
                        store.drop(u)
                    chain.append(v)
                if v == tree.root:
                    if writer is not None:
                        writer.enter(v, [], [])
                    continue
                vertex_started = time.perf_counter() if timed else 0.0
                rows, vertex_joins = rows_for(tree, store, v)
                joins += vertex_joins
                for u, acc in rows:
                    store.set(v, u, acc)
                if writer is not None:
                    rows.sort(key=itemgetter(0))
                    writer.enter(
                        v, [u for u, _acc in rows], [acc for _u, acc in rows]
                    )
                if saved is not None:
                    saved(v, rows)
                if timed:
                    vertex_seconds.observe(
                        time.perf_counter() - vertex_started
                    )
            if segments is not None:
                segments.end(k)
        while chain:
            u = chain.pop()
            writer.leave(u)
            store.drop(u)
        span.set("vertices", tree.num_vertices)
        span.set("joins", joins)
        span.set(
            "entries",
            store.num_entries() if writer is None else writer.rows,
        )
        if segments is not None:
            segments.report(span)
    if observed:
        registry.counter("qhl_label_joins_total").inc(joins)


def _record_build_seconds(seconds: float) -> None:
    registry = get_registry()
    if registry.enabled:
        registry.gauge("qhl_label_build_seconds").set(seconds)
