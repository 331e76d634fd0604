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

The per-vertex kernel is :func:`label_rows_for`, shared with the
checkpointed builder (:func:`repro.resilience.checkpoint.
build_labels_checkpointed`) so the two cannot drift; :func:`label_set`
is its per-pair form for the dynamic repair sweep.
"""

from __future__ import annotations

import time

from repro.hierarchy.tree import TreeDecomposition
from repro.labeling.labels import LabelStore
from repro.observability.metrics import get_registry
from repro.observability.tracing import get_tracer
from repro.skyline.set_ops import SkylineSet, join_union


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


def depth_levels(tree: TreeDecomposition) -> list[list[int]]:
    """Tree vertices grouped by depth, root level first.

    Every hub ``w ∈ X(v)\\{v}`` is a strict ancestor of ``v``, so a
    level's labels depend only on shallower levels: the unit the
    checkpointed builder persists and restores.  Within a level,
    vertices keep their top-down-order positions, so the order is
    deterministic.
    """
    levels: dict[int, list[int]] = {}
    for v in tree.topdown_order:
        levels.setdefault(tree.depth[v], []).append(v)
    return [levels[d] for d in sorted(levels)]


def build_labels(
    tree: TreeDecomposition,
    store_paths: bool = True,
    checkpoint=None,
    resume: bool = False,
    budget=None,
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
    checkpoint:
        A :class:`~repro.resilience.checkpoint.CheckpointStore` or
        directory path.  When given, the build persists per-level
        checkpoints and ``resume=True`` continues an interrupted build
        from its last completed level (value-identical result; see
        :func:`repro.resilience.checkpoint.build_labels_checkpointed`).
    resume, budget:
        Resume flag and optional
        :class:`~repro.resilience.checkpoint.BuildBudget` watchdog for
        the checkpointed path; ``budget`` requires ``checkpoint``.

    Returns
    -------
    LabelStore
        Labels for every vertex, with ``build_seconds`` filled in.
    """
    if checkpoint is not None:
        from repro.resilience.checkpoint import build_labels_checkpointed

        return build_labels_checkpointed(
            tree,
            checkpoint,
            store_paths=store_paths,
            resume=resume,
            budget=budget,
        )
    if budget is not None:
        from repro.exceptions import IndexBuildError

        raise IndexBuildError(
            "a build budget requires a checkpoint directory: the "
            "watchdog checkpoints-then-raises so --resume can continue"
        )
    if resume:
        from repro.exceptions import IndexBuildError

        raise IndexBuildError(
            "resume requires the checkpoint directory the interrupted "
            "build was writing to"
        )

    started = time.perf_counter()
    store = LabelStore(tree.num_vertices, store_paths=store_paths)
    registry = get_registry()
    observed = registry.enabled
    vertex_seconds = registry.histogram(
        "qhl_label_vertex_seconds",
        help="per-vertex label construction time",
    )
    joins = 0

    with get_tracer().span("labels.topdown-sweep") as span:
        for v in tree.topdown_order:
            if v == tree.root:
                continue
            vertex_started = time.perf_counter() if observed else 0.0
            rows, vertex_joins = label_rows_for(tree, store, v)
            joins += vertex_joins
            for u, acc in rows:
                store.set(v, u, acc)
            if observed:
                vertex_seconds.observe(time.perf_counter() - vertex_started)
        span.set("vertices", tree.num_vertices)
        span.set("joins", joins)
        span.set("entries", store.num_entries())

    store.build_seconds = time.perf_counter() - started
    if observed:
        registry.gauge("qhl_label_build_seconds").set(store.build_seconds)
        registry.counter("qhl_label_joins_total").inc(joins)
    return store
