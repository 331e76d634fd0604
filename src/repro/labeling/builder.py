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

The per-vertex kernel lives in
:func:`repro.labeling.parallel.label_rows_for`, shared with the
level-parallel builder (``workers >= 2``) so the sequential and
parallel paths cannot drift.
"""

from __future__ import annotations

import time

from repro.hierarchy.tree import TreeDecomposition
from repro.labeling.labels import LabelStore
from repro.observability.metrics import get_registry
from repro.observability.tracing import get_tracer


def build_labels(
    tree: TreeDecomposition,
    store_paths: bool = True,
    workers: int = 1,
    checkpoint=None,
    resume: bool = False,
    budget=None,
    supervision=None,
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
    workers:
        ``>= 2`` builds each tree-depth level across a process pool
        (:func:`repro.labeling.parallel.build_labels_parallel`); the
        result is value-identical to the sequential build.  ``1``
        (default) keeps the sequential top-down sweep.
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
    supervision:
        Optional :class:`~repro.supervise.supervisor.SupervisionConfig`
        for the level pools (:mod:`repro.supervise`) that ``workers >=
        2`` runs on: dead workers respawn and their lost chunk is
        recomputed, still value-identical.

    Returns
    -------
    LabelStore
        Labels for every vertex, with ``build_seconds`` filled in.
    """
    from repro.labeling.parallel import (
        build_labels_parallel,
        fork_available,
        label_rows_for,
    )

    if checkpoint is not None:
        from repro.resilience.checkpoint import build_labels_checkpointed

        return build_labels_checkpointed(
            tree,
            checkpoint,
            store_paths=store_paths,
            workers=workers,
            resume=resume,
            budget=budget,
            supervision=supervision,
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

    if workers >= 2 and fork_available():
        return build_labels_parallel(
            tree,
            store_paths=store_paths,
            workers=workers,
            supervision=supervision,
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
