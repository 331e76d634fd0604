"""High-level facade: build the full QHL index and query it.

:class:`QHLIndex` bundles the four index pieces — tree decomposition,
2-hop skyline labels, LCA structure, and pruning conditions — behind one
``build`` call, and hands out query engines.  A built index serves from
flat columns (:class:`~repro.storage.flat.FlatLabelStore`): the label
build writes each label into the columns as it computes it
(:func:`~repro.labeling.builder.build_label_columns`), provenance
columns included when ``store_paths=True``, and the elimination
shortcuts are dropped, so it has the shape of a saved and loaded one.
Only the dynamic index (:class:`~repro.dynamic.updates.DynamicQHLIndex`)
keeps an object :class:`~repro.labeling.labels.LabelStore`, which it
repairs in place.  The label type picks the default engine:

>>> from repro import QHLIndex, grid_network
>>> network = grid_network(8, 8, seed=1)
>>> index = QHLIndex.build(network, num_index_queries=200, seed=1)
>>> result = index.query(0, 63, budget=200)
>>> result.feasible
True

Engines for the baselines and the paper's ablation variants share the
same underlying index, so comparisons measure algorithms, not indexes.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.baselines.csp2hop import CSP2HopEngine
from repro.core.pruning import PruningConditionIndex, build_pruning_index
from repro.core.qhl import QHLEngine
from repro.exceptions import ReproError
from repro.gcpause import collector_paused
from repro.graph.algorithms import sample_connected_pair
from repro.graph.network import RoadNetwork
from repro.hierarchy.decomposition import Strategy, build_tree_decomposition
from repro.hierarchy.lca import LCAIndex
from repro.hierarchy.tree import TreeDecomposition
from repro.labeling.builder import build_label_columns, build_labels
from repro.labeling.labels import LabelStore
from repro.observability.metrics import get_registry
from repro.observability.tracing import get_tracer
from repro.storage.flat import FlatLabelStore
from repro.types import CSPQuery, QueryResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.flat import FlatQHLEngine


@dataclass
class IndexStats:
    """Build-cost summary (paper Table 2 + Figure 10)."""

    treewidth: int
    treeheight: int
    average_height: float
    tree_seconds: float
    label_seconds: float
    label_bytes: int
    label_entries: int
    max_skyline_set: int
    pruning_seconds: float
    pruning_bytes: int
    pruning_conditions: int


class QHLIndex:
    """The complete QHL index over one road network."""

    def __init__(
        self,
        network: RoadNetwork,
        tree: TreeDecomposition,
        labels: "LabelStore | FlatLabelStore",
        lca: LCAIndex,
        pruning: PruningConditionIndex,
    ):
        self.network = network
        self.tree = tree
        self.labels = labels
        self.lca = lca
        self.pruning = pruning
        self._default_engine = self.qhl_engine()

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        network: RoadNetwork,
        index_queries: Sequence[CSPQuery] | None = None,
        num_index_queries: int = 2000,
        strategy: Strategy = "min_degree",
        store_paths: bool = True,
        seed: int = 0,
        checkpoint_dir: str | None = None,
        resume: bool = False,
        build_budget=None,
    ) -> "QHLIndex":
        """Build the full index.

        Parameters
        ----------
        network:
            A connected road network.
        index_queries:
            The workload sample ``Q_index`` driving pruning-condition
            construction (§4.2).  When ``None``, ``num_index_queries``
            uniform random queries are generated (the paper samples
            uniformly from past workloads).
        strategy, store_paths:
            Passed through to the decomposition / label builders.
        seed:
            Seed for query sampling and Algorithm 7's random pruner
            choice.
        checkpoint_dir, resume, build_budget:
            Checkpoint the label build (the dominant phase) segment by
            segment into ``checkpoint_dir``; ``resume=True`` continues
            an interrupted build after its last saved segment, and
            ``build_budget`` (a :class:`~repro.resilience.checkpoint.
            BuildBudget`) checkpoints-then-raises when time/memory run
            out.  The resulting index is byte-identical to an
            uninterrupted build.
        """
        with _building(
            network,
            index_queries=index_queries,
            num_index_queries=num_index_queries,
            strategy=strategy,
            store_paths=store_paths,
            seed=seed,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            build_budget=build_budget,
            columns=True,
        ) as parts:
            index = cls(*parts)
        return index._recorded()

    # ------------------------------------------------------------------
    # Engines
    # ------------------------------------------------------------------
    def qhl_engine(
        self,
        use_pruning_conditions: bool = True,
        use_two_pointer: bool = True,
    ) -> "QHLEngine | FlatQHLEngine":
        """A QHL engine; flip the flags for the Figure 8 ablations.

        Over flat labels this is :meth:`flat_engine`, except for the
        Cartesian ablation (``use_two_pointer=False``): that, like
        every engine over object labels, is the object-sweep
        :class:`~repro.core.qhl.QHLEngine`, which reads flat labels
        through their ``LabelStore`` read API and counts operations as
        Algorithm 5 does.
        """
        if isinstance(self.labels, FlatLabelStore) and use_two_pointer:
            return self.flat_engine(use_pruning_conditions)
        return QHLEngine(
            self.tree,
            self.labels,
            self.lca,
            self.pruning,
            use_pruning_conditions=use_pruning_conditions,
            use_two_pointer=use_two_pointer,
        )

    def csp2hop_engine(self) -> CSP2HopEngine:
        """The CSP-2Hop baseline over the same labels."""
        return CSP2HopEngine(self.tree, self.labels, self.lca)

    def flat_engine(
        self, use_pruning_conditions: bool = True
    ) -> "FlatQHLEngine":
        """A :class:`~repro.core.flat.FlatQHLEngine` over the flat
        columns, as held (an mmap'd file stays mapped).

        Answers are bit-identical to the object engine; the hot path is
        index arithmetic instead of object-graph walks.

        Raises
        ------
        ReproError
            If the labels are objects (a dynamic index); save and load
            it for columns.
        """
        from repro.core.flat import FlatQHLEngine

        if not isinstance(self.labels, FlatLabelStore):
            raise ReproError(
                "this index holds object labels (a dynamic index); the "
                "flat engine needs the columns of a built or loaded index"
            )
        return FlatQHLEngine(
            self.tree,
            self.labels,
            self.lca,
            self.pruning,
            use_pruning_conditions=use_pruning_conditions,
        )

    def cached_engine(self, cache_size: int = 1024):
        """A :class:`~repro.perf.cached_engine.CachedQHLEngine`.

        Repeated-pair workloads answer from a cached skyline frontier
        in ``O(log k)``; exact for every budget (``docs/performance.md``
        has the argument).  It reads labels through the ``label`` /
        ``get`` API, which flat columns speak too.
        """
        from repro.perf.cached_engine import CachedQHLEngine

        return CachedQHLEngine(
            self.tree, self.labels, self.lca, cache=cache_size
        )

    def query_many(
        self,
        queries: Sequence,
        want_path: bool = False,
        deadline_ms: float | None = None,
        batch_deadline_ms: float | None = None,
        workers: int = 0,
        cache_size: int = 0,
    ):
        """Batched queries over this index (cache-friendly order).

        ``cache_size > 0`` routes the batch through a fresh
        :meth:`cached_engine`; ``workers >= 2`` fans it out across a
        process pool (over mmap'd flat columns the forked workers share
        the mapped pages instead of copying them).  Returns a
        :class:`~repro.perf.batch.BatchReport` with results in input
        order.
        """
        from repro.perf.batch import execute_batch

        engine = (
            self.cached_engine(cache_size)
            if cache_size > 0
            else self._default_engine
        )
        return execute_batch(
            engine,
            queries,
            want_path=want_path,
            deadline_ms=deadline_ms,
            batch_deadline_ms=batch_deadline_ms,
            workers=workers,
        )

    def query(
        self,
        source: int,
        target: int,
        budget: float,
        want_path: bool = False,
        deadline=None,
    ) -> QueryResult:
        """Answer a CSP query with the default engine (the flat one
        over flat labels)."""
        return self._default_engine.query(
            source, target, budget, want_path=want_path, deadline=deadline
        )

    # ------------------------------------------------------------------
    def audit(self, queries: int = 8, seed: int = 0):
        """Deep self-audit; see :func:`repro.resilience.audit.audit_index`.

        Checks skyline canonicality, hoplink coverage, tree/LCA
        well-formedness (plus the offset tables of flat labels), and
        spot-checks ``queries`` seeded random queries through
        :meth:`qhl_engine` against the exact constrained-Dijkstra
        baseline.
        Returns the machine-readable
        :class:`~repro.resilience.audit.AuditReport` (never raises on a
        bad index).
        """
        from repro.resilience.audit import audit_index

        return audit_index(self, queries=queries, seed=seed)

    # ------------------------------------------------------------------
    def _recorded(self) -> "QHLIndex":
        """This index, its :meth:`record_metrics` exported to the
        global registry when that is enabled."""
        registry = get_registry()
        if registry.enabled:
            self.record_metrics(registry)
        return self

    def record_metrics(self, registry) -> None:
        """Export :meth:`stats` as ``qhl_index_*`` gauges on ``registry``.

        Build phases land in ``qhl_index_build_seconds{phase=...}`` so a
        metrics dump of one build answers the paper's Table 2 / Figure
        10 questions (where the build time and space went).
        """
        stats = self.stats()
        for phase, seconds in (
            ("tree-decomposition", stats.tree_seconds),
            ("label-construction", stats.label_seconds),
            ("pruning-index", stats.pruning_seconds),
        ):
            registry.gauge(
                "qhl_index_build_seconds", {"phase": phase}
            ).set(seconds)
        for name, value in (
            ("qhl_index_treewidth", stats.treewidth),
            ("qhl_index_treeheight", stats.treeheight),
            ("qhl_index_label_bytes", stats.label_bytes),
            ("qhl_index_label_entries", stats.label_entries),
            ("qhl_index_max_skyline_set", stats.max_skyline_set),
            ("qhl_index_pruning_bytes", stats.pruning_bytes),
            ("qhl_index_pruning_conditions", stats.pruning_conditions),
        ):
            registry.gauge(name).set(value)

    # ------------------------------------------------------------------
    def stats(self) -> IndexStats:
        """Build-cost summary for Table 2 / Figure 10 reporting."""
        return IndexStats(
            treewidth=self.tree.treewidth,
            treeheight=self.tree.treeheight,
            average_height=self.tree.average_height,
            tree_seconds=self.tree.build_seconds,
            label_seconds=self.labels.build_seconds,
            label_bytes=self.labels.size_bytes(),
            label_entries=self.labels.num_entries(),
            max_skyline_set=self.labels.max_set_size(),
            pruning_seconds=self.pruning.build_seconds,
            pruning_bytes=self.pruning.size_bytes(),
            pruning_conditions=self.pruning.num_conditions,
        )


@contextmanager
def _building(
    network: RoadNetwork,
    index_queries: Sequence[CSPQuery] | None,
    num_index_queries: int,
    store_paths: bool,
    seed: int,
    strategy: Strategy = "min_degree",
    checkpoint_dir: str | None = None,
    resume: bool = False,
    build_budget=None,
    columns: bool = False,
) -> Iterator[tuple[
    RoadNetwork, TreeDecomposition, "LabelStore | FlatLabelStore", LCAIndex,
    PruningConditionIndex,
]]:
    """Build the pieces of an index (parameters as for
    :meth:`QHLIndex.build`) and yield them inside the build's span and
    collector pause.

    With ``columns``, each label is streamed into flat columns as it is
    computed (:func:`~repro.labeling.builder.build_label_columns`,
    checkpointed when ``checkpoint_dir`` is given), provenance included
    when ``store_paths``, and the elimination shortcuts are dropped
    before the pruning build: the shape :meth:`QHLIndex.build` serves.
    Without ``columns`` the labels are objects and the shortcuts stay,
    for the dynamic index to repair; it takes no checkpoint.
    """
    tracer = get_tracer()
    with collector_paused(), tracer.span("qhl.build") as root:
        with tracer.span("tree-decomposition"):
            tree = build_tree_decomposition(
                network,
                strategy=strategy,
                store_paths=store_paths,
            )
        with tracer.span("label-construction"):
            labels: LabelStore | FlatLabelStore
            if columns:
                labels = build_label_columns(
                    tree,
                    store_paths=store_paths,
                    checkpoint=checkpoint_dir,
                    resume=resume,
                    budget=build_budget,
                )
                tree.shortcuts = {}
            else:
                labels = build_labels(tree, store_paths=store_paths)
        with tracer.span("lca-index"):
            lca = LCAIndex(tree)
        with tracer.span("pruning-index") as span:
            if index_queries is None:
                index_queries = random_index_queries(
                    network, num_index_queries, seed=seed
                )
            pruning = build_pruning_index(
                tree, labels, lca, index_queries, seed=seed
            )
            span.set("conditions", pruning.num_conditions)
        root.set("vertices", network.num_vertices)
        root.set("edges", network.num_edges)
        yield network, tree, labels, lca, pruning


def random_index_queries(
    network: RoadNetwork, count: int, seed: int = 0
) -> list[CSPQuery]:
    """Uniform random ``Q_index`` queries (§4.2).

    Budgets are irrelevant to condition *construction* (conditions store
    the largest valid θ), so a placeholder budget of 0 is used.

    RNG contract: the result is a pure function of
    ``(network.num_vertices, count, seed)`` — a private
    ``random.Random(seed)`` drives the sampling, so the global
    :mod:`random` state is neither read nor advanced, and equal seeds
    yield equal query lists across runs and platforms.

    Every query has ``s != t``: a pruning condition describes how one
    *distinct* endpoint's position shrinks a separator, so a degenerate
    ``s == t`` pair carries no information and would only dilute
    ``Q_index``.  Pairs violating this are rejected and redrawn.
    """
    rng = random.Random(seed)
    queries = []
    for _ in range(count):
        s, t = sample_connected_pair(network, rng)
        while s == t:  # reject degenerate pairs; redraw from the same RNG
            s, t = sample_connected_pair(network, rng)
        queries.append(CSPQuery(s, t, 0))
    return queries
