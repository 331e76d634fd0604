"""The flat-array QHL engine: Algorithm 3 as index arithmetic.

:class:`FlatQHLEngine` answers queries through the same Algorithm-3
pipeline as :class:`~repro.core.qhl.QHLEngine`
(:meth:`~repro.core.qhl.Algorithm3Engine._algorithm3`: LCA, separator
initialisation, condition pruning, the min-``T(H)`` hoplink choice and
the per-hoplink loop, with the same candidate order and tie-breaks).
Only the per-query label-access object differs: :class:`_FlatAccess`
reads skyline sets as half-open slices into the cost-sorted columns of
a :class:`~repro.storage.flat.FlatLabelStore` — no per-entry tuples, no
label dicts, no allocation on the hot path:

* estimated cost ``T(H) = Σ_h (|P_sh| + |P_ht|)`` — sizes read from the
  offset table;
* concatenation — :func:`~repro.skyline.flat_ops.sweep_best_pair`,
  Algorithm 5 with identical answer semantics over column slices;
* the ancestor fast path — a pure binary search
  (:func:`~repro.skyline.flat_ops.best_under_cols`) over the cost
  column.

``(feasible, weight, cost)`` triples are therefore bit-identical to the
object engine on every query (the differential suite pins this); only
the ``concatenations`` counter may be lower, because the flat sweep
binary-searches away provably infeasible pairs.

:class:`FlatIndex` is the facade over a flat (possibly mmap-backed)
label store — the flat twin of :class:`~repro.core.engine.QHLIndex` —
as produced by :func:`repro.storage.flatfile.load_flat_index`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core.pruning import PruningConditionIndex
from repro.core.qhl import Algorithm3Engine
# Not called here (the pipeline runs them from repro.core.qhl); still
# exported because benchmarks/e2e/layers.py TARGETS names them here.
from repro.core.qhl import candidate_separators, initial_separators  # noqa: F401
from repro.exceptions import IndexBuildError, ReproError
from repro.graph.network import RoadNetwork
from repro.hierarchy.lca import LCAIndex
from repro.hierarchy.tree import TreeDecomposition
from repro.skyline.flat_ops import best_under_cols, sweep_best_pair
from repro.storage.compact import _restore
from repro.storage.flat import FlatLabelStore
from repro.types import CSPQuery, QueryResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import QHLIndex
    from repro.service.deadline import Deadline

_INF = float("inf")


class FlatQHLEngine(Algorithm3Engine):
    """QHL over flat label columns; bit-identical to :class:`QHLEngine`.

    ``want_path=True`` on a feasible query raises :class:`ReproError`:
    flat columns keep no provenance (the same trade as compact storage).
    """

    name = "QHL-flat"

    def __init__(
        self,
        tree: TreeDecomposition,
        labels: FlatLabelStore,
        lca: LCAIndex | None = None,
        pruning: PruningConditionIndex | None = None,
        use_pruning_conditions: bool = True,
    ):
        self._tree = tree
        self._labels = labels
        self._lca = lca if lca is not None else LCAIndex(tree)
        self._pruning = pruning
        self.use_pruning_conditions = use_pruning_conditions and (
            pruning is not None
        )

    # Bound on the class itself: benchmarks/e2e/layers.py wraps each
    # engine class's own ``query`` attribute.
    query = Algorithm3Engine.query

    def _access(self, s: int, t: int) -> "_FlatAccess":
        return _FlatAccess(self._labels, s, t)


class _FlatAccess:
    """Per-query slice access plus the best answer — the flat twin of
    :class:`~repro.core.qhl.LabelAccess`.

    Returns ``(lo, hi)`` column bounds instead of entry lists; sizes
    come from the store's per-vertex hub → size dicts, so cost
    estimation touches no entry bytes at all.  Hub lookup goes through
    the store's lazily built hub → row dicts
    (:meth:`FlatLabelStore.hub_rows`) — candidate estimation probes the
    same hubs many times per query, and a per-probe binary search
    dominated the profile where the object fetcher pays one dict get.
    ``lookups`` counts unique (side, hub) bound fetches — the sets the
    concatenation phase actually reads; estimation probes only size
    dicts and is not counted.
    """

    __slots__ = (
        "_labels", "_weights", "_costs", "_entry_offsets", "_s", "_t",
        "_s_rows", "_t_rows", "_s_sizes", "_t_sizes", "_from_s",
        "_from_t", "_weight", "_cost", "lookups",
    )

    def __init__(self, labels: FlatLabelStore, s: int, t: int):
        self._labels = labels
        self._weights = labels.weights
        self._costs = labels.costs
        self._entry_offsets = labels.entry_offsets
        self._s = s
        self._t = t
        self._s_rows = labels.hub_rows(s)
        self._t_rows = labels.hub_rows(t)
        self._s_sizes = labels.hub_sizes(s)
        self._t_sizes = labels.hub_sizes(t)
        self._from_s: dict[int, tuple[int, int]] = {}
        self._from_t: dict[int, tuple[int, int]] = {}
        self._weight = _INF
        self._cost = _INF
        self.lookups = 0

    def ancestor(self, budget: float) -> int:
        """Binary-search the cost column of ``P_st``."""
        lo, hi = self._labels.pair_bounds(self._s, self._t)
        idx = best_under_cols(self._costs, lo, hi, budget)
        if idx >= 0:
            self._weight = self._weights[idx]
            self._cost = self._costs[idx]
        return hi - lo

    def estimated_cost(self, separator) -> int:
        return _estimated_cost(self, separator)

    def from_s(self, h: int) -> tuple[int, int]:
        """Bounds of ``P_sh`` (always stored in ``L(s)``)."""
        bounds = self._from_s.get(h)
        if bounds is None:
            i = self._s_rows.get(h)
            if i is None:
                raise IndexBuildError(
                    f"L({self._s}) has no skyline set for hub {h}; its "
                    "tree node is not an ancestor"
                )
            offsets = self._entry_offsets
            bounds = (offsets[i], offsets[i + 1])
            self._from_s[h] = bounds
            self.lookups += 1
        return bounds

    def from_t(self, h: int) -> tuple[int, int]:
        """Bounds of ``P_ht`` (always stored in ``L(t)``)."""
        bounds = self._from_t.get(h)
        if bounds is None:
            i = self._t_rows.get(h)
            if i is None:
                raise IndexBuildError(
                    f"L({self._t}) has no skyline set for hub {h}; its "
                    "tree node is not an ancestor"
                )
            offsets = self._entry_offsets
            bounds = (offsets[i], offsets[i + 1])
            self._from_t[h] = bounds
            self.lookups += 1
        return bounds

    def sizes(self, h: int) -> tuple[int, int]:
        s_lo, s_hi = self.from_s(h)
        t_lo, t_hi = self.from_t(h)
        return s_hi - s_lo, t_hi - t_lo

    def concat(self, h: int, budget: float) -> int:
        weights, costs = self._weights, self._costs
        s_lo, s_hi = self.from_s(h)
        t_lo, t_hi = self.from_t(h)
        self._weight, self._cost, inspected = sweep_best_pair(
            weights, costs, s_lo, s_hi,
            weights, costs, t_lo, t_hi,
            budget, self._weight, self._cost,
        )
        return inspected

    def best(self) -> tuple[float, float] | None:
        if self._weight < _INF:
            return _restore(self._weight), _restore(self._cost)
        return None

    def finish(self, query: CSPQuery, want_path: bool) -> QueryResult:
        best = self.best()
        if best is None:
            return QueryResult(query)
        if want_path:
            raise ReproError(
                "flat label columns keep no provenance; path retrieval "
                "needs an object index built with store_paths=True"
            )
        return QueryResult(query, weight=best[0], cost=best[1])


def _estimated_cost(access: _FlatAccess, separator) -> int:
    """``T(H) = Σ_h (|P_sh| + |P_ht|)`` — same values as the object
    :func:`~repro.core.separators.estimated_cost`, so ``min`` picks the
    same separator.  Two dict hits per hub; the sizes come from the
    store's lazily built per-vertex dicts, so estimation touches no
    entry bytes and allocates nothing."""
    s_sizes = access._s_sizes
    t_sizes = access._t_sizes
    total = 0
    try:
        for h in separator:
            total += s_sizes[h] + t_sizes[h]
    except KeyError as exc:
        raise IndexBuildError(
            f"hub {h} is missing from a query label; its tree node "
            "is not a common ancestor"
        ) from exc
    return total


class FlatIndex:
    """A queryable index whose labels are flat (possibly mmap) columns.

    The flat twin of :class:`~repro.core.engine.QHLIndex`: same
    attribute names (``network`` / ``tree`` / ``labels`` / ``lca`` /
    ``pruning``), same ``query`` / ``query_many`` / ``audit`` surface,
    so the batch executor, the audit, and the CLI treat both shapes
    uniformly.  Produced by
    :func:`repro.storage.flatfile.load_flat_index` or from an object
    index via :meth:`from_index`.
    """

    def __init__(
        self,
        network: RoadNetwork,
        tree: TreeDecomposition,
        labels: FlatLabelStore,
        lca: LCAIndex,
        pruning: PruningConditionIndex,
    ):
        self.network = network
        self.tree = tree
        self.labels = labels
        self.lca = lca
        self.pruning = pruning
        self._default_engine = FlatQHLEngine(tree, labels, lca, pruning)

    @classmethod
    def from_index(cls, index: "QHLIndex") -> "FlatIndex":
        """Pack an object index's labels into a flat index.

        Tree, LCA, network, and pruning conditions are shared (they are
        read-only at query time); only the labels are re-packed.
        """
        return cls(
            index.network,
            index.tree,
            FlatLabelStore.from_store(index.labels),
            index.lca,
            index.pruning,
        )

    # ------------------------------------------------------------------
    def qhl_engine(
        self, use_pruning_conditions: bool = True
    ) -> FlatQHLEngine:
        """A flat engine over this index (the audit spot-check uses
        this name, so flat indexes audit with their own hot path)."""
        return FlatQHLEngine(
            self.tree,
            self.labels,
            self.lca,
            self.pruning,
            use_pruning_conditions=use_pruning_conditions,
        )

    # Alias so index.flat_engine() works on both index shapes.
    flat_engine = qhl_engine

    def cached_engine(self, cache_size: int = 1024):
        """A frontier cache over flat columns.

        :class:`~repro.perf.cached_engine.CachedQHLEngine` only needs
        the ``label`` / ``get`` read API, which
        :class:`FlatLabelStore` speaks — cache hits answer in
        ``O(log k)`` with zero column reads.
        """
        from repro.perf.cached_engine import CachedQHLEngine

        return CachedQHLEngine(
            self.tree, self.labels, self.lca, cache=cache_size
        )

    def query(
        self,
        source: int,
        target: int,
        budget: float,
        want_path: bool = False,
        deadline: "Deadline | None" = None,
    ) -> QueryResult:
        """Answer a CSP query with the default flat engine."""
        return self._default_engine.query(
            source, target, budget, want_path=want_path, deadline=deadline
        )

    def query_many(
        self,
        queries: Sequence,
        want_path: bool = False,
        deadline_ms: float | None = None,
        batch_deadline_ms: float | None = None,
        workers: int = 0,
    ):
        """Batched queries; with ``workers >= 2`` the forked pool reads
        the mapped columns without copying them (page sharing is the
        point of the mmap load)."""
        from repro.perf.batch import execute_batch

        return execute_batch(
            self._default_engine,
            queries,
            want_path=want_path,
            deadline_ms=deadline_ms,
            batch_deadline_ms=batch_deadline_ms,
            workers=workers,
        )

    # ------------------------------------------------------------------
    def audit(self, queries: int = 8, seed: int = 0):
        """Deep self-audit; see :func:`repro.resilience.audit.audit_index`.

        Runs the same checks as an object index — flat stores add the
        ``flat-columns`` structural check (offset monotonicity, sorted
        hubs) — and spot-checks against constrained Dijkstra through
        the flat engine.
        """
        from repro.resilience.audit import audit_index

        return audit_index(self, queries=queries, seed=seed)
