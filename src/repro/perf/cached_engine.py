"""QHL behind a skyline-frontier cache.

:class:`CachedQHLEngine` answers ``(s, t, C)`` queries from the full
s-t skyline frontier instead of re-running the per-budget pipeline:

* **miss** — compute the exact frontier ``P_st`` once (labels +
  separator, no budget cap, *no pruning conditions*: conditions are
  budget-dependent, the frontier must hold for every budget) and cache
  it under the normalised pair;
* **hit** — answer by binary search (:func:`~repro.skyline.set_ops.
  best_under`) over the cached frontier in ``O(log k)`` with zero
  label work.

The frontier computation is exact for the same reason labels are: the
initial separator ``H`` is a vertex cut between ``s`` and ``t``, every
s-t path crosses some ``h ∈ H``, and the crossing path is dominated by
a concatenation of members of ``P_sh`` and ``P_ht``; so the skyline of
``⋃_h P_sh ⊗ P_ht`` is exactly ``P_st``.  The answer for any ``C`` is
then the lowest-weight frontier entry with ``cost <= C`` — the same
``(weight, cost)`` pair every other engine in this package returns
(they all pick the cheapest among minimum-weight answers).

``(weight, cost)`` pairs are bit-identical to the uncached
:class:`~repro.core.qhl.QHLEngine`; :class:`~repro.types.QueryStats`
are not (a hit does no label work), which is the point.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro.core.separators import (
    LabelFetcher,
    estimated_cost,
    initial_separators,
)
from repro.hierarchy.lca import LCAIndex
from repro.hierarchy.tree import TreeDecomposition
from repro.labeling.labels import LabelStore
from repro.observability.metrics import get_registry, observe_query
from repro.perf.cache import SkylineCache, normalize_pair
from repro.skyline.entries import expand, zero_entry
from repro.skyline.set_ops import SkylineSet, best_under, join, merge
from repro.types import CSPQuery, QueryResult, QueryStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.deadline import Deadline


class CachedQHLEngine:
    """QHL with an LRU of full s-t skyline frontiers.

    Shares the tree / labels / LCA of the index it came from (use
    :meth:`repro.core.engine.QHLIndex.cached_engine`), so cached and
    uncached engines answer over identical data.
    """

    name = "QHL+cache"

    def __init__(
        self,
        tree: TreeDecomposition,
        labels: LabelStore,
        lca: LCAIndex | None = None,
        cache: SkylineCache | int = 1024,
    ):
        self._tree = tree
        self._labels = labels
        self._lca = lca if lca is not None else LCAIndex(tree)
        self.cache = (
            cache if isinstance(cache, SkylineCache) else SkylineCache(cache)
        )
        self._label_version = getattr(labels, "version", 0)

    def _check_coherence(self) -> None:
        """Invalidate the cache if the labels moved under us.

        Every cached frontier was derived from the label store; a
        dynamic repair that changes any label bumps
        :attr:`~repro.labeling.labels.LabelStore.version`, and serving
        pre-update frontiers after that would be silently wrong (the
        stale-answer bug this guard closes).
        """
        version = getattr(self._labels, "version", 0)
        if version != self._label_version:
            self.cache.invalidate_all()
            self._label_version = version

    # ------------------------------------------------------------------
    def query(
        self,
        source: int,
        target: int,
        budget: float,
        want_path: bool = False,
        deadline: "Deadline | None" = None,
    ) -> QueryResult:
        """Answer one CSP query from the (possibly just-built) frontier."""
        query = CSPQuery(source, target, budget).validated(
            self._tree.num_vertices
        )
        stats = QueryStats()
        started = time.perf_counter()
        self._check_coherence()
        if deadline is not None:
            deadline.check(stats)
        if source == target:
            result = QueryResult(
                query, weight=0, cost=0,
                path=[source] if want_path else None,
            )
        else:
            frontier = self.cache.get(source, target)
            if frontier is None:
                frontier = self._compute_frontier(
                    source, target, stats, deadline
                )
                self.cache.put(source, target, frontier)
            best = best_under(frontier, budget)
            if best is None:
                result = QueryResult(query)
            else:
                path = expand(best, source, target) if want_path else None
                result = QueryResult(
                    query, weight=best[0], cost=best[1], path=path
                )
        stats.seconds = time.perf_counter() - started
        result.stats = stats
        registry = get_registry()
        if registry.enabled:
            observe_query(registry, self.name, stats)
        return result

    # ------------------------------------------------------------------
    def frontier(
        self,
        source: int,
        target: int,
        deadline: "Deadline | None" = None,
    ) -> SkylineSet:
        """The exact skyline frontier ``P_st``, through the cache."""
        self._check_coherence()
        if source == target:
            return [zero_entry(source, with_prov=self._labels.store_paths)]
        cached = self.cache.get(source, target)
        if cached is not None:
            return cached
        frontier = self._compute_frontier(
            source, target, QueryStats(), deadline
        )
        self.cache.put(source, target, frontier)
        return frontier

    def _compute_frontier(
        self,
        source: int,
        target: int,
        stats: QueryStats,
        deadline: "Deadline | None" = None,
    ) -> SkylineSet:
        """Compute the full exact ``P_st`` (the cache-miss path).

        Works on the normalised pair so both orientations produce the
        identical frontier object; entries expand in either direction
        (the network is undirected).
        """
        s, t = normalize_pair(source, target)
        lca_v, s_is_anc, t_is_anc = self._lca.relation(s, t)
        if s_is_anc or t_is_anc:
            # The label set *is* the frontier for ancestor pairs.
            stats.label_lookups += 1
            return self._labels.get(s, t)

        c_s, h_s, c_t, h_t = initial_separators(self._tree, lca_v, s, t)
        fetcher = LabelFetcher(self._labels, s, t)
        # Either initial separator alone is a full s-t cut; take the one
        # with the smaller estimated concatenation cost.  Pruning
        # conditions are deliberately NOT applied: a pruned separator is
        # only valid below its condition's budget threshold, while the
        # frontier must answer every budget.
        hoplinks = min(
            (h_s, h_t), key=lambda h: estimated_cost(fetcher, h)
        )
        stats.hoplinks = len(hoplinks)
        acc: SkylineSet = []
        for h in hoplinks:
            if deadline is not None:
                deadline.check(stats)
            p_sh = fetcher.from_s(h)
            p_ht = fetcher.from_t(h)
            stats.concatenations += len(p_sh) * len(p_ht)
            through_h = join(p_sh, p_ht, mid=h)
            acc = merge(acc, through_h) if acc else through_h
        stats.label_lookups += fetcher.lookups
        return acc

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CachedQHLEngine({self.cache!r})"
