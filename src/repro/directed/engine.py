"""Directed QHL and CSP-2Hop query engines.

Identical pipeline to the undirected engines, with label lookups split
by direction: a hoplink ``h`` contributes ``P(s→h) ⊗ P(h→t)``, where
``P(s→h)`` is the *forward* set in ``L(s)`` and ``P(h→t)`` the
*backward* set in ``L(t)``.  :class:`DirectedQHLEngine` runs the shared
Algorithm-3 pipeline (:class:`~repro.core.qhl.Algorithm3Engine`) and
differs from the undirected engine only in its label-access object.

Pruning conditions gain a *role*: a condition learned for ``v_end`` as
a **source** (``P(v_end→h) ⊆ P(v_end→u) ⊗ P(u→h)``) only fires when the
query's ``s`` equals ``v_end``; a **target**-role condition
(``P(h→v_end) ⊆ P(h→u) ⊗ P(u→v_end)``) only fires on matching ``t``.
Theorem 1's redirect argument goes through unchanged per role.
"""

from __future__ import annotations

import random
import time
from typing import Iterable

from repro.core.concatenation import concat_best_under, concat_cartesian
from repro.core.pruning import PruningConditionIndex, compute_cub
from repro.core.qhl import Algorithm3Engine, LabelAccess
from repro.core.separators import initial_separators
from repro.directed.index import (
    DirectedLabelStore,
    build_directed_labels,
    build_directed_tree,
)
from repro.directed.network import DirectedRoadNetwork
from repro.hierarchy.lca import LCAIndex
from repro.hierarchy.tree import TreeDecomposition
from repro.skyline.entries import Entry, expand, join_entry
from repro.skyline.set_ops import SkylineSet, best_under
from repro.types import CSPQuery, QueryResult, QueryStats


class DirectedCSP2HopEngine:
    """Algorithm 2 over a directed label index."""

    name = "CSP-2Hop(directed)"

    def __init__(
        self,
        tree: TreeDecomposition,
        labels: DirectedLabelStore,
        lca: LCAIndex | None = None,
    ):
        self._tree = tree
        self._labels = labels
        self._lca = lca if lca is not None else LCAIndex(tree)

    def query(
        self, source: int, target: int, budget: float,
        want_path: bool = False,
    ) -> QueryResult:
        query = CSPQuery(source, target, budget).validated(
            self._tree.num_vertices
        )
        stats = QueryStats()
        started = time.perf_counter()
        result = self._answer(query, stats, want_path)
        stats.seconds = time.perf_counter() - started
        result.stats = stats
        return result

    def _answer(
        self, query: CSPQuery, stats: QueryStats, want_path: bool
    ) -> QueryResult:
        s, t, budget = query
        if s == t:
            return QueryResult(
                query, weight=0, cost=0, path=[s] if want_path else None
            )
        lca, s_is_anc, t_is_anc = self._lca.relation(s, t)
        if s_is_anc or t_is_anc:
            entries = self._labels.forward(s, t)
            stats.label_lookups += 1
            best = best_under(entries, budget)
            return _finish(query, best, want_path)

        hoplinks = self._tree.bag_with_self(lca)
        stats.hoplinks = len(hoplinks)
        label_s = self._labels.label(s)
        label_t = self._labels.label(t)
        best: Entry | None = None
        for h in hoplinks:
            p_sh = label_s[h][0]   # s -> h
            p_ht = label_t[h][1]   # h -> t
            stats.label_lookups += 2
            for p1 in p_sh:
                w1, c1 = p1[0], p1[1]
                for p2 in p_ht:
                    stats.concatenations += 1
                    total_c = c1 + p2[1]
                    if total_c > budget:
                        continue
                    total_w = w1 + p2[0]
                    if best is None or (total_w, total_c) < (
                        best[0], best[1]
                    ):
                        best = join_entry(p1, p2, mid=h)
        return _finish(query, best, want_path)


class DirectedQHLEngine(Algorithm3Engine):
    """Algorithm 3 over a directed label index."""

    name = "QHL(directed)"

    def __init__(
        self,
        tree: TreeDecomposition,
        labels: DirectedLabelStore,
        lca: LCAIndex | None = None,
        pruning_source: PruningConditionIndex | None = None,
        pruning_target: PruningConditionIndex | None = None,
        use_pruning_conditions: bool = True,
        use_two_pointer: bool = True,
    ):
        self._tree = tree
        self._labels = labels
        self._lca = lca if lca is not None else LCAIndex(tree)
        self._pruning = pruning_source
        self._target_pruning = pruning_target
        self.use_pruning_conditions = use_pruning_conditions and (
            pruning_source is not None and pruning_target is not None
        )
        self.use_two_pointer = use_two_pointer

    def _access(self, s: int, t: int) -> "_DirectedAccess":
        return _DirectedAccess(
            self._labels,
            s,
            t,
            concat_best_under if self.use_two_pointer else concat_cartesian,
        )


class _DirectedAccess(LabelAccess):
    """:class:`~repro.core.qhl.LabelAccess` split by direction.

    ``P(s→h)`` is the forward set of ``L(s)[h]``, ``P(h→t)`` the
    backward set of ``L(t)[h]``.  ``lookups`` counts the two sets of
    each distinct hub that cost estimation sizes; concatenation re-reads
    sets estimation already sized, uncounted.
    """

    __slots__ = ()

    def ancestor(self, budget: float) -> int:
        entries = self._labels.forward(self._s, self._t)
        self._best = best_under(entries, budget)
        return len(entries)

    def from_s(self, h: int) -> SkylineSet:
        return self._label_s[h][0]

    def from_t(self, h: int) -> SkylineSet:
        return self._label_t[h][1]

    def pair_size(self, h: int) -> int:
        size = self._sizes.get(h)
        if size is None:
            size = len(self.from_s(h)) + len(self.from_t(h))
            self._sizes[h] = size
            self.lookups += 2
        return size


def _finish(
    query: CSPQuery, best: Entry | None, want_path: bool = False
) -> QueryResult:
    if best is None:
        return QueryResult(query)
    path = None
    if want_path:
        path = expand(best, query.source, query.target)
    return QueryResult(query, weight=best[0], cost=best[1], path=path)


# ----------------------------------------------------------------------
# Pruning-condition construction (directed, per role)
# ----------------------------------------------------------------------
def _build_condition_directed(
    labels: DirectedLabelStore,
    separator,
    v_end: int,
    role: str,
    rng: random.Random,
    index: PruningConditionIndex,
    pair_cache: dict,
) -> dict[int, float]:
    """Algorithm 7, per direction.

    ``role="source"`` prunes over ``P(v_end→h)``; ``role="target"`` over
    ``P(h→v_end)``.  An ``h`` with an empty set can never host the
    optimum, so it gets ``C_ub = +inf`` outright.
    """
    if role == "source":
        def sets_to(h):
            return labels.forward(v_end, h)
    else:
        def sets_to(h):
            return labels.forward(h, v_end)

    reachable = [h for h in separator if sets_to(h)]
    bounds: dict[int, float] = {
        h: float("inf") for h in separator if not sets_to(h)
    }
    ordered = sorted(reachable, key=lambda h: sets_to(h)[0][1])
    separator_set = set(reachable)
    for i in range(1, len(ordered)):
        h = ordered[i]
        cached = pair_cache.get((role, v_end, h))
        if cached is not None and cached[0] in separator_set:
            index.cache_hits += 1
            bounds[h] = cached[1]
            continue
        u = ordered[rng.randrange(i)]
        if role == "source":
            cub = compute_cub(
                sets_to(h), labels.forward(v_end, u),
                labels.forward(u, h), mid=u,
            )
        else:
            cub = compute_cub(
                sets_to(h), labels.forward(h, u),
                labels.forward(u, v_end), mid=u,
            )
        index.algorithm6_calls += 1
        if cub > 0:
            bounds[h] = cub
            pair_cache[(role, v_end, h)] = (u, cub)
    return bounds


def build_directed_pruning(
    tree: TreeDecomposition,
    labels: DirectedLabelStore,
    lca: LCAIndex,
    index_queries: Iterable[CSPQuery],
    seed: int = 0,
) -> tuple[PruningConditionIndex, PruningConditionIndex]:
    """§4.2 driven by a workload, one condition store per role."""
    started = time.perf_counter()
    rng = random.Random(seed)
    source_index = PruningConditionIndex()
    target_index = PruningConditionIndex()
    pair_cache: dict = {}

    for query in index_queries:
        s, t = query.source, query.target
        if s == t:
            continue
        lca_v, s_is_anc, t_is_anc = lca.relation(s, t)
        if s_is_anc or t_is_anc:
            continue
        c_s, h_s, c_t, h_t = initial_separators(tree, lca_v, s, t)
        for child, separator in ((c_s, h_s), (c_t, h_t)):
            if len(separator) < 2:
                continue
            if not source_index.has(child, s):
                source_index.add(
                    child, s,
                    _build_condition_directed(
                        labels, separator, s, "source", rng,
                        source_index, pair_cache,
                    ),
                )
            if not target_index.has(child, t):
                target_index.add(
                    child, t,
                    _build_condition_directed(
                        labels, separator, t, "target", rng,
                        target_index, pair_cache,
                    ),
                )
    elapsed = time.perf_counter() - started
    source_index.build_seconds = elapsed
    target_index.build_seconds = elapsed
    return source_index, target_index


# ----------------------------------------------------------------------
# Facade
# ----------------------------------------------------------------------
class DirectedQHLIndex:
    """The complete directed QHL index over one directed road network."""

    def __init__(self, network, tree, labels, lca, pruning_source,
                 pruning_target):
        self.network = network
        self.tree = tree
        self.labels = labels
        self.lca = lca
        self.pruning_source = pruning_source
        self.pruning_target = pruning_target
        self._default = self.qhl_engine()

    @classmethod
    def build(
        cls,
        network: DirectedRoadNetwork,
        index_queries: Iterable[CSPQuery] | None = None,
        num_index_queries: int = 2000,
        store_paths: bool = False,
        seed: int = 0,
    ) -> "DirectedQHLIndex":
        tree, shortcuts = build_directed_tree(
            network, store_paths=store_paths
        )
        labels = build_directed_labels(
            tree, shortcuts, store_paths=store_paths
        )
        lca = LCAIndex(tree)
        if index_queries is None:
            rng = random.Random(seed)
            n = network.num_vertices
            index_queries = [
                CSPQuery(rng.randrange(n), rng.randrange(n), 0)
                for _ in range(num_index_queries)
            ]
            index_queries = [
                q for q in index_queries if q.source != q.target
            ]
        source_index, target_index = build_directed_pruning(
            tree, labels, lca, index_queries, seed=seed
        )
        return cls(network, tree, labels, lca, source_index, target_index)

    def qhl_engine(self, **flags) -> DirectedQHLEngine:
        return DirectedQHLEngine(
            self.tree, self.labels, self.lca,
            self.pruning_source, self.pruning_target, **flags,
        )

    def csp2hop_engine(self) -> DirectedCSP2HopEngine:
        return DirectedCSP2HopEngine(self.tree, self.labels, self.lca)

    def query(self, source: int, target: int, budget: float) -> QueryResult:
        return self._default.query(source, target, budget)
