"""The CSP-2Hop query algorithm (paper Algorithm 2) — the best-known
prior solution QHL is measured against.

Uses exactly the same tree decomposition and labels as QHL.  The
difference is all at query time: CSP-2Hop takes the whole LCA bag
``X(l)`` as hoplinks and performs the full Cartesian concatenation
``P_sh × P_ht`` per hoplink (with the budget only used as a filter),
costing ``O(|X(l)| · |P_sh| · |P_ht|)``.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro.hierarchy.lca import LCAIndex
from repro.hierarchy.tree import TreeDecomposition
from repro.labeling.labels import LabelStore
from repro.observability.metrics import get_registry, observe_query
from repro.observability.tracing import NULL_TRACER, SpanTracer, get_tracer
from repro.skyline.entries import Entry, expand, join_entry, restore
from repro.skyline.set_ops import best_under
from repro.types import CSPQuery, QueryResult, QueryStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.deadline import Deadline
    from repro.storage.flat import FlatLabelStore

_INF = float("inf")


class CSP2HopEngine:
    """Query engine implementing Algorithm 2 over a shared label index."""

    name = "CSP-2Hop"

    def __init__(
        self,
        tree: TreeDecomposition,
        labels: "LabelStore | FlatLabelStore",
        lca: LCAIndex | None = None,
    ):
        self._tree = tree
        self._labels = labels
        self._lca = lca if lca is not None else LCAIndex(tree)
        # Flat columns (a FlatLabelStore) are read by row, not as
        # materialised entries.
        self._cartesian = (
            self._cartesian_entries
            if isinstance(labels, LabelStore)
            else self._cartesian_columns
        )

    def query(
        self,
        source: int,
        target: int,
        budget: float,
        want_path: bool = False,
        deadline: "Deadline | None" = None,
    ) -> QueryResult:
        """Answer one CSP query exactly (Algorithm 2).

        ``deadline`` is checked cooperatively per hoplink.
        """
        query = CSPQuery(source, target, budget).validated(
            self._tree.num_vertices
        )
        stats = QueryStats()
        tracer = get_tracer()
        registry = get_registry()
        if not (tracer.enabled or registry.enabled):
            started = time.perf_counter()
            result = self._answer(
                query, stats, want_path, NULL_TRACER, deadline
            )
            stats.seconds = time.perf_counter() - started
            result.stats = stats
            return result
        if not tracer.enabled:
            tracer = SpanTracer()
        started = time.perf_counter()
        with tracer.span("csp2hop.query") as root:
            result = self._answer(query, stats, want_path, tracer, deadline)
        stats.seconds = time.perf_counter() - started
        root.set("hoplinks", stats.hoplinks)
        root.set("concatenations", stats.concatenations)
        root.set("label_lookups", stats.label_lookups)
        if registry.enabled:
            observe_query(registry, self.name, stats, root.children)
        result.stats = stats
        return result

    def _answer(
        self,
        query: CSPQuery,
        stats: QueryStats,
        want_path: bool,
        tracer: SpanTracer = NULL_TRACER,
        deadline: "Deadline | None" = None,
    ) -> QueryResult:
        s, t, budget = query
        if deadline is not None:
            deadline.check(stats)
        if s == t:
            return QueryResult(
                query, weight=0, cost=0, path=[s] if want_path else None
            )
        with tracer.span("lca"):
            lca, s_is_anc, t_is_anc = self._lca.relation(s, t)

        # Lines 2-5: ancestor-descendant fast path.
        if s_is_anc or t_is_anc:
            with tracer.span("label-lookup") as span:
                entries = self._labels.get(s, t)
                stats.label_lookups += 1
                best = best_under(entries, budget)
                span.set("entries", len(entries))
            return self._finish(query, best, s, t, want_path)

        # Lines 7-8: hoplinks = X(l), full Cartesian concatenation.
        hoplinks = self._tree.bag_with_self(lca)
        stats.hoplinks = len(hoplinks)
        with tracer.span("concatenation") as span:
            best = self._cartesian(s, t, hoplinks, budget, stats, deadline)
            span.set("hoplinks", stats.hoplinks)
            span.set("concatenations", stats.concatenations)
            span.set("label_lookups", stats.label_lookups)
        return self._finish(query, best, s, t, want_path)

    def _cartesian_entries(
        self, s: int, t: int, hoplinks, budget: float, stats: QueryStats,
        deadline: "Deadline | None",
    ) -> Entry | None:
        """Lines 7-8 over object labels: every pair of entries."""
        # Hoplinks are ancestors of both endpoints: their sets sit in
        # L(s) / L(t) directly, at the hoplink's depth.
        labels = self._labels
        label_s, label_t = labels.label(s), labels.label(t)
        depth = labels.depth
        best: Entry | None = None
        for h in hoplinks:
            if deadline is not None:
                deadline.check(stats)
            d = depth[h]
            p_sh = label_s[d]
            p_ht = label_t[d]
            stats.label_lookups += 2
            for p1 in p_sh:
                c1 = p1[1]
                w1 = p1[0]
                for p2 in p_ht:
                    stats.concatenations += 1
                    # The Cartesian product is the unbounded part of
                    # this baseline; check on the heap-loop cadence.
                    if (
                        deadline is not None
                        and not stats.concatenations & 0xFF
                    ):
                        deadline.check(stats)
                    total_c = c1 + p2[1]
                    if total_c > budget:
                        continue
                    total_w = w1 + p2[0]
                    if best is None or (
                        (total_w, total_c) < (best[0], best[1])
                    ):
                        best = join_entry(p1, p2, mid=h)
        return best

    def _cartesian_columns(
        self, s: int, t: int, hoplinks, budget: float, stats: QueryStats,
        deadline: "Deadline | None",
    ) -> Entry | None:
        """Lines 7-8 over flat columns: the same pairs in the same
        order as :meth:`_cartesian_entries`, read as column rows.

        Materialising each hoplink's sets as entries costs more than
        the whole Cartesian product on small sets (about twice the
        query time on NY, ``docs/performance.md``), so this reads the
        rows in place and joins the winning pair only.  The hoplinks'
        bounds come checked from the store's ancestor-depth lookup.
        """
        labels = self._labels
        weights, costs = labels.weights, labels.costs
        best_w = best_c = _INF
        win = None
        for a_lo, a_hi, b_lo, b_hi, h in labels.by_depth().hoplink_bounds(
            s, t, hoplinks
        ):
            if deadline is not None:
                deadline.check(stats)
            stats.label_lookups += 2
            rows_b = range(b_lo, b_hi)
            stats.concatenations += (a_hi - a_lo) * len(rows_b)
            for a in range(a_lo, a_hi):
                # The Cartesian product is the unbounded part of this
                # baseline: check once per row of P_sh.
                if deadline is not None:
                    deadline.check(stats)
                c1 = costs[a]
                w1 = weights[a]
                for b in rows_b:  # lint: allow=QHL001 bounded by |P_ht|; the row loop checks
                    total_c = c1 + costs[b]
                    if total_c > budget:
                        continue
                    total_w = w1 + weights[b]
                    if total_w < best_w or (
                        total_w == best_w and total_c < best_c
                    ):
                        best_w, best_c, win = total_w, total_c, (a, b, h)
        if win is None:
            return None
        a, b, h = win
        return join_entry(labels.entry(a), labels.entry(b), mid=h)

    def _finish(
        self,
        query: CSPQuery,
        best: Entry | None,
        s: int,
        t: int,
        want_path: bool,
    ) -> QueryResult:
        if best is None:
            return QueryResult(query)
        path = expand(best, s, t) if want_path else None
        return QueryResult(
            query, weight=restore(best[0]), cost=restore(best[1]), path=path
        )
