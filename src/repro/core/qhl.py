"""The QHL query algorithm (paper §3, Algorithm 3).

Pipeline for a non-ancestor-descendant query ``(s, t, C)``:

1. **Separator initialisation** (§3.2) — candidates ``H(s)``, ``H(t)``
   from the LCA's children, both subsets of ``X(l)``.
2. **Separator pruning** (§3.3, Algorithm 4) — each candidate that has a
   matching pruning condition (``v_end ∈ {s, t}``) is replaced by its
   pruned variant(s); each variant applies a *single* end-vertex's
   condition (mixing two conditions in one candidate could create pruning
   cycles and lose the answer — see DESIGN.md §5).  |H| ends up 2..4.
3. **Hoplink selection** — the candidate with the smallest estimated cost
   ``T(H) = Σ_h (|P_sh| + |P_ht|)`` becomes ``Hoplinks``.
4. **Path concatenation** (§3.4, Algorithm 5) — a two-pointer sweep per
   hoplink; the best ``p*_h`` across hoplinks is the answer.

:meth:`Algorithm3Engine._algorithm3` is the one implementation of these
steps.  The object engine (:class:`QHLEngine`), the flat-column engine
(:class:`~repro.core.flat.FlatQHLEngine`) and the directed engine
(:class:`~repro.directed.engine.DirectedQHLEngine`) differ only in the
per-query *label-access object* they hand it, which implements:

* ``ancestor(budget)`` — the lines 2-5 fast path: keep the best entry
  of the one label set ``P_st`` under the budget, return the set size;
* ``estimated_cost(separator)`` — ``T(H)`` for line 9;
* ``concat(h, budget)`` — Algorithm 5 for one hoplink, keeping the best
  answer so far; returns the number of inspected pairs;
* ``finish(query, want_path)`` — the :class:`~repro.types.QueryResult`;
* ``lookups`` — skyline-set fetches, for :class:`~repro.types.QueryStats`;
* ``sizes(h)`` and ``best()`` — read only by phase hooks.

A *phase hook* is an optional callable ``hook(phase, access, value)``
invoked as each phase ends (``lca``, ``label-lookup``,
``separator-init``, ``pruning``, ``hoplink-select``, one ``hoplink``
per concatenated hoplink, ``concatenation``).  It is ``None`` on the
hot path, which then pays one ``is None`` check per phase; the tracing
hook (:class:`_TraceHook`) rebuilds the ``qhl.query`` span tree and the
explain hook (:class:`~repro.core.explain.ExplainHook`) fills a
:class:`~repro.core.explain.QueryExplanation`.

Ablation switches reproduce the paper's Figure 8 variants:
``use_pruning_conditions=False`` ("QHL-w/o Alg. 3/4") skips step 2;
``use_two_pointer=False`` ("QHL-w/o Alg. 4/5") replaces the sweep with the
Cartesian product.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro.core.concatenation import (
    concat_best_under,
    concat_cartesian,
    rejoin_with_mid,
)
from repro.core.pruning import PruningConditionIndex
from repro.core.separators import (
    LabelFetcher,
    estimated_cost,
    initial_separators,
)
from repro.hierarchy.lca import LCAIndex
from repro.hierarchy.tree import TreeDecomposition
from repro.labeling.labels import LabelStore
from repro.observability.metrics import get_registry, observe_query
from repro.observability.tracing import Span, SpanTracer, get_tracer
from repro.skyline.entries import Entry, expand
from repro.skyline.set_ops import best_under
from repro.types import CSPQuery, QueryResult, QueryStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.deadline import Deadline


class Algorithm3Engine:
    """Algorithm 3 over a label index; subclasses supply the label access.

    A subclass sets ``name``, ``_tree``, ``_lca``, ``_pruning`` (the
    conditions that fire on ``s``), ``_target_pruning`` (those that fire
    on ``t``; ``None`` when ``_pruning`` serves both ends) and
    ``use_pruning_conditions``, and implements ``_access(s, t)``.
    """

    name: str
    _tree: TreeDecomposition
    _lca: LCAIndex
    _pruning: PruningConditionIndex | None
    _target_pruning: PruningConditionIndex | None = None
    use_pruning_conditions: bool

    def _access(self, s: int, t: int):
        raise NotImplementedError

    # ------------------------------------------------------------------
    def query(
        self,
        source: int,
        target: int,
        budget: float,
        want_path: bool = False,
        deadline: "Deadline | None" = None,
    ) -> QueryResult:
        """Answer one CSP query exactly (Algorithm 3).

        ``deadline`` (a :class:`~repro.service.deadline.Deadline`) is
        checked cooperatively in the hoplink loop; on expiry a
        :class:`~repro.exceptions.DeadlineExceededError` carries the
        partial stats.
        """
        query = CSPQuery(source, target, budget).validated(
            self._tree.num_vertices
        )
        stats = QueryStats()
        tracer = get_tracer()
        registry = get_registry()
        if not (tracer.enabled or registry.enabled):
            started = time.perf_counter()
            result = self._algorithm3(query, stats, want_path, deadline)
            stats.seconds = time.perf_counter() - started
            result.stats = stats
            return result
        if not tracer.enabled:
            # Metrics-only mode: a throwaway tracer collects the phase
            # durations the per-phase histograms need.
            tracer = SpanTracer()
        started = time.perf_counter()
        with tracer.span("qhl.query") as root:
            result = self._algorithm3(
                query, stats, want_path, deadline, _TraceHook(root)
            )
        stats.seconds = time.perf_counter() - started
        root.set("hoplinks", stats.hoplinks)
        root.set("concatenations", stats.concatenations)
        root.set("label_lookups", stats.label_lookups)
        root.set("candidates", stats.candidates)
        if registry.enabled:
            observe_query(registry, self.name, stats, root.children)
        result.stats = stats
        return result

    def explain(self, source: int, target: int, budget: float):
        """Re-run the query recording every planning decision.

        Returns a :class:`repro.core.explain.QueryExplanation`; its
        ``render()`` produces the paper's Example-10-to-15 style
        narration for any query.
        """
        from repro.core.explain import ExplainHook

        query = CSPQuery(source, target, budget).validated(
            self._tree.num_vertices
        )
        ends: tuple = ()
        if self.use_pruning_conditions:
            target_pruning = self._target_pruning
            if target_pruning is None:
                target_pruning = self._pruning
            ends = (
                (self._pruning, query.source),
                (target_pruning, query.target),
            )
        hook = ExplainHook(query, ends)
        result = self._algorithm3(query, QueryStats(), hook=hook)
        hook.trace.answer = result.pair()
        return hook.trace

    # ------------------------------------------------------------------
    def _algorithm3(
        self,
        query: CSPQuery,
        stats: QueryStats,
        want_path: bool = False,
        deadline: "Deadline | None" = None,
        hook=None,
    ) -> QueryResult:
        s, t, budget = query
        if deadline is not None:
            deadline.check(stats)
        if s == t:
            return QueryResult(
                query, weight=0, cost=0, path=[s] if want_path else None
            )
        access = self._access(s, t)
        lca_v, s_is_anc, t_is_anc = self._lca.relation(s, t)
        if hook is not None:
            hook("lca", access, lca_v)

        # Lines 2-5: ancestor-descendant fast path (as in CSP-2Hop).
        if s_is_anc or t_is_anc:
            stats.label_lookups += 1
            size = access.ancestor(budget)
            if hook is not None:
                hook("label-lookup", access, size)
            return access.finish(query, want_path)

        # Line 7: initial separators.
        c_s, h_s, c_t, h_t = initial_separators(self._tree, lca_v, s, t)
        initial = ((c_s, h_s), (c_t, h_t))
        if hook is not None:
            hook("separator-init", access, initial)

        # Line 8: separator pruning (Algorithm 4 per initial separator).
        candidates = candidate_separators(
            self._pruning if self.use_pruning_conditions else None,
            initial,
            s,
            t,
            budget,
            self._target_pruning,
        )
        stats.candidates = len(candidates)
        if hook is not None:
            hook("pruning", access, candidates)

        # Line 9: the candidate with the smallest estimated cost (the
        # first one on ties).
        hoplinks = min(candidates, key=access.estimated_cost)
        stats.hoplinks = len(hoplinks)
        if hook is not None:
            hook("hoplink-select", access, hoplinks)

        # Lines 10-12: per-hoplink concatenation.
        concat = access.concat
        for h in hoplinks:
            if deadline is not None:
                deadline.check(stats)
            inspected = concat(h, budget)
            stats.concatenations += inspected
            if hook is not None:
                hook("hoplink", access, (h, inspected))
        stats.label_lookups += access.lookups
        if hook is not None:
            hook("concatenation", access, None)
        return access.finish(query, want_path)


class QHLEngine(Algorithm3Engine):
    """Query-aware hop labeling engine over a shared label index."""

    name = "QHL"

    def __init__(
        self,
        tree: TreeDecomposition,
        labels: LabelStore,
        lca: LCAIndex | None = None,
        pruning: PruningConditionIndex | None = None,
        use_pruning_conditions: bool = True,
        use_two_pointer: bool = True,
    ):
        self._tree = tree
        self._labels = labels
        self._lca = lca if lca is not None else LCAIndex(tree)
        self._pruning = pruning
        self.use_pruning_conditions = use_pruning_conditions and (
            pruning is not None
        )
        self.use_two_pointer = use_two_pointer

    # Bound on the class itself: benchmarks/e2e/layers.py wraps each
    # engine class's own ``query`` attribute.
    query = Algorithm3Engine.query

    def _access(self, s: int, t: int) -> "LabelAccess":
        return LabelAccess(
            self._labels,
            s,
            t,
            concat_best_under if self.use_two_pointer else concat_cartesian,
        )


class LabelAccess(LabelFetcher):
    """Per-query access to an object label store, plus the best answer.

    ``P_sh`` / ``P_ht`` come memoised from the
    :class:`~repro.core.separators.LabelFetcher` it extends; ``concat``
    is Algorithm 5 (or the Cartesian ablation) over those entry lists.
    The winning entry is re-stamped with its hoplink only in
    :meth:`finish`, so path expansion splits at the right vertex.
    """

    __slots__ = ("_labels", "_s", "_t", "_concat", "_best", "_hop")

    def __init__(self, labels, s: int, t: int, concat):
        super().__init__(labels, s, t)
        self._labels = labels
        self._s = s
        self._t = t
        self._concat = concat
        self._best: Entry | None = None
        self._hop: int | None = None

    def ancestor(self, budget: float) -> int:
        entries = self._labels.get(self._s, self._t)
        self._best = best_under(entries, budget)
        return len(entries)

    def estimated_cost(self, separator) -> int:
        return estimated_cost(self, separator)

    def sizes(self, h: int) -> tuple[int, int]:
        return len(self.from_s(h)), len(self.from_t(h))

    def concat(self, h: int, budget: float) -> int:
        best = self._best
        prune = (best[0], best[1]) if best is not None else None
        found, inspected = self._concat(
            self.from_s(h), self.from_t(h), budget, prune=prune
        )
        if found is not None:
            # concat only returns entries better than `prune`.
            self._best = found
            self._hop = h
        return inspected

    def best(self) -> tuple[float, float] | None:
        best = self._best
        return (best[0], best[1]) if best is not None else None

    def finish(self, query: CSPQuery, want_path: bool) -> QueryResult:
        best = self._best
        if best is None:
            return QueryResult(query)
        if self._hop is not None:
            best = rejoin_with_mid(best, self._hop)
        path = expand(best, self._s, self._t) if want_path else None
        return QueryResult(query, weight=best[0], cost=best[1], path=path)


class _TraceHook:
    """Rebuilds the ``qhl.query`` span tree from the phase events.

    Each event closes one phase: its span runs from the previous phase's
    end to now, and the per-hoplink spans nest under ``concatenation``.
    Spans are attached to ``root`` directly, so an exception part-way
    (an expired deadline) leaves no span open on the tracer.
    """

    __slots__ = ("_root", "_phase_start", "_mark", "_hops")

    def __init__(self, root: Span):
        self._root = root
        self._phase_start = self._mark = root.started
        self._hops: list[Span] = []

    def __call__(self, phase: str, access, value) -> None:
        now = time.perf_counter()
        span = Span(phase)
        if phase == "hoplink":
            h, inspected = value
            size_sh, size_ht = access.sizes(h)
            span.set("hub", h)
            span.set("size_sh", size_sh)
            span.set("size_ht", size_ht)
            span.set("inspected", inspected)
            span.started = self._mark
            span.duration = now - self._mark
            self._mark = now
            self._hops.append(span)
            return
        if phase == "label-lookup":
            span.set("entries", value)
        elif phase == "separator-init":
            span.set("separator_sizes", sum(len(h) for _c, h in value))
        elif phase == "pruning":
            span.set("candidates", len(value))
        elif phase == "hoplink-select":
            span.set("hoplinks", len(value))
        elif phase == "concatenation":
            span.children = self._hops
            span.set("hoplinks", len(self._hops))
            span.set(
                "concatenations",
                sum(hop.counters["inspected"] for hop in self._hops),
            )
            span.set("label_lookups", access.lookups)
        span.started = self._phase_start
        span.duration = now - self._phase_start
        self._phase_start = self._mark = now
        self._root.children.append(span)


def candidate_separators(
    pruning: PruningConditionIndex | None,
    initial: tuple[tuple[int, tuple[int, ...]], ...],
    s: int,
    t: int,
    budget: float,
    target_pruning: PruningConditionIndex | None = None,
) -> list[tuple[int, ...]]:
    """Algorithm 4, applied to each initial separator.

    Per separator: if a condition matches ``s`` and/or ``t``, its pruned
    variant(s) replace the original; otherwise the original stays.
    Result size is 2..4.  ``pruning=None`` skips condition pruning (the
    Figure 8 ablation).  ``target_pruning`` holds the conditions that
    fire on ``t`` when they are learned separately (a directed index
    keeps one store per role); by default ``pruning`` serves both ends.

    Candidate *order* feeds the ``min``-by-estimated-cost hoplink choice,
    so this one implementation guarantees every engine picks the same
    separator on ties.
    """
    candidates: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    if pruning is not None:
        ends = (
            (pruning, s),
            (pruning if target_pruning is None else target_pruning, t),
        )
    for child, separator in initial:
        if pruning is not None:
            pruned_any = False
            for index, v_end in ends:
                pruned = index.prune(child, v_end, separator, budget)
                # Corollary 1 guarantees a pruned separator is never
                # empty; the emptiness check is a defensive guard so
                # a bad condition could only cost speed, not answers.
                if pruned and pruned not in seen:
                    candidates.append(pruned)
                    seen.add(pruned)
                    pruned_any = True
            if pruned_any:
                continue
        separator = tuple(separator)
        if separator not in seen:
            candidates.append(separator)
            seen.add(separator)
    return candidates
