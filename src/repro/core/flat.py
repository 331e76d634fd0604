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

Paths come from the store's provenance columns, when it has them (an
index built with ``store_paths=True`` and saved): the access keeps the
rows of the winning pair — or of the ancestor fast path's entry — and
:meth:`~repro.storage.flat.FlatLabelStore.walk` unfolds them.  The
winner is the pair the object sweep picks, so paths are identical too.

A :class:`~repro.core.engine.QHLIndex` whose labels are a
:class:`~repro.storage.flat.FlatLabelStore` (every built index, and
what :func:`repro.storage.flatfile.load_flat_index` returns) hands out
this engine by default.
"""

from __future__ import annotations

from repro.core.pruning import PruningConditionIndex
from repro.core.qhl import Algorithm3Engine
# Not called here (the pipeline runs them from repro.core.qhl); still
# exported because benchmarks/e2e/layers.py TARGETS names them here.
from repro.core.qhl import candidate_separators, initial_separators  # noqa: F401
from repro.exceptions import IndexBuildError
from repro.hierarchy.lca import LCAIndex
from repro.hierarchy.tree import TreeDecomposition
from repro.skyline.entries import orient, restore, splice
from repro.skyline.flat_ops import best_under_cols, sweep_best_pair
from repro.storage.flat import FlatLabelStore
from repro.types import CSPQuery, QueryResult

_INF = float("inf")


class FlatQHLEngine(Algorithm3Engine):
    """QHL over flat label columns; bit-identical to :class:`QHLEngine`.

    ``want_path=True`` on a feasible query raises :class:`ReproError`
    when the columns carry no provenance.
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
    dicts and is not counted.  ``_win`` holds the rows of the best
    answer, ``(row, -1, None)`` from the ancestor fast path or
    ``(s_row, t_row, hoplink)`` from a sweep, for path expansion.
    """

    __slots__ = (
        "_labels", "_weights", "_costs", "_entry_offsets", "_s", "_t",
        "_s_rows", "_t_rows", "_s_sizes", "_t_sizes", "_from_s",
        "_from_t", "_weight", "_cost", "_win", "lookups",
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
        self._win: tuple[int, int, int | None] | None = None
        self.lookups = 0

    def ancestor(self, budget: float) -> int:
        """Binary-search the cost column of ``P_st``."""
        lo, hi = self._labels.pair_bounds(self._s, self._t)
        idx = best_under_cols(self._costs, lo, hi, budget)
        if idx >= 0:
            self._weight = self._weights[idx]
            self._cost = self._costs[idx]
            self._win = (idx, -1, None)
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
        self._weight, self._cost, inspected, i, j = sweep_best_pair(
            weights, costs, s_lo, s_hi,
            weights, costs, t_lo, t_hi,
            budget, self._weight, self._cost,
        )
        if i >= 0:
            self._win = (i, j, h)
        return inspected

    def best(self) -> tuple[float, float] | None:
        if self._weight < _INF:
            return restore(self._weight), restore(self._cost)
        return None

    def finish(self, query: CSPQuery, want_path: bool) -> QueryResult:
        best = self.best()
        if best is None:
            return QueryResult(query)
        path = None
        if want_path:
            s_row, t_row, hop = self._win
            walk = self._labels.walk
            path = orient(
                walk(s_row) if hop is None
                else splice(walk(s_row), walk(t_row), hop),
                self._s,
                self._t,
            )
        return QueryResult(query, weight=best[0], cost=best[1], path=path)


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
