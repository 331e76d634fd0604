"""Dynamic maintenance: edge-metric updates without a full rebuild.

The paper's related work (§6.1, [34-36]) studies dynamic hub labeling;
this module brings the capability to the QHL index for the common road-
network case — *metric* changes (congestion, tolls) on a fixed topology.

Key observation: with the topology fixed, the elimination order, bags
and tree are all unchanged, and the shortcut sets obey a clean
order-respecting recurrence::

    S(v, w) = skyline( edges(v, w)
                       ∪ ⋃ { S(x, v) ⊗ S(x, w) : v, w ∈ X(x) } )

for ``w ∈ X(v)\\{v}`` — every contributor ``x`` is eliminated before
``v``, so processing vertices in elimination order revalidates each
shortcut exactly once.  An update therefore:

1. marks the updated edge's pair dirty,
2. sweeps the elimination order recomputing only pairs with a dirty
   input (tracked via a prebuilt contributor index),
3. sweeps the tree top-down recomputing only labels with a dirty input,
4. reruns Algorithm 7 for the pruning-condition rows whose inputs hold a
   changed label, with the index's build seed; the other rows are kept.

The label payload — every ``(w, c)`` pair — is bit-identical to a fresh
build with the same elimination order, which is what the tests assert.
The pruning conditions are sound but need not equal a fresh build's:
each stale row is rebuilt on its own, without the pair cache a full
build shares across rows.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.engine import QHLIndex, _building, random_index_queries
from repro.core.pruning import build_pruning_index
from repro.exceptions import InvalidGraphError, ReproError
from repro.gcpause import collector_paused
from repro.graph.network import RoadNetwork
from repro.hierarchy.tree import TreeDecomposition
from repro.labeling.builder import label_set
from repro.labeling.labels import LabelStore
from repro.service.deadline import Deadline
from repro.service.faults import get_injector
from repro.skyline.entries import edge_entry
from repro.skyline.set_ops import SkylineSet, join_union, skyline_of
from repro.types import CSPQuery, QueryResult


def _timing_clock() -> Callable[[], float]:
    """The repair-timing clock: the injected one when chaos is active.

    Mirrors ``QueryService._deadline_clock`` — tests jump time
    deterministically through :attr:`FaultInjector.clock` while
    production uses the monotonic ``perf_counter``.
    """
    injector = get_injector()
    if injector.enabled and injector.clock is not None:
        return injector.clock
    return time.perf_counter


@dataclass
class UpdateReport:
    """What one metric update cost."""

    shortcuts_checked: int
    shortcuts_changed: int
    labels_checked: int
    labels_changed: int
    pruning_rebuilt: bool
    seconds: float
    edges_applied: int = 1
    #: Pruning-condition rows Algorithm 7 reran (``pruning_rebuilt``
    #: means this is above zero).
    pruning_rows_rebuilt: int = 0


class DynamicQHLIndex:
    """A QHL index that absorbs edge-metric updates incrementally.

    Construction runs the builder of :meth:`repro.core.QHLIndex.build`
    but keeps what that freezes away: the object labels and the
    elimination shortcuts, which updates repair in place.  The wrapper
    additionally remembers the contributor index, the ``Q_index``
    workload and the build seed, which repairs hand to Algorithm 7.
    """

    def __init__(self, index: QHLIndex, index_queries: list[CSPQuery],
                 store_paths: bool, seed: int = 0) -> None:
        if not isinstance(index.labels, LabelStore):
            raise ReproError(
                "a dynamic index repairs object labels; this index holds "
                "flat columns (build it with DynamicQHLIndex.build)"
            )
        self.index = index
        self._index_queries = index_queries
        self._store_paths = store_paths
        self.seed = seed
        self._edges: list[tuple[int, int, float, float]] = list(
            index.network.edges()
        )
        with collector_paused():
            self._contributors = _build_contributor_index(index.tree)

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        network: RoadNetwork,
        index_queries: list[CSPQuery] | None = None,
        num_index_queries: int = 2000,
        store_paths: bool = True,
        seed: int = 0,
    ) -> "DynamicQHLIndex":
        if index_queries is None:
            index_queries = random_index_queries(
                network, num_index_queries, seed=seed
            )
        with _building(
            network,
            index_queries=index_queries,
            num_index_queries=num_index_queries,
            store_paths=store_paths,
            seed=seed,
        ) as parts:
            index = QHLIndex(*parts)
        return cls(
            index._recorded(), list(index_queries), store_paths, seed
        )

    # ------------------------------------------------------------------
    def query(
        self, source: int, target: int, budget: float,
        want_path: bool = False,
    ) -> QueryResult:
        """Answer a CSP query against the current metrics."""
        return self.index.query(source, target, budget, want_path=want_path)

    def network_edges(self) -> list[tuple[int, int, float, float]]:
        """The current edge list (insertion order, updated metrics)."""
        return list(self._edges)

    # ------------------------------------------------------------------
    def clone(self) -> "DynamicQHLIndex":
        """A copy-on-write clone safe to repair while ``self`` serves.

        The expensive immutable structures (lca, pruning, contributor
        index, skyline entry lists) are shared; everything the repair
        sweeps *reassign* — the shortcuts dicts, the per-vertex label
        dicts, the edge list — is copied one container level deep.  The
        repair never mutates a skyline list in place (it always binds a
        freshly built one), so sharing the entry lists is safe: readers
        on the original index can never observe a torn frontier.
        """
        old = self.index
        tree = copy.copy(old.tree)
        tree.shortcuts = {v: dict(d) for v, d in old.tree.shortcuts.items()}
        labels = LabelStore(
            old.labels.num_vertices, store_paths=old.labels.store_paths
        )
        labels.build_seconds = old.labels.build_seconds
        labels.version = old.labels.version
        for v, label in enumerate(old.labels._labels):
            labels._labels[v] = dict(label)
        # Built without __init__, which would rebuild the edge list and
        # the contributor index only for them to be replaced here.
        twin = object.__new__(type(self))
        twin.index = QHLIndex(
            old.network, tree, labels, old.lca, old.pruning
        )
        twin._index_queries = self._index_queries
        twin._store_paths = self._store_paths
        twin.seed = self.seed
        twin._edges = list(self._edges)
        twin._contributors = self._contributors  # topology is fixed
        return twin

    # ------------------------------------------------------------------
    def update_edge(
        self,
        edge_index: int,
        weight: float | None = None,
        cost: float | None = None,
    ) -> UpdateReport:
        """Change the metrics of one edge and repair the index.

        ``edge_index`` follows edge-insertion order (as in
        :meth:`RoadNetwork.with_metrics`).
        """
        return self.apply_deltas([(edge_index, weight, cost)])

    def apply_deltas(
        self,
        deltas: Sequence[tuple[int, float | None, float | None]],
        deadline: Deadline | None = None,
    ) -> UpdateReport:
        """Apply a batch of ``(edge_index, weight, cost)`` deltas at once.

        Metric values are **absolute** (``None`` leaves that metric
        unchanged), so re-applying a batch is idempotent — the property
        journal replay relies on after a crash.  The whole batch is
        validated before any state moves, then repaired in one sweep;
        an optional :class:`~repro.service.deadline.Deadline` is checked
        at every outer sweep step so a runaway repair aborts before
        mutating the pruning index.
        """
        clock = _timing_clock()
        started = clock()
        dirty_seeds: set[tuple[int, int]] = set()
        staged = list(self._edges)
        for edge_index, weight, cost in deltas:  # lint: allow=QHL001 validation only, bounded by the batch size
            if not 0 <= edge_index < len(staged):
                raise InvalidGraphError(
                    f"edge index {edge_index} out of range"
                )
            u, v, old_w, old_c = staged[edge_index]
            new_w = old_w if weight is None else weight
            new_c = old_c if cost is None else cost
            if new_w <= 0 or new_c <= 0:
                raise InvalidGraphError(
                    "metrics must stay strictly positive"
                )
            staged[edge_index] = (u, v, new_w, new_c)
            dirty_seeds.add(_ordered(u, v, self.index.tree))
        self._edges = staged

        # Refresh the stored network object (queries never read it, but
        # stats and serialisation do).
        with collector_paused():
            self.index.network = RoadNetwork.from_edges(
                self.index.network.num_vertices, self._edges
            )
            report = self._repair(dirty_seeds=dirty_seeds, deadline=deadline)
        report.seconds = clock() - started
        report.edges_applied = len(list(deltas))
        return report

    # ------------------------------------------------------------------
    def _repair(
        self,
        dirty_seeds: set[tuple[int, int]],
        deadline: Deadline | None = None,
    ) -> UpdateReport:
        tree = self.index.tree
        labels = self.index.labels
        store_paths = self._store_paths

        # Base edge entries per ordered shortcut pair.
        base: dict[tuple[int, int], SkylineSet] = {}
        for a, b, w, c in self._edges:  # lint: allow=QHL001 one append per edge; the sweeps below check the deadline
            key = _ordered(a, b, tree)
            entry = edge_entry(w, c, a, b, with_prov=store_paths)
            base.setdefault(key, []).append(entry)

        dirty_pairs: set[tuple[int, int]] = set()
        shortcuts_checked = 0

        # Sweep 1: shortcuts in elimination order.
        for x in tree.order:
            if deadline is not None:
                deadline.check()
            bag = tree.bag[x]
            if not bag:
                continue
            for w in bag:  # lint: allow=QHL001 outer sweep checks once per vertex
                key = (x, w)
                needs = key in dirty_seeds or any(
                    (c, x) in dirty_pairs or (c, w) in dirty_pairs
                    for c in self._contributors.get(key, ())
                )
                if not needs:
                    continue
                shortcuts_checked += 1
                rebuilt = join_union([
                    (skyline_of(base.get(key, [])), None, x),
                    *(
                        (tree.shortcuts[c][x], tree.shortcuts[c][w], c)
                        for c in self._contributors.get(key, ())
                    ),
                ])
                if _pairs(rebuilt) != _pairs(tree.shortcuts[x][w]):
                    tree.shortcuts[x][w] = rebuilt
                    dirty_pairs.add(key)
                else:
                    tree.shortcuts[x][w] = rebuilt  # refresh provenance

        # Sweep 2: labels top-down.
        dirty_labels: set[tuple[int, int]] = set()
        labels_checked = 0
        for v in tree.topdown_order:
            if v == tree.root:
                continue
            if deadline is not None:
                deadline.check()
            bag = tree.bag[v]
            shortcut_dirty = any((v, w) in dirty_pairs for w in bag)
            for u in tree.ancestors(v):  # lint: allow=QHL001 outer sweep checks once per vertex
                needs = shortcut_dirty or any(
                    _label_key(w, u, tree) in dirty_labels
                    for w in bag
                    if w != u
                )
                if not needs:
                    continue
                labels_checked += 1
                acc = label_set(tree, labels, v, u)
                if _pairs(acc) != _pairs(labels.get(v, u)):
                    labels.set(v, u, acc)
                    dirty_labels.add((v, u))
                else:
                    labels.set(v, u, acc)

        # Sweep 3: pruning-condition rows that read a changed label.
        rows_rebuilt = 0
        if dirty_labels:
            labels.version += 1
            self.index.pruning = build_pruning_index(
                tree, labels, self.index.lca, self._index_queries,
                seed=self.seed, previous=self.index.pruning,
                dirty_labels=dirty_labels,
            )
            self.index._default_engine = self.index.qhl_engine()
            rows_rebuilt = self.index.pruning.rows_rebuilt

        return UpdateReport(
            shortcuts_checked=shortcuts_checked,
            shortcuts_changed=len(dirty_pairs),
            labels_checked=labels_checked,
            labels_changed=len(dirty_labels),
            pruning_rebuilt=rows_rebuilt > 0,
            seconds=0.0,
            pruning_rows_rebuilt=rows_rebuilt,
        )


def _ordered(a: int, b: int, tree: TreeDecomposition) -> tuple[int, int]:
    """Order a pair as (earlier-eliminated, later-eliminated)."""
    if tree.position[a] < tree.position[b]:
        return (a, b)
    return (b, a)


def _label_key(w: int, u: int, tree: TreeDecomposition) -> tuple[int, int]:
    """The (deeper, shallower) key under which P_wu is stored."""
    if tree.depth[w] >= tree.depth[u]:
        return (w, u)
    return (u, w)


def _pairs(entries: SkylineSet) -> list[tuple[float, float]]:
    return [(e[0], e[1]) for e in entries]


def _build_contributor_index(
    tree: TreeDecomposition,
) -> dict[tuple[int, int], list[int]]:
    """``contributors[(v, w)]`` = vertices ``x`` with ``v, w ∈ X(x)``.

    Eliminating such an ``x`` folds ``S(x,v) ⊗ S(x,w)`` into
    ``S(v, w)``; these are exactly the join inputs of the shortcut
    recurrence.
    """
    contributors: dict[tuple[int, int], list[int]] = {}
    for x in tree.order:
        bag = tree.bag[x]
        for i, a in enumerate(bag):
            for b in bag[i + 1:]:
                contributors.setdefault(
                    _ordered(a, b, tree), []
                ).append(x)
    return contributors
