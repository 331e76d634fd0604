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
A recomputed entry that is the same path as the one it replaces is
replaced by that old entry (:func:`_reuse`), so what a repair did not
change stays shared with the epoch it was cloned from, and the
provenance packs as a fresh build's on the tested fixtures.
The pruning conditions are sound but need not equal a fresh build's:
each stale row is rebuilt on its own, without the pair cache a full
build shares across rows.
"""

from __future__ import annotations

import copy
import time
from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.engine import QHLIndex, _building, random_index_queries
from repro.core.pruning import build_pruning_index
from repro.exceptions import ReproError
from repro.gcpause import collector_paused
from repro.graph.network import RoadNetwork
from repro.hierarchy.tree import TreeDecomposition
from repro.labeling.builder import label_set
from repro.labeling.labels import LabelStore
from repro.service.deadline import Deadline
from repro.service.faults import injected_clock
from repro.skyline.entries import edge_entry
from repro.skyline.set_ops import SkylineSet, join_union, skyline_of
from repro.types import CSPQuery, QueryResult


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
    but keeps what that writes into columns or drops: the object labels
    and the elimination shortcuts, which updates repair in place.  The wrapper
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
        # Which vertices' shortcut dicts this index may write into; a
        # clone shares them until its repair's first write (clone()).
        self._shortcuts_owned = bytearray(b"\x01") * index.tree.num_vertices
        with collector_paused():
            self._contributors = _build_contributor_index(index.tree)
            self._edge_keys = _build_edge_key_index(
                index.network.edges(), index.tree
            )

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
        return list(self.index.network.edges())

    # ------------------------------------------------------------------
    def clone(self) -> "DynamicQHLIndex":
        """A copy-on-write clone safe to repair while ``self`` serves.

        The clone shares with ``self`` the network, lca, pruning,
        contributor index and edge-key index, every skyline entry
        list, every per-vertex label list (indexed by ancestor depth,
        :class:`~repro.labeling.labels.LabelStore`) and every shortcut
        dict.  A vertex's list or dict is copied on the first write into
        it, by the clone's repair or by an in-place repair of ``self``,
        whichever writes; until then both serve the one object.  The
        repair derives a new network that shares every edge and
        adjacency list the batch did not touch
        (:meth:`~repro.graph.network.RoadNetwork.with_edge_metrics`),
        and a pruning index that shares every row whose bounds did not
        change.  So a repair's epoch costs what it changed, not a copy
        of every vertex's label or of any whole column.  No repair
        mutates an entry list in place (a changed list is a new one), so
        readers of either index never observe a torn frontier.
        """
        old = self.index
        tree = copy.copy(old.tree)
        tree.shortcuts = dict(old.tree.shortcuts)
        self._shortcuts_owned = bytearray(len(self._shortcuts_owned))
        # Built without __init__, which would rebuild the contributor
        # and edge-key indexes only to replace them here.
        twin = object.__new__(type(self))
        twin.index = QHLIndex(
            old.network, tree, old.labels.share(), old.lca, old.pruning
        )
        twin._index_queries = self._index_queries
        twin._store_paths = self._store_paths
        twin.seed = self.seed
        twin._shortcuts_owned = bytearray(len(self._shortcuts_owned))
        twin._contributors = self._contributors  # topology is fixed
        twin._edge_keys = self._edge_keys
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
        # Repair timing runs on the injected clock in chaos tests.
        clock = injected_clock() or time.perf_counter
        started = clock()
        deltas = list(deltas)
        # Validates the whole batch before any state moves.
        network = self.index.network.with_edge_metrics(deltas)
        tree = self.index.tree
        dirty_seeds = {
            _ordered(*network.edge(edge_index)[:2], tree)
            for edge_index, _weight, _cost in deltas
        }
        self.index.network = network
        with collector_paused():
            report = self._repair(dirty_seeds=dirty_seeds, deadline=deadline)
        report.seconds = clock() - started
        report.edges_applied = len(deltas)
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
        edge = self.index.network.edge
        owned = self._shortcuts_owned

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
                parts = [
                    (c, x, w) if c >= 0 else (~c, w, x)
                    for c in self._contributors.get(key, ())
                ]
                needs = key in dirty_seeds or any(
                    (c, a) in dirty_pairs or (c, b) in dirty_pairs
                    for c, a, b in parts
                )
                if not needs:
                    continue
                shortcuts_checked += 1
                base = [
                    edge_entry(w_i, c_i, a, b, with_prov=store_paths)
                    for a, b, w_i, c_i in map(
                        edge, self._edge_keys.get(key, ())
                    )
                ]
                old = tree.shortcuts[x][w]
                kept, changed = _reuse(old, join_union([
                    (skyline_of(base), None, x),
                    *(
                        (tree.shortcuts[c][a], tree.shortcuts[c][b], c)
                        for c, a, b in parts
                    ),
                ]))
                if kept is old:
                    continue
                if not owned[x]:
                    tree.shortcuts[x] = dict(tree.shortcuts[x])
                    owned[x] = 1
                tree.shortcuts[x][w] = kept
                if changed:
                    dirty_pairs.add(key)

        # Sweep 2: labels top-down.  P(v, u) reads P(w, u) for each hub
        # w of X(v), stored in the deeper one's label at the shallower
        # one's depth; dirty[v] holds the depths of the ancestors u whose
        # P(v, u) changed.  A label holds only depths above its own, so
        # the two probes below need no depth compare: d_u is in dirty[w]
        # only for a deeper w, and d_w in dirty[u] only for a shallower.
        depth = tree.depth
        dirty: dict[int, set[int]] = {}
        dirty_labels: list[tuple[int, int]] = []
        labels_checked = 0
        for v in tree.topdown_order:
            if v == tree.root:
                continue
            if deadline is not None:
                deadline.check()
            bag = tree.bag[v]
            shortcut_dirty = any((v, w) in dirty_pairs for w in bag)
            below = [dirty[w] for w in bag if w in dirty]
            hub_depths = {depth[w] for w in bag}
            for u in tree.ancestors(v):  # lint: allow=QHL001 outer sweep checks once per vertex
                d_u = depth[u]
                above = dirty.get(u)
                needs = (
                    shortcut_dirty
                    or any(d_u in marks for marks in below)
                    or (above is not None and not above.isdisjoint(hub_depths))
                )
                if not needs:
                    continue
                labels_checked += 1
                old = labels.get(v, u)
                kept, changed = _reuse(old, label_set(tree, labels, v, u))
                if kept is old:
                    continue
                labels.set(v, u, kept)
                if changed:
                    dirty.setdefault(v, set()).add(d_u)
                    dirty_labels.append((v, u))

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


def _reuse(
    old: SkylineSet, new: SkylineSet
) -> tuple[SkylineSet, bool]:
    """``(kept, changed)``: the rebuilt list ``new`` with each entry
    that is the same path as an entry of ``old`` replaced, in place, by
    that entry, and whether the ``(w, c)`` pairs of the two lists
    differ.  ``kept`` is ``old`` itself when that replaced every entry
    of ``new`` and the lengths match.

    Two entries are the same path when their ``(w, c)`` are equal (a
    canonical set holds one entry per cost, so they are matched by
    cost) and so is their provenance: a join at an equal junction over
    the very same child entries, any other entry with equal slots.
    Keeping the old entries shares what the repair did not change with
    the epoch it was cloned from, and keeps the entries of lists it did
    not recompute pointing at entries a list still holds.
    """
    by_cost = {e[1]: e for e in old}
    reused = same_pairs = 0
    for i, q in enumerate(new):
        p = by_cost.get(q[1])
        if p is None or p[0] != q[0]:
            continue
        same_pairs += 1
        if type(q[2]) is int:  # a join at junction q[2]
            same = p[2] == q[2] and p[3] is q[3] and p[4] is q[4]
        else:
            same = p[2:] == q[2:]
        if same:
            new[i] = p
            reused += 1
    changed = not same_pairs == len(old) == len(new)
    if reused == len(old) == len(new):
        return old, changed
    return new, changed


def _build_contributor_index(
    tree: TreeDecomposition,
) -> dict[tuple[int, int], array]:
    """``contributors[(v, w)]``: each vertex ``x`` with ``v, w ∈ X(x)``,
    in elimination order, as ``x`` when eliminating it joined
    ``S(x, v) ⊗ S(x, w)`` and as ``~x`` when it joined
    ``S(x, w) ⊗ S(x, v)``.

    These are exactly the join inputs of the shortcut recurrence.  The
    elimination joins each pair in ``x``'s neighbour order (the key
    order of ``tree.shortcuts[x]``); a repair that joins them in the
    same order gives each new join a fresh build's children in the
    same slots.  An ``int32`` array per pair holds them in less memory
    than a list of ints.
    """
    contributors: dict[tuple[int, int], array] = {}
    for x in tree.order:
        neighbours = list(tree.shortcuts[x])
        for i, a in enumerate(neighbours):
            for b in neighbours[i + 1:]:
                key = _ordered(a, b, tree)
                row = contributors.get(key)
                if row is None:
                    row = contributors[key] = array("i")
                row.append(x if key[0] == a else ~x)
    return contributors


def _build_edge_key_index(
    edges: Iterable[tuple[int, int, float, float]], tree: TreeDecomposition
) -> dict[tuple[int, int], tuple[int, ...]]:
    """``edge_keys[(v, w)]`` = the indexes of the edges between ``v``
    and ``w``, in insertion order; the keys are ordered as the
    shortcuts' (:func:`_ordered`).

    Sweep 1 builds the base edge entries of a shortcut it rechecks from
    these, with the current metrics.
    """
    edge_keys: dict[tuple[int, int], tuple[int, ...]] = {}
    for i, (a, b, _w, _c) in enumerate(edges):
        key = _ordered(a, b, tree)
        edge_keys[key] = edge_keys.get(key, ()) + (i,)
    return edge_keys
