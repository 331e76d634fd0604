"""Directed tree decomposition shortcuts and two-directional labels.

Same skeleton as the undirected build (Algorithm 1 + the top-down label
recurrence), with every skyline set split by direction:

* eliminating ``v`` folds, for each neighbour pair ``(a, b)``, *both*
  ``S(a→v) ⊗ S(v→b)`` into ``S(a→b)`` and ``S(b→v) ⊗ S(v→a)`` into
  ``S(b→a)``;
* the label of ``v`` stores, per ancestor ``u``, the pair
  ``(P(v→u), P(u→v))``.

Correctness mirrors the undirected argument per direction: for a v→u
path, split at the *first* vertex eliminated after ``v`` (prefix covered
by the outgoing shortcut); for a u→v path, split at the *last* such
vertex (suffix covered by the incoming shortcut).
"""

from __future__ import annotations

import heapq
import time

from repro.directed.network import DirectedRoadNetwork
from repro.exceptions import DisconnectedGraphError, IndexBuildError
from repro.hierarchy.tree import TreeDecomposition
from repro.skyline.entries import edge_entry, zero_entry
from repro.skyline.set_ops import SkylineSet, join_union, skyline_of

DirectedPair = tuple[SkylineSet, SkylineSet]
"""``(forward, backward)`` skyline sets for an ordered vertex pair."""


class DirectedLabelStore:
    """Labels ``L(v) = {u: (P(v→u), P(u→v))}`` for ancestors ``u``."""

    def __init__(self, num_vertices: int, store_paths: bool = True):
        self.num_vertices = num_vertices
        self._labels: list[dict[int, DirectedPair]] = [
            dict() for _ in range(num_vertices)
        ]
        self.build_seconds = 0.0
        self._zero = [zero_entry(with_prov=False)]
        self.store_paths = store_paths

    def set(self, v: int, u: int, fwd: SkylineSet, bwd: SkylineSet) -> None:
        self._labels[v][u] = (fwd, bwd)

    def label(self, v: int) -> dict[int, DirectedPair]:
        return self._labels[v]

    def forward(self, x: int, y: int) -> SkylineSet:
        """Skyline paths ``x → y`` (x and y must be chain-comparable)."""
        if x == y:
            return self._zero
        pair = self._labels[x].get(y)
        if pair is not None:
            return pair[0]
        pair = self._labels[y].get(x)
        if pair is not None:
            return pair[1]
        raise IndexBuildError(
            f"no label covers the directed pair ({x} -> {y})"
        )

    def num_entries(self) -> int:
        return sum(
            len(fwd) + len(bwd)
            for label in self._labels
            for fwd, bwd in label.values()
        )

    def size_bytes(self) -> int:
        return self.num_entries() * 16 + 8 * sum(
            len(label) for label in self._labels
        )


def build_directed_tree(
    network: DirectedRoadNetwork, store_paths: bool = True
) -> tuple[TreeDecomposition, dict[int, dict[int, DirectedPair]]]:
    """Min-degree elimination with direction-split shortcut sets.

    Returns the tree decomposition (built over the underlying undirected
    structure) and ``shortcuts[v][w] = (S(v→w), S(w→v))`` at ``v``'s
    elimination time.
    """
    undirected = network.underlying_undirected()
    if not undirected.is_connected():
        raise DisconnectedGraphError(
            "the underlying undirected network must be connected"
        )
    started = time.perf_counter()
    n = network.num_vertices

    # pair_sets[(a, b)] with a < b  ->  [S(a→b), S(b→a)] (mutable).
    pair_sets: dict[tuple[int, int], list[SkylineSet]] = {}
    nbrs: list[set[int]] = [set() for _ in range(n)]

    def sets_for(a: int, b: int) -> tuple[list[SkylineSet], int]:
        """The pair record and the index of the a→b direction."""
        if a < b:
            record = pair_sets.setdefault((a, b), [[], []])
            return record, 0
        record = pair_sets.setdefault((b, a), [[], []])
        return record, 1

    for tail, head, w, c in network.arcs():
        record, direction = sets_for(tail, head)
        entry = edge_entry(w, c, tail, head, with_prov=store_paths)
        record[direction] = skyline_of(record[direction] + [entry])
        nbrs[tail].add(head)
        nbrs[head].add(tail)

    eliminated = bytearray(n)
    order: list[int] = []
    bag: dict[int, tuple[int, ...]] = {}
    shortcuts: dict[int, dict[int, DirectedPair]] = {}

    heap = [(len(nbrs[v]), v) for v in range(n)]
    heapq.heapify(heap)

    for _ in range(n):
        # Lazy-deletion min-degree pop.
        while True:
            degree, v = heapq.heappop(heap)
            if eliminated[v]:
                continue
            if degree != len(nbrs[v]):
                heapq.heappush(heap, (len(nbrs[v]), v))
                continue
            break
        eliminated[v] = 1
        order.append(v)
        neighbours = sorted(nbrs[v])
        shortcut_v: dict[int, DirectedPair] = {}
        for w in neighbours:
            record, direction = sets_for(v, w)
            shortcut_v[w] = (record[direction], record[1 - direction])
        shortcuts[v] = shortcut_v

        for w in neighbours:
            nbrs[w].discard(v)

        for i, a in enumerate(neighbours):
            s_va, s_av = shortcut_v[a][0], shortcut_v[a][1]
            for b in neighbours[i + 1:]:
                s_vb, s_bv = shortcut_v[b][0], shortcut_v[b][1]
                record, a_to_b = sets_for(a, b)
                record[a_to_b] = join_union((  # a→v→b
                    (record[a_to_b], None, v), (s_av, s_vb, v)
                ))
                record[1 - a_to_b] = join_union((  # b→v→a
                    (record[1 - a_to_b], None, v), (s_bv, s_va, v)
                ))
                nbrs[a].add(b)
                nbrs[b].add(a)

        for w in neighbours:
            heapq.heappush(heap, (len(nbrs[w]), w))
        bag[v] = tuple(neighbours)

    position = {v: i for i, v in enumerate(order)}
    sorted_bags = {
        v: tuple(sorted(members, key=position.__getitem__))
        for v, members in bag.items()
    }
    tree = TreeDecomposition(
        n,
        order,
        sorted_bags,
        {},  # directed shortcuts kept separately (different shape)
        build_seconds=time.perf_counter() - started,
    )
    return tree, shortcuts


def build_directed_labels(
    tree: TreeDecomposition,
    shortcuts: dict[int, dict[int, DirectedPair]],
    store_paths: bool = True,
) -> DirectedLabelStore:
    """Top-down two-directional label construction."""
    started = time.perf_counter()
    store = DirectedLabelStore(tree.num_vertices, store_paths=store_paths)

    for v in tree.topdown_order:
        if v == tree.root:
            continue
        hubs = tree.bag[v]
        shortcut_v = shortcuts[v]
        for u in tree.ancestors(v):
            fwd = join_union([
                (shortcut_v[w][0], None if w == u else store.forward(w, u), w)
                for w in hubs
            ])
            bwd = join_union([
                (shortcut_v[w][1], None, w) if w == u
                else (store.forward(u, w), shortcut_v[w][1], w)
                for w in hubs
            ])
            store.set(v, u, fwd, bwd)

    store.build_seconds = time.perf_counter() - started
    return store
