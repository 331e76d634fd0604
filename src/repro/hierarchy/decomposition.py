"""Tree decomposition construction (paper Algorithm 1) with skyline
shortcuts.

The construction eliminates vertices in a heuristic order (min-degree by
default, as in the paper; min-fill as an alternative).  Eliminating ``v``

1. records ``X(v) = {v} ∪ N_H(v)`` and the shortcut skyline sets
   ``S(v, w)`` for each current neighbour ``w``, and
2. for every neighbour pair ``(a, b)`` folds the paths through ``v`` into
   the working graph: ``S(a, b) ← skyline(S(a, b) ∪ S(a, v) ⊗ S(v, b))``.

Step 2 is the multi-criteria analogue of the fill-in edge of Algorithm 1,
line 6: at the moment ``v`` is eliminated, ``S(v, w)`` is exactly the
skyline over v-w paths whose interior vertices were eliminated earlier —
the invariant the label recurrence relies on (DESIGN.md §5).
"""

from __future__ import annotations

import heapq
import time
from typing import Literal

from repro.exceptions import DisconnectedGraphError, IndexBuildError
from repro.graph.network import RoadNetwork
from repro.hierarchy.tree import TreeDecomposition
from repro.skyline.entries import edge_entry
from repro.skyline.set_ops import SkylineSet, join_union, skyline_of

Strategy = Literal["min_degree", "min_fill"]


def build_tree_decomposition(
    network: RoadNetwork,
    strategy: Strategy = "min_degree",
    store_paths: bool = True,
) -> TreeDecomposition:
    """Run Algorithm 1 and return the decomposition with shortcuts.

    Parameters
    ----------
    network:
        A connected road network.
    strategy:
        ``"min_degree"`` (the paper's choice) eliminates the vertex with
        the fewest current neighbours; ``"min_fill"`` the vertex whose
        elimination adds the fewest fill edges (slower build, often
        smaller width).
    store_paths:
        Keep provenance on skyline entries so concrete paths can be
        retrieved later.  Disable to halve index memory.

    Raises
    ------
    DisconnectedGraphError
        If the network is not connected.
    """
    if not network.is_connected():
        raise DisconnectedGraphError(
            "tree decomposition requires a connected network"
        )
    started = time.perf_counter()
    n = network.num_vertices

    # Working graph H: adjacency dict v -> {neighbour: skyline set}.
    # Parallel input edges collapse into one skyline set per vertex pair.
    adjacency: list[dict[int, SkylineSet]] = [dict() for _ in range(n)]
    for u, v, w, c in network.edges():
        entry = edge_entry(w, c, u, v, with_prov=store_paths)
        existing = adjacency[u].get(v)
        if existing is None:
            adjacency[u][v] = [entry]
            adjacency[v][u] = adjacency[u][v]
        else:
            updated = skyline_of(existing + [entry])
            adjacency[u][v] = updated
            adjacency[v][u] = updated

    eliminated = bytearray(n)
    order: list[int] = []
    bag: dict[int, tuple[int, ...]] = {}
    shortcuts: dict[int, dict[int, SkylineSet]] = {}

    heap = _initial_heap(adjacency, strategy)

    for _step in range(n):
        v = _pop_next(heap, adjacency, eliminated, strategy)
        eliminated[v] = 1
        order.append(v)
        neighbours = list(adjacency[v].keys())
        shortcuts[v] = {w: adjacency[v][w] for w in neighbours}

        # Detach v from the working graph.
        for w in neighbours:
            del adjacency[w][v]

        # Fold paths through v into each neighbour pair.
        for i, a in enumerate(neighbours):
            s_av = shortcuts[v][a]
            for b in neighbours[i + 1:]:
                combined = join_union((
                    (adjacency[a].get(b, []), None, v),
                    (s_av, shortcuts[v][b], v),
                ))
                adjacency[a][b] = combined
                adjacency[b][a] = combined

        for w in neighbours:
            _push_key(heap, w, adjacency, strategy)
        bag[v] = tuple(neighbours)

    if len(order) != n:
        raise IndexBuildError("elimination did not cover all vertices")

    td = TreeDecomposition(
        n,
        order,
        _sort_bags(bag, order),
        shortcuts,
        build_seconds=time.perf_counter() - started,
    )
    return td


def _sort_bags(
    bag: dict[int, tuple[int, ...]], order: list[int]
) -> dict[int, tuple[int, ...]]:
    """Sort each bag by elimination position (nearest ancestor first)."""
    position = {v: i for i, v in enumerate(order)}
    return {
        v: tuple(sorted(nbrs, key=position.__getitem__))
        for v, nbrs in bag.items()
    }


# ----------------------------------------------------------------------
# Elimination-order heuristics (lazy-deletion heaps)
# ----------------------------------------------------------------------
def _degree_key(v: int, adjacency: list[dict[int, SkylineSet]]) -> int:
    return len(adjacency[v])


def _fill_key(v: int, adjacency: list[dict[int, SkylineSet]]) -> int:
    """Number of fill edges eliminating ``v`` would create."""
    nbrs = list(adjacency[v].keys())
    fill = 0
    for i, a in enumerate(nbrs):
        adj_a = adjacency[a]
        for b in nbrs[i + 1:]:
            if b not in adj_a:
                fill += 1
    return fill


def _current_key(
    v: int, adjacency: list[dict[int, SkylineSet]], strategy: Strategy
) -> int:
    if strategy == "min_degree":
        return _degree_key(v, adjacency)
    if strategy == "min_fill":
        return _fill_key(v, adjacency)
    raise IndexBuildError(f"unknown elimination strategy {strategy!r}")


def _initial_heap(
    adjacency: list[dict[int, SkylineSet]], strategy: Strategy
) -> list[tuple[int, int]]:
    heap = [
        (_current_key(v, adjacency, strategy), v)
        for v in range(len(adjacency))
    ]
    heapq.heapify(heap)
    return heap


def _push_key(
    heap: list[tuple[int, int]],
    v: int,
    adjacency: list[dict[int, SkylineSet]],
    strategy: Strategy,
) -> None:
    heapq.heappush(heap, (_current_key(v, adjacency, strategy), v))


def _pop_next(
    heap: list[tuple[int, int]],
    adjacency: list[dict[int, SkylineSet]],
    eliminated: bytearray,
    strategy: Strategy,
) -> int:
    """Pop the next vertex, skipping stale heap entries."""
    while heap:
        key, v = heapq.heappop(heap)
        if eliminated[v]:
            continue
        current = _current_key(v, adjacency, strategy)
        if current != key:
            heapq.heappush(heap, (current, v))
            continue
        return v
    raise IndexBuildError("elimination heap exhausted early")
