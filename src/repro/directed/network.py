"""Directed road networks.

The paper's evaluation is undirected, but §2.3 notes that "the extension
to the directed graph … can be found in [20], and ours are the same".
This package implements that extension: a directed network keeps one-way
streets and per-direction metrics, and the index stores *two* skyline
sets per label pair (v→u and u→v).
"""

from __future__ import annotations

from typing import Sequence

from repro.exceptions import InvalidGraphError
from repro.graph.network import RoadNetwork

Arc = tuple[int, int, float, float]
"""A directed arc ``(tail, head, weight, cost)``."""


class DirectedRoadNetwork:
    """A directed graph whose arcs carry a (weight, cost) pair.

    The tree decomposition is built on the *underlying undirected*
    structure (which must be connected); individual queries may still be
    infeasible when the target is not reachable by directed arcs.
    """

    __slots__ = ("_n", "_out", "_in", "_arcs")

    def __init__(self, num_vertices: int):
        if num_vertices <= 0:
            raise InvalidGraphError("a road network needs at least one vertex")
        self._n = num_vertices
        self._out: list[list[tuple[int, float, float]]] = [
            [] for _ in range(num_vertices)
        ]
        self._in: list[list[tuple[int, float, float]]] = [
            [] for _ in range(num_vertices)
        ]
        self._arcs: list[Arc] = []

    # ------------------------------------------------------------------
    def add_arc(self, tail: int, head: int, weight: float, cost: float) -> None:
        """Add the directed arc ``tail -> head``."""
        for v in (tail, head):
            if not 0 <= v < self._n:
                raise InvalidGraphError(f"vertex {v} out of range")
        if tail == head:
            raise InvalidGraphError(f"self loop at vertex {tail}")
        if weight <= 0 or cost <= 0:
            raise InvalidGraphError(
                f"arc ({tail}, {head}) must have positive metrics"
            )
        self._out[tail].append((head, weight, cost))
        self._in[head].append((tail, weight, cost))
        self._arcs.append((tail, head, weight, cost))

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def num_arcs(self) -> int:
        return len(self._arcs)

    def vertices(self) -> range:
        return range(self._n)

    def arcs(self) -> Sequence[Arc]:
        return self._arcs

    def out_neighbors(self, v: int) -> Sequence[tuple[int, float, float]]:
        """Arcs leaving ``v``: ``(head, weight, cost)``."""
        return self._out[v]

    def in_neighbors(self, v: int) -> Sequence[tuple[int, float, float]]:
        """Arcs entering ``v``: ``(tail, weight, cost)``."""
        return self._in[v]

    def underlying_undirected(self) -> RoadNetwork:
        """The undirected structure (one edge per arc) for decomposition."""
        undirected = RoadNetwork(self._n)
        for tail, head, weight, cost in self._arcs:
            undirected.add_edge(tail, head, weight, cost)
        return undirected

    def path_metrics(self, path: Sequence[int]) -> tuple[float, float]:
        """``(w, c)`` of a directed vertex path; cheapest parallel arc."""
        if not path:
            raise InvalidGraphError("a path needs at least one vertex")
        total_w = 0.0
        total_c = 0.0
        for tail, head in zip(path, path[1:], strict=False):
            options = [
                (w, c) for nbr, w, c in self._out[tail] if nbr == head
            ]
            if not options:
                raise InvalidGraphError(f"({tail} -> {head}) is not an arc")
            w, c = min(options)
            total_w += w
            total_c += c
        return total_w, total_c

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DirectedRoadNetwork(|V|={self._n}, |A|={len(self._arcs)})"


def directed_from_undirected(
    network: RoadNetwork,
    seed: int = 0,
    asymmetry: float = 0.4,
    one_way_prob: float = 0.15,
) -> DirectedRoadNetwork:
    """Derive a directed network from an undirected one.

    Each edge becomes a forward arc plus, with probability
    ``1 - one_way_prob``, a reverse arc whose metrics are jittered by up
    to ``asymmetry`` (rush-hour directionality).  The underlying
    undirected structure stays connected by construction.
    """
    import random

    rng = random.Random(seed)
    directed = DirectedRoadNetwork(network.num_vertices)
    for u, v, w, c in network.edges():
        if rng.random() < 0.5:
            u, v = v, u
        directed.add_arc(u, v, w, c)
        if rng.random() >= one_way_prob:
            factor_w = 1 + rng.uniform(-asymmetry, asymmetry)
            factor_c = 1 + rng.uniform(-asymmetry, asymmetry)
            directed.add_arc(
                v, u, max(1, round(w * factor_w)), max(1, round(c * factor_c))
            )
    return directed
