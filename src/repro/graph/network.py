"""Bi-criteria road network representation.

The paper (Definition 1) models a road network as a connected undirected
graph where every edge carries a *weight* ``w(e) > 0`` (the objective, e.g.
travel time) and a *cost* ``c(e) > 0`` (the constrained metric, e.g.
distance or toll).  :class:`RoadNetwork` is the single graph type used by
every subsystem in this package.

Design notes
------------
* Vertices are dense integers ``0 .. n-1``; adjacency is a list of
  ``(neighbour, weight, cost)`` tuples per vertex.  This is the fastest
  layout pure Python offers for Dijkstra-style scans.
* Parallel edges are allowed (two roads between the same junctions with
  different trade-offs both matter for skyline paths); self loops are not.
* Metrics are kept as numbers (typically ``int``).  Integer metrics make
  skyline-set equality exact, which Algorithm 6 of the paper relies on.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.exceptions import InvalidGraphError

Edge = tuple[int, int, float, float]
"""An undirected edge ``(u, v, weight, cost)``."""


class RoadNetwork:
    """An undirected graph whose edges carry a (weight, cost) pair.

    Parameters
    ----------
    num_vertices:
        Number of vertices; vertex ids are ``0 .. num_vertices - 1``.

    Examples
    --------
    >>> g = RoadNetwork(3)
    >>> g.add_edge(0, 1, weight=2, cost=5)
    >>> g.add_edge(1, 2, weight=4, cost=1)
    >>> sorted(g.neighbors(1))
    [(0, 2, 5), (2, 4, 1)]
    """

    __slots__ = ("_n", "_adj", "_edges")

    def __init__(self, num_vertices: int):
        if num_vertices <= 0:
            raise InvalidGraphError("a road network needs at least one vertex")
        self._n = num_vertices
        self._adj: list[list[tuple[int, float, float]]] = [
            [] for _ in range(num_vertices)
        ]
        self._edges: list[Edge] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int, weight: float, cost: float) -> None:
        """Add the undirected edge ``(u, v)`` with the given metrics.

        Raises
        ------
        InvalidGraphError
            If either endpoint is out of range, ``u == v``, or either
            metric is not strictly positive (the paper requires
            ``w, c ∈ R+``; several lemmas, e.g. Lemma 4, depend on it).
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise InvalidGraphError(f"self loop at vertex {u} is not allowed")
        if weight <= 0 or cost <= 0:
            raise InvalidGraphError(
                f"edge ({u}, {v}) must have positive metrics, "
                f"got weight={weight}, cost={cost}"
            )
        self._adj[u].append((v, weight, cost))
        self._adj[v].append((u, weight, cost))
        self._edges.append((u, v, weight, cost))

    @classmethod
    def from_edges(cls, num_vertices: int, edges: Iterable[Edge]) -> "RoadNetwork":
        """Build a network from an iterable of ``(u, v, weight, cost)``."""
        network = cls(num_vertices)
        for u, v, weight, cost in edges:
            network.add_edge(u, v, weight, cost)
        return network

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``|E|`` (parallel edges counted)."""
        return len(self._edges)

    def vertices(self) -> range:
        """All vertex ids."""
        return range(self._n)

    def edges(self) -> Iterator[Edge]:
        """Iterate over the edges as ``(u, v, weight, cost)`` tuples."""
        return iter(self._edges)

    def edge(self, index: int) -> Edge:
        """The edge at ``index`` in insertion order."""
        return self._edges[index]

    def neighbors(self, v: int) -> Sequence[tuple[int, float, float]]:
        """The adjacency list of ``v``: tuples ``(neighbour, weight, cost)``."""
        self._check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        """Number of incident edge endpoints at ``v``."""
        self._check_vertex(v)
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether at least one edge connects ``u`` and ``v``."""
        self._check_vertex(u)
        self._check_vertex(v)
        # Scan the smaller adjacency list.
        if len(self._adj[u]) > len(self._adj[v]):
            u, v = v, u
        return any(nbr == v for nbr, _w, _c in self._adj[u])

    def edge_metrics(self, u: int, v: int) -> list[tuple[float, float]]:
        """All ``(weight, cost)`` pairs of edges between ``u`` and ``v``."""
        self._check_vertex(u)
        self._check_vertex(v)
        return [(w, c) for nbr, w, c in self._adj[u] if nbr == v]

    def is_connected(self) -> bool:
        """Whether the graph is connected (Definition 1 requires it)."""
        seen = bytearray(self._n)
        stack = [0]
        seen[0] = 1
        count = 1
        adj = self._adj
        while stack:
            v = stack.pop()
            for nbr, _w, _c in adj[v]:
                if not seen[nbr]:
                    seen[nbr] = 1
                    count += 1
                    stack.append(nbr)
        return count == self._n

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def copy(self) -> "RoadNetwork":
        """An independent deep copy of the network."""
        return RoadNetwork.from_edges(self._n, self._edges)

    def with_metrics(
        self,
        weights: Sequence[float] | None = None,
        costs: Sequence[float] | None = None,
    ) -> "RoadNetwork":
        """A copy with per-edge metrics replaced.

        ``weights`` / ``costs`` are indexed in edge-insertion order; pass
        ``None`` to keep the existing values.  Used by the weak-correlation
        experiment (paper §5.2.1) to swap in traffic-signal weights.
        """
        if weights is not None and len(weights) != len(self._edges):
            raise InvalidGraphError(
                f"expected {len(self._edges)} weights, got {len(weights)}"
            )
        if costs is not None and len(costs) != len(self._edges):
            raise InvalidGraphError(
                f"expected {len(self._edges)} costs, got {len(costs)}"
            )
        return self.with_edge_metrics(
            (idx,
             None if weights is None else weights[idx],
             None if costs is None else costs[idx])
            for idx in range(len(self._edges))
        )

    def with_edge_metrics(
        self, deltas: Iterable[tuple[int, float | None, float | None]]
    ) -> "RoadNetwork":
        """The network with some edges' metrics replaced, sharing the rest.

        ``deltas`` yields ``(edge_index, weight, cost)`` with absolute
        metrics, ``None`` keeping one; a later delta of an edge wins.
        The new network shares with this one every edge tuple and every
        adjacency list that no delta touched.  An endpoint of a touched
        edge gets a copy of its adjacency list with that edge's tuple
        replaced in place, so its lists equal what :meth:`from_edges`
        builds from the new edge list.  This is how every metric change
        derives a network: a live update's batch
        (:meth:`repro.dynamic.DynamicQHLIndex.apply_deltas`), the shed
        tier's view of pending batches and :meth:`with_metrics`.

        Raises
        ------
        InvalidGraphError
            If an edge index is out of range or a metric is not
            strictly positive; nothing is derived then.
        """
        edges = list(self._edges)
        changed: set[int] = set()
        for index, weight, cost in deltas:
            if not 0 <= index < len(edges):
                raise InvalidGraphError(f"edge index {index} out of range")
            u, v, w, c = edges[index]
            w = w if weight is None else weight
            c = c if cost is None else cost
            if w <= 0 or c <= 0:
                raise InvalidGraphError(
                    "metrics must stay strictly positive"
                )
            edges[index] = (u, v, w, c)
            changed.add(index)
        adj = list(self._adj)
        # A touched list's k-th item is its vertex's k-th edge in
        # insertion order: count positions in one pass over the edges.
        at = dict.fromkeys((x for i in changed for x in edges[i][:2]), 0)
        for x in at:
            adj[x] = list(adj[x])
        if at:
            for i, (u, v, w, c) in enumerate(edges):
                if u in at:
                    if i in changed:
                        adj[u][at[u]] = (v, w, c)
                    at[u] += 1
                if v in at:
                    if i in changed:
                        adj[v][at[v]] = (u, w, c)
                    at[v] += 1
        network = object.__new__(RoadNetwork)
        network._n = self._n
        network._adj = adj
        network._edges = edges
        return network

    def path_metrics(self, path: Sequence[int]) -> tuple[float, float]:
        """``(w(p), c(p))`` of a concrete vertex path (Definition 2).

        When parallel edges exist between consecutive vertices the cheapest
        consistent choice is ambiguous; this takes, per hop, the pair with
        the smallest weight and, among those, the smallest cost.

        Raises
        ------
        InvalidGraphError
            If a consecutive pair in ``path`` is not an edge.
        """
        if len(path) < 1:
            raise InvalidGraphError("a path needs at least one vertex")
        total_w = 0.0
        total_c = 0.0
        for u, v in zip(path, path[1:], strict=False):
            options = self.edge_metrics(u, v)
            if not options:
                raise InvalidGraphError(f"({u}, {v}) is not an edge")
            w, c = min(options)
            total_w += w
            total_c += c
        return total_w, total_c

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise InvalidGraphError(
                f"vertex {v} out of range [0, {self._n - 1}]"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RoadNetwork(|V|={self._n}, |E|={len(self._edges)})"
