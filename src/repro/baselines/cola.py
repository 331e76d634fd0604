"""A COLA-like partition/overlay index for exact CSP (paper's comparator
[31], run with approximation ratio alpha = 1, i.e. exact).

COLA partitions the road network, indexes selected paths between boundary
vertices, and combines them with on-the-fly searches inside the source
and target partitions.  We reproduce that architecture exactly (with the
alpha = 1 setting the paper uses):

* **Partitioning** — multi-source BFS growth from spread-out seeds.
* **Overlay index** — for every partition, the exact skyline sets between
  each pair of its boundary vertices, restricted to intra-partition paths.
* **Query** — skyline-search ``s`` (and ``t``) to its partition's boundary
  on the fly, then run a constrained bi-criteria search over the overlay
  (boundary skyline edges + original cross-partition edges).

Correctness: any s-t path splits at boundary crossings into maximal
intra-partition segments; each segment is dominated by an entry of the
corresponding boundary skyline set, so the overlay preserves the exact
optimum.  Queries are exact but markedly slower than hub labels — the
relationship the paper's Figure 6 shows.
"""

from __future__ import annotations

import random
import time
from typing import TYPE_CHECKING

from repro.exceptions import IndexBuildError, QueryError
from repro.graph.network import RoadNetwork
from repro.baselines.overlay import overlay_csp_search
from repro.baselines.sky_dijkstra import skyline_search
from repro.skyline.set_ops import SkylineSet
from repro.types import CSPQuery, QueryResult, QueryStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.deadline import Deadline


def partition_network(
    network: RoadNetwork, num_parts: int, seed: int = 0
) -> list[int]:
    """Assign each vertex to one of ``num_parts`` parts.

    Seeds are spread by farthest-point BFS sampling; parts then grow by
    synchronised BFS, which yields compact, balanced blobs on road-like
    graphs (the regime COLA's partitioning targets).
    """
    n = network.num_vertices
    if num_parts < 1:
        raise IndexBuildError("need at least one partition")
    num_parts = min(num_parts, n)
    rng = random.Random(seed)

    seeds = [rng.randrange(n)]
    # Farthest-point sampling on hop distance.
    while len(seeds) < num_parts:
        dist = [-1] * n
        frontier = list(seeds)
        for v in frontier:
            dist[v] = 0
        while frontier:
            nxt = []
            for v in frontier:
                for nbr, _w, _c in network.neighbors(v):
                    if dist[nbr] < 0:
                        dist[nbr] = dist[v] + 1
                        nxt.append(nbr)
            frontier = nxt
        far = max(range(n), key=lambda v: dist[v])
        if dist[far] <= 0:
            far = rng.randrange(n)
        seeds.append(far)

    part = [-1] * n
    frontier = []
    for idx, v in enumerate(seeds):
        if part[v] < 0:
            part[v] = idx
            frontier.append(v)
    while frontier:
        nxt = []
        for v in frontier:
            for nbr, _w, _c in network.neighbors(v):
                if part[nbr] < 0:
                    part[nbr] = part[v]
                    nxt.append(nbr)
        frontier = nxt
    # Connected network ⇒ everything assigned.
    if any(p < 0 for p in part):
        raise IndexBuildError("partition growth left unassigned vertices")
    return part


class COLAEngine:
    """Partition/overlay exact CSP engine (COLA with alpha = 1)."""

    name = "COLA"

    def __init__(self, network: RoadNetwork, num_parts: int = 8, seed: int = 0):
        started = time.perf_counter()
        self._network = network
        self._part = partition_network(network, num_parts, seed)
        n = network.num_vertices

        # Boundary vertices: endpoints of cross-partition edges.
        boundary: set[int] = set()
        cross_edges: list[tuple[int, int, float, float]] = []
        for u, v, w, c in network.edges():
            if self._part[u] != self._part[v]:
                boundary.add(u)
                boundary.add(v)
                cross_edges.append((u, v, w, c))
        self._boundary = boundary
        self._boundary_of: dict[int, list[int]] = {}
        for v in sorted(boundary):
            self._boundary_of.setdefault(self._part[v], []).append(v)

        # Overlay adjacency: vertex -> list of (vertex, skyline entries).
        # Intra-partition boundary-to-boundary skylines + cross edges.
        overlay: dict[int, list[tuple[int, SkylineSet]]] = {
            v: [] for v in boundary
        }
        for pid, members in self._boundary_of.items():
            for b in members:
                frontiers = self._intra_search(b, pid)
                for other in members:
                    if other == b:
                        continue
                    entries = frontiers[other]
                    if entries:
                        overlay[b].append((other, entries))
        for u, v, w, c in cross_edges:
            overlay[u].append((v, [(w, c, None)]))
            overlay[v].append((u, [(w, c, None)]))
        self._overlay = overlay
        self.build_seconds = time.perf_counter() - started

    # ------------------------------------------------------------------
    def _intra_search(
        self,
        source: int,
        pid: int,
        stats: QueryStats | None = None,
        deadline: "Deadline | None" = None,
    ) -> list[SkylineSet]:
        """Skyline sets from ``source`` using only partition ``pid``."""
        part = self._part
        return skyline_search(
            self._network, source, allowed=lambda v: part[v] == pid,
            stats=stats, deadline=deadline,
        )

    # ------------------------------------------------------------------
    def query(
        self,
        source: int,
        target: int,
        budget: float,
        want_path: bool = False,
        deadline: "Deadline | None" = None,
    ) -> QueryResult:
        """Answer one CSP query exactly over the partition overlay.

        The overlay keeps skyline values, not paths, so ``want_path=True``
        raises :class:`~repro.exceptions.QueryError`.
        """
        if want_path:
            raise QueryError("COLA answers carry no path")
        query = CSPQuery(source, target, budget).validated(
            self._network.num_vertices
        )
        stats = QueryStats()
        started = time.perf_counter()

        if source == target:
            return QueryResult(query, weight=0, cost=0, stats=stats)

        best: tuple[float, float] | None = None
        ps, pt = self._part[source], self._part[target]

        # Paths that never leave the shared partition.
        if ps == pt:
            frontiers = self._intra_search(
                source, ps, deadline=deadline
            )
            for w, c, _prov in frontiers[target]:
                if deadline is not None:
                    deadline.check(stats)
                if c <= budget and (best is None or (w, c) < best):
                    best = (w, c)

        # Paths through the overlay.
        s_front = self._intra_search(source, ps, deadline=deadline)
        t_front = self._intra_search(target, pt, deadline=deadline)
        s_links = [
            (b, s_front[b]) for b in self._boundary_of.get(ps, [])
            if s_front[b]
        ]
        t_links = {
            b: t_front[b] for b in self._boundary_of.get(pt, [])
            if t_front[b]
        }
        if source in self._boundary:
            s_links.append((source, [(0, 0, None)]))
        if target in self._boundary:
            t_links[target] = [(0, 0, None)]

        if deadline is not None:
            deadline.check(stats)
        overlay_best = overlay_csp_search(
            self._overlay, s_links, t_links, budget, stats
        )
        if overlay_best is not None and (best is None or overlay_best < best):
            best = overlay_best

        stats.seconds = time.perf_counter() - started
        if best is None:
            return QueryResult(query, stats=stats)
        return QueryResult(
            query, weight=best[0], cost=best[1], stats=stats
        )

    # ------------------------------------------------------------------
    def index_entries(self) -> int:
        """Number of skyline entries stored in the overlay index."""
        return sum(
            len(entries)
            for edges in self._overlay.values()
            for _v, entries in edges
        )
