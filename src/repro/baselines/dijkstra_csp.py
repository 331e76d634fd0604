"""Index-free exact CSP baselines based on bi-criteria label setting.

:func:`constrained_dijkstra` is the classic extension of Dijkstra's idea
(Hansen 1980, paper §6.2.2): each vertex keeps a Pareto set of
``(weight, cost)`` labels, labels are settled in increasing weight order,
and any label whose cost exceeds the budget is discarded immediately.
Because labels are settled by weight, the first label settled *at the
target* is the CSP optimum.

These baselines are exponential in the worst case (CSP is NP-hard) but
exact, which makes them the ground truth every index-based algorithm is
tested against — and the "index-free solutions are unscalable" yardstick
of the paper's introduction.
"""

from __future__ import annotations

import heapq
import time
from typing import TYPE_CHECKING

from repro.graph.network import RoadNetwork
from repro.types import CSPQuery, QueryResult, QueryStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.deadline import Deadline


def constrained_dijkstra(
    network: RoadNetwork,
    source: int,
    target: int,
    budget: float,
    want_path: bool = True,
    deadline: "Deadline | None" = None,
) -> QueryResult:
    """Exact CSP via bi-criteria label setting.

    Returns a :class:`QueryResult`; ``feasible`` is False when no path
    meets the budget.  An optional ``deadline`` is checked every 256
    heap pops.
    """
    query = CSPQuery(source, target, budget).validated(network.num_vertices)
    stats = QueryStats()
    started = time.perf_counter()
    if source == target:
        stats.seconds = time.perf_counter() - started
        return QueryResult(
            query, weight=0, cost=0, path=[source] if want_path else None,
            stats=stats,
        )

    # Per-vertex Pareto frontier of (weight, cost) labels seen so far,
    # kept as cost-sorted lists (weight decreasing).
    frontier: list[list[tuple[float, float]]] = [
        [] for _ in range(network.num_vertices)
    ]

    def dominated(v: int, w: float, c: float) -> bool:
        return any(fw <= w and fc <= c for fw, fc in frontier[v])

    def insert(v: int, w: float, c: float) -> None:
        frontier[v] = [
            (fw, fc) for fw, fc in frontier[v] if not (w <= fw and c <= fc)
        ]
        frontier[v].append((w, c))

    # Heap of (weight, cost, vertex, parent_label); parent links rebuild
    # the path without storing whole paths in the heap.
    counter = 0
    heap: list[tuple[float, float, int, int, tuple | None]] = [
        (0, 0, counter, source, None)
    ]
    pops = 0
    while heap:
        w, c, _tie, v, parent = heapq.heappop(heap)
        if deadline is not None:
            pops += 1
            if not pops & 0xFF:
                deadline.check(stats)
        if dominated(v, w, c) and (w, c) not in frontier[v]:
            continue
        if v == target:
            path = _unwind(parent, v) if want_path else None
            stats.seconds = time.perf_counter() - started
            return QueryResult(query, weight=w, cost=c, path=path, stats=stats)
        for nbr, ew, ec in network.neighbors(v):  # lint: allow=QHL001 bounded by vertex degree; the heap loop above checks every 256 pops
            nw, nc = w + ew, c + ec
            if nc > budget or dominated(nbr, nw, nc):
                continue
            insert(nbr, nw, nc)
            counter += 1
            stats.concatenations += 1  # one edge relaxation
            heapq.heappush(heap, (nw, nc, counter, nbr, (v, parent)))
    stats.seconds = time.perf_counter() - started
    return QueryResult(query, stats=stats)


def _unwind(parent: tuple | None, last: int) -> list[int]:
    path = [last]
    node = parent
    while node is not None:
        v, node = node
        path.append(v)
    path.reverse()
    return path

