"""Constrained bi-criteria search over an overlay graph.

The COLA-like engine reduces cross-partition CSP to a label-setting
search over a graph whose edges carry skyline sets (boundary-to-boundary
summaries plus original cross edges).
"""

from __future__ import annotations

import heapq
import time
from typing import Mapping, Sequence

from repro.skyline.set_ops import SkylineSet
from repro.types import QueryStats

Overlay = Mapping[int, Sequence[tuple[int, SkylineSet]]]
"""vertex -> [(neighbour, skyline entries)]."""


def overlay_csp_search(
    overlay: Overlay,
    s_links: Sequence[tuple[int, SkylineSet]],
    t_links: Mapping[int, SkylineSet],
    budget: float,
    stats: QueryStats,
) -> tuple[float, float] | None:
    """Minimum-weight budget-feasible path through the overlay.

    ``s_links`` seeds the search (entry points with their skyline sets
    from the true source); reaching a vertex in ``t_links`` closes the
    path with each of its tail entries.  Labels are settled in weight
    order with per-vertex Pareto frontiers, so the search is exact.

    The elapsed search time is accumulated into ``stats.seconds`` so
    direct callers get timed results; an engine wrapping this search
    (COLA) overwrites it with its own end-to-end measurement.
    """
    started = time.perf_counter()
    frontier: dict[int, list[tuple[float, float]]] = {}
    best: tuple[float, float] | None = None

    def dominated(v: int, w: float, c: float) -> bool:
        return any(fw <= w and fc <= c for fw, fc in frontier.get(v, ()))

    def insert(v: int, w: float, c: float) -> None:
        kept = [
            (fw, fc)
            for fw, fc in frontier.get(v, [])
            if not (w <= fw and c <= fc)
        ]
        kept.append((w, c))
        frontier[v] = kept

    heap: list[tuple[float, float, int]] = []
    for b, entries in s_links:
        for w, c, _prov in entries:
            if c <= budget and not dominated(b, w, c):
                insert(b, w, c)
                heapq.heappush(heap, (w, c, b))

    while heap:
        w, c, v = heapq.heappop(heap)
        if best is not None and w > best[0]:
            break  # settled by weight: nothing better remains
        if dominated(v, w, c) and (w, c) not in frontier.get(v, ()):
            continue
        tails = t_links.get(v)
        if tails is not None:
            for tw, tc, _prov in tails:
                stats.concatenations += 1
                pair = (w + tw, c + tc)
                if pair[1] <= budget and (best is None or pair < best):
                    best = pair
        for nbr, entries in overlay.get(v, ()):
            for ew, ec, _prov in entries:
                nw, nc = w + ew, c + ec
                stats.concatenations += 1
                if nc > budget or dominated(nbr, nw, nc):
                    continue
                insert(nbr, nw, nc)
                heapq.heappush(heap, (nw, nc, nbr))
    stats.seconds += time.perf_counter() - started
    return best
