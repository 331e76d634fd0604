"""Baseline CSP algorithms: the CSP-2Hop state of the art, the COLA-like
partition index, and index-free exact searches."""

from repro.baselines.cola import COLAEngine, partition_network
from repro.baselines.csp2hop import CSP2HopEngine
from repro.baselines.dijkstra_csp import constrained_dijkstra
from repro.baselines.overlay import overlay_csp_search
from repro.baselines.sky_dijkstra import (
    SkyDijkstraEngine,
    sky_dijkstra_csp,
    skyline_between,
    skyline_pairs_bruteforce,
    skyline_search,
)

__all__ = [
    "COLAEngine",
    "CSP2HopEngine",
    "SkyDijkstraEngine",
    "constrained_dijkstra",
    "overlay_csp_search",
    "partition_network",
    "sky_dijkstra_csp",
    "skyline_between",
    "skyline_pairs_bruteforce",
    "skyline_search",
]
