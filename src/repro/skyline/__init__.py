"""Skyline path algebra: entries with provenance and canonical skyline
sets."""

from repro.skyline.entries import (
    EDGE,
    Entry,
    edge_entry,
    expand,
    join_entry,
    path_of_pairs,
    zero_entry,
)
from repro.skyline.set_ops import (
    SkylineSet,
    best_under,
    dominated_by_set,
    dominates,
    filter_under,
    is_canonical,
    join_union,
    skyline_of,
)

__all__ = [
    "EDGE",
    "Entry",
    "edge_entry",
    "expand",
    "join_entry",
    "path_of_pairs",
    "zero_entry",
    "SkylineSet",
    "best_under",
    "dominated_by_set",
    "dominates",
    "filter_under",
    "is_canonical",
    "join_union",
    "skyline_of",
]
