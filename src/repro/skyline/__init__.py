"""Skyline path algebra: entries with provenance, canonical skyline sets,
and the multi-constraint generalisation."""

from repro.skyline.entries import (
    EDGE,
    Entry,
    edge_entry,
    expand,
    join_entry,
    path_of_pairs,
    zero_entry,
)
from repro.skyline.multi import (
    MultiEntry,
    m_best_under,
    m_dominates,
    m_join,
    m_skyline,
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
    truncate,
)

__all__ = [
    "EDGE",
    "Entry",
    "edge_entry",
    "expand",
    "join_entry",
    "path_of_pairs",
    "zero_entry",
    "MultiEntry",
    "m_best_under",
    "m_dominates",
    "m_join",
    "m_skyline",
    "SkylineSet",
    "best_under",
    "dominated_by_set",
    "dominates",
    "filter_under",
    "is_canonical",
    "join_union",
    "skyline_of",
    "truncate",
]
