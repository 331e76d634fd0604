"""Deriving full skyline sets from the label index.

CSP-2Hop's original mission (paper §2.3): ``P_st`` is contained in the
union of per-hoplink joins over the LCA bag, so the exact skyline set of
*any* vertex pair can be read off the index without touching the graph.
QHL's query algorithm deliberately avoids materialising ``P_st``; this
utility exists for the callers that genuinely want the whole trade-off
curve (and for the forest-labeling index, which uses it to summarise
regions).
"""

from __future__ import annotations

from repro.hierarchy.lca import LCAIndex
from repro.hierarchy.tree import TreeDecomposition
from repro.labeling.labels import LabelStore
from repro.skyline.set_ops import SkylineSet, join_union


def skyline_between_via_labels(
    tree: TreeDecomposition,
    labels: LabelStore,
    lca: LCAIndex,
    source: int,
    target: int,
) -> SkylineSet:
    """The exact skyline set ``P_st``, assembled from the labels."""
    if source == target:
        return labels.get(source, source)
    lca_v, s_is_anc, t_is_anc = lca.relation(source, target)
    if s_is_anc or t_is_anc:
        return labels.get(source, target)
    return join_union([
        (labels.get(source, h), labels.get(h, target), h)
        for h in tree.bag_with_self(lca_v)
    ])
