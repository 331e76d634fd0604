"""Array-packed label columns.

Packs a :class:`~repro.labeling.labels.LabelStore` into five flat
arrays — numeric payloads in ``array('d')``, topology in ``array('q')``
— a schema'd plain-data form with no Python object graph.  This is the
column layout of the flat label store
(:class:`~repro.storage.flat.FlatLabelStore`) and of the version-3
index file (:mod:`repro.storage.flatfile`), which writes the arrays
verbatim.

Packing keeps only the ``(weight, cost)`` payloads: provenance (path
retrieval) does not survive, mirroring the paper's labels which store
weight-cost pairs only.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from repro.labeling.labels import LabelStore


@dataclass
class CompactLabels:
    """Flat-array form of a label store.

    Layout: for vertex ``v``, its label sets occupy the slice
    ``set_offsets[v] : set_offsets[v + 1]`` of ``hubs`` /
    ``entry_offsets``; set ``i`` holds entries
    ``entry_offsets[i] : entry_offsets[i + 1]`` of ``weights`` /
    ``costs`` (cost-sorted, as the canonical invariant requires).
    """

    num_vertices: int
    set_offsets: array[int]  # 'q', len = num_vertices + 1
    hubs: array[int]         # 'q', one per stored set
    entry_offsets: array[int]  # 'q', len = num_sets + 1
    weights: array[float]    # 'd', one per entry
    costs: array[float]      # 'd', one per entry

    def size_bytes(self) -> int:
        """Actual in-memory payload size of the arrays."""
        return sum(
            arr.itemsize * len(arr)
            for arr in (
                self.set_offsets, self.hubs, self.entry_offsets,
                self.weights, self.costs,
            )
        )


def pack_labels(store: LabelStore) -> CompactLabels:
    """Pack a label store into flat arrays (drops provenance)."""
    set_offsets = array("q", [0])
    hubs = array("q")
    entry_offsets = array("q", [0])
    weights = array("d")
    costs = array("d")

    for v in range(store.num_vertices):
        label = store.label(v)
        for u in store.hubs_of(v):
            entries = label[u]
            hubs.append(u)
            for entry in entries:
                weights.append(entry[0])
                costs.append(entry[1])
            entry_offsets.append(len(weights))
        set_offsets.append(len(hubs))

    return CompactLabels(
        num_vertices=store.num_vertices,
        set_offsets=set_offsets,
        hubs=hubs,
        entry_offsets=entry_offsets,
        weights=weights,
        costs=costs,
    )


def _restore(x: float) -> float:
    """A packed metric as the label store held it: integral values come
    back as ints, so answers compare exactly against indexes built from
    integer networks."""
    return int(x) if x.is_integer() else x
