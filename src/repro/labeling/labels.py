"""The 2-hop skyline label store.

CSP-2Hop's index (paper §2.3) stores, for every vertex ``v``, the label
``L(v) = {(u, P_vu) : X(u) ancestor of X(v)}``.  Because ancestors of a
node form a chain, any pair of hub vertices a query touches is comparable,
and ``P_xy`` lives in the label of the *deeper* of the two — the store
resolves both directions (the network is undirected, so ``P_xy = P_yx``).
"""

from __future__ import annotations

import copy
from typing import Iterator

from repro.exceptions import IndexBuildError
from repro.skyline.entries import zero_entry
from repro.skyline.set_ops import SkylineSet

_PAIR_BYTES = 16
"""Size accounting: one skyline entry ≈ two 8-byte numbers, matching how a
C++ implementation (and the paper's 'label size' column) would store it."""


class LabelStore:
    """Skyline labels ``L(v)`` keyed by vertex, with symmetric lookup.

    :meth:`share` makes a copy that shares every per-vertex dict with
    this store; each of the two then copies a vertex's dict on its first
    write into it (``_owned[v]`` is 0 until then), so neither ever
    writes into a dict the other serves from.
    """

    def __init__(self, num_vertices: int, store_paths: bool = True):
        self.num_vertices = num_vertices
        self.store_paths = store_paths
        self._labels: list[dict[int, SkylineSet]] = [
            dict() for _ in range(num_vertices)
        ]
        self._owned = bytearray(b"\x01") * num_vertices
        self.build_seconds = 0.0
        #: Bumped by the dynamic repair whenever any stored set changes;
        #: caching engines compare it to invalidate stale frontiers.
        self.version = 0
        self._zero = [zero_entry(with_prov=store_paths)]

    def set(self, v: int, u: int, entries: SkylineSet) -> None:
        """Record ``P_vu`` in ``L(v)`` (``X(u)`` must be an ancestor)."""
        if not self._owned[v]:
            self._labels[v] = dict(self._labels[v])
            self._owned[v] = 1
        self._labels[v][u] = entries

    def drop(self, v: int) -> None:
        """Forget ``L(v)``; the streaming build keeps only the labels of
        the current root-to-leaf chain."""
        self._labels[v] = {}
        self._owned[v] = 1

    def share(self) -> "LabelStore":
        """A copy that shares every per-vertex label dict with this store.

        From now on both stores copy a vertex's dict on their first
        :meth:`set` into it, so a write into either leaves the other's
        labels as they were.  The entry lists are shared as they are:
        no writer mutates one in place.
        """
        twin = copy.copy(self)
        twin._labels = list(self._labels)
        self._owned = bytearray(self.num_vertices)
        twin._owned = bytearray(self.num_vertices)
        return twin

    def label(self, v: int) -> dict[int, SkylineSet]:
        """The raw label ``L(v)``: hub vertex → skyline set, for reading
        (write through :meth:`set`, which copies a shared dict first)."""
        return self._labels[v]

    def hubs_of(self, v: int) -> list[int]:
        """The hub vertices of ``L(v)``, sorted.

        The column builders (:func:`repro.storage.compact.pack_labels`)
        and the flat store's binary-search lookup both rely on this
        order; exposing it here keeps the two stores' iteration
        contracts aligned.
        """
        return sorted(self._labels[v])

    def get(self, x: int, y: int) -> SkylineSet:
        """``P_xy`` wherever it is stored.

        Checks ``L(x)`` then ``L(y)``; for ``x == y`` returns the
        zero-length path (the identity of concatenation).

        Raises
        ------
        IndexBuildError
            If neither label holds the pair — the caller asked for a
            non-ancestor pair, which indicates a bug upstream.
        """
        if x == y:
            return self._zero
        entries = self._labels[x].get(y)
        if entries is not None:
            return entries
        entries = self._labels[y].get(x)
        if entries is not None:
            return entries
        raise IndexBuildError(
            f"no label covers the pair ({x}, {y}); their tree nodes are "
            "not in an ancestor chain"
        )

    def has(self, x: int, y: int) -> bool:
        """Whether ``P_xy`` is available."""
        return (
            x == y
            or y in self._labels[x]
            or x in self._labels[y]
        )

    # ------------------------------------------------------------------
    # Size accounting (paper Table 2 "Label size", Fig. 10b)
    # ------------------------------------------------------------------
    def num_entries(self) -> int:
        """Total number of skyline entries across all labels."""
        return sum(
            len(entries)
            for label in self._labels
            for entries in label.values()
        )

    def num_sets(self) -> int:
        """Total number of stored skyline sets (label pairs)."""
        return sum(len(label) for label in self._labels)

    def size_bytes(self) -> int:
        """Estimated on-disk size: 16 bytes per entry + 8 per set header."""
        return self.num_entries() * _PAIR_BYTES + self.num_sets() * 8

    def max_set_size(self) -> int:
        """The largest stored skyline set (paper: ``|P|`` up to ~1500)."""
        sizes = [
            len(entries)
            for label in self._labels
            for entries in label.values()
        ]
        return max(sizes, default=0)

    def average_set_size(self) -> float:
        """Mean skyline-set size over all stored sets."""
        count = self.num_sets()
        return self.num_entries() / count if count else 0.0

    def items(self) -> Iterator[tuple[int, int, SkylineSet]]:
        """Iterate ``(v, u, P_vu)`` over every stored set."""
        for v, label in enumerate(self._labels):
            for u, entries in label.items():
                yield v, u, entries

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"LabelStore(|V|={self.num_vertices}, sets={self.num_sets()}, "
            f"entries={self.num_entries()})"
        )
