"""The 2-hop skyline label store.

CSP-2Hop's index (paper §2.3) stores, for every vertex ``v``, the label
``L(v) = {(u, P_vu) : X(u) ancestor of X(v)}``.  Because ancestors of a
node form a chain, any pair of hub vertices a query touches is comparable,
and ``P_xy`` lives in the label of the *deeper* of the two — the store
resolves both directions (the network is undirected, so ``P_xy = P_yx``).
"""

from __future__ import annotations

import copy
from typing import Iterator, Sequence

from repro.exceptions import IndexBuildError
from repro.skyline.entries import zero_entry
from repro.skyline.set_ops import SkylineSet

_PAIR_BYTES = 16
"""Size accounting: one skyline entry ≈ two 8-byte numbers, matching how a
C++ implementation (and the paper's 'label size' column) would store it."""


class LabelStore:
    """Skyline labels ``L(v)`` indexed by ancestor depth, with symmetric
    lookup.

    ``L(v)`` holds one set per strict ancestor of ``X(v)``, and the
    ancestors of a node have distinct depths, so the label is a list of
    ``depth(v)`` sets with ``P(v, u)`` at position ``depth(u)``, as in
    H2H's position arrays and the flat store's
    :class:`~repro.storage.flat.HubLookup`.  A list of ``k`` sets costs
    ``56 + 8k`` bytes against about ``35k`` for a hub-keyed dict, and
    finding a set is one depth compare and one index.  ``parent`` and
    ``depth`` are the tree's lists, shared and never written; hub ids are
    implicit, so :meth:`hubs_of` and :meth:`items` walk the parent
    chain.  Depth alone does not tell an ancestor from another vertex of
    the same depth: callers pass chain pairs, as every builder and
    engine does by construction, and the audit checks each label's
    coverage against the tree.

    :meth:`share` makes a copy that shares every per-vertex list with
    this store; each of the two then copies a vertex's list on its first
    write into it (``_owned[v]`` is 0 until then), so neither ever
    writes into a list the other serves from.
    """

    def __init__(
        self,
        parent: Sequence[int],
        depth: Sequence[int],
        store_paths: bool = True,
    ):
        self.num_vertices = len(parent)
        self.store_paths = store_paths
        #: ``parent[v]``: the vertex of ``X(v)``'s parent node, -1 at the
        #: root; ``depth[v]``: the depth of ``X(v)``, and ``|L(v)|``.
        self.parent = parent
        self.depth = depth
        # An empty tuple until the first write allocates the vertex's
        # list (unowned, so that write replaces it).
        self._labels: list[list[SkylineSet | None] | tuple[()]] = [
            ()
        ] * self.num_vertices
        self._owned = bytearray(self.num_vertices)
        self.build_seconds = 0.0
        #: Bumped by the dynamic repair whenever any stored set changes;
        #: caching engines compare it to invalidate stale frontiers.
        self.version = 0
        self._zero = [zero_entry(with_prov=store_paths)]

    def set(self, v: int, u: int, entries: SkylineSet) -> None:
        """Record ``P_vu`` in ``L(v)`` (``X(u)`` must be an ancestor)."""
        if not self._owned[v]:
            self._labels[v] = (
                list(self._labels[v]) or [None] * self.depth[v]
            )
            self._owned[v] = 1
        self._labels[v][self.depth[u]] = entries

    def drop(self, v: int) -> None:
        """Forget ``L(v)``; the streaming build keeps only the labels of
        the current root-to-leaf chain."""
        self._labels[v] = ()
        self._owned[v] = 0

    def share(self) -> "LabelStore":
        """A copy that shares every per-vertex label list with this store.

        From now on both stores copy a vertex's list on their first
        :meth:`set` into it, so a write into either leaves the other's
        labels as they were.  The entry lists are shared as they are:
        no writer mutates one in place.
        """
        twin = copy.copy(self)
        twin._labels = list(self._labels)
        self._owned = bytearray(self.num_vertices)
        twin._owned = bytearray(self.num_vertices)
        return twin

    def label(self, v: int) -> Sequence[SkylineSet | None]:
        """The raw label ``L(v)``, indexed by ancestor depth: position
        ``depth(u)`` holds ``P(v, u)``.  For reading (write through
        :meth:`set`, which copies a shared list first); empty until the
        first write."""
        return self._labels[v]

    def hubs_of(self, v: int) -> list[int]:
        """The hub vertices of ``L(v)``, sorted.

        The column builders (:func:`repro.storage.compact.pack_labels`)
        and the flat store's binary-search lookup both rely on this
        order; exposing it here keeps the two stores' iteration
        contracts aligned.
        """
        return sorted(u for u, _entries in self._chain(v))

    def _chain(self, v: int) -> Iterator[tuple[int, SkylineSet]]:
        """``(u, P(v, u))`` for each ancestor ``u`` whose set ``L(v)``
        holds, nearest first."""
        label, parent, depth = self._labels[v], self.parent, self.depth
        u = parent[v]
        while u >= 0:
            d = depth[u]
            if d < len(label) and label[d] is not None:
                yield u, label[d]
            u = parent[u]

    def get(self, x: int, y: int) -> SkylineSet:
        """``P_xy`` wherever it is stored.

        The deeper of the two holds it, at the shallower one's depth;
        for ``x == y`` returns the zero-length path (the identity of
        concatenation).

        Raises
        ------
        IndexBuildError
            If that slot is empty — the caller asked for a pair at one
            depth, or for a set not yet computed, which indicates a bug
            upstream.
        """
        if x == y:
            return self._zero
        depth = self.depth
        d_x, d_y = depth[x], depth[y]
        try:
            entries = (
                self._labels[x][d_y] if d_x > d_y else self._labels[y][d_x]
            )
        except IndexError:
            entries = None
        if entries is None:
            raise IndexBuildError(
                f"no label covers the pair ({x}, {y}); their tree nodes "
                "are not in an ancestor chain"
            )
        return entries

    def has(self, x: int, y: int) -> bool:
        """Whether ``P_xy`` is available."""
        if x == y:
            return True
        d_x, d_y = self.depth[x], self.depth[y]
        label, d = (
            (self._labels[x], d_y) if d_x > d_y else (self._labels[y], d_x)
        )
        return d < len(label) and label[d] is not None

    # ------------------------------------------------------------------
    # Size accounting (paper Table 2 "Label size", Fig. 10b)
    # ------------------------------------------------------------------
    def num_entries(self) -> int:
        """Total number of skyline entries across all labels."""
        return sum(map(len, self._sets()))

    def num_sets(self) -> int:
        """Total number of stored skyline sets (label pairs)."""
        return sum(1 for _entries in self._sets())

    def _sets(self) -> Iterator[SkylineSet]:
        """Every stored skyline set."""
        for label in self._labels:
            for entries in label:
                if entries is not None:
                    yield entries

    def size_bytes(self) -> int:
        """Estimated on-disk size: 16 bytes per entry + 8 per set header."""
        return self.num_entries() * _PAIR_BYTES + self.num_sets() * 8

    def max_set_size(self) -> int:
        """The largest stored skyline set (paper: ``|P|`` up to ~1500)."""
        return max(map(len, self._sets()), default=0)

    def average_set_size(self) -> float:
        """Mean skyline-set size over all stored sets."""
        count = self.num_sets()
        return self.num_entries() / count if count else 0.0

    def items(self) -> Iterator[tuple[int, int, SkylineSet]]:
        """Iterate ``(v, u, P_vu)`` over every stored set."""
        for v in range(self.num_vertices):
            for u, entries in self._chain(v):
                yield v, u, entries

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"LabelStore(|V|={self.num_vertices}, sets={self.num_sets()}, "
            f"entries={self.num_entries()})"
        )
