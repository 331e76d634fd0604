"""Separator initialisation and cost estimation (paper §3.2, Alg. 3 l.9).

For a non-ancestor query QHL does not use the LCA bag ``X(l)`` directly.
Let ``X(c_s)`` / ``X(c_t)`` be the children of ``X(l)`` on the branches
containing ``X(s)`` / ``X(t)``.  Then ``H(s) = X(c_s)\\{c_s}`` and
``H(t) = X(c_t)\\{c_t}`` are both *feasible* separators (every member's
tree node is an ancestor-or-self of ``X(l)``, hence an ancestor of both
``X(s)`` and ``X(t)``, so both labels hold the needed skyline sets) and
both are subsets of ``X(l)`` (Property 2) — usually strict ones.

The estimated execution cost of using a separator ``H`` as the hoplinks
is ``T(H) = Σ_{h∈H} (|P_sh| + |P_ht|)``, matching the linear per-hoplink
concatenation of Algorithm 5.
"""

from __future__ import annotations

from typing import Sequence

from repro.hierarchy.tree import TreeDecomposition
from repro.labeling.labels import LabelStore
from repro.skyline.set_ops import SkylineSet


def initial_separators(
    tree: TreeDecomposition, lca: int, s: int, t: int
) -> tuple[int, tuple[int, ...], int, tuple[int, ...]]:
    """``(c_s, H(s), c_t, H(t))`` for a non-ancestor-descendant query."""
    c_s = tree.child_towards(lca, s)
    c_t = tree.child_towards(lca, t)
    return c_s, tree.bag[c_s], c_t, tree.bag[c_t]


class LabelFetcher:
    """Memoised per-query access to ``P_sh`` / ``P_ht``.

    Cost estimation touches every hoplink of every candidate separator;
    the final concatenation touches the winner's again.  Memoising keeps
    the label-lookup count at one per (side, hub) — and reports that
    count for the stats the paper plots.

    Over flat labels (any store with ``hub_sizes``) the sizes come from
    the offset table, so estimation builds no entries: only the sets
    actually fetched are materialised.  A (side, hub) that was sized
    counts as looked up, fetched later or not, so ``lookups`` is the
    same over either store.
    """

    __slots__ = (
        "_label_s", "_label_t", "_size_s", "_size_t", "_from_s",
        "_from_t", "_sizes", "lookups",
    )

    def __init__(self, labels: LabelStore, s: int, t: int):
        # Every hoplink's tree node is an ancestor of both X(s) and
        # X(t), so P_sh always sits in L(s) and P_ht in L(t) — no
        # symmetric-lookup fallback needed on the query hot path.
        self._label_s = labels.label(s)
        self._label_t = labels.label(t)
        hub_sizes = getattr(labels, "hub_sizes", None)
        self._size_s = hub_sizes(s) if hub_sizes is not None else None
        self._size_t = hub_sizes(t) if hub_sizes is not None else None
        self._from_s: dict[int, SkylineSet] = {}
        self._from_t: dict[int, SkylineSet] = {}
        self._sizes: dict[int, int] = {}
        self.lookups = 0

    def from_s(self, h: int) -> SkylineSet:
        """``P_sh``."""
        entries = self._from_s.get(h)
        if entries is None:
            entries = self._label_s[h]
            self._from_s[h] = entries
            if h not in self._sizes:
                self.lookups += 1
        return entries

    def from_t(self, h: int) -> SkylineSet:
        """``P_ht``."""
        entries = self._from_t.get(h)
        if entries is None:
            entries = self._label_t[h]
            self._from_t[h] = entries
            if h not in self._sizes:
                self.lookups += 1
        return entries

    def pair_size(self, h: int) -> int:
        """``|P_sh| + |P_ht|`` — memoised, as candidates overlap."""
        size = self._sizes.get(h)
        if size is None:
            if self._size_s is None:
                size = len(self.from_s(h)) + len(self.from_t(h))
            else:
                size = self._size_s[h] + self._size_t[h]
                self.lookups += (
                    (h not in self._from_s) + (h not in self._from_t)
                )
            self._sizes[h] = size
        return size


def estimated_cost(fetcher: LabelFetcher, separator: Sequence[int]) -> int:
    """``T(H) = Σ_h (|P_sh| + |P_ht|)`` (Algorithm 3, line 9)."""
    pair_size = fetcher.pair_size
    return sum(pair_size(h) for h in separator)
