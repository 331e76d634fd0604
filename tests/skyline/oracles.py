"""Pairwise skyline operations kept as test oracles.

Index construction builds every shortcut and label set with the
one-pass :func:`repro.skyline.set_ops.join_union`.  It replaced the
fold ``acc = merge(acc, join(a, b, mid))`` over these pairwise forms,
which stay here so the hypothesis properties and the build-level
oracles can compare the kernel against them.  ``cartesian_entries`` is
the raw product ``P''`` of Algorithm 6, used by the theory tests.
"""

from __future__ import annotations

from typing import Sequence

from repro.skyline.compare import costs_equal
from repro.skyline.entries import Entry, join_entry
from repro.skyline.set_ops import SkylineSet, skyline_of


def merge(a: Sequence[Entry], b: Sequence[Entry]) -> SkylineSet:
    """Skyline of the union of two canonical skyline sets.

    Linear two-pointer merge on cost followed by the Pareto sweep.  On
    ties of ``(w, c)`` the entry of ``a`` is kept.
    """
    if not a:
        return list(b)
    if not b:
        return list(a)
    merged: list[Entry] = []
    i = j = 0
    while i < len(a) and j < len(b):
        if (a[i][1], a[i][0]) <= (b[j][1], b[j][0]):
            merged.append(a[i])
            i += 1
        else:
            merged.append(b[j])
            j += 1
    merged.extend(a[i:])
    merged.extend(b[j:])

    result: SkylineSet = []
    best_weight: float | None = None
    last_cost: float | None = None
    for entry in merged:
        w, c = entry[0], entry[1]
        if best_weight is not None and w >= best_weight:
            continue
        if last_cost is not None and costs_equal(c, last_cost):
            result[-1] = entry
        else:
            result.append(entry)
        best_weight = w
        last_cost = c
    return result


def join(
    a: Sequence[Entry],
    b: Sequence[Entry],
    mid: int,
    budget: float | None = None,
) -> SkylineSet:
    """Skyline of all pairwise concatenations of two skyline sets at ``mid``.

    This is the paper's ``{p1 ⊕ p2 : p1 ∈ P_su, p2 ∈ P_uh}`` followed by a
    skyline filter.  ``budget`` optionally drops concatenations whose cost
    exceeds it (used when an overall budget is known during queries, never
    during index construction).

    Complexity is ``O(|a| |b| log)`` — the Cartesian product the paper's
    CSP-2Hop pays at query time and QHL moves to index time.
    """
    if not a or not b:
        return []
    products: list[Entry] = []
    for left in a:
        lw, lc = left[0], left[1]
        if budget is not None and lc + b[0][1] > budget:
            # b is cost-sorted: every concatenation with this left
            # overshoots the budget.
            continue
        for right in b:
            if budget is not None and lc + right[1] > budget:
                break
            products.append(join_entry(left, right, mid))
    return skyline_of(products)


def cartesian_entries(
    a: Sequence[Entry], b: Sequence[Entry], mid: int
) -> list[Entry]:
    """All pairwise concatenations, *unfiltered* and sorted by ``(c, w)``.

    Algorithm 6 of the paper needs the raw concatenation set ``P''`` in
    cost order (it checks membership of skyline paths in it, and dominated
    members still count as members).
    """
    products = [
        join_entry(left, right, mid) for left in a for right in b
    ]
    products.sort(key=lambda e: (e[1], e[0]))
    return products
